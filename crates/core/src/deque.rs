//! The leveled deque: one slot pair per computation-tree level.
//!
//! §3.1: "The scheduler has a deque, with multiple levels. Each level
//! represents a particular level of the computation tree." The restart
//! invariant (§3.3) allows at most *two* blocks per level — one DFE leftover
//! (a right-sibling block pushed during depth-first descent) and one restart
//! leftover (an underfull block parked by a restart action) — so a level is
//! represented as exactly those two optional slots.
//!
//! "Bottom" of the deque is the deepest level (where the worker pushes and
//! pops), "top" is the shallowest (where thieves steal), matching standard
//! work-stealing orientation.
//!
//! One implementation, two faces:
//!
//! * [`LeveledDeque`] — the plain single-threaded structure the sequential
//!   engine owns;
//! * [`SharedLeveledDeque`] — the same deque behind a mutex, one per
//!   worker of [`ParRestartIdeal`](crate::par::ParRestartIdeal). Thieves
//!   `try_lock` it and take the shallowest level whole — both its blocks,
//!   the §3.4 steal-half unit. See DESIGN.md §6.2 for why a lock suffices.

use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use crate::block::{TaskBlock, TaskStore};

/// One level of the deque: up to one DFE-leftover block and one
/// restart-leftover block.
#[derive(Debug, Default)]
pub struct LevelSlot<S> {
    /// Right-sibling block left behind by a DFE action. May hold up to
    /// `arity-1` merged sibling buckets; may be larger than `t_restart`.
    pub dfe: Option<S>,
    /// Underfull block parked by a restart action; always smaller than
    /// `t_restart` while parked.
    pub restart: Option<S>,
}

impl<S: TaskStore> LevelSlot<S> {
    fn is_empty(&self) -> bool {
        self.dfe.is_none() && self.restart.is_none()
    }

    fn blocks(&self) -> usize {
        usize::from(self.dfe.is_some()) + usize::from(self.restart.is_some())
    }

    fn tasks(&self) -> usize {
        self.dfe.as_ref().map_or(0, TaskStore::len) + self.restart.as_ref().map_or(0, TaskStore::len)
    }
}

/// Result of a restart scan ([`LeveledDeque::find_restart`]).
#[derive(Debug)]
pub enum RestartFind<S> {
    /// A merged block of at least `t_restart` tasks was assembled at this
    /// level; execute it with DFE.
    Dfe(TaskBlock<S>),
    /// The scan reached the top without assembling `t_restart` tasks; this
    /// is the shallowest non-empty (merged) block — execute it with BFE to
    /// generate more work.
    Top(TaskBlock<S>),
    /// The deque is completely empty.
    Empty,
}

/// A deque of task blocks indexed by computation-tree level.
#[derive(Debug, Default)]
pub struct LeveledDeque<S> {
    levels: Vec<LevelSlot<S>>,
    blocks: usize,
    tasks: usize,
}

impl<S: TaskStore> LeveledDeque<S> {
    /// An empty deque.
    pub fn new() -> Self {
        LeveledDeque { levels: Vec::new(), blocks: 0, tasks: 0 }
    }

    /// Number of blocks currently parked.
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Number of tasks currently parked.
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// True when no block is parked.
    pub fn is_empty(&self) -> bool {
        self.blocks == 0
    }

    fn slot_mut(&mut self, level: usize) -> &mut LevelSlot<S> {
        if level >= self.levels.len() {
            self.levels.resize_with(level + 1, LevelSlot::default);
        }
        &mut self.levels[level]
    }

    /// Park a DFE-leftover block at its level. If the slot is occupied the
    /// blocks are merged (same level ⇒ still vectorizable together);
    /// returns `true` when a merge happened.
    pub fn push_dfe(&mut self, block: TaskBlock<S>) -> bool {
        if block.is_empty() {
            return false;
        }
        self.blocks += 1;
        self.tasks += block.len();
        let slot = self.slot_mut(block.level);
        match &mut slot.dfe {
            Some(existing) => {
                let mut incoming = block.store;
                existing.append(&mut incoming);
                self.blocks -= 1; // merged: net block count unchanged
                true
            }
            none => {
                *none = Some(block.store);
                false
            }
        }
    }

    /// Park a restart-leftover block at its level, merging with any block
    /// already parked there (the merge of §3.1's Restart action); returns
    /// `true` when a merge happened.
    pub fn push_restart(&mut self, block: TaskBlock<S>) -> bool {
        if block.is_empty() {
            return false;
        }
        self.blocks += 1;
        self.tasks += block.len();
        let slot = self.slot_mut(block.level);
        match &mut slot.restart {
            Some(existing) => {
                let mut incoming = block.store;
                existing.append(&mut incoming);
                self.blocks -= 1;
                true
            }
            none => {
                *none = Some(block.store);
                false
            }
        }
    }

    /// Pop the deepest parked DFE block (the "bottom" pop used by the basic
    /// and re-expansion schedulers, §3.2).
    pub fn pop_deepest_dfe(&mut self) -> Option<TaskBlock<S>> {
        for level in (0..self.levels.len()).rev() {
            if let Some(store) = self.levels[level].dfe.take() {
                self.blocks -= 1;
                self.tasks -= store.len();
                return Some(TaskBlock::new(level, store));
            }
        }
        None
    }

    /// Remove and return the merged contents of `level` (both slots), if any.
    pub fn take_level(&mut self, level: usize) -> Option<TaskBlock<S>> {
        let slot = self.levels.get_mut(level)?;
        let mut merged: Option<S> = None;
        for mut s in [slot.dfe.take(), slot.restart.take()].into_iter().flatten() {
            self.blocks -= 1;
            self.tasks -= s.len();
            match &mut merged {
                Some(m) => m.append(&mut s),
                none => *none = Some(s),
            }
        }
        merged.map(|s| TaskBlock::new(level, s))
    }

    /// The restart scan of §3.3: walk from the bottom (deepest level) toward
    /// the top, merging the blocks at each level. The first level whose
    /// merged block reaches `t_restart` tasks is removed and returned for
    /// DFE. If no level qualifies, the merged blocks are left parked (in the
    /// restart slot) and the shallowest non-empty block is removed and
    /// returned for BFE. Each merge performed is reported through `merges`.
    pub fn find_restart(&mut self, t_restart: usize, merges: &mut u64) -> RestartFind<S> {
        match self.merge_scan(t_restart, merges) {
            Ok(block) => RestartFind::Dfe(block),
            Err(Some(level)) => {
                let store = self.levels[level].restart.take().expect("tracked nonempty");
                self.blocks -= 1;
                self.tasks -= store.len();
                RestartFind::Top(TaskBlock::new(level, store))
            }
            Err(None) => RestartFind::Empty,
        }
    }

    /// The bottom-up merge-scan behind both [`find_restart`](Self::find_restart)
    /// and [`SharedLeveledDeque::find_restart_full`]: every scanned level's
    /// two slots are merged into its restart slot, and the first level
    /// reaching `t_restart` tasks is removed and returned. On failure
    /// everything stays parked and the shallowest occupied level (if any)
    /// comes back as the error.
    fn merge_scan(&mut self, t_restart: usize, merges: &mut u64) -> Result<TaskBlock<S>, Option<usize>> {
        let mut shallowest: Option<usize> = None;
        for level in (0..self.levels.len()).rev() {
            let slot = &mut self.levels[level];
            if slot.is_empty() {
                continue;
            }
            // Merge the level's two slots into the restart slot.
            if let Some(mut d) = slot.dfe.take() {
                match &mut slot.restart {
                    Some(r) => {
                        r.append(&mut d);
                        self.blocks -= 1;
                        *merges += 1;
                    }
                    none => *none = Some(d),
                }
            }
            let len = slot.restart.as_ref().map_or(0, TaskStore::len);
            if len >= t_restart {
                let store = slot.restart.take().expect("nonempty level");
                self.blocks -= 1;
                self.tasks -= store.len();
                return Ok(TaskBlock::new(level, store));
            }
            shallowest = Some(level);
        }
        Err(shallowest)
    }

    /// Remove the shallowest occupied level whole — both its slots, the
    /// §3.4 steal unit — and return it with its level index. `None` when
    /// nothing is parked.
    fn take_shallowest(&mut self) -> Option<(usize, LevelSlot<S>)> {
        let level = self.levels.iter().position(|s| !s.is_empty())?;
        let slot = std::mem::take(&mut self.levels[level]);
        self.blocks -= slot.blocks();
        self.tasks -= slot.tasks();
        Some((level, slot))
    }

    /// Split the shallowest half of the occupied levels (rounded up) off
    /// into a deque of their own, each level moving whole — both its slots,
    /// the §3.4 steal unit. Shallow levels root the largest pending
    /// subtrees, so this is the Hendler–Shavit steal-half of a leveled
    /// deque: the thief's share comes off the top, the owner keeps the
    /// bottom it is working on. `None` when nothing is parked.
    pub fn split_shallowest_half(&mut self) -> Option<Self> {
        let occupied = self.levels.iter().filter(|s| !s.is_empty()).count();
        if occupied == 0 {
            return None;
        }
        let mut split = LeveledDeque::new();
        let mut wanted = occupied.div_ceil(2);
        for (level, slot) in self.levels.iter_mut().enumerate() {
            if wanted == 0 {
                break;
            }
            if slot.is_empty() {
                continue;
            }
            wanted -= 1;
            split.blocks += slot.blocks();
            split.tasks += slot.tasks();
            *split.slot_mut(level) = std::mem::take(slot);
        }
        self.blocks -= split.blocks;
        self.tasks -= split.tasks;
        Some(split)
    }

    /// Move every block of `other` in at its own level through
    /// [`push_dfe`](Self::push_dfe), so no level ever holds more than two
    /// blocks. Returns the merges that took.
    pub(crate) fn absorb(&mut self, other: LeveledDeque<S>) -> u64 {
        let mut merges = 0;
        for (level, slot) in other.levels.into_iter().enumerate() {
            for store in [slot.dfe, slot.restart].into_iter().flatten() {
                merges += u64::from(self.push_dfe(TaskBlock::new(level, store)));
            }
        }
        merges
    }

    /// Iterate over `(level, slot)` pairs for inspection (tests, invariant
    /// checks, space accounting).
    pub fn iter_levels(&self) -> impl Iterator<Item = (usize, &LevelSlot<S>)> {
        self.levels.iter().enumerate().filter(|(_, s)| !s.is_empty())
    }

    /// Verify the §3.3 invariants at a quiescent point: at most two blocks
    /// per level, and every *restart* block smaller than `t_restart`.
    /// Panics with a description on violation. Used by tests.
    pub fn assert_restart_invariants(&self, t_restart: usize) {
        for (level, slot) in self.iter_levels() {
            assert!(slot.blocks() <= 2, "level {level}: more than two blocks");
            if let Some(r) = &slot.restart {
                assert!(
                    r.len() < t_restart,
                    "level {level}: parked restart block has {} >= t_restart {}",
                    r.len(),
                    t_restart
                );
            }
        }
        let blocks: usize = self.iter_levels().map(|(_, s)| s.blocks()).sum();
        let tasks: usize = self.iter_levels().map(|(_, s)| s.tasks()).sum();
        assert_eq!(blocks, self.blocks, "block counter out of sync");
        assert_eq!(tasks, self.tasks, "task counter out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(level: usize, n: usize) -> TaskBlock<Vec<u32>> {
        TaskBlock::new(level, (0..n as u32).collect())
    }

    #[test]
    fn push_pop_deepest_order() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_dfe(blk(1, 3));
        d.push_dfe(blk(4, 2));
        d.push_dfe(blk(2, 5));
        assert_eq!(d.block_count(), 3);
        assert_eq!(d.task_count(), 10);
        assert_eq!(d.pop_deepest_dfe().unwrap().level, 4);
        assert_eq!(d.pop_deepest_dfe().unwrap().level, 2);
        assert_eq!(d.pop_deepest_dfe().unwrap().level, 1);
        assert!(d.pop_deepest_dfe().is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn push_dfe_merges_same_level() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        assert!(!d.push_dfe(blk(3, 2)));
        assert!(d.push_dfe(blk(3, 4)));
        assert_eq!(d.block_count(), 1);
        assert_eq!(d.task_count(), 6);
        assert_eq!(d.pop_deepest_dfe().unwrap().len(), 6);
    }

    #[test]
    fn restart_scan_finds_deepest_full_level() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_restart(blk(2, 3)); // small
        d.push_dfe(blk(5, 4));
        d.push_restart(blk(5, 4)); // merged: 8 >= t_restart
        d.push_restart(blk(7, 2)); // deeper but small
        let mut merges = 0;
        match d.find_restart(8, &mut merges) {
            RestartFind::Dfe(b) => {
                assert_eq!(b.level, 5);
                assert_eq!(b.len(), 8);
            }
            other => panic!("expected Dfe, got {other:?}"),
        }
        assert_eq!(merges, 1);
        // Levels 2 and 7 remain parked.
        assert_eq!(d.block_count(), 2);
        d.assert_restart_invariants(8);
    }

    #[test]
    fn restart_scan_falls_back_to_top_block() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_restart(blk(6, 2));
        d.push_restart(blk(3, 1));
        let mut merges = 0;
        match d.find_restart(100, &mut merges) {
            RestartFind::Top(b) => {
                assert_eq!(b.level, 3, "top = shallowest");
                assert_eq!(b.len(), 1);
            }
            other => panic!("expected Top, got {other:?}"),
        }
        // Level 6 block still parked.
        assert_eq!(d.block_count(), 1);
    }

    #[test]
    fn restart_scan_empty() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        let mut merges = 0;
        assert!(matches!(d.find_restart(4, &mut merges), RestartFind::Empty));
    }

    #[test]
    fn take_level_merges_both_slots() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_dfe(blk(2, 3));
        d.push_restart(blk(2, 4));
        let b = d.take_level(2).unwrap();
        assert_eq!(b.len(), 7);
        assert!(d.is_empty());
        assert!(d.take_level(2).is_none());
    }

    #[test]
    fn absorb_keeps_two_blocks_per_level() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_dfe(blk(2, 3));
        d.push_restart(blk(2, 1));
        let mut other: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        other.push_dfe(blk(2, 4));
        other.push_restart(blk(2, 2));
        other.push_restart(blk(5, 6));
        assert_eq!(d.absorb(other), 2, "both level-2 blocks merge into the dfe slot");
        assert_eq!((d.block_count(), d.task_count()), (3, 16));
        d.assert_restart_invariants(8);
    }

    #[test]
    fn empty_blocks_are_ignored() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_dfe(blk(0, 0));
        d.push_restart(blk(1, 0));
        assert!(d.is_empty());
    }

    #[test]
    fn find_restart_prefers_deepest_qualifying_level() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        d.push_dfe(blk(2, 20)); // shallow, full
        d.push_dfe(blk(6, 9)); // deep, also full
        let mut merges = 0;
        match d.find_restart(8, &mut merges) {
            RestartFind::Dfe(b) => assert_eq!(b.level, 6, "bottom-up scan takes the deepest"),
            other => panic!("expected Dfe, got {other:?}"),
        }
    }

    #[test]
    fn counters_stay_consistent_through_mixed_traffic() {
        let mut d: LeveledDeque<Vec<u32>> = LeveledDeque::new();
        let mut merges = 0;
        for i in 0..50usize {
            d.push_dfe(blk(i % 7, 1 + i % 5));
            if i % 3 == 0 {
                d.push_restart(blk(i % 7, 1 + i % 3));
            }
            if i % 11 == 0 {
                let _ = d.find_restart(6, &mut merges);
            }
            if i % 13 == 0 {
                let _ = d.take_level(i % 7);
            }
        }
        let blocks: usize = d
            .iter_levels()
            .map(|(_, s)| usize::from(s.dfe.is_some()) + usize::from(s.restart.is_some()))
            .sum();
        let tasks: usize = d
            .iter_levels()
            .map(|(_, s)| s.dfe.as_ref().map_or(0, Vec::len) + s.restart.as_ref().map_or(0, Vec::len))
            .sum();
        assert_eq!(blocks, d.block_count());
        assert_eq!(tasks, d.task_count());
    }
}

// ---------------------------------------------------------------------------
// Shared leveled deque: the sequential deque behind a lock
// ---------------------------------------------------------------------------

/// Loot returned by [`SharedLeveledDeque::steal_half`]: the whole top level
/// of the victim's deque.
///
/// A level holds at most two blocks (the §3.3 invariant), so the thief
/// executes the ⌈half⌉ it prefers — `primary` — and re-parks `leftover`
/// (the remaining ⌊half⌋, if the level held two blocks) on *its own* deque. This is the
/// block-granularity steal-half protocol: one steal relieves the victim of
/// a whole level, and the thief splits the loot instead of going back for
/// seconds.
#[derive(Debug)]
pub struct StolenLevel<S> {
    /// The block the thief should act on (full ⇒ DFE, undersized ⇒ BFE
    /// burst).
    pub primary: TaskBlock<S>,
    /// The level's other block, if it held two; the thief parks it on its
    /// own deque.
    pub leftover: Option<TaskBlock<S>>,
}

/// A [`LeveledDeque`] any thread may use: every method takes the deque's
/// mutex and delegates to the sequential structure.
///
/// The owner takes the lock once per block it parks or assembles, and
/// each such block carries at least `t_restart` tasks of work (or ends a
/// chain that did); a thief takes it once per probe with `try_lock` and
/// gives up when the owner holds it — a failed steal is always allowed in
/// §3.4. So the lock is uncontended on the owner's path and never waited
/// on by a thief.
#[derive(Default)]
pub struct SharedLeveledDeque<S> {
    inner: Mutex<LeveledDeque<S>>,
}

impl<S: TaskStore> SharedLeveledDeque<S> {
    /// An empty deque.
    pub fn new() -> Self {
        SharedLeveledDeque { inner: Mutex::new(LeveledDeque::new()) }
    }

    /// The deque, recovered if a panicking holder poisoned the lock: every
    /// operation moves each block in one step, so an interrupted one can at
    /// worst leave the block/task statistics stale, never a block lost or
    /// reachable twice.
    fn lock(&self) -> MutexGuard<'_, LeveledDeque<S>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(blocks, tasks)` parked.
    pub fn counts(&self) -> (usize, usize) {
        let d = self.lock();
        (d.block_count(), d.task_count())
    }

    /// Number of parked blocks.
    pub fn block_count(&self) -> usize {
        self.lock().block_count()
    }

    /// Number of parked tasks.
    pub fn task_count(&self) -> usize {
        self.lock().task_count()
    }

    /// True when no block is parked.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Park a DFE-leftover block at its level, merging with any DFE block
    /// already parked there; returns `true` when a merge happened.
    pub fn push_dfe(&self, block: TaskBlock<S>) -> bool {
        self.lock().push_dfe(block)
    }

    /// Park a restart-leftover block at its level, merging with any restart
    /// block already parked there; returns `true` when a merge happened.
    pub fn push_restart(&self, block: TaskBlock<S>) -> bool {
        self.lock().push_restart(block)
    }

    /// Remove and return the merged contents of `level` (both slots), if
    /// any (the BFE burst absorbing its own leftovers).
    pub fn take_level(&self, level: usize) -> Option<TaskBlock<S>> {
        self.lock().take_level(level)
    }

    /// The §3.4 merge-scan: walk from the deepest level toward the top,
    /// merging each level's two slots; the first level reaching `t_restart`
    /// tasks is removed and returned for DFE. On failure everything stays
    /// parked and `None` is returned — the worker then *steals*. Each merge
    /// performed is reported through `merges`.
    pub fn find_restart_full(&self, t_restart: usize, merges: &mut u64) -> Option<TaskBlock<S>> {
        self.lock().merge_scan(t_restart, merges).ok()
    }

    /// Steal the shallowest occupied level — both its blocks. The preferred
    /// block (the DFE block if it has at least `prefer_at_least` tasks or
    /// at least as many as the restart block, else the restart block) comes
    /// back as [`StolenLevel::primary`]; the other block, if present, as
    /// [`StolenLevel::leftover`] for the thief to re-park on its own deque.
    /// `None` when the deque is empty or its lock is held.
    pub fn steal_half(&self, prefer_at_least: usize) -> Option<StolenLevel<S>> {
        let (level, mut slot) = match self.inner.try_lock() {
            Ok(mut d) => d.take_shallowest()?,
            Err(TryLockError::Poisoned(p)) => p.into_inner().take_shallowest()?,
            Err(TryLockError::WouldBlock) => return None,
        };
        let dfe_len = slot.dfe.as_ref().map_or(0, TaskStore::len);
        let restart_len = slot.restart.as_ref().map_or(0, TaskStore::len);
        let (primary, leftover) = if dfe_len >= prefer_at_least || dfe_len >= restart_len {
            (slot.dfe.take().or_else(|| slot.restart.take()), slot.restart.take())
        } else {
            (slot.restart.take().or_else(|| slot.dfe.take()), slot.dfe.take())
        };
        let primary = primary.expect("an occupied level holds at least one block");
        Some(StolenLevel {
            primary: TaskBlock::new(level, primary),
            leftover: leftover.map(|s| TaskBlock::new(level, s)),
        })
    }
}

#[cfg(test)]
mod shared_tests {
    use std::sync::atomic::Ordering;

    use super::*;

    fn blk(level: usize, n: usize) -> TaskBlock<Vec<u32>> {
        TaskBlock::new(level, (0..n as u32).collect())
    }

    #[test]
    fn find_restart_full_takes_deepest_and_leaves_small_work_parked() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_restart(blk(1, 2));
        d.push_dfe(blk(3, 6));
        d.push_restart(blk(3, 4)); // merged at scan: 10 >= 8
        d.push_restart(blk(5, 3));
        assert_eq!(d.block_count(), 4);
        assert_eq!(d.task_count(), 15);
        let mut merges = 0;
        let got = d.find_restart_full(8, &mut merges).expect("level 3 qualifies");
        assert_eq!(got.level, 3);
        assert_eq!(got.len(), 10);
        assert_eq!(merges, 1);
        assert_eq!(d.task_count(), 5);
        assert_eq!(d.block_count(), 2);
    }

    #[test]
    fn failed_scan_keeps_everything_parked() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_restart(blk(2, 3));
        d.push_dfe(blk(4, 2));
        let mut merges = 0;
        assert!(d.find_restart_full(100, &mut merges).is_none());
        assert_eq!(d.task_count(), 5);
        assert_eq!(d.block_count(), 2);
    }

    #[test]
    fn push_merges_same_slot_kind() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        assert!(!d.push_dfe(blk(3, 2)));
        assert!(d.push_dfe(blk(3, 4)));
        assert!(!d.push_restart(blk(3, 1)));
        assert!(d.push_restart(blk(3, 1)));
        assert_eq!(d.block_count(), 2);
        assert_eq!(d.task_count(), 8);
    }

    #[test]
    fn steal_half_takes_shallowest_level_whole() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(4, 10));
        d.push_dfe(blk(2, 9));
        d.push_restart(blk(2, 1));
        let loot = d.steal_half(8).expect("level 2 occupied");
        assert_eq!(loot.primary.level, 2);
        assert_eq!(loot.primary.len(), 9, "the >= t_restart DFE block is preferred");
        assert_eq!(loot.leftover.as_ref().map(TaskBlock::len), Some(1));
        // Level 4 remains for the next thief.
        let loot = d.steal_half(8).expect("level 4 occupied");
        assert_eq!(loot.primary.level, 4);
        assert!(loot.leftover.is_none());
        assert!(d.steal_half(8).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn steal_half_prefers_restart_when_dfe_is_small() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(1, 3));
        d.push_restart(blk(1, 7));
        let loot = d.steal_half(8).unwrap();
        assert_eq!(loot.primary.len(), 7);
        assert_eq!(loot.leftover.as_ref().map(TaskBlock::len), Some(3));
    }

    #[test]
    fn take_level_merges_both_slots() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(2, 3));
        d.push_restart(blk(2, 4));
        let b = d.take_level(2).unwrap();
        assert_eq!(b.len(), 7);
        assert!(d.take_level(2).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn empty_blocks_are_ignored() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(0, 0));
        d.push_restart(blk(1, 0));
        assert!(d.is_empty());
        assert!(d.steal_half(4).is_none());
    }

    #[test]
    fn deep_levels_are_scanned_and_stolen() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(0, 1));
        d.push_dfe(blk(64 * 3 + 7, 2));
        let mut merges = 0;
        let got = d.find_restart_full(2, &mut merges).unwrap();
        assert_eq!(got.level, 64 * 3 + 7, "deepest qualifying level wins");
        let loot = d.steal_half(2).unwrap();
        assert_eq!(loot.primary.level, 0);
        assert!(d.is_empty());
    }

    #[test]
    fn successful_scan_burst_drains_deepest_first() {
        // Several qualifying levels at once: the first scan's walk caches
        // the rest, and the follow-up scans consume them deepest-first
        // without re-walking (same answers either way — this pins order).
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        for lvl in [2usize, 5, 9, 13] {
            d.push_dfe(blk(lvl, 6));
        }
        d.push_dfe(blk(7, 1)); // underfull: must stay parked throughout
        let mut merges = 0;
        for expect in [13usize, 9, 5, 2] {
            let got = d.find_restart_full(4, &mut merges).expect("qualifying level");
            assert_eq!(got.level, expect);
            assert_eq!(got.len(), 6);
        }
        assert!(d.find_restart_full(4, &mut merges).is_none());
        assert_eq!(d.task_count(), 1, "the underfull block is still parked");
    }

    #[test]
    fn cached_candidates_survive_interleaved_traffic() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        for lvl in [3usize, 6, 10] {
            d.push_dfe(blk(lvl, 5));
        }
        let mut merges = 0;
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 10);
        // A thief empties a cached candidate between scans: the stale
        // entry must be dropped, not returned.
        let loot = d.steal_half(4).expect("level 3 is shallowest");
        assert_eq!(loot.primary.level, 3);
        // A push deepens the deque between scans: the fresh level wins
        // once the (shallower) cached candidates are exhausted or beaten.
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 6);
        d.push_dfe(blk(12, 8));
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 12);
        assert!(d.find_restart_full(4, &mut merges).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn drop_with_parked_blocks_frees_everything() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        for lvl in 0..100 {
            d.push_dfe(blk(lvl, 5));
            d.push_restart(blk(lvl, 2));
        }
        drop(d); // boxes + segments reclaimed; Miri/leak checkers agree
    }

    #[test]
    fn late_deep_qualifier_takes_priority_over_cached_candidates() {
        // A level that crosses the threshold *after* the walk populated the
        // candidate cache must still be returned deepest-first — the cache
        // may never shadow it behind shallower leftovers.
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        for lvl in [2usize, 5] {
            d.push_dfe(blk(lvl, 6));
        }
        let mut merges = 0;
        // First scan walks, consumes 5, leaves 2 cached.
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 5);
        // Two pushes that only qualify once merged: 2 + 4 crosses t=4.
        d.push_dfe(blk(9, 2));
        d.push_restart(blk(9, 4));
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 9);
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().level, 2);
        assert!(d.find_restart_full(4, &mut merges).is_none());
    }

    #[test]
    fn concurrent_thieves_and_owner_conserve_tasks() {
        use std::sync::atomic::AtomicUsize;
        const LEVELS: usize = 40;
        const ROUNDS: usize = 200;
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        let stolen_tasks = AtomicUsize::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut owner_tasks = 0usize;
        let mut pushed = 0usize;
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (d, stolen_tasks, done) = (&d, &stolen_tasks, &done);
                s.spawn(move || loop {
                    match d.steal_half(4) {
                        Some(loot) => {
                            let n = loot.primary.len() + loot.leftover.as_ref().map_or(0, TaskBlock::len);
                            stolen_tasks.fetch_add(n, Ordering::Relaxed);
                        }
                        None => {
                            // Re-steal after observing `done`: a miss can be
                            // transient (stale `deepest`, owner mid-merge), so
                            // the confirmation steal may itself return loot —
                            // count it, don't drop it.
                            if done.load(Ordering::Acquire) {
                                match d.steal_half(4) {
                                    Some(loot) => {
                                        let n = loot.primary.len()
                                            + loot.leftover.as_ref().map_or(0, TaskBlock::len);
                                        stolen_tasks.fetch_add(n, Ordering::Relaxed);
                                    }
                                    None => break,
                                }
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Owner: pushes, scans, and occasionally takes levels.
            let mut merges = 0u64;
            for r in 0..ROUNDS {
                for lvl in 0..LEVELS {
                    let n = 1 + (r + lvl) % 7;
                    pushed += n;
                    if (r + lvl) % 2 == 0 {
                        d.push_dfe(blk(lvl, n));
                    } else {
                        d.push_restart(blk(lvl, n));
                    }
                }
                if let Some(b) = d.find_restart_full(16, &mut merges) {
                    owner_tasks += b.len();
                }
                if let Some(b) = d.take_level(r % LEVELS) {
                    owner_tasks += b.len();
                }
            }
            done.store(true, Ordering::Release);
        });
        // Drain whatever survived the storm.
        while let Some(loot) = d.steal_half(1) {
            owner_tasks += loot.primary.len() + loot.leftover.as_ref().map_or(0, TaskBlock::len);
        }
        assert_eq!(owner_tasks + stolen_tasks.load(Ordering::Relaxed), pushed, "no task lost or duplicated");
        assert_eq!(d.task_count(), 0);
        assert_eq!(d.block_count(), 0);
    }
}
