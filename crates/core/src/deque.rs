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
//! Two implementations live here:
//!
//! * [`LeveledDeque`] — the plain single-threaded structure used by the
//!   sequential engine;
//! * [`SharedLeveledDeque`] — the lock-free concurrent variant backing
//!   [`ParRestartIdeal`](crate::par::ParRestartIdeal) since PR 2: each
//!   level is an `AtomicPtr` to its heap-allocated slot pair, the owning
//!   worker mutates levels by *detach → edit → republish*, and thieves
//!   take an entire level — both its blocks, i.e. the §3.4 steal-half
//!   unit — with a single atomic exchange. See DESIGN.md §6 for the
//!   memory-ordering argument.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

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
                return RestartFind::Dfe(TaskBlock::new(level, store));
            }
            shallowest = Some(level);
        }
        match shallowest {
            Some(level) => {
                let store = self.levels[level].restart.take().expect("tracked nonempty");
                self.blocks -= 1;
                self.tasks -= store.len();
                RestartFind::Top(TaskBlock::new(level, store))
            }
            None => RestartFind::Empty,
        }
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
// Lock-free shared leveled deque (PR 2)
// ---------------------------------------------------------------------------

/// Loot returned by [`SharedLeveledDeque::steal_half`]: the whole top level
/// of the victim's deque, taken with one atomic exchange.
///
/// A level holds at most two blocks (the §3.3 invariant), so the thief
/// executes the ⌈half⌉ it prefers — `primary` — and re-parks `leftover`
/// (the remaining ⌊half⌋, if the level held two blocks) on *its own* deque. This is the
/// block-granularity steal-half protocol: one atomic operation relieves the
/// victim of a whole level, and the thief splits the loot instead of going
/// back for seconds.
#[derive(Debug)]
pub struct StolenLevel<S> {
    /// The block the thief should act on (full ⇒ DFE, undersized ⇒ BFE
    /// burst).
    pub primary: TaskBlock<S>,
    /// The level's other block, if it held two; the thief parks it on its
    /// own deque.
    pub leftover: Option<TaskBlock<S>>,
}

/// One level's slot pair, heap-allocated so a level can change hands with a
/// single pointer exchange.
#[derive(Debug)]
struct LevelCell<S> {
    dfe: Option<S>,
    restart: Option<S>,
}

impl<S: TaskStore> LevelCell<S> {
    fn blocks(&self) -> usize {
        usize::from(self.dfe.is_some()) + usize::from(self.restart.is_some())
    }

    fn tasks(&self) -> usize {
        self.dfe.as_ref().map_or(0, TaskStore::len) + self.restart.as_ref().map_or(0, TaskStore::len)
    }
}

/// Levels per lazily-allocated segment (64 × 8-byte slots = one page-ish).
const SEG_LEN: usize = 64;
/// Segments in the spine: supports computation trees up to
/// `SEG_LEN × SPINE_LEN` = 4096 levels deep (the deepest paper input, UTS,
/// reaches 228).
const SPINE_LEN: usize = 64;

struct Segment<S> {
    slots: [AtomicPtr<LevelCell<S>>; SEG_LEN],
}

impl<S> Segment<S> {
    fn new() -> Box<Self> {
        Box::new(Segment { slots: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())) })
    }
}

/// A leveled deque whose levels are stealable without locks.
///
/// Concurrency contract — the same split Chase–Lev uses:
///
/// * **owner operations** ([`push_dfe`](Self::push_dfe),
///   [`push_restart`](Self::push_restart),
///   [`find_restart_full`](Self::find_restart_full),
///   [`take_level`](Self::take_level)) may be called by *one* thread at a
///   time — the worker that owns this deque (or the driver before the
///   workers start);
/// * **thief operations** ([`steal_half`](Self::steal_half)) and the
///   counter reads may be called by any thread concurrently with anything.
///
/// Every occupied level is an `AtomicPtr` to its boxed level cell.
/// Whoever `swap`s a non-null pointer out *owns* that cell outright — there
/// is no window in which two threads can observe the same cell, so there is
/// no ABA problem and no deferred reclamation: ownership rides the
/// exchange. The owner edits a level by detaching it (swap to null),
/// mutating privately, and republishing (swap back); thieves that scan past
/// a detached level simply see it as momentarily empty, which is benign —
/// a failed steal is always allowed to fail.
pub struct SharedLeveledDeque<S> {
    spine: Box<[AtomicPtr<Segment<S>>]>,
    /// Deepest level the owner has ever occupied (monotone hint bounding
    /// scans; levels above it are guaranteed null).
    deepest: AtomicUsize,
    /// Net blocks/tasks the owner has parked minus what it has removed,
    /// packed as `blocks << OCC_BLOCK_SHIFT | tasks`. Single writer (the
    /// owner), so it is maintained with plain load + store — no RMW on the
    /// owner's hot path. Statistics only.
    owner_net: AtomicU64,
    /// Blocks/tasks removed by thieves (same packing), `fetch_add`ed on
    /// each successful steal — an RMW, but steals are rare by design.
    /// Current occupancy = `owner_net - thief_taken`, per field: exact at
    /// quiescent points, transiently stale mid-operation.
    thief_taken: AtomicU64,
    /// The owner's private `(dfe_len, restart_len)` upper bound per level.
    ///
    /// Published cells are *immutable to everyone but the owner* (thieves
    /// only take whole cells), so the owner always knows an upper bound on
    /// every level's contents without touching shared memory: exact for
    /// levels no thief has hit, `(0, 0)`-discoverable (a `detach` returning
    /// `None`) for levels that were stolen. The merge-scan consults this
    /// mirror to *skip* levels that cannot qualify — a plain array read
    /// instead of a detach/republish exchange pair — which is what keeps
    /// the owner's scan as cheap as the single-threaded [`LeveledDeque`]'s.
    /// Owner-only by the struct's concurrency contract.
    mirror: std::cell::UnsafeCell<Vec<(usize, usize)>>,
    /// Owner's *shrinking* bound on the deepest occupied level (the atomic
    /// `deepest` only ever grows — it is the thieves' conservative bound).
    /// Pushes raise it exactly; each merge-scan lowers it to the deepest
    /// level it actually saw occupied, so steady-state scans walk the
    /// occupied band instead of the deque's historical depth. May
    /// overestimate (extra empty-entry checks), never underestimates.
    /// Owner-only by the struct's concurrency contract.
    mirror_hi: std::cell::UnsafeCell<usize>,
    /// Owner-side cache of emptied [`LevelCell`] boxes, so the steady-state
    /// park/assemble cycle recycles one allocation instead of hitting the
    /// allocator per scheduling action (the single-threaded deque's `Vec`
    /// slots never allocate either). Thief-consumed cells are simply
    /// dropped on the thief's side — steals are rare by design.
    /// Owner-only by the struct's concurrency contract.
    spare_cells: std::cell::UnsafeCell<Vec<Box<LevelCell<S>>>>,
    /// Owner-side count of mirror entries whose `dfe + restart` total meets
    /// [`qualify_t`](Self::find_restart_full)'s threshold. While a cell is
    /// present its mirror entry is exact, so a *returnable* level always
    /// contributes here; stale thief-emptied entries can only overcount.
    /// Zero therefore proves a failing scan without walking the mirror.
    /// Owner-only by the struct's concurrency contract.
    maybe_full: std::cell::UnsafeCell<usize>,
    /// The qualification threshold `maybe_full` was counted against —
    /// `usize::MAX` until the first merge-scan fixes it (the counter is
    /// rebaselined whenever the caller's threshold changes, which in
    /// practice happens once per run). Owner-only.
    qualify_t: std::cell::UnsafeCell<usize>,
    /// Candidate levels for the merge-scan, stored in *increasing* level
    /// order so `pop` yields the deepest first. One walk collects every
    /// qualifying level; a burst of successful scans then consumes them one
    /// `pop`-plus-revalidation at a time instead of re-walking the mirror
    /// per success, and [`note_mirror_change`](Self::note_mirror_change)
    /// inserts any level a later push lifts across the threshold — keeping
    /// the cache a **superset** of the qualifying set, so the deepest pop
    /// is always the level a fresh walk would have chosen (the schedule
    /// never deviates from §3.4 deepest-first). Entries are hints, not
    /// truth — each is re-checked against the live mirror before being
    /// consumed. Owner-only by the struct's concurrency contract.
    pending_full: std::cell::UnsafeCell<Vec<usize>>,
}

/// Cap on the owner's recycled-cell cache.
const SPARE_CELL_CAP: usize = 32;

/// Bit position of the block count inside the packed occupancy word
/// (tasks get the low 48 bits — `2^48` parked tasks is beyond any run).
const OCC_BLOCK_SHIFT: u32 = 48;

#[inline]
fn occ(blocks: usize, tasks: usize) -> u64 {
    ((blocks as u64) << OCC_BLOCK_SHIFT) | tasks as u64
}

// SAFETY: all cross-thread hand-off goes through atomic pointer exchange
// with Acquire/Release ordering; a cell is reachable from exactly one
// handle after any swap. The `mirror` is only touched by owner operations,
// which the concurrency contract restricts to one thread at a time (with
// cross-thread owner hand-off — driver seeding → worker — ordered by the
// thread-spawn happens-before edge).
unsafe impl<S: Send> Send for SharedLeveledDeque<S> {}
unsafe impl<S: Send> Sync for SharedLeveledDeque<S> {}

impl<S: TaskStore> Default for SharedLeveledDeque<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: TaskStore> SharedLeveledDeque<S> {
    /// An empty deque. Segments are allocated on first touch of a level.
    pub fn new() -> Self {
        SharedLeveledDeque {
            spine: (0..SPINE_LEN).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect(),
            deepest: AtomicUsize::new(0),
            owner_net: AtomicU64::new(0),
            thief_taken: AtomicU64::new(0),
            mirror: std::cell::UnsafeCell::new(Vec::new()),
            mirror_hi: std::cell::UnsafeCell::new(0),
            spare_cells: std::cell::UnsafeCell::new(Vec::new()),
            maybe_full: std::cell::UnsafeCell::new(0),
            qualify_t: std::cell::UnsafeCell::new(usize::MAX),
            pending_full: std::cell::UnsafeCell::new(Vec::new()),
        }
    }

    /// Owner-only bookkeeping for the merge-scan: called with a mirror
    /// entry's value before and after a write, it keeps the count of
    /// threshold-qualifying entries (`maybe_full`) exact, and keeps the
    /// candidate cache (`pending_full`) a *superset* of the qualifying
    /// set — a write that lifts `level` across the threshold inserts it in
    /// sorted position, so the scan's deepest-first pop order matches what
    /// a fresh walk would find (a late deep qualifier must not be shadowed
    /// by shallower cached candidates). A no-op until the first merge-scan
    /// establishes the threshold.
    ///
    /// # Safety
    /// Caller must be the owner.
    unsafe fn note_mirror_change(&self, level: usize, old: (usize, usize), new: (usize, usize)) {
        // SAFETY: owner operation per the caller contract.
        let t = unsafe { *self.qualify_t.get() };
        if t == usize::MAX {
            return;
        }
        let was = old.0 + old.1 >= t;
        let is = new.0 + new.1 >= t;
        if was != is {
            // SAFETY: owner operation per the caller contract.
            let c = unsafe { &mut *self.maybe_full.get() };
            if is {
                *c += 1;
            } else {
                debug_assert!(*c > 0, "maybe_full underflow");
                *c = c.saturating_sub(1);
            }
        }
        if is && !was {
            // SAFETY: owner operation per the caller contract.
            let pending = unsafe { &mut *self.pending_full.get() };
            if let Err(pos) = pending.binary_search(&level) {
                pending.insert(pos, level);
            }
        }
    }

    /// Owner-only counter bump: plain load + store (single writer), so the
    /// owner's hot path carries no counter RMW. `delta` is added when
    /// `credit`, subtracted otherwise.
    fn owner_account(&self, delta: u64, credit: bool) {
        let cur = self.owner_net.load(Ordering::Relaxed);
        let next = if credit { cur.wrapping_add(delta) } else { cur.wrapping_sub(delta) };
        self.owner_net.store(next, Ordering::Relaxed);
    }

    /// A cell holding `dfe`/`restart`, recycled from the owner cache when
    /// possible.
    ///
    /// # Safety
    /// Caller must be the owner.
    unsafe fn fresh_cell(&self, dfe: Option<S>, restart: Option<S>) -> Box<LevelCell<S>> {
        match unsafe { (*self.spare_cells.get()).pop() } {
            Some(mut cell) => {
                cell.dfe = dfe;
                cell.restart = restart;
                cell
            }
            None => Box::new(LevelCell { dfe, restart }),
        }
    }

    /// Recycle an emptied cell into the owner cache (bounded).
    ///
    /// # Safety
    /// Caller must be the owner, and the cell must be empty.
    unsafe fn cache_cell(&self, cell: Box<LevelCell<S>>) {
        debug_assert!(cell.dfe.is_none() && cell.restart.is_none());
        let spares = unsafe { &mut *self.spare_cells.get() };
        if spares.len() < SPARE_CELL_CAP {
            spares.push(cell);
        }
    }

    /// The owner's mirror entry for `level`, growing the mirror on demand.
    ///
    /// # Safety
    /// Caller must be the owner (per the struct's concurrency contract).
    #[allow(clippy::mut_from_ref)]
    unsafe fn mirror_entry(&self, level: usize) -> &mut (usize, usize) {
        let m = unsafe { &mut *self.mirror.get() };
        if level >= m.len() {
            m.resize(level + 1, (0, 0));
        }
        &mut m[level]
    }

    /// Approximate `(blocks, tasks)` parked, from one read of each counter
    /// (exact at quiescent points).
    pub fn counts(&self) -> (usize, usize) {
        const MASK: u64 = (1 << OCC_BLOCK_SHIFT) - 1;
        let net = self.owner_net.load(Ordering::Relaxed);
        let taken = self.thief_taken.load(Ordering::Relaxed);
        (
            ((net >> OCC_BLOCK_SHIFT) as usize).saturating_sub((taken >> OCC_BLOCK_SHIFT) as usize),
            ((net & MASK) as usize).saturating_sub((taken & MASK) as usize),
        )
    }

    /// The deque's steal epoch: a monotone count of tasks thieves have
    /// ever taken from it — the owner's cheap "stolen since last check"
    /// signal, mirroring `tb_runtime::deque::Worker::steal_epoch` on the
    /// job deque. Relaxed on both sides: the owner only compares it
    /// against a cached snapshot to decide grain, never synchronizes with
    /// the stolen data through it. Owner removals (`take_level`, the
    /// merge-scan) never advance it.
    pub fn steal_epoch(&self) -> u64 {
        const MASK: u64 = (1 << OCC_BLOCK_SHIFT) - 1;
        self.thief_taken.load(Ordering::Relaxed) & MASK
    }

    /// Approximate number of parked blocks (exact at quiescent points).
    pub fn block_count(&self) -> usize {
        self.counts().0
    }

    /// Approximate number of parked tasks (exact at quiescent points).
    pub fn task_count(&self) -> usize {
        self.counts().1
    }

    /// True when no block is visible (approximate between operations).
    pub fn is_empty(&self) -> bool {
        self.block_count() == 0
    }

    /// The slot for `level` if its segment exists (thieves never allocate).
    fn slot(&self, level: usize) -> Option<&AtomicPtr<LevelCell<S>>> {
        let seg = self.spine[level / SEG_LEN].load(Ordering::Acquire);
        if seg.is_null() {
            return None;
        }
        // SAFETY: segments are never freed before the deque drops; the
        // Acquire load pairs with the installing CAS's Release.
        Some(unsafe { &(*seg).slots[level % SEG_LEN] })
    }

    /// The slot for `level`, allocating its segment on demand. Allocation
    /// races are resolved by CAS; the loser frees its candidate.
    fn slot_or_alloc(&self, level: usize) -> &AtomicPtr<LevelCell<S>> {
        assert!(level < SEG_LEN * SPINE_LEN, "computation tree deeper than {} levels", SEG_LEN * SPINE_LEN);
        let spine_slot = &self.spine[level / SEG_LEN];
        let mut seg = spine_slot.load(Ordering::Acquire);
        if seg.is_null() {
            let candidate = Box::into_raw(Segment::new());
            // Release on success: publish the zeroed slots. Acquire on
            // failure: adopt the winner's segment.
            match spine_slot.compare_exchange(
                std::ptr::null_mut(),
                candidate,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => seg = candidate,
                Err(winner) => {
                    // SAFETY: `candidate` was never published.
                    drop(unsafe { Box::from_raw(candidate) });
                    seg = winner;
                }
            }
        }
        // SAFETY: non-null segments live until the deque drops.
        unsafe { &(*seg).slots[level % SEG_LEN] }
    }

    /// Detach the cell at `slot`. Acquire pairs with the Release of
    /// whichever thread published the cell, making its contents visible.
    ///
    /// A plain load prefilters the common empty case so scans over vacant
    /// levels cost a read, not an RMW — the `swap` (one atomic exchange)
    /// runs only when there is something to take. The load may race a
    /// concurrent publish/steal; that only turns one steal opportunity
    /// into a miss, which the protocol always tolerates.
    fn detach(slot: &AtomicPtr<LevelCell<S>>) -> Option<Box<LevelCell<S>>> {
        if slot.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let p = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
        // SAFETY: a non-null swap result transfers sole ownership.
        (!p.is_null()).then(|| unsafe { Box::from_raw(p) })
    }

    /// Republish a cell (owner-only). Release publishes the cell contents
    /// to the next `detach`er. A plain store (not an exchange) is sound
    /// because the slot is necessarily null here: only the owner publishes,
    /// the owner detached this slot (or proved it empty via the mirror),
    /// and a concurrent thief can only turn a null slot into a null slot —
    /// so no pointer can be overwritten and lost.
    fn publish(slot: &AtomicPtr<LevelCell<S>>, cell: Box<LevelCell<S>>) {
        debug_assert!(
            slot.load(Ordering::Relaxed).is_null(),
            "slot republished while occupied: second owner?"
        );
        slot.store(Box::into_raw(cell), Ordering::Release);
    }

    /// Park a DFE-leftover block at its level, merging with any DFE block
    /// already parked there; returns `true` when a merge happened.
    /// Owner-only.
    pub fn push_dfe(&self, block: TaskBlock<S>) -> bool {
        self.push_slot(block, false)
    }

    /// Park a restart-leftover block at its level, merging with any restart
    /// block already parked there; returns `true` when a merge happened.
    /// Owner-only.
    pub fn push_restart(&self, block: TaskBlock<S>) -> bool {
        self.push_slot(block, true)
    }

    fn push_slot(&self, block: TaskBlock<S>, restart: bool) -> bool {
        if block.is_empty() {
            return false;
        }
        let len = block.len();
        let level_idx = block.level;
        let slot = self.slot_or_alloc(block.level);
        // Monotone hint: RMW only when the deque actually deepens.
        if self.deepest.load(Ordering::Relaxed) < block.level {
            self.deepest.fetch_max(block.level, Ordering::Relaxed);
        }
        // SAFETY: push is an owner operation.
        unsafe {
            let hi = &mut *self.mirror_hi.get();
            if *hi < block.level {
                *hi = block.level;
            }
        }
        // SAFETY: push is an owner operation.
        let entry = unsafe { self.mirror_entry(block.level) };
        let entry_before = *entry;
        let mut incoming = block.store;
        // Mirror says empty ⇒ the slot is null (thieves only *empty*
        // levels, so the mirror never underestimates): skip the detach.
        // Mirror says occupied ⇒ swap directly, no prefilter load — the
        // swap resolves the (rare) race with a thief by returning null.
        let existing = if *entry == (0, 0) {
            None
        } else {
            let p = slot.swap(std::ptr::null_mut(), Ordering::Acquire);
            // SAFETY: a non-null swap result transfers sole ownership.
            (!p.is_null()).then(|| unsafe { Box::from_raw(p) })
        };
        let (cell, merged) = match existing {
            Some(mut cell) => {
                let target = if restart { &mut cell.restart } else { &mut cell.dfe };
                let merged = match target {
                    Some(existing) => {
                        existing.append(&mut incoming);
                        true
                    }
                    none => {
                        *none = Some(incoming);
                        false
                    }
                };
                (cell, merged)
            }
            None => {
                // Slot empty — or the mirror was stale because a thief
                // emptied the level; either way we start a fresh cell.
                *entry = (0, 0);
                // SAFETY: push is an owner operation.
                let cell = if restart {
                    unsafe { self.fresh_cell(None, Some(incoming)) }
                } else {
                    unsafe { self.fresh_cell(Some(incoming), None) }
                };
                (cell, false)
            }
        };
        *entry =
            (cell.dfe.as_ref().map_or(0, TaskStore::len), cell.restart.as_ref().map_or(0, TaskStore::len));
        // One note covers the net mirror change, including the transient
        // `(0, 0)` reset on the stale-mirror path above.
        // SAFETY: push is an owner operation.
        unsafe { self.note_mirror_change(level_idx, entry_before, *entry) };
        // Count before publishing so a thief that immediately steals the
        // cell never drives the counters negative.
        self.owner_account(occ(usize::from(!merged), len), true);
        Self::publish(slot, cell);
        merged
    }

    /// Detach and return the merged contents of `level` (both slots), if
    /// any. Owner-only (used by the BFE burst to absorb own leftovers).
    pub fn take_level(&self, level: usize) -> Option<TaskBlock<S>> {
        // SAFETY: take_level is an owner operation.
        let entry = unsafe { self.mirror_entry(level) };
        if *entry == (0, 0) {
            return None; // mirror never underestimates: level is empty
        }
        let entry_before = *entry;
        *entry = (0, 0);
        // SAFETY: take_level is an owner operation.
        unsafe { self.note_mirror_change(level, entry_before, (0, 0)) };
        let slot = self.slot(level)?;
        let mut cell = Self::detach(slot)?;
        self.owner_account(occ(cell.blocks(), cell.tasks()), false);
        let mut merged: Option<S> = None;
        for mut s in [cell.dfe.take(), cell.restart.take()].into_iter().flatten() {
            match &mut merged {
                Some(m) => m.append(&mut s),
                none => *none = Some(s),
            }
        }
        // SAFETY: owner operation; cell fully drained above.
        unsafe { self.cache_cell(cell) };
        merged.map(|s| TaskBlock::new(level, s))
    }

    /// The §3.4 merge-scan: walk from the deepest occupied level toward the
    /// top; the first level whose two slots together reach `t_restart`
    /// tasks is merged, removed, and returned for DFE. On failure
    /// everything stays parked and `None` is returned — the worker then
    /// *steals*. Each physical merge performed is reported through
    /// `merges`. Owner-only.
    ///
    /// Unlike the sequential [`LeveledDeque::find_restart`], which merges
    /// every scanned level's slot pair eagerly (free when the deque has a
    /// single owner and no one else can see it), the lock-free scan decides
    /// qualification from the owner mirror — `dfe_len + restart_len` is
    /// exact whenever the cell is present — and defers the physical merge
    /// to the moment a level is actually *consumed* (here, by
    /// [`take_level`](Self::take_level), or by a thief's
    /// [`steal_half`](Self::steal_half), which hands over both halves).
    /// The assembled block, its level, and the schedule's reduction are
    /// identical; only the merge timing (and so the `merges`-stat
    /// attribution) differs. The payoff is that a *failing* scan performs
    /// zero shared-memory operations — and, via the `maybe_full` count of
    /// qualifying mirror entries (maintained at every mirror write), the
    /// common all-levels-below-threshold case is decided in O(1) without
    /// even walking the private array — which is what lets the restart
    /// scheduler spin its scan-steal-descend loop without serializing
    /// against its thieves.
    ///
    /// The *success* path is amortized the same way: a walk collects every
    /// qualifying level in its single pass (into `pending_full`), consumes
    /// the deepest, and leaves the rest as candidates, so a burst of
    /// successful scans — the steady state of a restart scheduler draining
    /// a deep deque — costs one walk total instead of one walk each.
    /// Candidates are re-validated against the live mirror before being
    /// consumed, so intervening pushes, steals and `take_level`s are safe.
    pub fn find_restart_full(&self, t_restart: usize, merges: &mut u64) -> Option<TaskBlock<S>> {
        // SAFETY: the merge-scan is an owner operation; nothing in the loop
        // body touches the mirror through another path.
        let mirror = unsafe { &mut *self.mirror.get() };
        let hi = unsafe { &mut *self.mirror_hi.get() };
        let pending = unsafe { &mut *self.pending_full.get() };
        // A returnable level has a present cell (≥ 1 task, mirror exact)
        // and meets `t_restart`, so counting against `max(t_restart, 1)`
        // never undercounts one; stale thief-emptied entries only ever
        // overcount, which costs a walk, not correctness.
        let t_eff = t_restart.max(1);
        // SAFETY: the merge-scan is an owner operation.
        unsafe {
            if *self.qualify_t.get() != t_eff {
                // Threshold changed (in practice: first scan of the run) —
                // rebaseline the counter with one mirror walk and drop any
                // candidates collected against the old threshold.
                *self.maybe_full.get() = mirror.iter().filter(|(d, r)| d + r >= t_eff).count();
                *self.qualify_t.get() = t_eff;
                pending.clear();
            }
            if *self.maybe_full.get() == 0 {
                pending.clear();
                return None; // no entry can qualify: O(1) failing scan
            }
        }
        if mirror.is_empty() {
            return None;
        }
        // Fast path: drain candidates from the last walk, deepest first.
        // The mirror re-check is the §3.4 qualification test on live data;
        // a candidate that shrank (consumed, stolen) is just dropped.
        while let Some(level) = pending.pop() {
            let entry = &mut mirror[level];
            if entry.0 + entry.1 < t_eff {
                continue;
            }
            // SAFETY: the merge-scan is an owner operation.
            if let Some(block) = unsafe { self.consume_full_level(level, entry, merges) } {
                return Some(block);
            }
        }
        let start = (*hi).min(mirror.len() - 1);
        // Slow path: one walk over the occupied band, collecting *every*
        // qualifying level. Mirror lengths are exact while a cell is
        // present, so the test is the §3.4 qualification itself, not a
        // heuristic. The deepest level the walk saw occupied becomes the
        // new shrinking bound, so the next walk skips the empty tail.
        let mut seen_hi = 0usize;
        for level in (0..=start).rev() {
            let (dfe_len, restart_len) = mirror[level];
            if dfe_len + restart_len > 0 {
                seen_hi = seen_hi.max(level);
            }
            if dfe_len + restart_len >= t_eff {
                pending.push(level);
            }
        }
        *hi = seen_hi;
        // Collected deepest-to-shallowest; flip so `pop` yields deepest.
        pending.reverse();
        while let Some(level) = pending.pop() {
            let entry = &mut mirror[level];
            if entry.0 + entry.1 < t_eff {
                continue;
            }
            // SAFETY: the merge-scan is an owner operation.
            if let Some(block) = unsafe { self.consume_full_level(level, entry, merges) } {
                return Some(block);
            }
        }
        None
    }

    /// Detach, physically merge, and account the cell at `level`, whose
    /// mirror `entry` claims a qualifying block. Returns `None` — zeroing
    /// the entry — when a thief emptied the level since the mirror last
    /// saw it.
    ///
    /// # Safety
    /// Caller must be the owner, and `entry` must be this deque's mirror
    /// entry for `level`.
    unsafe fn consume_full_level(
        &self,
        level: usize,
        entry: &mut (usize, usize),
        merges: &mut u64,
    ) -> Option<TaskBlock<S>> {
        let before = *entry;
        let slot = self.slot(level)?;
        let Some(mut cell) = Self::detach(slot) else {
            // A thief emptied the level since the mirror last saw it.
            *entry = (0, 0);
            // SAFETY: owner operation per the caller contract.
            unsafe { self.note_mirror_change(level, before, (0, 0)) };
            return None;
        };
        // Consume the level: physically merge its two blocks now.
        let (store, removed_blocks) = match (cell.dfe.take(), cell.restart.take()) {
            (Some(d), Some(mut r)) => {
                let mut d = d;
                r.append(&mut d);
                *merges += 1;
                (r, 2)
            }
            (Some(d), None) => (d, 1),
            (None, Some(r)) => (r, 1),
            (None, None) => unreachable!("mirror said level {level} was non-empty"),
        };
        *entry = (0, 0);
        // SAFETY: owner operation per the caller contract.
        unsafe { self.note_mirror_change(level, before, (0, 0)) };
        self.owner_account(occ(removed_blocks, store.len()), false);
        // SAFETY: owner operation; cell fully drained above.
        unsafe { self.cache_cell(cell) };
        Some(TaskBlock::new(level, store))
    }

    /// Steal the shallowest occupied level — both its blocks — with one
    /// atomic exchange. The preferred block (the DFE block if it has at
    /// least `prefer_at_least` tasks or at least as many as the restart
    /// block, else the restart block) comes back as
    /// [`StolenLevel::primary`]; the other block, if present, as
    /// [`StolenLevel::leftover`] for the thief to re-park on its own deque.
    /// Callable by any thread.
    pub fn steal_half(&self, prefer_at_least: usize) -> Option<StolenLevel<S>> {
        // Acquire on `deepest`: not load-bearing for safety (a stale bound
        // only hides the newest levels, and a thief may always fail), but
        // it keeps the bound fresh relative to the cells we can see.
        let deepest = self.deepest.load(Ordering::Acquire);
        for seg_idx in 0..=deepest / SEG_LEN {
            // Whole segment absent ⇒ its SEG_LEN levels are empty.
            let seg = self.spine[seg_idx].load(Ordering::Acquire);
            if seg.is_null() {
                continue;
            }
            let base = seg_idx * SEG_LEN;
            for off in 0..SEG_LEN.min(deepest - base + 1) {
                // SAFETY: non-null segments live until the deque drops.
                let slot = unsafe { &(*seg).slots[off] };
                let Some(mut cell) = Self::detach(slot) else { continue };
                self.thief_debit(&cell);
                let dfe_len = cell.dfe.as_ref().map_or(0, TaskStore::len);
                let restart_len = cell.restart.as_ref().map_or(0, TaskStore::len);
                let (primary, leftover) = if dfe_len >= prefer_at_least || dfe_len >= restart_len {
                    (cell.dfe.take().or_else(|| cell.restart.take()), cell.restart.take())
                } else {
                    (cell.restart.take().or_else(|| cell.dfe.take()), cell.dfe.take())
                };
                let primary = primary.expect("detached cells hold at least one block");
                return Some(StolenLevel {
                    primary: TaskBlock::new(base + off, primary),
                    leftover: leftover.map(|s| TaskBlock::new(base + off, s)),
                });
            }
        }
        None
    }

    /// Record a thief's removal (the only multi-writer counter update).
    fn thief_debit(&self, cell: &LevelCell<S>) {
        self.thief_taken.fetch_add(occ(cell.blocks(), cell.tasks()), Ordering::Relaxed);
    }
}

impl<S> Drop for SharedLeveledDeque<S> {
    fn drop(&mut self) {
        // `&mut self`: no concurrent handles remain; free cells + segments.
        for spine_slot in self.spine.iter() {
            let seg = spine_slot.load(Ordering::Relaxed);
            if seg.is_null() {
                continue;
            }
            // SAFETY: exclusive access; pointers were Box::into_raw'd.
            unsafe {
                for slot in &(*seg).slots {
                    let p = slot.load(Ordering::Relaxed);
                    if !p.is_null() {
                        drop(Box::from_raw(p));
                    }
                }
                drop(Box::from_raw(seg));
            }
        }
    }
}

#[cfg(test)]
mod shared_tests {
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
    fn deep_levels_allocate_segments_lazily() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        d.push_dfe(blk(0, 1));
        d.push_dfe(blk(SEG_LEN * 3 + 7, 2));
        let mut merges = 0;
        let got = d.find_restart_full(2, &mut merges).unwrap();
        assert_eq!(got.level, SEG_LEN * 3 + 7, "deepest qualifying level wins");
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
    fn steal_epoch_advances_only_on_thief_removals() {
        let d: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        assert_eq!(d.steal_epoch(), 0);
        d.push_dfe(blk(2, 5));
        d.push_dfe(blk(6, 4));
        assert_eq!(d.steal_epoch(), 0, "owner pushes never advance the epoch");
        // Owner removals are not steals.
        assert_eq!(d.take_level(6).unwrap().len(), 4);
        let mut merges = 0;
        assert_eq!(d.find_restart_full(4, &mut merges).unwrap().len(), 5);
        assert_eq!(d.steal_epoch(), 0, "owner takes and merge-scans never advance the epoch");
        // A thief's steal_half advances it by the tasks it took.
        d.push_dfe(blk(3, 7));
        let loot = d.steal_half(4).expect("level 3 is stealable");
        let took = (loot.primary.len() + loot.leftover.as_ref().map_or(0, TaskBlock::len)) as u64;
        assert_eq!(d.steal_epoch(), took);
        assert!(took >= 1);
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
