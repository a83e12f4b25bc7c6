//! The "ideal" parallel restart scheduler (§3.4, Fig. 3(b)).
//!
//! This is the formulation the theory analyses (Theorem 4): every worker
//! owns a full leveled deque (task *and* restart blocks per level, all of it
//! stealable), and a worker whose deque cannot produce a `t_restart`-sized
//! block *steals* — taking the top level of a random victim's deque
//! (possibly its own), executing the preferred block with DFE if it is full
//! and otherwise growing it with a constant number of BFE actions.
//!
//! The paper implements the *simplified* variant on Cilk because exposing
//! restart blocks for stealing "does not naturally map to Cilk-like
//! programming models"; since we own the runtime, we also build the ideal
//! variant on dedicated threads. The per-worker deques are
//! [`SharedLeveledDeque`]s — the engine's `LeveledDeque` behind a mutex:
//! the owner locks once per block it parks or assembles, and a thief
//! `try_lock`s its victim once per probe, taking a whole level (the
//! steal-half unit: execute the preferred ⌈half⌉ of its blocks, re-park the
//! rest on its own deque) or giving up if the owner holds the lock.
//! Termination is a global live-task counter: it starts at the root count,
//! every block execution adds `children - executed`, and zero means done.
//! A panicking worker stops the others, and `run` re-raises its panic.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use crate::block::{TaskBlock, TaskStore};
use crate::deque::SharedLeveledDeque;
use crate::policy::{PolicyKind, SchedConfig};
use crate::program::{BlockProgram, BucketSet, RunOutput};
use crate::stats::ExecStats;

/// Default BFE burst on undersized loot ("a constant number of BFE
/// actions", §3.4) when the config does not specify one.
const DEFAULT_BFE_BURST: usize = 4;

/// Multicore restart scheduler with per-worker shared leveled deques.
pub struct ParRestartIdeal<'p, P: BlockProgram> {
    prog: &'p P,
    cfg: SchedConfig,
    workers: usize,
}

impl<'p, P: BlockProgram> ParRestartIdeal<'p, P> {
    /// Schedule `prog` on `workers` dedicated threads with restart
    /// thresholds from `cfg` (the policy field is coerced to `Restart`).
    pub fn new(prog: &'p P, cfg: SchedConfig, workers: usize) -> Self {
        ParRestartIdeal { prog, cfg: cfg.with_policy(PolicyKind::Restart), workers: workers.max(1) }
    }

    /// Run to completion; returns the merged reduction and pooled stats.
    pub fn run(&self) -> RunOutput<P::Reducer> {
        self.run_on(self.workers)
    }

    fn run_on(&self, workers: usize) -> RunOutput<P::Reducer> {
        let start = std::time::Instant::now();
        let n = workers.max(1);
        let mut root = self.prog.make_root();
        let total = root.len() as i64;
        if total == 0 {
            let mut stats = ExecStats::new(self.cfg.q);
            stats.wall = start.elapsed();
            return RunOutput { reducer: self.prog.make_reducer(), stats };
        }

        // Seed the deques: strips of the root, round-robin.
        let deques: Vec<SharedLeveledDeque<P::Store>> = (0..n).map(|_| SharedLeveledDeque::new()).collect();
        let strip = self.cfg.t_dfe.max(1);
        let mut w = 0usize;
        loop {
            let rest = if root.len() > strip { root.split_off(strip) } else { P::Store::default() };
            deques[w % n].push_dfe(TaskBlock::new(0, root));
            root = rest;
            w += 1;
            if root.is_empty() {
                break;
            }
        }

        let shared = SharedState { deques, live: AtomicI64::new(total), done: AtomicBool::new(false) };

        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let shared = &shared;
                    s.spawn(move || {
                        let _stop = StopOnPanic(&shared.done);
                        Worker::new(self.prog, self.cfg, shared, i, n).run()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut outputs: Vec<(P::Reducer, ExecStats)> = joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();

        debug_assert_eq!(shared.live.load(Ordering::SeqCst), 0, "live counter must drain to zero");
        let mut red = self.prog.make_reducer();
        let mut stats = ExecStats::default();
        for (r, st) in outputs.drain(..) {
            self.prog.merge_reducers(&mut red, r);
            stats.absorb(&st);
        }
        stats.wall = start.elapsed();
        RunOutput { reducer: red, stats }
    }
}

impl<P: BlockProgram> crate::scheduler::Scheduler<P> for ParRestartIdeal<'_, P> {
    fn name(&self) -> &'static str {
        crate::scheduler::SchedulerKind::RestartIdeal.name()
    }

    fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Runs on its own dedicated threads. A supplied pool only sizes the
    /// worker count (its threads are not used — the ideal scheduler needs
    /// per-worker leveled deques the pool does not have).
    fn run_with(&self, pool: Option<&tb_runtime::ThreadPool>) -> RunOutput<P::Reducer> {
        self.run_on(pool.map_or(self.workers, tb_runtime::ThreadPool::threads))
    }
}

struct SharedState<S> {
    deques: Vec<SharedLeveledDeque<S>>,
    live: AtomicI64,
    done: AtomicBool,
}

/// Raises `done` when its worker unwinds: the panicking worker's tasks are
/// lost, so the live counter would never reach zero and the other workers
/// would spin forever.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

struct Worker<'e, P: BlockProgram> {
    prog: &'e P,
    cfg: SchedConfig,
    shared: &'e SharedState<P::Store>,
    index: usize,
    n: usize,
    out: BucketSet<P::Store>,
    red: P::Reducer,
    stats: ExecStats,
    rng: u64,
    burst_max: usize,
}

impl<'e, P: BlockProgram> Worker<'e, P> {
    fn new(prog: &'e P, cfg: SchedConfig, shared: &'e SharedState<P::Store>, index: usize, n: usize) -> Self {
        Worker {
            prog,
            cfg,
            shared,
            index,
            n,
            out: BucketSet::new(prog.arity()),
            red: prog.make_reducer(),
            stats: ExecStats::new(cfg.q),
            rng: 0x853C_49E6_748F_EA9Bu64.wrapping_mul(index as u64 + 1) | 1,
            burst_max: if cfg.restart_bfe_burst == 0 { DEFAULT_BFE_BURST } else { cfg.restart_bfe_burst },
        }
    }

    /// This worker's own deque (the only one it performs owner ops on).
    /// Returns the `'e` borrow so callers can keep mutating `self.stats`.
    fn mine(&self) -> &'e SharedLeveledDeque<P::Store> {
        &self.shared.deques[self.index]
    }

    fn run(mut self) -> (P::Reducer, ExecStats) {
        let mut idle = 0u32;
        while !self.shared.done.load(Ordering::Acquire) {
            // 1. Try to assemble a full block from our own deque (owner
            //    merge-scan).
            let mine = self.mine().find_restart_full(self.cfg.t_restart, &mut self.stats.merges);
            if let Some(b) = mine {
                self.descend(b);
                idle = 0;
                continue;
            }
            // 2. Steal: random victim, self included (§3.4: "the victim
            //    could be the thief itself"). One steal takes the
            //    victim's whole top level; we act on the preferred block
            //    and re-park the other half on our own deque.
            self.stats.steal_attempts += 1;
            let victim = (self.next_rand() as usize) % self.n;
            let loot = self.shared.deques[victim].steal_half(self.cfg.t_restart);
            match loot {
                Some(loot) => {
                    self.stats.steals += 1;
                    idle = 0;
                    if let Some(extra) = loot.leftover {
                        // Steal-half re-park: the sub-threshold half goes
                        // back as a restart block, a full half as a DFE
                        // block (it is immediately re-stealable either way).
                        let merged = if extra.len() >= self.cfg.t_restart {
                            self.mine().push_dfe(extra)
                        } else {
                            self.mine().push_restart(extra)
                        };
                        if merged {
                            self.stats.merges += 1;
                        }
                        self.observe_mine();
                    }
                    if loot.primary.len() >= self.cfg.t_restart {
                        self.descend(loot.primary);
                    } else {
                        self.bfe_burst(loot.primary);
                    }
                }
                None => {
                    idle += 1;
                    if idle > 64 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        (self.red, self.stats)
    }

    #[inline]
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn observe_mine(&mut self) {
        let (blocks, tasks) = self.shared.deques[self.index].counts();
        self.stats.observe_deque(blocks, tasks);
    }

    /// Execute one block, updating the live counter. Returns the non-empty
    /// next-level child blocks (DFE split) or their merge (BFE).
    fn expand(&mut self, mut block: TaskBlock<P::Store>, bfe: bool) -> Vec<TaskBlock<P::Store>> {
        let executed = block.len();
        debug_assert!(executed > 0);
        if self.cfg.trace {
            tb_obs::record(tb_obs::EventKind::Superstep, block.level as u32, executed as u64);
        }
        if bfe {
            self.stats.bfe_actions += 1;
        } else {
            self.stats.dfe_actions += 1;
        }
        self.stats.account_block(executed, self.cfg.t_restart);
        self.stats.observe_level(block.level);
        self.prog.expand(&mut block.store, &mut self.out, &mut self.red);
        let level = block.level + 1;
        let mut children = Vec::new();
        if bfe {
            let merged = self.out.drain_merged();
            if !merged.is_empty() {
                children.push(TaskBlock::new(level, merged));
            }
        } else {
            for i in 0..self.out.arity() {
                let s = self.out.take_bucket(i);
                if !s.is_empty() {
                    children.push(TaskBlock::new(level, s));
                }
            }
        }
        let created: usize = children.iter().map(TaskBlock::len).sum();
        let delta = created as i64 - executed as i64;
        let prev = self.shared.live.fetch_add(delta, Ordering::SeqCst);
        if prev + delta == 0 {
            self.shared.done.store(true, Ordering::Release);
        }
        children
    }

    /// DFE chain: execute while the block stays at or above `t_restart`,
    /// parking right-hand children on our own deque; park the final
    /// undersized block as a restart block.
    fn descend(&mut self, block: TaskBlock<P::Store>) {
        let mut cur = block;
        loop {
            if cur.is_empty() {
                return;
            }
            if cur.len() < self.cfg.t_restart {
                self.park_underfull(cur);
                return;
            }
            let mut children = self.expand(cur, false);
            if children.is_empty() {
                return;
            }
            let mut rest = children.split_off(1);
            if !rest.is_empty() {
                // The right-hand siblings all sit at the same level: merge
                // them locally first so parking costs one lock instead of
                // `arity - 1` (same final deque state — the deque would have
                // merged them anyway, one push at a time).
                let mut parked = rest.swap_remove(0);
                for mut c in rest {
                    parked.merge(&mut c);
                    self.stats.merges += 1;
                }
                if self.mine().push_dfe(parked) {
                    self.stats.merges += 1;
                }
                self.observe_mine();
            }
            cur = children.pop().expect("first child");
        }
    }

    /// Grow an undersized stolen block with a bounded number of BFE
    /// actions; descend if it reaches `t_restart`, otherwise park it.
    fn bfe_burst(&mut self, block: TaskBlock<P::Store>) {
        let mut cur = block;
        for _ in 0..self.burst_max {
            if cur.is_empty() {
                return;
            }
            if cur.len() >= self.cfg.t_restart {
                break;
            }
            // Absorb any of our own leftovers at this level first.
            if let Some(mut extra) = self.mine().take_level(cur.level) {
                cur.merge(&mut extra);
                self.stats.merges += 1;
                if cur.len() >= self.cfg.t_restart {
                    break;
                }
            }
            let mut children = self.expand(cur, true);
            match children.pop() {
                Some(next) => cur = next,
                None => return,
            }
        }
        if cur.is_empty() {
            return;
        }
        if cur.len() >= self.cfg.t_restart {
            self.descend(cur);
        } else {
            self.park_underfull(cur);
        }
    }

    /// The restart action: park an underfull block as a restart block for
    /// a later merge-scan (or a thief) to assemble with its level. Counted
    /// and traced as the sequential engine counts and traces its restarts.
    fn park_underfull(&mut self, block: TaskBlock<P::Store>) {
        self.stats.restart_actions += 1;
        if self.cfg.trace {
            tb_obs::record(tb_obs::EventKind::Restart, block.level as u32, block.len() as u64);
        }
        if self.mine().push_restart(block) {
            self.stats.merges += 1;
        }
        self.observe_mine();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqScheduler;

    struct Fib(u32);

    impl BlockProgram for Fib {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            vec![self.0]
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            for n in block.drain(..) {
                if n < 2 {
                    *red += u64::from(n);
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 2);
                }
            }
        }
    }

    #[test]
    fn matches_sequential_restart() {
        let prog = Fib(24);
        let cfg = SchedConfig::restart(8, 256, 64);
        let seq = SeqScheduler::new(&prog, cfg).run();
        let par = ParRestartIdeal::new(&prog, cfg, 4).run();
        assert_eq!(par.reducer, seq.reducer);
        assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed);
    }

    #[test]
    fn one_worker_completes() {
        let prog = Fib(20);
        let out = ParRestartIdeal::new(&prog, SchedConfig::restart(4, 64, 16), 1).run();
        assert_eq!(out.reducer, 6765);
    }

    #[test]
    fn empty_root_is_fine() {
        struct Empty;
        impl BlockProgram for Empty {
            type Store = Vec<u8>;
            type Reducer = u64;
            fn arity(&self) -> usize {
                1
            }
            fn make_root(&self) -> Vec<u8> {
                Vec::new()
            }
            fn make_reducer(&self) -> u64 {
                0
            }
            fn merge_reducers(&self, _: &mut u64, _: u64) {}
            fn expand(&self, _: &mut Vec<u8>, _: &mut BucketSet<Vec<u8>>, _: &mut u64) {}
        }
        let out = ParRestartIdeal::new(&Empty, SchedConfig::restart(2, 8, 4), 2).run();
        assert_eq!(out.reducer, 0);
        assert_eq!(out.stats.tasks_executed, 0);
    }

    #[test]
    fn steals_happen_with_multiple_workers() {
        let prog = Fib(22);
        let out = ParRestartIdeal::new(&prog, SchedConfig::restart(4, 128, 32), 4).run();
        assert!(out.stats.steal_attempts > 0);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_outcome() {
        // The schedule varies run to run (racy steals), the reduction must
        // not. Exercises the shared deques under real contention.
        let prog = Fib(23);
        let cfg = SchedConfig::restart(4, 64, 16);
        let expected = SeqScheduler::new(&prog, cfg).run();
        for _ in 0..5 {
            let par = ParRestartIdeal::new(&prog, cfg, 4).run();
            assert_eq!(par.reducer, expected.reducer);
            assert_eq!(par.stats.tasks_executed, expected.stats.tasks_executed);
        }
    }

    #[test]
    fn tiny_thresholds_maximise_contention_and_still_complete() {
        let prog = Fib(18);
        let out = ParRestartIdeal::new(&prog, SchedConfig::restart(2, 4, 2), 4).run();
        assert_eq!(out.reducer, 2584);
    }
}
