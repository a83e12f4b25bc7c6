//! Every policy on the pool: one sequential engine per running piece,
//! split on demand, stepped by the one superstep-seam loop, [`drive`].
//!
//! The worker that picks the job up steps the ordinary [`SeqScheduler`]
//! under the config's own policy over its private leveled deque — the same
//! blocks, scans and recycled buckets as a single-core run. Before every
//! superstep of every piece, the first one included, the loop checks the
//! [`Seam`] in order: token fired → stop; preempt flag set → park;
//! splitting allowed and [`WorkerCtx::thief_hungry`] → split half the
//! pending work off ([`split_off`](SeqScheduler::split_off)) and `join` a
//! second engine resumed from it, which the idle worker steals. A join
//! absorbs the thief's engine back (`SeqScheduler::absorb`) and reports
//! the graver stop of its two sides, so a cancel cancels the run and a
//! split run parks whole, as one frontier.
//!
//! With nobody hungry — a one-worker pool, or a pool whose injector holds
//! other jobs — no split ever happens and the job costs exactly what the
//! sequential engine costs, plus two `None` branches per superstep when it
//! has no token and no flag. This replaced both fork-per-block embeddings
//! (Fig. 3(a) and 3(c)), the steal-driven adaptive scheduler, the
//! service's separate preemptible driver and the draining cancel wrapper;
//! DESIGN.md §2.1, §9.3 and §13 have the comparisons.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use tb_runtime::{ThreadPool, WorkerCtx};

use crate::cancel::CancelToken;
use crate::policy::{PolicyKind, SchedConfig};
use crate::program::{BlockProgram, RunOutput};
use crate::seq::{SeqFrontier, SeqScheduler};

/// Multicore scheduler for every policy: sequential engines that split
/// when a thief is hungry.
pub struct ParSplit<'p, P: BlockProgram> {
    prog: &'p P,
    cfg: SchedConfig,
}

impl<'p, P: BlockProgram> ParSplit<'p, P> {
    /// Schedule `prog` under `cfg` exactly as given: the engines run
    /// `cfg.policy` with `cfg`'s thresholds.
    pub fn new(prog: &'p P, cfg: SchedConfig) -> Self {
        ParSplit { prog, cfg }
    }

    /// Run on `pool`, returning the merged reduction and pooled stats.
    pub fn run(&self, pool: &ThreadPool) -> RunOutput<P::Reducer> {
        let (before, start) = (pool.steal_totals(), Instant::now());
        let engine = SeqScheduler::new(self.prog, self.cfg);
        let Outcome::Done(mut out) = pool.install(|ctx| drive(engine, Seam::default(), ctx)) else {
            unreachable!("a seam with no token and no flag always runs to completion")
        };
        let after = pool.steal_totals();
        out.stats.wall = start.elapsed();
        out.stats.steal_attempts += after.0.saturating_sub(before.0);
        out.stats.steals += after.1.saturating_sub(before.1);
        out
    }
}

/// What [`drive`] checks before every superstep. The default is the
/// library run: no token, no flag, split on demand.
#[derive(Debug, Clone, Copy)]
pub struct Seam<'a> {
    /// Stop once this token fires.
    pub cancel: Option<&'a CancelToken>,
    /// Park once this flag is set. The seam only loads it; whoever resumes
    /// the parked frontier clears it first.
    pub preempt: Option<&'a AtomicBool>,
    /// Split work off when a thief is hungry.
    pub split: bool,
}

impl Default for Seam<'_> {
    fn default() -> Self {
        Seam { cancel: None, preempt: None, split: true }
    }
}

/// How a [`drive`] ended.
pub enum Outcome<S, R> {
    /// The computation finished: the merged reduction and statistics.
    Done(RunOutput<R>),
    /// The token fired: what the run did before it stopped, exactly the
    /// blocks `expand` saw.
    Cancelled(RunOutput<R>),
    /// The flag was set: the whole run, split pieces merged back in,
    /// parked at a superstep boundary. [`SeqScheduler::resume`] it and
    /// [`drive`] again.
    Parked(SeqFrontier<S, R>),
}

/// Step `engine` on the worker driving `ctx` until it finishes, its token
/// fires or its flag is set, splitting on demand as the [`Seam`] allows.
/// [`ParSplit`] runs through it with the default seam; `tb-service` runs
/// every job through it with the job's token and, if preemptible, flag.
pub fn drive<'p, P: BlockProgram>(
    engine: SeqScheduler<'p, P>,
    seam: Seam<'_>,
    ctx: &WorkerCtx<'_>,
) -> Outcome<P::Store, P::Reducer> {
    match run_splitting(engine, seam, ctx) {
        (engine, Stop::Done) => Outcome::Done(engine.into_output()),
        (engine, Stop::Cancelled) => Outcome::Cancelled(engine.into_output()),
        (engine, Stop::Parked) => Outcome::Parked(engine.park()),
    }
}

/// Why a piece stopped, in merge order: a join reports the larger side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stop {
    Done,
    Parked,
    Cancelled,
}

/// The seam loop for one piece. A piece returns its engine whatever
/// stopped it, so a join can absorb the other side without a round trip
/// through a frontier.
fn run_splitting<'p, P: BlockProgram>(
    mut engine: SeqScheduler<'p, P>,
    seam: Seam<'_>,
    ctx: &WorkerCtx<'_>,
) -> (SeqScheduler<'p, P>, Stop) {
    while !engine.is_done() {
        if seam.cancel.is_some_and(CancelToken::is_cancelled) {
            return (engine, Stop::Cancelled);
        }
        if seam.preempt.is_some_and(|flag| flag.load(Ordering::Acquire)) {
            return (engine, Stop::Parked);
        }
        // Only an engine holding a current block splits, so it keeps work
        // for itself: a piece that could give its whole deque away before
        // stepping would hand the same frontier on and on without progress.
        if seam.split && engine.current().is_some() && ctx.thief_hungry() {
            if let Some(split) = engine.split_off() {
                let prog = engine.program();
                // The rest of this engine's run happens inside the join, so
                // a later split nests one frame deeper; the depth is
                // bounded by how often this piece can be halved.
                let ((mut mine, a), (theirs, b)) = ctx.join(
                    move |c| run_splitting(engine, seam, c),
                    move |c| run_splitting(SeqScheduler::resume(prog, split), seam, c),
                );
                mine.absorb(theirs);
                return (mine, a.max(b));
            }
        }
        engine.step();
    }
    (engine, Stop::Done)
}

impl<P: BlockProgram> crate::scheduler::Scheduler<P> for ParSplit<'_, P> {
    /// `par-<policy>`, e.g. `par-restart`.
    fn name(&self) -> &'static str {
        match self.cfg.policy {
            PolicyKind::Basic => "par-basic",
            PolicyKind::ReExpansion => "par-reexp",
            PolicyKind::Restart => "par-restart",
            PolicyKind::Adaptive => "par-adaptive",
        }
    }

    fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    fn run_with(&self, pool: Option<&ThreadPool>) -> RunOutput<P::Reducer> {
        crate::scheduler::with_pool(pool, |pool| self.run(pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::BucketSet;

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

    fn assert_matches_the_sequential_engine(cfg: SchedConfig) {
        let prog = Fib(24);
        let pool = ThreadPool::new(4);
        let seq = SeqScheduler::new(&prog, cfg).run();
        let par = ParSplit::new(&prog, cfg).run(&pool);
        assert_eq!(par.reducer, seq.reducer, "{:?}", cfg.policy);
        assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed, "{:?}", cfg.policy);
    }

    fn assert_works_on_one_worker(cfg: SchedConfig) {
        let prog = Fib(20);
        let pool = ThreadPool::new(1);
        assert_eq!(ParSplit::new(&prog, cfg).run(&pool).reducer, 6765, "{:?}", cfg.policy);
    }

    #[test]
    fn basic_matches_the_sequential_engine() {
        assert_matches_the_sequential_engine(SchedConfig::basic(8, 256));
    }

    #[test]
    fn reexpansion_matches_the_sequential_engine() {
        assert_matches_the_sequential_engine(SchedConfig::reexpansion(8, 256));
    }

    #[test]
    fn restart_matches_the_sequential_engine() {
        assert_matches_the_sequential_engine(SchedConfig::restart(8, 256, 64));
    }

    #[test]
    fn adaptive_matches_the_sequential_engine() {
        assert_matches_the_sequential_engine(SchedConfig::adaptive(8));
    }

    #[test]
    fn basic_works_on_one_worker() {
        assert_works_on_one_worker(SchedConfig::basic(8, 256));
    }

    #[test]
    fn reexpansion_works_on_one_worker() {
        assert_works_on_one_worker(SchedConfig::reexpansion(8, 256));
    }

    #[test]
    fn restart_works_on_one_worker() {
        assert_works_on_one_worker(SchedConfig::restart(8, 256, 64));
    }

    #[test]
    fn adaptive_works_on_one_worker() {
        assert_works_on_one_worker(SchedConfig::adaptive(8));
    }

    #[test]
    fn tiny_thresholds_still_complete() {
        let prog = Fib(16);
        let pool = ThreadPool::new(3);
        for cfg in [SchedConfig::basic(2, 4), SchedConfig::reexpansion(2, 4), SchedConfig::restart(2, 4, 2)] {
            assert_eq!(ParSplit::new(&prog, cfg).run(&pool).reducer, 987, "{:?}", cfg.policy);
        }
    }

    /// Count the leaves of a depth-n binary tree: 2^n leaves, 2^(n+1) - 1
    /// tasks.
    struct Tree(u32);

    impl BlockProgram for Tree {
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
                if n == 0 {
                    *red += 1;
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 1);
                }
            }
        }
    }

    /// [`Tree`] that fires `token` once `expand` has seen `at` tasks.
    struct CancelAt {
        tree: Tree,
        token: CancelToken,
        at: u64,
        seen: std::sync::atomic::AtomicU64,
    }

    impl BlockProgram for CancelAt {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            self.tree.make_root()
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            let seen = self.seen.fetch_add(block.len() as u64, Ordering::Relaxed) + block.len() as u64;
            if seen >= self.at {
                self.token.cancel();
            }
            self.tree.expand(block, out, red);
        }
    }

    fn drive_on<P: BlockProgram>(
        pool: &ThreadPool,
        prog: &P,
        cfg: SchedConfig,
        seam: Seam<'_>,
    ) -> Outcome<P::Store, P::Reducer> {
        pool.install(|ctx| drive(SeqScheduler::new(prog, cfg), seam, ctx))
    }

    #[test]
    fn uncancelled_seam_is_transparent() {
        let (token, flag) = (CancelToken::new(), AtomicBool::new(false));
        let seam = Seam { cancel: Some(&token), preempt: Some(&flag), split: true };
        let pool = ThreadPool::new(2);
        for cfg in [
            SchedConfig::basic(4, 64),
            SchedConfig::reexpansion(4, 64),
            SchedConfig::restart(4, 64, 16),
            SchedConfig::adaptive(4),
        ] {
            let Outcome::Done(out) = drive_on(&pool, &Tree(10), cfg, seam) else {
                panic!("{:?}: nothing fired, yet the run stopped", cfg.policy)
            };
            assert_eq!(out.reducer, 1 << 10, "{:?}", cfg.policy);
            assert_eq!(out.stats.tasks_executed, (1 << 11) - 1, "{:?}", cfg.policy);
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn pre_cancelled_run_does_no_work() {
        let token = CancelToken::new();
        token.cancel();
        let seam = Seam { cancel: Some(&token), ..Seam::default() };
        let Outcome::Cancelled(out) =
            drive_on(&ThreadPool::new(1), &Tree(16), SchedConfig::basic(4, 64), seam)
        else {
            panic!("a fired token stops the run before its first superstep")
        };
        assert_eq!(out.reducer, 0);
        assert_eq!(out.stats.tasks_executed, 0, "no block was expanded");
    }

    #[test]
    fn mid_run_cancel_stops_at_the_next_superstep() {
        // 2^30 leaves would run for many seconds: only the stop ends it.
        let token = CancelToken::new();
        let seam = Seam { cancel: Some(&token), ..Seam::default() };
        let pool = ThreadPool::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                token.cancel();
            });
            let Outcome::Cancelled(out) = drive_on(&pool, &Tree(30), SchedConfig::reexpansion(4, 256), seam)
            else {
                panic!("the run outlived its cancel")
            };
            assert!(out.reducer < 1 << 30);
        });
    }

    #[test]
    fn cancelled_stats_count_only_the_tasks_expand_saw() {
        for workers in [1usize, 2, 4] {
            let prog =
                CancelAt { tree: Tree(20), token: CancelToken::new(), at: 50_000, seen: Default::default() };
            let seam = Seam { cancel: Some(&prog.token), ..Seam::default() };
            let Outcome::Cancelled(out) =
                drive_on(&ThreadPool::new(workers), &prog, SchedConfig::basic(4, 256), seam)
            else {
                panic!("{workers} workers: the token fired mid-run")
            };
            let seen = prog.seen.load(Ordering::Relaxed);
            assert!((50_000..(1 << 21) - 1).contains(&seen), "{workers} workers: {seen} tasks seen");
            assert_eq!(out.stats.tasks_executed, seen, "{workers} workers: a stop drains nothing");
        }
    }

    #[test]
    fn stats_include_steal_counters() {
        let prog = Fib(24);
        let pool = ThreadPool::new(4);
        let out = ParSplit::new(&prog, SchedConfig::reexpansion(8, 64)).run(&pool);
        // `install` puts the root in the injector, so the worker that runs
        // it took at least one sweep and one steal.
        assert!(out.stats.steal_attempts >= 1 && out.stats.steals >= 1, "{:?}", out.stats);
    }
}
