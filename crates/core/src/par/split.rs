//! Every policy on the pool: one sequential engine per running piece,
//! split on demand.
//!
//! The worker that picks the job up steps the ordinary [`SeqScheduler`]
//! under the config's own policy — basic, re-expansion, restart or
//! adaptive — over its private leveled deque: the same blocks, scans and
//! recycled buckets as a single-core run. Between supersteps it polls
//! [`WorkerCtx::thief_hungry`]; only when some worker is idle with nothing
//! to take does it [`split_off`](SeqScheduler::split_off) half of its
//! pending work (the shallowest half of its deque, or half of the current
//! block while the deque is empty) and `join` a second engine resumed
//! from that frontier, which the idle worker steals. Pieces split further
//! the same way, and reducers and [`ExecStats`] merge back up the join
//! tree — one `join` per split, never one per block.
//!
//! With nobody hungry — a one-worker pool, or a pool whose injector holds
//! other jobs — no split ever happens and the job costs exactly what the
//! sequential engine costs, superstep for superstep. This replaced both
//! fork-per-block embeddings (Fig. 3(a) re-expansion and Fig. 3(c)
//! restart) and the steal-driven adaptive scheduler; DESIGN.md §2.1 and
//! §13 have the comparisons.

use std::time::Instant;

use tb_runtime::{ThreadPool, WorkerCtx};

use crate::policy::{PolicyKind, SchedConfig};
use crate::program::{BlockProgram, RunOutput};
use crate::seq::{SeqScheduler, StepEvent};
use crate::stats::ExecStats;

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
        let mut out =
            pool.install(|ctx| run_splitting(self.prog, SeqScheduler::new(self.prog, self.cfg), ctx));
        charge(&mut out.stats, start, before, pool.steal_totals());
        out
    }

    /// Run from inside the pool, on the worker driving `ctx` (the service
    /// layer's entry point). The steal counters charged are the pool-wide
    /// delta over the run, so concurrent jobs see each other's steals.
    pub fn run_on(&self, ctx: &WorkerCtx<'_>) -> RunOutput<P::Reducer> {
        let (before, start) = (ctx.steal_totals(), Instant::now());
        let mut out = run_splitting(self.prog, SeqScheduler::new(self.prog, self.cfg), ctx);
        charge(&mut out.stats, start, before, ctx.steal_totals());
        out
    }
}

/// Close a pool run's books: wall time since `start`, plus the pool-wide
/// `(steal_attempts, steals)` delta between the two `steal_totals` reads.
fn charge(stats: &mut ExecStats, start: Instant, before: (u64, u64), after: (u64, u64)) {
    stats.wall = start.elapsed();
    stats.steal_attempts += after.0.saturating_sub(before.0);
    stats.steals += after.1.saturating_sub(before.1);
}

/// Step `engine` to completion on this worker, splitting its frontier
/// whenever a thief is hungry at a superstep boundary.
fn run_splitting<'p, P: BlockProgram>(
    prog: &'p P,
    mut engine: SeqScheduler<'p, P>,
    ctx: &WorkerCtx<'_>,
) -> RunOutput<P::Reducer> {
    while engine.step() != StepEvent::Done {
        if !ctx.thief_hungry() {
            continue;
        }
        let Some(split) = engine.split_off() else { continue };
        // The rest of this engine's run happens inside the join, so a
        // later split nests one frame deeper; the depth is bounded by how
        // often this piece can be halved.
        let (mut mine, theirs) = ctx.join(
            move |c| run_splitting(prog, engine, c),
            move |c| run_splitting(prog, SeqScheduler::resume(prog, split), c),
        );
        prog.merge_reducers(&mut mine.reducer, theirs.reducer);
        mine.stats.absorb(&theirs.stats);
        return mine;
    }
    engine.into_output()
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
