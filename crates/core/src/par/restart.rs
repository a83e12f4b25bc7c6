//! Restart on the pool: one sequential engine per running piece, split on
//! demand.
//!
//! The worker that picks the job up steps the ordinary restart engine
//! ([`SeqScheduler`]) over its private leveled deque — the same
//! `t_dfe`-sized blocks, restart scans and recycled buckets as a
//! single-core run. Between supersteps it polls
//! [`WorkerCtx::thief_hungry`]; only when some worker is idle with nothing
//! to take does it [`split_off`](SeqScheduler::split_off) the shallowest
//! half of its deque and `join` a second engine resumed from that
//! frontier, which the idle worker steals. Pieces split further the same
//! way, and reducers and [`ExecStats`](crate::ExecStats) merge back up the
//! join tree.
//!
//! With nobody hungry — a one-worker pool, or a pool whose injector holds
//! other jobs — no split ever happens and the job costs exactly what the
//! sequential engine costs. This replaced the paper's Fig. 3(c) embedding
//! (restart stacks threaded through a fork per block); DESIGN.md §2.1 has
//! the comparison.

use std::time::Instant;

use tb_runtime::{ThreadPool, WorkerCtx};

use crate::par::common::charge;
use crate::policy::{PolicyKind, SchedConfig};
use crate::program::{BlockProgram, RunOutput};
use crate::seq::{SeqScheduler, StepEvent};

/// Multicore restart scheduler: sequential engines that split when a
/// thief is hungry.
pub struct ParRestart<'p, P: BlockProgram> {
    prog: &'p P,
    cfg: SchedConfig,
}

impl<'p, P: BlockProgram> ParRestart<'p, P> {
    /// Schedule `prog` with restart thresholds from `cfg` (the policy field
    /// is coerced to `Restart`).
    pub fn new(prog: &'p P, cfg: SchedConfig) -> Self {
        ParRestart { prog, cfg: cfg.with_policy(PolicyKind::Restart) }
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
    /// delta over the run, as for the other pool schedulers.
    pub fn run_on(&self, ctx: &WorkerCtx<'_>) -> RunOutput<P::Reducer> {
        let (before, start) = (ctx.steal_totals(), Instant::now());
        let mut out = run_splitting(self.prog, SeqScheduler::new(self.prog, self.cfg), ctx);
        charge(&mut out.stats, start, before, ctx.steal_totals());
        out
    }
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

impl<P: BlockProgram> crate::scheduler::Scheduler<P> for ParRestart<'_, P> {
    fn name(&self) -> &'static str {
        crate::scheduler::SchedulerKind::RestartSimplified.name()
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

    #[test]
    fn matches_sequential_restart() {
        let prog = Fib(24);
        let cfg = SchedConfig::restart(8, 256, 64);
        let seq = SeqScheduler::new(&prog, cfg).run();
        let pool = ThreadPool::new(4);
        let par = ParRestart::new(&prog, cfg).run(&pool);
        assert_eq!(par.reducer, seq.reducer);
        assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed);
    }

    #[test]
    fn works_on_one_worker() {
        let prog = Fib(20);
        let pool = ThreadPool::new(1);
        let par = ParRestart::new(&prog, SchedConfig::restart(4, 64, 16)).run(&pool);
        assert_eq!(par.reducer, 6765);
    }

    #[test]
    fn tiny_thresholds_still_complete() {
        let prog = Fib(16);
        let pool = ThreadPool::new(3);
        let par = ParRestart::new(&prog, SchedConfig::restart(2, 4, 2)).run(&pool);
        assert_eq!(par.reducer, 987);
    }
}
