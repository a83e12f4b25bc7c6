//! Shared plumbing for the pool-based parallel schedulers.

use std::time::Instant;

use tb_runtime::{PerWorker, ThreadPool, WorkerCtx};

use crate::block::{TaskBlock, TaskStore};
use crate::policy::{GrainController, SchedConfig};
use crate::program::{BlockProgram, BucketSet};
use crate::stats::ExecStats;

/// Per-worker scratch: spawn buckets, private reducer, private stats, and
/// the adaptive policy's grain controller (idle for the fixed policies).
pub(crate) struct WorkerState<P: BlockProgram> {
    pub out: BucketSet<P::Store>,
    pub red: P::Reducer,
    pub stats: ExecStats,
    pub ctrl: GrainController,
}

/// Cheap-to-copy environment threaded through the blocked recursion.
pub(crate) struct Env<'e, P: BlockProgram> {
    pub prog: &'e P,
    pub cfg: SchedConfig,
    pub state: &'e PerWorker<WorkerState<P>>,
}

impl<P: BlockProgram> Clone for Env<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: BlockProgram> Copy for Env<'_, P> {}

impl<'e, P: BlockProgram> Env<'e, P> {
    pub fn make_state(prog: &P, cfg: &SchedConfig, workers: usize) -> PerWorker<WorkerState<P>> {
        PerWorker::new(workers, |_| WorkerState {
            out: BucketSet::new(prog.arity()),
            red: prog.make_reducer(),
            stats: ExecStats::new(cfg.q),
            ctrl: GrainController::for_config(cfg),
        })
    }

    /// Execute `block` and return its children merged into a single
    /// next-level block (the BFE gather).
    pub fn execute_bfe(&self, ctx: &WorkerCtx<'_>, mut block: TaskBlock<P::Store>) -> TaskBlock<P::Store> {
        let partial_below = self.partial_below();
        if self.cfg.trace {
            tb_obs::record(tb_obs::EventKind::Superstep, block.level as u32, block.len() as u64);
        }
        self.state.with(ctx, |st| {
            st.stats.bfe_actions += 1;
            st.stats.account_block(block.len(), partial_below);
            st.stats.observe_level(block.level);
            self.prog.expand(&mut block.store, &mut st.out, &mut st.red);
            TaskBlock::new(block.level + 1, st.out.drain_merged())
        })
    }

    /// Execute `block` and return its non-empty spawn-site buckets as
    /// separate next-level blocks (the DFE split), in spawn order.
    pub fn execute_dfe(
        &self,
        ctx: &WorkerCtx<'_>,
        mut block: TaskBlock<P::Store>,
    ) -> Vec<TaskBlock<P::Store>> {
        let partial_below = self.partial_below();
        if self.cfg.trace {
            tb_obs::record(tb_obs::EventKind::Superstep, block.level as u32, block.len() as u64);
        }
        self.state.with(ctx, |st| {
            st.stats.dfe_actions += 1;
            st.stats.account_block(block.len(), partial_below);
            st.stats.observe_level(block.level);
            self.prog.expand(&mut block.store, &mut st.out, &mut st.red);
            let level = block.level + 1;
            let mut children = Vec::with_capacity(st.out.arity());
            for i in 0..st.out.arity() {
                let s = st.out.take_bucket(i);
                if !s.is_empty() {
                    children.push(TaskBlock::new(level, s));
                }
            }
            children
        })
    }

    fn partial_below(&self) -> usize {
        match self.cfg.policy {
            crate::policy::PolicyKind::Restart => self.cfg.t_restart,
            _ => self.cfg.t_bfe,
        }
    }
}

/// Fold the per-worker reducers and stats into a single run output.
pub(crate) fn collect<P: BlockProgram>(
    prog: &P,
    state: PerWorker<WorkerState<P>>,
) -> (P::Reducer, ExecStats) {
    let mut red = prog.make_reducer();
    let mut stats = ExecStats::default();
    for ws in state.into_values() {
        prog.merge_reducers(&mut red, ws.red);
        stats.absorb(&ws.stats);
    }
    (red, stats)
}

/// Close a pool run's books: wall time since `start`, plus the pool-wide
/// `(steal_attempts, steals)` delta between the two `steal_totals` reads.
pub(crate) fn charge(stats: &mut ExecStats, start: Instant, before: (u64, u64), after: (u64, u64)) {
    stats.wall = start.elapsed();
    stats.steal_attempts += after.0.saturating_sub(before.0);
    stats.steals += after.1.saturating_sub(before.1);
}

/// Recursively split an oversized block in half and run `leaf` on each
/// `<= strip`-sized piece, forking the halves (parallel strip-mining of a
/// data-parallel root, §5.3).
pub(crate) fn split_strips<P, F>(
    env: Env<'_, P>,
    ctx: &WorkerCtx<'_>,
    mut block: TaskBlock<P::Store>,
    leaf: F,
) where
    P: BlockProgram,
    F: Fn(Env<'_, P>, &WorkerCtx<'_>, TaskBlock<P::Store>) + Copy + Send + Sync,
{
    let strip = env.cfg.t_dfe.max(1);
    if block.len() <= strip {
        if !block.is_empty() {
            leaf(env, ctx, block);
        }
        return;
    }
    let right = block.split_off(block.len() / 2);
    ctx.join(move |c| split_strips(env, c, block, leaf), move |c| split_strips(env, c, right, leaf));
}

/// Run `body` inside `pool`, timing it and collecting per-worker state.
pub(crate) fn drive<P, B>(prog: &P, cfg: SchedConfig, pool: &ThreadPool, body: B) -> (P::Reducer, ExecStats)
where
    P: BlockProgram,
    B: for<'e> FnOnce(Env<'e, P>, &WorkerCtx<'_>) + Send,
{
    let state = Env::make_state(prog, &cfg, pool.threads());
    let (before, start) = (pool.steal_totals(), Instant::now());
    pool.install(|ctx| {
        let env = Env { prog, cfg, state: &state };
        body(env, ctx);
    });
    let (red, mut stats) = collect(prog, state);
    charge(&mut stats, start, before, pool.steal_totals());
    (red, stats)
}

/// Like [`drive`], but from *inside* the pool: `ctx` is the executing
/// worker's context and `body` runs directly on it (no `install`, which
/// must only be called from outside the pool). This is how the service
/// layer runs a whole scheduler as one pool job — the join-based recursion
/// inside `body` spreads across workers exactly as it does under `drive`,
/// and several such jobs can be in flight on one pool concurrently, each
/// with its own per-worker state.
///
/// The steal counters charged to the run are the pool-wide delta over the
/// body, so concurrent jobs see each other's steals — per-job steal
/// attribution would need per-job counters the paper's stats don't ask for.
pub(crate) fn drive_on_ctx<P, B>(
    prog: &P,
    cfg: SchedConfig,
    ctx: &WorkerCtx<'_>,
    body: B,
) -> (P::Reducer, ExecStats)
where
    P: BlockProgram,
    B: for<'e> FnOnce(Env<'e, P>, &WorkerCtx<'_>),
{
    let state = Env::make_state(prog, &cfg, ctx.num_workers());
    let (before, start) = (ctx.steal_totals(), Instant::now());
    let env = Env { prog, cfg, state: &state };
    body(env, ctx);
    let (red, mut stats) = collect(prog, state);
    charge(&mut stats, start, before, ctx.steal_totals());
    (red, stats)
}
