//! One driving surface for all five schedulers.
//!
//! The framework ships five scheduler implementations — the sequential
//! engine ([`SeqScheduler`]) and four multicore schedulers
//! ([`ParReExpansion`], [`ParRestart`], [`ParRestartIdeal`],
//! [`ParAdaptive`]) —
//! which historically exposed ad-hoc entry points (`run()`, `run(&pool)`,
//! `run()` with a worker count baked in at construction). Everything that
//! *drives* schedulers — the benchmark suite, the figure/table harness
//! binaries, the examples, the equivalence tests — only needs "run this
//! program under that policy on these cores", so this module provides
//! exactly that:
//!
//! * [`Scheduler`] — the uniform trait, implemented by all five types:
//!   a name for tables, the [`SchedConfig`] it runs with, and
//!   [`Scheduler::run_with`] taking an optional [`ThreadPool`];
//! * [`SchedulerKind`] — a value-level selector for the five
//!   implementations, so harness code can iterate over them;
//! * [`run_policy`] — the one-call dispatcher: sequential when no pool is
//!   given, the policy's multicore scheduler when one is;
//! * [`run_scheduler`] — the explicit-kind variant for callers that need
//!   to distinguish the two parallel restart implementations.
//!
//! Downstream code should come through these entry points; naming the
//! concrete scheduler types is reserved for scheduler-specific unit tests
//! (e.g. tests that drive [`SeqScheduler::step`] one event at a time).

use tb_runtime::{ThreadPool, WorkerCtx};

use crate::par::{ParAdaptive, ParReExpansion, ParRestart, ParRestartIdeal};
use crate::policy::{PolicyKind, SchedConfig};
use crate::program::{BlockProgram, RunOutput};
use crate::seq::SeqScheduler;

/// The five scheduler implementations, as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Single-core engine; honours `cfg.policy` exactly
    /// (basic / re-expansion / restart / adaptive).
    Seq,
    /// Fig. 3(a): blocked re-expansion on the work-stealing pool.
    ReExpansion,
    /// Restart on the work-stealing pool ([`ParRestart`]): sequential
    /// restart engines that split only when a thief is hungry. The name is
    /// the paper's (§6 evaluates its pool embedding as "simplified
    /// restart"); the Fig. 3(c) fork-per-block mechanics are retired.
    RestartSimplified,
    /// §3.4: ideal restart on dedicated workers with stealable leveled
    /// deques (the formulation the theory analyses).
    RestartIdeal,
    /// Steal-driven per-worker grain control on the work-stealing pool:
    /// re-expansion's loop with a live grain instead of fixed cutoffs
    /// (see [`crate::GrainController`]).
    Adaptive,
}

impl SchedulerKind {
    /// All five kinds, sequential first.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::Seq,
        SchedulerKind::ReExpansion,
        SchedulerKind::RestartSimplified,
        SchedulerKind::RestartIdeal,
        SchedulerKind::Adaptive,
    ];

    /// Short name used in tables and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Seq => "seq",
            SchedulerKind::ReExpansion => "par-reexp",
            SchedulerKind::RestartSimplified => "par-restart",
            SchedulerKind::RestartIdeal => "par-restart-ideal",
            SchedulerKind::Adaptive => "par-adaptive",
        }
    }

    /// True for the multicore schedulers.
    pub fn is_parallel(self) -> bool {
        self != SchedulerKind::Seq
    }

    /// The kind [`run_policy`] would select for `policy` given a pool.
    pub fn for_policy(policy: PolicyKind, parallel: bool) -> SchedulerKind {
        if !parallel {
            SchedulerKind::Seq
        } else {
            match policy {
                // There is no dedicated parallel basic scheduler; basic's
                // BFE-then-DFE behaviour is the re-expansion scheduler's
                // warm-up phase, so Basic maps there (§3.2).
                PolicyKind::Basic | PolicyKind::ReExpansion => SchedulerKind::ReExpansion,
                PolicyKind::Restart => SchedulerKind::RestartSimplified,
                PolicyKind::Adaptive => SchedulerKind::Adaptive,
            }
        }
    }
}

/// Uniform driver interface over the four schedulers.
///
/// A `Scheduler` is a program paired with a [`SchedConfig`]; `run_with`
/// executes it to completion and returns the merged reduction plus
/// machine-model statistics. The `pool` argument is interpreted per
/// implementation:
///
/// * [`SeqScheduler`] ignores it (always single-core);
/// * the pool-based schedulers run on it, or on an ephemeral pool sized to
///   the machine when `None` is given;
/// * [`ParRestartIdeal`] runs on its own dedicated threads, sized to the
///   pool if one is given (it only borrows the *count*, never the threads).
pub trait Scheduler<P: BlockProgram> {
    /// Short name for tables and figures.
    fn name(&self) -> &'static str;

    /// The policy and thresholds this scheduler runs with.
    fn config(&self) -> &SchedConfig;

    /// Run the program to completion.
    fn run_with(&self, pool: Option<&ThreadPool>) -> RunOutput<P::Reducer>;
}

/// Run `body` on `pool` when given, else on an ephemeral machine-sized pool.
pub(crate) fn with_pool<R>(pool: Option<&ThreadPool>, body: impl FnOnce(&ThreadPool) -> R) -> R {
    match pool {
        Some(pool) => body(pool),
        None => body(&ThreadPool::new(default_workers())),
    }
}

/// Worker count used when no pool is supplied: one per available core.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `prog` under `cfg` on the policy's canonical scheduler: the
/// sequential engine when `pool` is `None`, the policy's multicore
/// scheduler on `pool` otherwise (re-expansion for
/// [`PolicyKind::Basic`]/[`PolicyKind::ReExpansion`], split-on-demand
/// restart for [`PolicyKind::Restart`]).
///
/// This is the entry point benchmarks, harness binaries and examples
/// should use; see [`run_scheduler`] when the choice between the two
/// parallel restart implementations matters.
///
/// # Examples
///
/// One minimal program — a full binary tree whose leaves are counted —
/// driven through every policy, single-core and multicore. The thresholds
/// come from the [`SchedConfig`] builders; see its docs for the §3.5
/// semantics of `t_dfe`/`t_bfe`/`t_restart`.
///
/// ```
/// use tb_core::prelude::*;
/// use tb_runtime::ThreadPool;
///
/// /// Tasks are "remaining depth"; a task at depth 0 is a leaf.
/// struct Tree(u32);
///
/// impl BlockProgram for Tree {
///     type Store = Vec<u32>;
///     type Reducer = u64;
///     fn arity(&self) -> usize { 2 }
///     fn make_root(&self) -> Vec<u32> { vec![self.0] }
///     fn make_reducer(&self) -> u64 { 0 }
///     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
///     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
///         for n in block.drain(..) {
///             if n == 0 { *red += 1 } else {
///                 out.bucket(0).push(n - 1);
///                 out.bucket(1).push(n - 1);
///             }
///         }
///     }
/// }
///
/// // Q = 4 lanes; switch to depth-first at 64-task blocks (t_dfe, §3.5),
/// // re-expand below 32 (t_bfe), restart below 16 (t_restart).
/// let configs = [
///     SchedConfig::basic(4, 64),
///     SchedConfig::reexpansion_with(4, 64, 32),
///     SchedConfig::restart(4, 64, 16),
/// ];
///
/// for cfg in configs {
///     // No pool: the sequential engine honours cfg.policy exactly.
///     assert_eq!(run_policy(&Tree(8), cfg, None).reducer, 1 << 8);
///     // With a pool: the policy's canonical multicore scheduler.
///     let pool = ThreadPool::new(2);
///     assert_eq!(run_policy(&Tree(8), cfg, Some(&pool)).reducer, 1 << 8);
/// }
/// ```
pub fn run_policy<P: BlockProgram>(
    prog: &P,
    cfg: SchedConfig,
    pool: Option<&ThreadPool>,
) -> RunOutput<P::Reducer> {
    run_scheduler(SchedulerKind::for_policy(cfg.policy, pool.is_some()), prog, cfg, pool)
}

/// Run `prog` under `cfg` on an explicitly chosen scheduler
/// implementation. `pool` is interpreted as documented on [`Scheduler`];
/// note that the pool-based kinds construct an ephemeral machine-sized
/// pool *per call* when `pool` is `None` — callers timing runs or looping
/// should create one pool and pass it.
///
/// # Examples
///
/// All four implementations agree on the reduction; the restart kinds
/// additionally let you choose between the pool-resident one (sequential
/// engines that split on demand) and the §3.4 ideal scheduler (lock-free
/// stealable leveled deques) the theory analyses:
///
/// ```
/// use tb_core::prelude::*;
/// use tb_runtime::ThreadPool;
/// # struct Tree(u32);
/// # impl BlockProgram for Tree {
/// #     type Store = Vec<u32>;
/// #     type Reducer = u64;
/// #     fn arity(&self) -> usize { 2 }
/// #     fn make_root(&self) -> Vec<u32> { vec![self.0] }
/// #     fn make_reducer(&self) -> u64 { 0 }
/// #     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
/// #     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
/// #         for n in block.drain(..) {
/// #             if n == 0 { *red += 1 } else {
/// #                 out.bucket(0).push(n - 1);
/// #                 out.bucket(1).push(n - 1);
/// #             }
/// #         }
/// #     }
/// # }
///
/// // t_restart = 16 (§3.5: park blocks below this and scan the deque).
/// let cfg = SchedConfig::restart(4, 64, 16);
/// let pool = ThreadPool::new(2);
/// for kind in SchedulerKind::ALL {
///     let out = run_scheduler(kind, &Tree(10), cfg, Some(&pool));
///     assert_eq!(out.reducer, 1 << 10, "{}", kind.name());
/// }
/// ```
pub fn run_scheduler<P: BlockProgram>(
    kind: SchedulerKind,
    prog: &P,
    cfg: SchedConfig,
    pool: Option<&ThreadPool>,
) -> RunOutput<P::Reducer> {
    match kind {
        SchedulerKind::Seq => SeqScheduler::new(prog, cfg).run_with(pool),
        SchedulerKind::ReExpansion => ParReExpansion::new(prog, cfg).run_with(pool),
        SchedulerKind::RestartSimplified => ParRestart::new(prog, cfg).run_with(pool),
        SchedulerKind::RestartIdeal => {
            // Resolve the worker count here (not via default_workers()
            // unconditionally): with a pool supplied this stays syscall-free,
            // which matters inside timed benchmark loops.
            let workers = pool.map_or_else(default_workers, ThreadPool::threads);
            ParRestartIdeal::new(prog, cfg, workers).run_with(pool)
        }
        SchedulerKind::Adaptive => ParAdaptive::new(prog, cfg).run_with(pool),
    }
}

/// Like [`run_scheduler`], but driven from *inside* the pool: `ctx` is the
/// context of the worker executing the current job. This is the service
/// layer's entry point — `ThreadPool::install` must not be called from a
/// worker, so a job that wants to run a whole scheduler (a submitted
/// `tb-service` job) comes through here instead. The join-based recursion
/// fans out across the pool exactly as under [`run_scheduler`], and many
/// such runs can coexist on one pool, each with its own per-worker state.
///
/// Kind mapping from inside the pool:
///
/// * [`SchedulerKind::Seq`] runs inline on this worker (it never forks);
/// * [`SchedulerKind::ReExpansion`] / [`SchedulerKind::Adaptive`] run on
///   the pool via the worker's own fork/join context;
/// * [`SchedulerKind::RestartSimplified`] runs as a sequential engine on
///   this worker and forks only when another worker is hungry;
/// * [`SchedulerKind::RestartIdeal`] keeps its §3.4 semantics: it runs on
///   its *own dedicated threads* (sized to this pool), with the submitting
///   worker blocked driving them — correct, but it oversubscribes the
///   machine, so pool-resident kinds are the better default for services.
pub fn run_scheduler_on_ctx<P: BlockProgram>(
    kind: SchedulerKind,
    prog: &P,
    cfg: SchedConfig,
    ctx: &WorkerCtx<'_>,
) -> RunOutput<P::Reducer> {
    match kind {
        SchedulerKind::Seq => SeqScheduler::new(prog, cfg).run(),
        SchedulerKind::ReExpansion => ParReExpansion::new(prog, cfg).run_on(ctx),
        SchedulerKind::RestartSimplified => ParRestart::new(prog, cfg).run_on(ctx),
        SchedulerKind::RestartIdeal => ParRestartIdeal::new(prog, cfg, ctx.num_workers()).run(),
        SchedulerKind::Adaptive => ParAdaptive::new(prog, cfg).run_on(ctx),
    }
}

/// [`run_policy`]'s in-pool counterpart: map `cfg.policy` to its canonical
/// multicore scheduler (the [`SchedulerKind::for_policy`] mapping) and run
/// it on the executing worker's pool via [`run_scheduler_on_ctx`].
pub fn run_policy_on_ctx<P: BlockProgram>(
    prog: &P,
    cfg: SchedConfig,
    ctx: &WorkerCtx<'_>,
) -> RunOutput<P::Reducer> {
    run_scheduler_on_ctx(SchedulerKind::for_policy(cfg.policy, true), prog, cfg, ctx)
}

/// Like [`run_scheduler`], but parameterised by a worker *count* instead of
/// a pool. Callers that only sweep parallelism degrees (the theory harness,
/// property tests) should use this: [`SchedulerKind::RestartIdeal`] runs on
/// its own dedicated threads, so handing it a pool would spawn `workers`
/// pool threads that only park.
pub fn run_scheduler_on<P: BlockProgram>(
    kind: SchedulerKind,
    prog: &P,
    cfg: SchedConfig,
    workers: usize,
) -> RunOutput<P::Reducer> {
    match kind {
        SchedulerKind::Seq => SeqScheduler::new(prog, cfg).run(),
        SchedulerKind::ReExpansion | SchedulerKind::RestartSimplified | SchedulerKind::Adaptive => {
            let pool = ThreadPool::new(workers);
            run_scheduler(kind, prog, cfg, Some(&pool))
        }
        SchedulerKind::RestartIdeal => ParRestartIdeal::new(prog, cfg, workers).run(),
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
    fn run_policy_dispatches_seq_without_pool() {
        for cfg in
            [SchedConfig::basic(4, 64), SchedConfig::reexpansion(4, 64), SchedConfig::restart(4, 64, 16)]
        {
            let out = run_policy(&Fib(20), cfg, None);
            assert_eq!(out.reducer, 6765, "{:?}", cfg.policy);
            assert_eq!(out.stats.steals, 0, "sequential runs never steal");
        }
    }

    #[test]
    fn run_policy_dispatches_parallel_with_pool() {
        let pool = ThreadPool::new(3);
        for cfg in
            [SchedConfig::basic(4, 64), SchedConfig::reexpansion(4, 64), SchedConfig::restart(4, 64, 16)]
        {
            let out = run_policy(&Fib(20), cfg, Some(&pool));
            assert_eq!(out.reducer, 6765, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn every_kind_computes_the_same_reduction() {
        let pool = ThreadPool::new(2);
        let cfg = SchedConfig::restart(4, 64, 16);
        for kind in SchedulerKind::ALL {
            let out = run_scheduler(kind, &Fib(18), cfg, Some(&pool));
            assert_eq!(out.reducer, 2584, "{kind:?}");
        }
    }

    #[test]
    fn parallel_kinds_work_without_a_pool() {
        let cfg = SchedConfig::restart(4, 64, 16);
        for kind in [
            SchedulerKind::ReExpansion,
            SchedulerKind::RestartSimplified,
            SchedulerKind::RestartIdeal,
            SchedulerKind::Adaptive,
        ] {
            let out = run_scheduler(kind, &Fib(16), cfg, None);
            assert_eq!(out.reducer, 987, "{kind:?}");
        }
    }

    #[test]
    fn kind_names_and_policy_mapping() {
        assert_eq!(SchedulerKind::Seq.name(), "seq");
        assert!(!SchedulerKind::Seq.is_parallel());
        assert!(SchedulerKind::RestartIdeal.is_parallel());
        assert_eq!(SchedulerKind::for_policy(PolicyKind::Restart, true), SchedulerKind::RestartSimplified);
        assert_eq!(SchedulerKind::for_policy(PolicyKind::Basic, true), SchedulerKind::ReExpansion);
        assert_eq!(SchedulerKind::for_policy(PolicyKind::Restart, false), SchedulerKind::Seq);
        assert_eq!(SchedulerKind::Adaptive.name(), "par-adaptive");
        assert!(SchedulerKind::Adaptive.is_parallel());
        assert_eq!(SchedulerKind::for_policy(PolicyKind::Adaptive, true), SchedulerKind::Adaptive);
        assert_eq!(SchedulerKind::for_policy(PolicyKind::Adaptive, false), SchedulerKind::Seq);
    }

    #[test]
    fn trait_objects_are_drivable_uniformly() {
        let prog = Fib(15);
        let cfg = SchedConfig::restart(4, 32, 8);
        let seq = SeqScheduler::new(&prog, cfg);
        let reexp = ParReExpansion::new(&prog, cfg);
        let restart = ParRestart::new(&prog, cfg);
        let ideal = ParRestartIdeal::new(&prog, cfg, 2);
        let adaptive = ParAdaptive::new(&prog, cfg);
        let schedulers: [&dyn Scheduler<Fib>; 5] = [&seq, &reexp, &restart, &ideal, &adaptive];
        let pool = ThreadPool::new(2);
        for s in schedulers {
            assert_eq!(s.run_with(Some(&pool)).reducer, 610, "{}", s.name());
            assert_eq!(s.config().t_dfe, 32);
        }
    }
}
