//! One driving surface for all three schedulers.
//!
//! The framework ships three scheduler implementations — the sequential
//! engine ([`SeqScheduler`]), the pool scheduler that runs that engine
//! under any policy and splits it on demand ([`ParSplit`]), and the §3.4
//! reference the theory analyses ([`ParRestartIdeal`]). Everything that
//! *drives* schedulers — the benchmark suite, the figure/table harness
//! binaries, the examples, the equivalence tests — only needs "run this
//! program under that policy on these cores", so this module provides
//! exactly that:
//!
//! * [`Scheduler`] — the uniform trait, implemented by all three types:
//!   a name for tables, the [`SchedConfig`] it runs with, and
//!   [`Scheduler::run_with`] taking an optional [`ThreadPool`];
//! * [`SchedulerKind`] — a value-level selector for the three
//!   implementations, so harness code can iterate over them;
//! * [`run_policy`] — the one-call dispatcher: sequential when no pool is
//!   given, [`ParSplit`] under the config's own policy when one is;
//! * [`run_scheduler`] — the explicit-kind variant for callers that need
//!   the §3.4 reference as well.
//!
//! Only the §3.4 reference rewrites `cfg.policy` (to restart). Downstream code
//! should come through these entry points; naming the concrete scheduler
//! types is reserved for scheduler-specific unit tests (e.g. tests that
//! drive [`SeqScheduler::step`] one event at a time).

use tb_runtime::ThreadPool;

use crate::par::{ParRestartIdeal, ParSplit};
use crate::policy::SchedConfig;
use crate::program::{BlockProgram, RunOutput};
use crate::seq::SeqScheduler;

/// The three scheduler implementations, as a value. `Seq` and `Par` honour
/// `cfg.policy` (basic / re-expansion / restart / adaptive) exactly;
/// `RestartIdeal` is a restart scheduler by definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Single-core engine ([`SeqScheduler`]).
    Seq,
    /// The sequential engine on the work-stealing pool, splitting its
    /// frontier only when a thief is hungry ([`ParSplit`]).
    Par,
    /// §3.4: ideal restart on dedicated workers with stealable leveled
    /// deques (the formulation the theory analyses; the policy field is
    /// coerced to `Restart`).
    RestartIdeal,
}

#[allow(non_upper_case_globals)]
impl SchedulerKind {
    /// All three kinds, sequential first.
    pub const ALL: [SchedulerKind; 3] = [SchedulerKind::Seq, SchedulerKind::Par, SchedulerKind::RestartIdeal];

    /// Former name of [`SchedulerKind::Par`] under the restart policy,
    /// kept so pinned callers compile; a name, not a second path.
    #[doc(hidden)]
    pub const RestartSimplified: SchedulerKind = SchedulerKind::Par;

    /// Former name of [`SchedulerKind::Par`] under the adaptive policy,
    /// kept so pinned callers compile; a name, not a second path.
    #[doc(hidden)]
    pub const Adaptive: SchedulerKind = SchedulerKind::Par;

    /// Short name used in tables and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Seq => "seq",
            SchedulerKind::Par => "par",
            SchedulerKind::RestartIdeal => "par-restart-ideal",
        }
    }

    /// True for the multicore schedulers.
    pub fn is_parallel(self) -> bool {
        self != SchedulerKind::Seq
    }
}

/// Uniform driver interface over the three schedulers.
///
/// A `Scheduler` is a program paired with a [`SchedConfig`]; `run_with`
/// executes it to completion and returns the merged reduction plus
/// machine-model statistics. The `pool` argument is interpreted per
/// implementation:
///
/// * [`SeqScheduler`] ignores it (always single-core);
/// * [`ParSplit`] runs on it, or on an ephemeral pool sized to the
///   machine when `None` is given;
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

/// Run `prog` under `cfg`: the sequential engine when `pool` is `None`,
/// [`SchedulerKind::Par`] on `pool` otherwise — the same engine under the
/// same policy, split across workers on demand.
///
/// This is the entry point benchmarks, harness binaries and examples
/// should use; see [`run_scheduler`] for the §3.4 reference scheduler.
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
///     SchedConfig::adaptive(4),
/// ];
///
/// for cfg in configs {
///     // No pool: the sequential engine honours cfg.policy exactly.
///     assert_eq!(run_policy(&Tree(8), cfg, None).reducer, 1 << 8);
///     // With a pool: the same policy, split across workers on demand.
///     let pool = ThreadPool::new(2);
///     assert_eq!(run_policy(&Tree(8), cfg, Some(&pool)).reducer, 1 << 8);
/// }
/// ```
pub fn run_policy<P: BlockProgram>(
    prog: &P,
    cfg: SchedConfig,
    pool: Option<&ThreadPool>,
) -> RunOutput<P::Reducer> {
    let kind = if pool.is_some() { SchedulerKind::Par } else { SchedulerKind::Seq };
    run_scheduler(kind, prog, cfg, pool)
}

/// Run `prog` under `cfg` on an explicitly chosen scheduler
/// implementation. `pool` is interpreted as documented on [`Scheduler`];
/// note that [`SchedulerKind::Par`] constructs an ephemeral machine-sized
/// pool *per call* when `pool` is `None` — callers timing runs or looping
/// should create one pool and pass it.
///
/// # Examples
///
/// All three implementations agree on the reduction; under restart you
/// can choose between the pool-resident engine that splits on demand and
/// the §3.4 ideal scheduler (locked, stealable leveled deques) the
/// theory analyses:
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
        SchedulerKind::Par => ParSplit::new(prog, cfg).run_with(pool),
        SchedulerKind::RestartIdeal => {
            // Resolve the worker count here (not via default_workers()
            // unconditionally): with a pool supplied this stays syscall-free,
            // which matters inside timed benchmark loops.
            let workers = pool.map_or_else(default_workers, ThreadPool::threads);
            ParRestartIdeal::new(prog, cfg, workers).run_with(pool)
        }
    }
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
        SchedulerKind::Par => {
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

    fn every_policy() -> [SchedConfig; 4] {
        [
            SchedConfig::basic(4, 64),
            SchedConfig::reexpansion(4, 64),
            SchedConfig::restart(4, 64, 16),
            SchedConfig::adaptive(4),
        ]
    }

    #[test]
    fn run_policy_dispatches_seq_without_pool() {
        for cfg in every_policy() {
            let out = run_policy(&Fib(20), cfg, None);
            assert_eq!(out.reducer, 6765, "{:?}", cfg.policy);
            assert_eq!(out.stats.steals, 0, "sequential runs never steal");
        }
    }

    #[test]
    fn run_policy_dispatches_parallel_with_pool() {
        let pool = ThreadPool::new(3);
        for cfg in every_policy() {
            let out = run_policy(&Fib(20), cfg, Some(&pool));
            assert_eq!(out.reducer, 6765, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn every_kind_computes_the_same_reduction() {
        let pool = ThreadPool::new(2);
        for cfg in every_policy() {
            for kind in SchedulerKind::ALL {
                let out = run_scheduler(kind, &Fib(18), cfg, Some(&pool));
                assert_eq!(out.reducer, 2584, "{kind:?} {:?}", cfg.policy);
            }
        }
    }

    #[test]
    fn parallel_kinds_work_without_a_pool() {
        for cfg in every_policy() {
            for kind in [SchedulerKind::Par, SchedulerKind::RestartIdeal] {
                let out = run_scheduler(kind, &Fib(16), cfg, None);
                assert_eq!(out.reducer, 987, "{kind:?} {:?}", cfg.policy);
            }
        }
    }

    #[test]
    fn kind_names_and_policy_mapping() {
        assert_eq!(SchedulerKind::Seq.name(), "seq");
        assert!(!SchedulerKind::Seq.is_parallel());
        assert!(SchedulerKind::Par.is_parallel());
        assert!(SchedulerKind::RestartIdeal.is_parallel());
        assert_eq!(SchedulerKind::ALL.len(), 3);
        // The pinned former names are the one pool kind, not new paths.
        assert_eq!(SchedulerKind::RestartSimplified, SchedulerKind::Par);
        assert_eq!(SchedulerKind::Adaptive, SchedulerKind::Par);
        // The pool scheduler's table label follows the policy it runs.
        let prog = Fib(4);
        let label = |cfg| Scheduler::<Fib>::name(&ParSplit::new(&prog, cfg));
        assert_eq!(label(SchedConfig::reexpansion(4, 64)), "par-reexp");
        assert_eq!(label(SchedConfig::restart(4, 64, 16)), "par-restart");
        assert_eq!(label(SchedConfig::adaptive(4)), "par-adaptive");
    }

    /// fib(18) whose single `n == 17` task panics.
    struct PanicsAt17;

    impl BlockProgram for PanicsAt17 {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            vec![18]
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            if block.contains(&17) {
                panic!("task 17 failed");
            }
            Fib(0).expand(block, out, red);
        }
    }

    #[test]
    fn a_panicking_task_propagates_instead_of_hanging() {
        for kind in [SchedulerKind::Par, SchedulerKind::RestartIdeal] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let cfg = SchedConfig::restart(4, 64, 16);
                let run = std::panic::catch_unwind(|| run_scheduler_on(kind, &PanicsAt17, cfg, 2));
                let _ = tx.send(run.err().and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string())));
            });
            let payload = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{kind:?}: the run hung after a task panicked"));
            assert_eq!(
                payload.as_deref(),
                Some("task 17 failed"),
                "{kind:?}: the original panic is re-raised"
            );
        }
    }

    #[test]
    fn trait_objects_are_drivable_uniformly() {
        let prog = Fib(15);
        let cfg = SchedConfig::restart(4, 32, 8);
        let seq = SeqScheduler::new(&prog, cfg);
        let split = ParSplit::new(&prog, cfg);
        let ideal = ParRestartIdeal::new(&prog, cfg, 2);
        let schedulers: [&dyn Scheduler<Fib>; 3] = [&seq, &split, &ideal];
        let pool = ThreadPool::new(2);
        for s in schedulers {
            assert_eq!(s.run_with(Some(&pool)).reducer, 610, "{}", s.name());
            assert_eq!(s.config().t_dfe, 32);
        }
    }
}
