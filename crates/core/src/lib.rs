//! # tb-core — task-block scheduling for vector *and* multicore parallelism
//!
//! This crate implements the scheduling framework of
//!
//! > Ren, Krishnamoorthy, Agrawal, Kulkarni.
//! > *Exploiting Vector and Multicore Parallelism for Recursive, Data- and
//! > Task-Parallel Programs.* PPoPP 2017.
//!
//! The central abstraction is the **task block**: a dense, level-tagged
//! collection of independent tasks that all sit at the same depth of the
//! computation tree. Because every task in a block runs the same code at the
//! same recursion depth, a block can be executed as a dense (vectorizable)
//! loop — and because blocks are self-contained, they can also be pushed on a
//! deque and stolen by other cores. One abstraction, both kinds of hardware.
//!
//! A scheduler manipulates blocks with three mechanisms (§3.1 of the paper):
//!
//! * **BFE** (breadth-first expansion): run the block, gather *all* children
//!   into one next-level block. Grows parallelism; grows space.
//! * **DFE** (depth-first execution): run the block, but keep the children of
//!   each spawn site separate; descend into the first and push the rest.
//!   Bounds space; lets blocks shrink.
//! * **Restart**: park an underfull block on the deque and scan the deque,
//!   merging same-level blocks, to assemble a full block elsewhere.
//!
//! Combining these yields the scheduler families analysed in the paper:
//! [`PolicyKind::Basic`], [`PolicyKind::ReExpansion`] (Ren et al. PLDI'15),
//! and [`PolicyKind::Restart`] (new in PPoPP'17, asymptotically optimal),
//! plus [`PolicyKind::Adaptive`], a geometric grain ramp (a
//! [`GrainController`]) that replaces the hand-tuned
//! `t_dfe`/`t_bfe`/`t_restart` cutoffs entirely. One sequential engine
//! runs every policy; the [`par`] module takes it multicore by splitting
//! its frontier whenever a work-stealing thief is hungry — through
//! [`drive`], the one superstep seam, which also stops a run whose
//! [`CancelToken`] fired and parks one whose preempt flag is set — plus
//! the §3.4
//! reference scheduler the theory analyses, whose workers steal whole levels
//! from each other's [`SharedLeveledDeque`]s — the engine's
//! [`LeveledDeque`] behind a lock.
//!
//! ## Plugging in a program
//!
//! Programs implement [`BlockProgram`]: one `expand` call advances every task
//! of a block by one step, pushing spawned children into per-spawn-site
//! [`BucketSet`] buckets and folding base cases into a reducer. The dense
//! loop inside `expand` is where SIMD happens; the scheduler neither knows
//! nor cares whether the loop is scalar, auto-vectorized or hand-vectorized.
//!
//! ```
//! use tb_core::prelude::*;
//!
//! /// fib(n) as a task-parallel computation: every call is a task.
//! struct Fib;
//! impl BlockProgram for Fib {
//!     type Store = Vec<u32>;
//!     type Reducer = u64;
//!     fn arity(&self) -> usize { 2 }
//!     fn make_root(&self) -> Vec<u32> { vec![20] }
//!     fn make_reducer(&self) -> u64 { 0 }
//!     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
//!     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, sum: &mut u64) {
//!         for n in block.drain(..) {
//!             if n < 2 { *sum += u64::from(n); } else {
//!                 out.bucket(0).push(n - 1);
//!                 out.bucket(1).push(n - 2);
//!             }
//!         }
//!     }
//! }
//!
//! let cfg = SchedConfig::restart(8, 1 << 10, 64);
//! let out = run_policy(&Fib, cfg, None);
//! assert_eq!(out.reducer, 6765);
//! assert!(out.stats.simd_utilization() > 0.5);
//! ```
//!
//! Passing a [`tb_runtime::ThreadPool`] to the same [`run_policy`] call
//! runs the same policy on the pool, splitting on demand; [`run_scheduler`]
//! picks one of the three implementations explicitly. See the
//! [`scheduler`] module for the trait behind both.

pub mod block;
pub mod cancel;
pub mod deque;
pub mod par;
pub mod policy;
pub mod program;
pub mod reduce;
pub mod scheduler;
pub mod seq;
pub mod stats;

pub use block::{TaskBlock, TaskStore};
pub use cancel::CancelToken;
pub use deque::{LeveledDeque, RestartFind, SharedLeveledDeque, StolenLevel};
pub use par::{drive, Outcome, Seam};
pub use policy::{GrainController, PolicyKind, SchedConfig};
pub use program::{merge_sum, BlockProgram, BucketSet, ProgramShape, RunOutput};
pub use scheduler::{run_policy, run_scheduler, run_scheduler_on, Scheduler, SchedulerKind};
pub use seq::{run_depth_first, SeqFrontier, SeqScheduler, StepEvent};
pub use stats::ExecStats;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::block::{TaskBlock, TaskStore};
    pub use crate::cancel::CancelToken;
    pub use crate::par::{drive, Outcome, ParRestartIdeal, ParSplit, Seam};
    pub use crate::policy::{GrainController, PolicyKind, SchedConfig};
    pub use crate::program::{merge_sum, BlockProgram, BucketSet, ProgramShape, RunOutput};
    pub use crate::scheduler::{run_policy, run_scheduler, run_scheduler_on, Scheduler, SchedulerKind};
    pub use crate::seq::{run_depth_first, SeqFrontier, SeqScheduler, StepEvent};
    pub use crate::stats::ExecStats;
}
