//! # tb-service — a persistent multi-tenant runtime front-end
//!
//! The paper's schedulers assume one program, one `install`, one pool
//! lifetime. This crate is the production-facing layer on top: a
//! long-lived [`Runtime`] that owns one work-stealing pool and multiplexes
//! many concurrent clients over it —
//!
//! * **job handles** — submit any [`BlockProgram`](tb_core::BlockProgram)
//!   from any thread and get a [`JobHandle`] back: poll it, block on it, or
//!   cancel it cooperatively — the run stops before the next superstep of
//!   each running piece (see `tb_core::cancel`);
//! * **per-job scheduling** — every job carries its own
//!   [`SchedConfig`](tb_core::SchedConfig) and
//!   [`SchedulerKind`](tb_core::SchedulerKind), so basic, re-expansion and
//!   restart jobs coexist on one pool. Every job runs through one driver,
//!   [`tb_core::drive`], on the worker that picks it up: `Seq` jobs stay
//!   there, `Par` jobs split whenever another worker is hungry;
//! * **bulk submission** — [`Runtime::submit_bulk`] cuts an input slice
//!   into adaptively sized chunks (per DCAFE: chunk size grows with queue
//!   depth, never one-task-per-item flooding);
//! * **multi-tenant admission** — every job belongs to a tenant
//!   ([`TenantSpec`]: weight, strict priority, pending bound). The
//!   admission scheduler ([`sched`]) splits pool slots by weight within a
//!   priority class (stride-style deficit accounting, so a flooding heavy
//!   tenant cannot starve a light one) and strictly by priority across
//!   classes, and the same scheduler's per-tenant live count is the
//!   backpressure bound: a tenant at `max_pending` blocks (`submit_*`) or
//!   sheds (`try_submit_*`) its *own* oversubscribing clients; the pool's
//!   *segmented unbounded* injector (`tb_runtime::injector`) guarantees
//!   admitted submissions never spin-block;
//! * **preemptible jobs** — [`Runtime::submit_preemptible`] work splits on
//!   demand and parks at a superstep boundary when a higher-priority
//!   tenant needs its slot: every running piece stops, the pieces merge
//!   into one frontier that swaps out into a bounded park pool, and it
//!   resumes later with bit-identical results (the paper's superstep
//!   structure is the preemption seam — between supersteps the engine's
//!   entire state is its frontier);
//! * **spec-source jobs** — [`Runtime::submit_spec_foreach_tier_as`]
//!   accepts a program the service has never seen before as spec-language
//!   *source text*: the
//!   runtime parses, validates and lowers it once (`tb_spec::compile`,
//!   cached by source), schedules the compiled program under any
//!   scheduler kind, and surfaces parse/validate failures through the
//!   handle as [`JobError::Rejected`] caret diagnostics instead of
//!   panicking a worker.
//!
//! ```
//! use tb_core::prelude::*;
//! use tb_service::{Runtime, DEFAULT_TENANT};
//! use tb_spec::SpecTier;
//!
//! let rt = Runtime::new(2);
//! let h = rt.submit_spec_foreach_tier_as(
//!     DEFAULT_TENANT,
//!     "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }",
//!     vec![vec![20]], // one root call; several would be a data-parallel foreach
//!     SchedConfig::restart(8, 1 << 10, 64),
//!     SchedulerKind::Par,
//!     SpecTier::Auto,
//! );
//! assert_eq!(h.wait(), Ok(6765));
//! ```
//!
//! Every entry point names its tenant ([`DEFAULT_TENANT`] for callers that
//! have none) and, for spec source, its execution tier: there is one
//! blocking and one shedding form of each submission, not a family of
//! defaulted shorthands. The segment lifecycle, the backpressure rule and
//! the worker parking protocol are documented in DESIGN.md §7.
//!
//! # Quick start
//!
//! ```
//! use tb_core::prelude::*;
//! use tb_service::{Runtime, RuntimeConfig, DEFAULT_TENANT};
//!
//! /// Count the leaves of a depth-n binary tree (any BlockProgram works).
//! struct Tree(u32);
//! impl BlockProgram for Tree {
//!     type Store = Vec<u32>;
//!     type Reducer = u64;
//!     fn arity(&self) -> usize { 2 }
//!     fn make_root(&self) -> Vec<u32> { vec![self.0] }
//!     fn make_reducer(&self) -> u64 { 0 }
//!     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
//!     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
//!         for n in block.drain(..) {
//!             if n == 0 { *red += 1 } else {
//!                 out.bucket(0).push(n - 1);
//!                 out.bucket(1).push(n - 1);
//!             }
//!         }
//!     }
//! }
//!
//! // One shared runtime; clients clone it freely.
//! let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 16, ..RuntimeConfig::default() });
//!
//! // Mixed jobs in flight concurrently, each with its own scheduler.
//! let a = rt.submit_as(DEFAULT_TENANT, Tree(10), SchedConfig::basic(4, 64), SchedulerKind::Par);
//! let b = rt.submit_as(
//!     DEFAULT_TENANT,
//!     Tree(12),
//!     SchedConfig::restart(4, 64, 16),
//!     SchedulerKind::Par,
//! );
//! assert_eq!(a.wait(), Ok(1 << 10));
//! assert_eq!(b.wait(), Ok(1 << 12));
//!
//! // Bulk data-parallel submission: items chunked adaptively, results in
//! // input order.
//! let bulk = rt.submit_bulk(
//!     (0..64u32).map(|_| 4u32).collect::<Vec<_>>(),
//!     SchedConfig::basic(4, 64),
//!     SchedulerKind::Par,
//!     |chunk: Vec<u32>| Tree(chunk.len() as u32 + 3), // one program per chunk
//! );
//! let total: u64 = bulk.wait().into_iter().map(|r| r.unwrap()).sum();
//! assert!(total > 0);
//!
//! // Cancellation is cooperative and drop is detach, not cancel.
//! let big = rt.submit_as(DEFAULT_TENANT, Tree(28), SchedConfig::basic(4, 1024), SchedulerKind::Par);
//! big.cancel();
//! let _ = big.wait(); // Err(Cancelled), or Ok(_) if it finished first — never a hang
//!
//! // The submission path never spin-blocked on capacity:
//! assert_eq!(rt.stats().injector.full_waits, 0);
//! ```

mod bulk;
mod handle;
mod runtime;
pub mod sched;
pub mod shard;
pub mod wire;

pub use bulk::BulkHandle;
pub use handle::{JobError, JobHandle};
pub use runtime::{Runtime, RuntimeConfig, RuntimeLoad, ServiceStats, DEFAULT_TENANT};
pub use sched::{
    Action, AdmissionPolicy, JobId, JobPhase, SchedCore, TenantCounters, TenantId, TenantSnapshot, TenantSpec,
};
pub use shard::{
    affinity_shard, Placement, PlacementCore, PlacementCounters, PlacementPolicy, ShardConfig, ShardId,
    ShardSnapshot, ShardedRuntime,
};
