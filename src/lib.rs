//! # taskblocks
//!
//! A from-scratch Rust implementation of the PPoPP'17 paper
//! *Exploiting Vector and Multicore Parallelism for Recursive, Data- and
//! Task-Parallel Programs* (Ren, Krishnamoorthy, Agrawal, Kulkarni):
//! a unified scheduling framework in which **task blocks** — dense batches
//! of same-depth tasks — serve simultaneously as the unit of SIMD
//! execution and the unit of multicore work stealing.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`tb-core`) — task blocks, the BFE/DFE/Restart scheduling
//!   framework, the sequential engine and the one superstep seam that
//!   splits it on demand, stops it on cancel and parks it on preemption,
//!   machine-model statistics;
//! * [`runtime`] (`tb-runtime`) — the Cilk-style child-stealing runtime
//!   (`join`, the hungry-thief signal, the segmented unbounded injector);
//! * [`service`] (`tb-service`) — the persistent multi-tenant front-end:
//!   one shared pool, job handles, bulk submission, per-tenant admission
//!   and backpressure, preemptible jobs that split and park (every
//!   submission names its tenant; the prelude carries `DEFAULT_TENANT`
//!   for code that has none);
//! * [`simd`] (`tb-simd`) — portable lanes, struct-of-arrays stores,
//!   streaming compaction;
//! * [`model`] (`tb-model`) — explicit computation trees and the Theorem
//!   1–4 bounds;
//! * [`spec`] (`tb-spec`) — the §5 specification language: its reference
//!   interpreter, and the blocking transformation as a compiler to scalar
//!   and vector execution tiers;
//! * [`suite`] (`tb-suite`) — the eleven benchmarks of the paper's
//!   evaluation with serial / Cilk / blocked / SoA / SIMD variants.
//!
//! ## Quickstart
//!
//! ```
//! use taskblocks::prelude::*;
//!
//! struct Fib;
//! impl BlockProgram for Fib {
//!     type Store = Vec<u32>;
//!     type Reducer = u64;
//!     fn arity(&self) -> usize { 2 }
//!     fn make_root(&self) -> Vec<u32> { vec![25] }
//!     fn make_reducer(&self) -> u64 { 0 }
//!     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
//!     fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
//!         for n in block.drain(..) {
//!             if n < 2 { *red += u64::from(n) } else {
//!                 out.bucket(0).push(n - 1);
//!                 out.bucket(1).push(n - 2);
//!             }
//!         }
//!     }
//! }
//!
//! let cfg = SchedConfig::restart(8, 1 << 10, 64);
//!
//! // Single core, 8 SIMD lanes, restart scheduling:
//! let out = run_policy(&Fib, cfg, None);
//! assert_eq!(out.reducer, 75_025);
//!
//! // All cores: the same entry point with a work-stealing pool runs the
//! // same restart engine, split across workers whenever one is hungry.
//! let pool = ThreadPool::new(4);
//! let par = run_policy(&Fib, cfg, Some(&pool));
//! assert_eq!(par.reducer, 75_025);
//!
//! // Or pick a scheduler implementation explicitly:
//! let ideal = run_scheduler(SchedulerKind::RestartIdeal, &Fib, cfg, Some(&pool));
//! assert_eq!(ideal.reducer, 75_025);
//! ```

pub use tb_core as core;
pub use tb_model as model;
pub use tb_runtime as runtime;
pub use tb_service as service;
pub use tb_simd as simd;
pub use tb_spec as spec;
pub use tb_suite as suite;

/// One-stop imports for building and scheduling blocked programs.
pub mod prelude {
    pub use tb_core::prelude::*;
    pub use tb_runtime::{ThreadPool, WorkerCtx};
    pub use tb_service::{JobHandle, Runtime, RuntimeConfig, DEFAULT_TENANT};
    pub use tb_simd::{compact_append, default_q, detected_q, Lanes, Mask};
}
