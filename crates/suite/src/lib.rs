//! # tb-suite — the eleven PPoPP'17 benchmarks and their substrates
//!
//! Every benchmark from Table 1 of the paper, re-derived from its published
//! description, in up to five forms:
//!
//! 1. **serial** — the plain recursive program (the paper's `Ts` baseline);
//! 2. **cilk** — per-task `join` forks on `tb-runtime` (the paper's input
//!    Cilk program, `T1`/`T16`);
//! 3. **blocked AoS** — a [`tb_core::BlockProgram`] over `Vec<Task>`
//!    (Table 2's *Block* tier);
//! 4. **blocked SoA** — the same program over struct-of-arrays columns
//!    (Table 2's *SOA* tier);
//! 5. **SIMD** — the SoA program with explicit [`tb_simd::Lanes`] kernels
//!    and streaming compaction where the benchmark's inner loop warrants it
//!    (Table 2's *SIMD* tier; benchmarks whose per-task work is dominated
//!    by irregular control flow keep the SoA kernel, as documented per
//!    module).
//!
//! | module | paper input | tree (levels, tasks) | parallelism nesting |
//! |--------|-------------|----------------------|---------------------|
//! | [`fib`] | fib(45) | 45, 3.67 G | task only |
//! | [`knapsack`] | 31 items | 31, 2.15 G | task only |
//! | [`parentheses`] | n=19 | 37, 4.85 G | task only |
//! | [`nqueens`] | 15×15 | 16, 168 M | data in task |
//! | [`graphcol`] | 3 colours, 38 verts | 39, 42.4 M | data in task |
//! | [`uts`] | binomial | 228, 19.9 M | task only |
//! | [`binomial`] | C(36,13) | 36, 4.62 G | task only |
//! | [`minmax`] | 4×4 board | 13, 2.42 G | task only |
//! | [`barneshut`] | 1 M bodies | 18, 3.0 G | task in data |
//! | [`pointcorr`] | 300 K points | 18, 1.77 G | data in task in data |
//! | [`knn`] | 100 K points | 15, 1.36 G | data in task in data |
//!
//! Paper-scale inputs are supported (`Scale::Paper`) but the default
//! [`Scale::Small`] presets shrink each input while keeping its tree
//! *shape* (unbalance, fan-out, depth-vs-width regime), so the whole
//! harness runs in minutes on a laptop.

pub mod bench;
pub mod outcome;

pub mod barneshut;
pub mod binomial;
pub mod fib;
pub mod graphcol;
pub mod knapsack;
pub mod knn;
pub mod minmax;
pub mod nqueens;
pub mod parentheses;
pub mod pointcorr;
pub mod uts;

pub mod geom;
pub mod graphs;
pub mod uts_rng;

pub use bench::{all_benchmarks, benchmark_by_name, Benchmark, RunSummary, Scale, Tier};
pub use outcome::Outcome;
pub use tb_core::SchedulerKind;
