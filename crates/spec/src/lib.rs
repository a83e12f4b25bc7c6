//! # tb-spec — the extended specification language of §5
//!
//! The paper evaluates its schedulers on programs written in a restricted
//! specification language: a single k-ary recursive method
//!
//! ```text
//! f(p1, …, pk) = if e_b then s_b else s_i
//! ```
//!
//! whose base case `s_b` performs reductions and whose inductive case
//! `s_i` spawns recursive calls — optionally wrapped in a data-parallel
//! `foreach` loop (§5.2), which is the extension that admits programs like
//! Barnes-Hut. This crate implements that language end to end:
//!
//! * [`ast`] — the expression/statement forms, with validation of the
//!   language's restrictions (spawn only the method itself, reductions
//!   only in base position);
//! * [`parse`] — a small text front-end, so specs can be written as
//!   source strings;
//! * [`interp`] — the direct recursive interpreter (reference semantics);
//! * [`compile`](mod@compile) — the §5.3 transformation: a spec becomes a
//!   [`tb_core::BlockProgram`] ([`CompiledSpec`]) whose `expand` advances
//!   a whole task block, with the data-parallel outer loop strip-mined
//!   into the root block — after which *every* scheduler in `tb-core`
//!   (BFE/DFE blocking, re-expansion, restart, work stealing) applies
//!   unchanged. The validated AST is lowered once to a flat register-based
//!   instruction stream ([`SpecCode`]) executed over column-major task
//!   stores ([`compile::ArgBlock`]: one contiguous `Vec<i64>` per
//!   parameter) — no AST walk and no per-task allocation on the `expand`
//!   hot path;
//! * [`simd_exec`] — the vector tier over the same instruction stream:
//!   [`SpecCode::run_tasks_q`] executes `Q` tasks in lockstep with
//!   registers widened to `tb_simd::Lanes<i64, Q>` columns and divergent
//!   control flow masked per lane, packaged as [`VectorSpec`] with the
//!   ragged remainder peeled scalar-wise;
//! * [`examples`] — fib, binomial, parentheses and the §5.2 `foreach`
//!   k-ary tree sum written in the language, used by the cross-validation
//!   tests.
//!
//! The three execution routes — [`interpret`] (the oracle),
//! [`CompiledSpec`] (compiled scalar), [`VectorSpec`] (compiled vector) —
//! are semantically interchangeable (wrapping-`i64` reductions, syntactic
//! spawn-site numbering, identical task trees); the differential property
//! tests in the workspace root hold them to that.
//!
//! The language itself — grammar, parser caps, the full instruction set,
//! a worked lowering example, and the scalar-vs-vector execution model —
//! is documented in `docs/SPEC.md` at the repository root, whose
//! instruction table is test-checked against [`compile::Instr`].

#![deny(missing_docs)]

pub mod ast;
pub mod compile;
pub mod examples;
pub mod interp;
pub mod parse;
pub mod simd_exec;

pub use ast::{Expr, RecursiveSpec, SpecError, Stmt};
pub use compile::{compile, CompiledSpec, SpecCode};
pub use interp::interpret;
pub use parse::{parse_spec, ParseError};
pub use simd_exec::{detected_lane_width, SpecTier, VectorSpec};
