//! The vector execution tier: one instruction stream, `Q` tasks at once.
//!
//! [`CompiledSpec`](crate::CompiledSpec) removed the AST walk and the
//! per-task allocations, but its `expand` still advances the block one
//! task at a time — the scalar loop the ROADMAP's "Vectorized `run_task`"
//! item points at. This module replays Table 2's SOA→SIMD move at the spec
//! level: [`SpecCode::run_tasks_q`] executes the lowered instruction
//! stream over `Q` tasks in lockstep, with registers widened to
//! [`Lanes<i64, Q>`] columns, and [`VectorSpec`] packages that loop as a
//! [`BlockProgram`] interchangeable with the scalar backend.
//!
//! # The masked-divergence sweep
//!
//! A lowered program's control flow is **strictly forward** (the base-cond
//! jump targets the inductive entry ahead of it; `if`/`else` lowering
//! backpatches both its jumps to later addresses — asserted at the only
//! place code is produced, [`compile()`](crate::compile())). That shape
//! admits the classic SIMT linearization: execute instructions in address
//! order under a live-lane mask maintained *incrementally* — a lane
//! leaves the mask only at control flow (parked at its later forward
//! target, or retired at `Halt`) and rejoins automatically when the
//! monotone sweep reaches its parked address — reconvergence without a
//! divergence stack. When no lane is live the sweep hops straight to the
//! earliest parked address, so at least one lane is live at every
//! executed instruction and the sweep terminates in at most `code.len()`
//! steps; in the hot fully-converged straight-line stretches the
//! divergence machinery costs one `parked_lanes != 0` test per
//! instruction.
//!
//! Within the sweep, instructions split into two classes:
//!
//! * **Straight-line arithmetic** (`Const`/`Param`/`Add`/…/`Not`) runs
//!   **unmasked** over all `Q` lanes. This is safe because the lowering
//!   gives registers statement-local lifetimes: no instruction ever reads
//!   a register written before a jump (the jump itself consumes its
//!   condition register), so the garbage an unmasked op writes into a
//!   parked lane's column is dead by construction when that lane rejoins.
//!   Unmasked columns are exactly what LLVM auto-vectorizes.
//! * **Effects and control flow** (`Reduce`, `Spawn`, `JumpIfZero`,
//!   `Jump`, `Halt`) run under the live-lane mask: `Reduce` folds only
//!   live lanes (wrapping, in lane order), `Spawn` compacts live lanes'
//!   argument tuples densely into the spawn bucket — with the column-major
//!   [`ArgBlock`], one `tb_simd::compact_append_i64` per parameter column
//!   for any parameter count ([`ArgBlock::push_lane_tuples`]) — and the
//!   jumps repark exactly the live lanes that take them.
//!
//! Tasks live in the column-major [`ArgBlock`], so `Param` is one
//! contiguous `Lanes::from_slice` per parameter (the Table-2 AoS→SoA
//! payoff) rather than a per-lane strided gather.
//!
//! # Bit-identical to scalar execution
//!
//! Per spawn site, children are appended in lane order = task order, which
//! is the order the scalar loop appends them — every bucket's contents are
//! *identical*, so the scheduler sees the same blocks, the same task
//! counts, the same supersteps. Reductions are wrapping-`i64` sums; the
//! vector tier folds the same multiset of contributions in a different
//! interleaving, and wrapping addition is commutative and associative, so
//! the final reducer is bit-identical too. The workspace differential
//! proptest (`tests/spec_differential.rs`) holds all three routes —
//! interpreter, `CompiledSpec`, `VectorSpec` — to exactly that.

use std::sync::Arc;

use tb_core::prelude::*;
use tb_simd::{detected_q, Lanes, Mask};

use crate::ast::{RecursiveSpec, SpecError};
use crate::compile::{compile, ArgBlock, Instr, SpecCode, StoreParams};

/// “Not parked” sentinel: the lane is either live or retired at a `Halt`.
const LANE_DONE: u32 = u32::MAX;

/// The lane widths [`VectorSpec`] monomorphizes; anything else rounds
/// down. 8 = AVX-512 (8×`i64`), 4 = AVX2, 2 = SSE2/NEON, 1 = scalar.
const SUPPORTED_WIDTHS: [usize; 4] = [8, 4, 2, 1];

/// Round an arbitrary lane count down to a supported width (≥ 1).
fn round_width(q: usize) -> usize {
    *SUPPORTED_WIDTHS.iter().find(|&&w| w <= q).unwrap_or(&1)
}

/// The vector width this host's SIMD unit gives `i64` task columns:
/// [`tb_simd::detected_q`]`::<i64>()` rounded down to a monomorphized
/// width — 8 on AVX-512, 4 on AVX2, 2 on SSE2/NEON, 1 (scalar) elsewhere.
pub fn detected_lane_width() -> usize {
    round_width(detected_q::<i64>())
}

/// Which execution tier a compiled spec program should run under.
///
/// The service layer threads this through `submit_spec` (defaulting to
/// [`SpecTier::Auto`]); harnesses use it to pin a tier for measurement.
/// All tiers are bit-identical in results — the knob trades straight-line
/// SIMD throughput against masked-divergence overhead, nothing else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SpecTier {
    /// Vectorize at [`detected_lane_width`]; falls back to scalar on
    /// hosts without SIMD (width 1). The default.
    #[default]
    Auto,
    /// Always the scalar [`CompiledSpec`](crate::CompiledSpec) loop.
    Scalar,
    /// Force the vector tier even where no SIMD was detected (width
    /// floored at 2 — useful for exercising the masked path in tests).
    Simd,
}

impl SpecTier {
    /// The lane width this tier resolves to on the current host (1 means
    /// "run the scalar tier").
    pub fn lane_width(self) -> usize {
        match self {
            SpecTier::Scalar => 1,
            SpecTier::Auto => detected_lane_width(),
            SpecTier::Simd => detected_lane_width().max(2),
        }
    }
}

impl SpecCode {
    /// Execute the instruction stream over `Q` tasks in lockstep.
    ///
    /// The group is tasks `base..base + Q` of `store` (callers guarantee
    /// the group is full — `base + Q <= store.len()`), `regs` is a column
    /// scratch file of at least [`SpecCode::reg_count`] lanes-registers
    /// (reused across groups of a block). Children land in `out` and
    /// base-case contributions in `red` exactly as the scalar loop would
    /// put them — see the module docs for why the two tiers are
    /// bit-identical. Each `Param` is one contiguous vector load from that
    /// parameter's column.
    ///
    /// Callers with a ragged tail (a block whose task count is not a
    /// multiple of `Q`) peel the remainder through the scalar tier;
    /// [`VectorSpec`] does exactly that.
    ///
    /// # Panics
    /// Debug builds assert `base + Q <= store.len()` and that `regs` is
    /// large enough.
    pub fn run_tasks_q<const Q: usize>(
        &self,
        store: &ArgBlock,
        base: usize,
        regs: &mut [Lanes<i64, Q>],
        out: &mut BucketSet<ArgBlock>,
        red: &mut i64,
    ) {
        let params = self.params();
        debug_assert!(Q >= 1, "a lane group needs at least one lane");
        debug_assert!(base + Q <= store.len(), "run_tasks_q takes exactly Q full tuples");
        debug_assert!(regs.len() >= self.reg_count(), "register file too small");
        let code = self.instrs();
        // The live mask is maintained *incrementally*: lanes leave it only
        // at control flow (parked at their forward target, or retired at
        // `Halt`) and rejoin when the sweep's monotone `pc` reaches their
        // parked address. The hot straight-line case — every lane live, no
        // lane parked — therefore pays only the `parked_lanes != 0` check
        // per instruction, not a per-instruction mask rebuild.
        let mut live = Mask::<Q>::all_set();
        let mut live_lanes = Q;
        // Per-lane forward resume address; LANE_DONE = not parked (either
        // live or retired). `parked_lanes` counts real entries.
        let mut parked = [LANE_DONE; Q];
        let mut parked_lanes = 0usize;
        let mut pc = 0usize;
        loop {
            if parked_lanes > 0 {
                // Rejoin every lane parked exactly here.
                for (l, p) in parked.iter_mut().enumerate() {
                    if *p == pc as u32 {
                        *p = LANE_DONE;
                        parked_lanes -= 1;
                        live.0[l] = true;
                        live_lanes += 1;
                    }
                }
            }
            if live_lanes == 0 {
                if parked_lanes == 0 {
                    return; // every lane retired at a Halt
                }
                // Skip dead code straight to the earliest rejoin point.
                pc = parked.iter().copied().filter(|&p| p != LANE_DONE).min().expect("parked_lanes > 0")
                    as usize;
                continue;
            }
            match code[pc] {
                // Straight-line arithmetic: unmasked columns (see module
                // docs for why parked lanes' columns may be clobbered).
                Instr::Const { dst, v } => regs[dst as usize] = Lanes::splat(v),
                Instr::Param { dst, idx } => {
                    regs[dst as usize] = store.param_lanes::<Q>(idx as usize, base);
                }
                Instr::Add { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_add(regs[b as usize]);
                }
                Instr::Sub { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_sub(regs[b as usize]);
                }
                Instr::Mul { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].wrapping_mul(regs[b as usize]);
                }
                Instr::Lt { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].lt(regs[b as usize]).to_lanes_i64();
                }
                Instr::Le { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].le(regs[b as usize]).to_lanes_i64();
                }
                Instr::Eq { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize].eq_lanes(regs[b as usize]).to_lanes_i64();
                }
                Instr::And { dst, a, b } => {
                    regs[dst as usize] =
                        regs[a as usize].nonzero().and(regs[b as usize].nonzero()).to_lanes_i64();
                }
                Instr::Or { dst, a, b } => {
                    regs[dst as usize] =
                        regs[a as usize].nonzero().or(regs[b as usize].nonzero()).to_lanes_i64();
                }
                Instr::Not { dst, a } => {
                    regs[dst as usize] = regs[a as usize].nonzero().not().to_lanes_i64();
                }
                // Effects: masked to the live lanes.
                Instr::Reduce { src } => {
                    let vals = regs[src as usize].select(live, Lanes::splat(0));
                    *red = red.wrapping_add(vals.wrapping_reduce_add());
                }
                Instr::Spawn { site, args } => {
                    let a = args as usize;
                    out.bucket(site as usize).push_lane_tuples(&regs[a..a + params], &live);
                }
                // Control flow: park or retire exactly the live lanes that
                // take it. Targets are strictly forward, so a parked lane
                // always rejoins on this sweep.
                Instr::JumpIfZero { cond, target } => {
                    debug_assert!(target as usize > pc, "vector sweep requires forward jumps");
                    let taken = regs[cond as usize].nonzero().not();
                    for ((l, &t), p) in taken.0.iter().enumerate().zip(parked.iter_mut()) {
                        if live.0[l] && t {
                            live.0[l] = false;
                            live_lanes -= 1;
                            *p = target;
                            parked_lanes += 1;
                        }
                    }
                }
                Instr::Jump { target } => {
                    debug_assert!(target as usize > pc, "vector sweep requires forward jumps");
                    for (l, p) in parked.iter_mut().enumerate() {
                        if live.0[l] {
                            live.0[l] = false;
                            *p = target;
                        }
                    }
                    parked_lanes += live_lanes;
                    live_lanes = 0;
                }
                Instr::Halt => {
                    if parked_lanes == 0 {
                        return; // common case: every remaining lane halts
                    }
                    live = Mask::none();
                    live_lanes = 0;
                }
            }
            pc += 1;
        }
    }
}

/// Run every task of `store` through `Q`-lane groups, peeling the ragged
/// tail scalar-wise.
fn run_groups<const Q: usize>(
    code: &SpecCode,
    store: &ArgBlock,
    out: &mut BucketSet<ArgBlock>,
    red: &mut i64,
) {
    let n = store.len();
    let mut regs = vec![Lanes::<i64, Q>::splat(0); code.reg_count()];
    let mut base = 0;
    while base + Q <= n {
        code.run_tasks_q::<Q>(store, base, &mut regs, out, red);
        base += Q;
    }
    run_scalar_from(code, store, base, out, red);
}

/// The scalar tier over a whole store: the single scalar sweep shared by
/// `CompiledSpec::expand` (whole blocks) and width-1 `VectorSpec`s — one
/// implementation so the tiers cannot drift apart.
pub(crate) fn run_scalar(code: &SpecCode, store: &ArgBlock, out: &mut BucketSet<ArgBlock>, red: &mut i64) {
    run_scalar_from(code, store, 0, out, red);
}

/// The scalar sweep from task `from` on: the vector tier's
/// ragged-remainder peel enters here. Single-parameter blocks hand each
/// task to the interpreter loop as a borrowed one-element tuple straight
/// out of the column; wider blocks read their columns in place through
/// [`StoreParams`] instead of gathering each tuple into scratch first.
fn run_scalar_from(
    code: &SpecCode,
    store: &ArgBlock,
    from: usize,
    out: &mut BucketSet<ArgBlock>,
    red: &mut i64,
) {
    let mut regs = vec![0i64; code.reg_count()];
    match store.single_column() {
        Some(col) => {
            // A zero-parameter method's column is padding: its tuple is
            // empty (and its code contains no `Param`).
            let params = code.params();
            for v in &col[from..] {
                code.run_task(&std::slice::from_ref(v)[..params], &mut regs, out, red);
            }
        }
        None => {
            for t in from..store.len() {
                code.run_task(StoreParams(store, t), &mut regs, out, red);
            }
        }
    }
}

/// A compiled spec packaged for the vector tier: the same
/// [`SpecCode`] + [`ArgBlock`] pipeline as
/// [`CompiledSpec`](crate::CompiledSpec), but `expand` advances the block
/// `Q` tasks at a time through [`SpecCode::run_tasks_q`] and peels the
/// ragged remainder scalar-wise. Semantically interchangeable with the
/// scalar backend under every scheduler: identical spawn-site routing,
/// identical task counts, bit-identical wrapping-`i64` reductions.
///
/// ```
/// use tb_core::prelude::*;
/// use tb_spec::{examples, CompiledSpec, VectorSpec};
///
/// let spec = examples::fib_spec();
/// let scalar = CompiledSpec::new(&spec, vec![18]).unwrap();
/// let vector = VectorSpec::new(&spec, vec![18]).unwrap();
/// let cfg = SchedConfig::restart(8, 64, 16);
/// let a = SeqScheduler::new(&scalar, cfg).run();
/// let b = SeqScheduler::new(&vector, cfg).run();
/// assert_eq!(a.reducer, b.reducer);
/// assert_eq!(a.stats.tasks_executed, b.stats.tasks_executed);
/// ```
pub struct VectorSpec {
    code: Arc<SpecCode>,
    shape: ProgramShape<ArgBlock>,
    q: usize,
}

impl VectorSpec {
    /// Compile `spec` for a single root call `f(args)`, vectorized at the
    /// detected lane width.
    pub fn new(spec: &RecursiveSpec, args: Vec<i64>) -> Result<Self, SpecError> {
        Self::with_data_parallel(spec, vec![args])
    }

    /// Compile `spec` for a data-parallel outer loop (§5.2 `foreach`),
    /// vectorized at the detected lane width.
    pub fn with_data_parallel(spec: &RecursiveSpec, calls: Vec<Vec<i64>>) -> Result<Self, SpecError> {
        Ok(Self::from_code(Arc::new(compile(spec)?), &calls))
    }

    /// Attach root calls to already-compiled code at the detected lane
    /// width (the service layer's compile-once path).
    ///
    /// # Panics
    /// If any root tuple's length differs from the method's parameter
    /// count (same contract as `CompiledSpec::from_code`).
    pub fn from_code(code: Arc<SpecCode>, calls: &[Vec<i64>]) -> Self {
        Self::from_code_with_width(code, calls, detected_lane_width())
    }

    /// Like [`VectorSpec::from_code`] with an explicit lane width, rounded
    /// down to a supported one (8, 4, 2; anything below 2 runs the scalar
    /// loop). Tests use this to exercise every masked width regardless of
    /// host SIMD; benchmarks use it to pin `Q`.
    pub fn from_code_with_width(code: Arc<SpecCode>, calls: &[Vec<i64>], q: usize) -> Self {
        let roots = ArgBlock::from_tuples(code.params(), calls);
        VectorSpec { shape: ProgramShape::new(code.arity(), roots), code, q: round_width(q) }
    }

    /// The compiled code (shareable across submissions and tiers).
    pub fn code(&self) -> &Arc<SpecCode> {
        &self.code
    }

    /// The lane width `expand` executes at (1 means scalar fallback).
    pub fn lane_width(&self) -> usize {
        self.q
    }

    /// The scheduler arity (static spawn-site count).
    pub fn arity_hint(&self) -> usize {
        self.shape.arity()
    }
}

impl BlockProgram for VectorSpec {
    type Store = ArgBlock;
    type Reducer = i64;

    fn arity(&self) -> usize {
        self.shape.arity()
    }

    fn make_root(&self) -> ArgBlock {
        self.shape.make_root()
    }

    fn make_reducer(&self) -> i64 {
        0
    }

    fn merge_reducers(&self, a: &mut i64, b: i64) {
        tb_core::merge_sum(a, b);
    }

    fn expand(&self, block: &mut ArgBlock, out: &mut BucketSet<ArgBlock>, red: &mut i64) {
        if block.is_empty() {
            return;
        }
        debug_assert_eq!(block.stride(), self.code.params().max(1), "block width matches the method");
        let store = block.take();
        tb_obs::record(tb_obs::EventKind::TierBegin, self.q as u32, store.len() as u64);
        match self.q {
            8 => run_groups::<8>(&self.code, &store, out, red),
            4 => run_groups::<4>(&self.code, &store, out, red),
            2 => run_groups::<2>(&self.code, &store, out, red),
            _ => run_scalar(&self.code, &store, out, red),
        }
        tb_obs::record(tb_obs::EventKind::TierEnd, self.q as u32, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};
    use crate::examples;
    use crate::interp::{interpret, interpret_data_parallel};
    use crate::CompiledSpec;

    fn vector_with_width(spec: &RecursiveSpec, calls: Vec<Vec<i64>>, q: usize) -> VectorSpec {
        VectorSpec::from_code_with_width(Arc::new(compile(spec).unwrap()), &calls, q)
    }

    #[test]
    fn vector_fib_matches_interpreter_at_every_width() {
        let spec = examples::fib_spec();
        let want = interpret(&spec, &[17]);
        for q in [1usize, 2, 4, 8] {
            let prog = vector_with_width(&spec, vec![vec![17]], q);
            assert_eq!(prog.lane_width(), q);
            let out = SeqScheduler::new(&prog, SchedConfig::restart(8, 64, 16)).run();
            assert_eq!(out.reducer, want, "q={q}");
        }
    }

    #[test]
    fn divergent_guards_expand_the_identical_tree() {
        // parentheses: both spawn sites sit behind `if` guards, so lanes
        // diverge at every inductive task — the masked path's stress case.
        let spec = examples::parentheses_spec(7);
        let scalar = CompiledSpec::new(&spec, vec![0, 0]).unwrap();
        let cfg = SchedConfig::restart(8, 32, 8);
        let a = SeqScheduler::new(&scalar, cfg).run();
        for q in [2usize, 4, 8] {
            let vector = vector_with_width(&spec, vec![vec![0, 0]], q);
            let b = SeqScheduler::new(&vector, cfg).run();
            assert_eq!(b.reducer, a.reducer, "q={q}");
            assert_eq!(b.stats.tasks_executed, a.stats.tasks_executed, "q={q}");
            assert_eq!(b.stats.supersteps, a.stats.supersteps, "q={q}");
        }
    }

    #[test]
    fn ragged_roots_peel_through_the_scalar_remainder() {
        // 13 roots at q=8: one full group + 5 peeled per expand of the
        // root block (and odd group sizes all the way down).
        let spec = examples::fib_spec();
        let calls: Vec<Vec<i64>> = (0..13).map(|i| vec![i % 9]).collect();
        let want = interpret_data_parallel(&spec, &calls);
        for q in [2usize, 4, 8] {
            let prog = vector_with_width(&spec, calls.clone(), q);
            let out = SeqScheduler::new(&prog, SchedConfig::restart(8, 64, 16)).run();
            assert_eq!(out.reducer, want, "q={q}");
        }
    }

    #[test]
    fn wrapping_reductions_stay_bit_identical() {
        // Mul chains overflow fast; the vector tier must wrap exactly like
        // the scalar tier (and the interpreter) rather than differ in
        // overflow behaviour.
        let spec = RecursiveSpec {
            name: "wrap".into(),
            params: 1,
            base_cond: Expr::Le(Box::new(Expr::Param(0)), Box::new(Expr::Const(0))),
            base: vec![Stmt::Reduce(Expr::Mul(
                Box::new(Expr::Const(0x0123_4567_89AB_CDEF)),
                Box::new(Expr::Const(0x0FED_CBA9_8765_4321)),
            ))],
            inductive: vec![
                Stmt::Spawn(vec![Expr::Sub(Box::new(Expr::Param(0)), Box::new(Expr::Const(1)))]),
                Stmt::Spawn(vec![Expr::Sub(Box::new(Expr::Param(0)), Box::new(Expr::Const(2)))]),
            ],
        };
        let want = interpret(&spec, &[12]);
        for q in [2usize, 4, 8] {
            let prog = vector_with_width(&spec, vec![vec![12]], q);
            let out = SeqScheduler::new(&prog, SchedConfig::basic(8, 64)).run();
            assert_eq!(out.reducer, want, "q={q}");
        }
    }

    #[test]
    fn zero_param_specs_run_vectorized() {
        let spec = RecursiveSpec {
            name: "unit".into(),
            params: 0,
            base_cond: Expr::Const(1),
            base: vec![Stmt::Reduce(Expr::Const(7))],
            inductive: vec![],
        };
        let calls: Vec<Vec<i64>> = (0..11).map(|_| vec![]).collect();
        let prog = vector_with_width(&spec, calls, 4);
        let out = SeqScheduler::new(&prog, SchedConfig::basic(4, 32)).run();
        assert_eq!(out.reducer, 7 * 11);
    }

    #[test]
    fn width_rounding_and_tier_resolution() {
        assert_eq!(round_width(0), 1);
        assert_eq!(round_width(1), 1);
        assert_eq!(round_width(3), 2);
        assert_eq!(round_width(5), 4);
        assert_eq!(round_width(8), 8);
        assert_eq!(round_width(64), 8);
        assert_eq!(SpecTier::Scalar.lane_width(), 1);
        assert_eq!(SpecTier::Auto.lane_width(), detected_lane_width());
        assert!(SpecTier::Simd.lane_width() >= 2);
        assert!(SUPPORTED_WIDTHS.contains(&detected_lane_width()));
    }

    #[test]
    fn vector_runs_under_work_stealing() {
        let spec = examples::binomial_spec();
        let want = interpret(&spec, &[16, 6]);
        let prog = VectorSpec::new(&spec, vec![16, 6]).unwrap();
        let pool = tb_runtime::ThreadPool::new(3);
        let configs = [
            SchedConfig::basic(8, 64),
            SchedConfig::reexpansion(8, 64),
            SchedConfig::restart(8, 64, 16),
            SchedConfig::adaptive(8),
        ];
        for cfg in configs {
            for kind in SchedulerKind::ALL {
                let out = run_scheduler(kind, &prog, cfg, Some(&pool));
                assert_eq!(out.reducer, want, "{kind:?} {:?}", cfg.policy);
            }
        }
    }
}
