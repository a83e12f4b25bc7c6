//! The compilation backend: spec → flat register-based instruction stream.
//!
//! The §5.3 transformation is *generic* — any spec becomes a
//! [`tb_core::BlockProgram`] whose `expand` advances a whole task block —
//! and this module makes it cheap: a validated [`RecursiveSpec`] is lowered
//! **once** into a [`SpecCode`], a dense `Box<[Instr]>` executed by a flat
//! program-counter loop over a scratch register file. No tree walk, no
//! pointer chasing, no per-task control-flow discovery — the same shape a
//! bytecode VM or a JIT front-end would produce.
//!
//! Two further choices push [`CompiledSpec`] to native-class throughput:
//!
//! * **Constant folding** at lowering time: any operator whose operands
//!   fold to literals is evaluated during compilation, so e.g. `3 * 4 + n`
//!   costs one `Add` at run time.
//! * **A columnar task store.** [`ArgBlock`] packs every task of a block
//!   into `stride` dense columns of `Vec<i64>` (one per method parameter —
//!   the paper's Table-2 AoS→SoA move applied to the spec store itself).
//!   A spawn is one push per column; a block of a million tasks is a
//!   handful of allocations, not a million; and the vector tier's `Param`
//!   loads and spawn compactions become contiguous per-column vector ops
//!   (see `crate::simd_exec`).
//!
//! The program layout is:
//!
//! ```text
//! 0:              <base_cond>            ; result in r0
//! c:              JumpIfZero r0 -> ind   ; cond false => inductive case
//! c+1:            <base statements>      ; reductions only
//! ...             Halt
//! ind:            <inductive statements> ; spawns, guards, reductions
//! ...             Halt
//! ```
//!
//! Spawn sites are numbered *syntactically* (then-branch sites before
//! else-branch sites, whether or not a guard is taken), so a task's
//! children land in the same buckets on every execution tier and the
//! differential tests can compare whole executions, not just final
//! reductions.

use std::sync::Arc;

use tb_core::prelude::*;
use tb_simd::{compact_append_i64, Lanes, Mask};

use crate::ast::{Expr, RecursiveSpec, SpecError, Stmt};

/// Scratch-register index. Registers are allocated stack-wise per
/// statement, so even deeply nested expressions stay well inside `u16`.
type Reg = u16;

/// One instruction of the lowered stream.
///
/// `Copy` and small on purpose: the execution loop reads instructions out
/// of a dense slice, so the whole program for a typical spec fits in a
/// couple of cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `r[dst] = v`
    Const {
        /// destination register
        dst: Reg,
        /// the literal
        v: i64,
    },
    /// `r[dst] = params[idx]`
    Param {
        /// destination register
        dst: Reg,
        /// parameter index
        idx: Reg,
    },
    /// `r[dst] = r[a] + r[b]` (wrapping)
    Add {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = r[a] - r[b]` (wrapping)
    Sub {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = r[a] * r[b]` (wrapping)
    Mul {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] < r[b]) as i64`
    Lt {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] <= r[b]) as i64`
    Le {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] == r[b]) as i64`
    Eq {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] != 0 && r[b] != 0) as i64` (operands are pure, so
    /// strict evaluation matches the interpreter's short circuit)
    And {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] != 0 || r[b] != 0) as i64`
    Or {
        /// destination register
        dst: Reg,
        /// left operand
        a: Reg,
        /// right operand
        b: Reg,
    },
    /// `r[dst] = (r[a] == 0) as i64`
    Not {
        /// destination register
        dst: Reg,
        /// operand
        a: Reg,
    },
    /// `red += r[src]` (wrapping)
    Reduce {
        /// register holding the folded value
        src: Reg,
    },
    /// Push `r[args .. args + params]` as a child task of spawn site
    /// `site`.
    Spawn {
        /// syntactic spawn-site index (the bucket)
        site: Reg,
        /// first of `params` consecutive argument registers
        args: Reg,
    },
    /// `if r[cond] == 0 { pc = target }`
    JumpIfZero {
        /// condition register
        cond: Reg,
        /// absolute instruction index
        target: u32,
    },
    /// `pc = target`
    Jump {
        /// absolute instruction index
        target: u32,
    },
    /// Task finished.
    Halt,
}

impl Instr {
    /// Every instruction mnemonic, in the order the variants are declared.
    ///
    /// `docs/SPEC.md`'s instruction-set table is cross-checked against this
    /// list by a test, so the reference cannot silently drift from the
    /// enum: adding a variant forces [`Instr::mnemonic`]'s exhaustive match
    /// (a compile error), whose test forces this list, whose doc-sync test
    /// forces the table.
    pub const MNEMONICS: &'static [&'static str] = &[
        "Const",
        "Param",
        "Add",
        "Sub",
        "Mul",
        "Lt",
        "Le",
        "Eq",
        "And",
        "Or",
        "Not",
        "Reduce",
        "Spawn",
        "JumpIfZero",
        "Jump",
        "Halt",
    ];

    /// The variant's mnemonic (the name used by [`SpecCode::disassemble`]
    /// and the `docs/SPEC.md` instruction table).
    pub const fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Const { .. } => "Const",
            Instr::Param { .. } => "Param",
            Instr::Add { .. } => "Add",
            Instr::Sub { .. } => "Sub",
            Instr::Mul { .. } => "Mul",
            Instr::Lt { .. } => "Lt",
            Instr::Le { .. } => "Le",
            Instr::Eq { .. } => "Eq",
            Instr::And { .. } => "And",
            Instr::Or { .. } => "Or",
            Instr::Not { .. } => "Not",
            Instr::Reduce { .. } => "Reduce",
            Instr::Spawn { .. } => "Spawn",
            Instr::JumpIfZero { .. } => "JumpIfZero",
            Instr::Jump { .. } => "Jump",
            Instr::Halt => "Halt",
        }
    }
}

/// A spec lowered to executable form: the instruction stream plus the
/// static facts the scheduler and the service layer need (arity, parameter
/// count, register-file size).
///
/// `SpecCode` is immutable and shared: the service layer caches one
/// `Arc<SpecCode>` per distinct source text and stamps out a
/// [`CompiledSpec`] per submission by attaching root calls.
#[derive(Debug)]
pub struct SpecCode {
    name: String,
    params: usize,
    arity: usize,
    regs: usize,
    code: Box<[Instr]>,
}

impl SpecCode {
    /// Method name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameter count `k` (the stride of [`ArgBlock`] stores).
    pub fn params(&self) -> usize {
        self.params
    }

    /// Static spawn-site count (the scheduler arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Scratch registers one task evaluation needs.
    pub fn reg_count(&self) -> usize {
        self.regs
    }

    /// The lowered instruction stream (tests, disassembly).
    pub fn instrs(&self) -> &[Instr] {
        &self.code
    }

    /// A one-instruction-per-line disassembly (diagnostics and docs).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ =
            writeln!(s, "; {} /{} params, {} sites, {} regs", self.name, self.params, self.arity, self.regs);
        for (pc, i) in self.code.iter().enumerate() {
            let _ = writeln!(s, "{pc:>4}: {i:?}");
        }
        s
    }

    /// Execute the program for one task. `regs` is a scratch file of at
    /// least [`SpecCode::reg_count`] slots (reused across the tasks of a
    /// block). `Param` reads through `params` — either a borrowed
    /// contiguous tuple or a direct `(store, task)` column view, chosen
    /// per block by `simd_exec::run_scalar` — so the one interpreter loop
    /// serves both scan strategies. The vector tier (`crate::simd_exec`)
    /// calls this for the ragged remainder of a block.
    #[inline]
    pub(crate) fn run_task<P: ParamSource>(
        &self,
        params: P,
        regs: &mut [i64],
        out: &mut BucketSet<ArgBlock>,
        red: &mut i64,
    ) {
        let code = &self.code;
        let mut pc = 0usize;
        loop {
            match code[pc] {
                Instr::Const { dst, v } => regs[dst as usize] = v,
                Instr::Param { dst, idx } => regs[dst as usize] = params.get(idx as usize),
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
                    regs[dst as usize] = i64::from(regs[a as usize] < regs[b as usize]);
                }
                Instr::Le { dst, a, b } => {
                    regs[dst as usize] = i64::from(regs[a as usize] <= regs[b as usize]);
                }
                Instr::Eq { dst, a, b } => {
                    regs[dst as usize] = i64::from(regs[a as usize] == regs[b as usize]);
                }
                Instr::And { dst, a, b } => {
                    regs[dst as usize] = i64::from(regs[a as usize] != 0 && regs[b as usize] != 0);
                }
                Instr::Or { dst, a, b } => {
                    regs[dst as usize] = i64::from(regs[a as usize] != 0 || regs[b as usize] != 0);
                }
                Instr::Not { dst, a } => regs[dst as usize] = i64::from(regs[a as usize] == 0),
                Instr::Reduce { src } => *red = red.wrapping_add(regs[src as usize]),
                Instr::Spawn { site, args } => {
                    let a = args as usize;
                    out.bucket(site as usize).push_tuple(&regs[a..a + self.params]);
                }
                Instr::JumpIfZero { cond, target } => {
                    if regs[cond as usize] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Instr::Jump { target } => {
                    pc = target as usize;
                    continue;
                }
                Instr::Halt => return,
            }
            pc += 1;
        }
    }
}

/// Lower a validated spec to executable form.
///
/// Runs [`RecursiveSpec::validate`] first, so nothing invalid reaches the
/// instruction stream.
///
/// ```
/// let spec = tb_spec::parse_spec(
///     "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }",
/// )
/// .unwrap();
/// let code = tb_spec::compile(&spec).unwrap();
/// assert_eq!((code.name(), code.params(), code.arity()), ("fib", 1, 2));
/// // The stream ends in the inductive case's Halt and contains one Spawn
/// // per syntactic spawn site:
/// use tb_spec::compile::Instr;
/// assert_eq!(code.instrs().last(), Some(&Instr::Halt));
/// assert_eq!(code.instrs().iter().filter(|i| matches!(i, Instr::Spawn { .. })).count(), 2);
/// ```
pub fn compile(spec: &RecursiveSpec) -> Result<SpecCode, SpecError> {
    let arity = spec.validate()?;
    // Structural bounds the u16 instruction operands rely on, checked as
    // errors (not panics) so no submitted program can unwind a thread.
    // Parsed sources sit orders of magnitude below both (the parser caps
    // total nodes); these guard hand-built ASTs.
    if arity > usize::from(Reg::MAX) {
        return Err(SpecError::TooLarge { what: "spawn-site count", limit: usize::from(Reg::MAX) });
    }
    if spec.params > 4096 {
        return Err(SpecError::TooLarge { what: "parameter count", limit: 4096 });
    }
    let mut lw = Lowerer { code: Vec::new(), regs: 1, site: 0 };
    lw.expr(&fold(&spec.base_cond), 0);
    let patch_base = lw.emit(Instr::JumpIfZero { cond: 0, target: 0 });
    lw.stmts(&spec.base);
    lw.emit(Instr::Halt);
    let inductive_entry = lw.code.len() as u32;
    lw.code[patch_base] = Instr::JumpIfZero { cond: 0, target: inductive_entry };
    lw.stmts(&spec.inductive);
    lw.emit(Instr::Halt);
    // Control flow is strictly forward: the base-cond jump targets the
    // inductive entry ahead of it, and `If` lowering backpatches both its
    // jumps to later addresses. The vector tier's single linear sweep
    // (`SpecCode::run_tasks_q`) relies on this for termination and
    // reconvergence, so the invariant is checked at the only place code is
    // produced.
    debug_assert!(
        lw.code.iter().enumerate().all(|(pc, i)| match i {
            Instr::JumpIfZero { target, .. } | Instr::Jump { target } => *target as usize > pc,
            _ => true,
        }),
        "lowering emitted a non-forward jump"
    );
    Ok(SpecCode {
        name: spec.name.clone(),
        params: spec.params,
        arity,
        regs: lw.regs,
        code: lw.code.into_boxed_slice(),
    })
}

/// Constant-fold an expression bottom-up: a node all of whose children
/// folded to literals is evaluated at compile time. (A node with no
/// `Param` leaves cannot observe the environment, so `eval(&[])` is safe.)
fn fold(e: &Expr) -> Expr {
    fn bin(ctor: fn(Box<Expr>, Box<Expr>) -> Expr, a: &Expr, b: &Expr) -> Expr {
        let (fa, fb) = (fold(a), fold(b));
        let literal = matches!(fa, Expr::Const(_)) && matches!(fb, Expr::Const(_));
        let node = ctor(Box::new(fa), Box::new(fb));
        if literal {
            Expr::Const(node.eval(&[]))
        } else {
            node
        }
    }
    match e {
        Expr::Const(_) | Expr::Param(_) => e.clone(),
        Expr::Add(a, b) => bin(Expr::Add, a, b),
        Expr::Sub(a, b) => bin(Expr::Sub, a, b),
        Expr::Mul(a, b) => bin(Expr::Mul, a, b),
        Expr::Lt(a, b) => bin(Expr::Lt, a, b),
        Expr::Le(a, b) => bin(Expr::Le, a, b),
        Expr::Eq(a, b) => bin(Expr::Eq, a, b),
        Expr::And(a, b) => bin(Expr::And, a, b),
        Expr::Or(a, b) => bin(Expr::Or, a, b),
        Expr::Not(a) => {
            let inner = fold(a);
            if let Expr::Const(v) = inner {
                Expr::Const(i64::from(v == 0))
            } else {
                Expr::Not(Box::new(inner))
            }
        }
    }
}

struct Lowerer {
    code: Vec<Instr>,
    regs: usize,
    site: usize,
}

impl Lowerer {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn reg(&mut self, r: usize) -> Reg {
        self.regs = self.regs.max(r + 1);
        Reg::try_from(r).expect("spec expression depth exceeds the u16 register file")
    }

    /// Lower `e` so its value lands in register `base`; registers above
    /// `base` are scratch (stack-wise allocation, one slot per live
    /// operand).
    fn expr(&mut self, e: &Expr, base: usize) {
        let dst = self.reg(base);
        match e {
            Expr::Const(v) => {
                self.emit(Instr::Const { dst, v: *v });
            }
            Expr::Param(i) => {
                let idx = Reg::try_from(*i).expect("validated param index fits u16");
                self.emit(Instr::Param { dst, idx });
            }
            Expr::Not(a) => {
                self.expr(a, base);
                self.emit(Instr::Not { dst, a: dst });
            }
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Lt(a, b)
            | Expr::Le(a, b)
            | Expr::Eq(a, b)
            | Expr::And(a, b)
            | Expr::Or(a, b) => {
                self.expr(a, base);
                self.expr(b, base + 1);
                let rhs = self.reg(base + 1);
                let instr = match e {
                    Expr::Add(..) => Instr::Add { dst, a: dst, b: rhs },
                    Expr::Sub(..) => Instr::Sub { dst, a: dst, b: rhs },
                    Expr::Mul(..) => Instr::Mul { dst, a: dst, b: rhs },
                    Expr::Lt(..) => Instr::Lt { dst, a: dst, b: rhs },
                    Expr::Le(..) => Instr::Le { dst, a: dst, b: rhs },
                    Expr::Eq(..) => Instr::Eq { dst, a: dst, b: rhs },
                    Expr::And(..) => Instr::And { dst, a: dst, b: rhs },
                    Expr::Or(..) => Instr::Or { dst, a: dst, b: rhs },
                    _ => unreachable!("binary arm"),
                };
                self.emit(instr);
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Reduce(e) => {
                    self.expr(&fold(e), 0);
                    self.emit(Instr::Reduce { src: 0 });
                }
                Stmt::Spawn(args) => {
                    // Argument i lands in register i; arg j's scratch
                    // registers sit above j, so earlier args survive.
                    // (Zero-arg spawns push ArgBlock's padding slot.)
                    for (i, a) in args.iter().enumerate() {
                        self.expr(&fold(a), i);
                    }
                    let site = Reg::try_from(self.site).expect("spawn-site count fits u16");
                    self.site += 1;
                    self.emit(Instr::Spawn { site, args: 0 });
                }
                Stmt::If(cond, then_b, else_b) => {
                    self.expr(&fold(cond), 0);
                    let patch_else = self.emit(Instr::JumpIfZero { cond: 0, target: 0 });
                    self.stmts(then_b);
                    let patch_end = self.emit(Instr::Jump { target: 0 });
                    let else_entry = self.code.len() as u32;
                    self.code[patch_else] = Instr::JumpIfZero { cond: 0, target: else_entry };
                    self.stmts(else_b);
                    let end = self.code.len() as u32;
                    self.code[patch_end] = Instr::Jump { target: end };
                }
            }
        }
    }
}

/// The scalar tier's parameter view of one task: a single `Param` load.
/// Two zero-cost views implement it — a borrowed contiguous tuple
/// (`&[i64]`, one element of a single-column block) and a direct
/// `(store, task)` column read ([`StoreParams`]) — so the one
/// `SpecCode::run_task` interpreter loop monomorphizes over whichever scan
/// `simd_exec::run_scalar` picks for the block at hand.
pub(crate) trait ParamSource: Copy {
    fn get(&self, idx: usize) -> i64;
}

impl ParamSource for &[i64] {
    #[inline]
    fn get(&self, idx: usize) -> i64 {
        self[idx]
    }
}

/// Direct column reads for task `.1` of block `.0` — the scan view for
/// multi-column blocks, whose tuples are not contiguous in memory.
#[derive(Clone, Copy)]
pub(crate) struct StoreParams<'a>(pub &'a ArgBlock, pub usize);

impl ParamSource for StoreParams<'_> {
    #[inline]
    fn get(&self, idx: usize) -> i64 {
        self.0.col(idx)[self.1]
    }
}

/// A dense, column-major store of argument tuples: the compiled tiers'
/// [`TaskStore`].
///
/// The scheduler only moves tasks wholesale ([`TaskStore`]); a [`SpecCode`]
/// program additionally needs *per-parameter* access: scalar tuple reads
/// for `run_task`, a contiguous `Q`-lane load of one parameter for the
/// vector tier's `Param` instruction ([`ArgBlock::param_lanes`]), and
/// masked per-spawn compaction for its `Spawn`
/// ([`ArgBlock::push_lane_tuples`]).
///
/// Parameter `j` of every task lives in column `j`, all columns the same
/// length (`stride` = the method's parameter count, floored at 1 so
/// zero-parameter specs still occupy a slot). Task `t` is
/// `(col(0)[t], …, col(stride-1)[t])`. The scheduler's bulk operations —
/// merge, split, drain — are per-column `memcpy`-class moves, and the
/// vector tier's `Param` load is one contiguous `Lanes::from_slice` per
/// parameter instead of a per-lane strided gather (the AoS→SoA
/// transformation of the paper's Table 2).
///
/// Column 0 is stored inline (`col0`), not behind the `rest` vec-of-vecs:
/// single-parameter methods (fib — the dominant recursive shape) then pay
/// zero extra indirection on the scalar tier's per-spawn push, while
/// columns `1..` sit one hop away.
///
/// A default-constructed block has stride 0 ("unset") and adopts the
/// stride of the first tuples appended into it — that is what lets
/// [`BucketSet`]'s `S::default()` buckets work without threading the
/// parameter count through the scheduler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArgBlock {
    stride: usize,
    col0: Vec<i64>,
    rest: Vec<Vec<i64>>,
}

impl ArgBlock {
    /// An empty block whose tasks will be `params`-tuples.
    pub fn with_params(params: usize) -> Self {
        let stride = params.max(1);
        ArgBlock { stride, col0: Vec::new(), rest: (1..stride).map(|_| Vec::new()).collect() }
    }

    /// Pack `calls` (each of length `params`) into a columnar block.
    ///
    /// # Panics
    /// If any tuple's length differs from `params`.
    pub fn from_tuples(params: usize, calls: &[Vec<i64>]) -> Self {
        let mut b = Self::with_params(params);
        for c in calls {
            assert_eq!(c.len(), params, "root call arity mismatch");
            b.push_tuple(c);
        }
        b
    }

    /// Parameters per task, floored at 1 (zero-parameter programs keep one
    /// padding slot so tasks stay countable); 0 while still unset.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    #[inline]
    fn adopt(&mut self, stride: usize) {
        self.stride = stride;
        self.rest.resize_with(stride - 1, Vec::new);
    }

    #[inline]
    fn task_count(&self) -> usize {
        self.col0.len()
    }

    /// Column `idx` (0 is the inline column).
    #[inline]
    fn col(&self, idx: usize) -> &[i64] {
        if idx == 0 {
            &self.col0
        } else {
            &self.rest[idx - 1]
        }
    }

    /// Append one task. `args` must match the block's tuple width (an
    /// empty slice occupies one padding slot, see the type docs).
    #[inline]
    pub fn push_tuple(&mut self, args: &[i64]) {
        let incoming = args.len().max(1);
        if self.stride == 0 {
            self.adopt(incoming);
        }
        debug_assert_eq!(incoming, self.stride, "mixed tuple widths in one ArgBlock");
        match args {
            // Single-parameter methods are the dominant recursive shape;
            // keep their spawn push straight-line.
            [v] => self.col0.push(*v),
            [] => self.col0.push(0),
            [v, tail @ ..] => {
                self.col0.push(*v);
                for (col, &w) in self.rest.iter_mut().zip(tail) {
                    col.push(w);
                }
            }
        }
    }

    /// The task tuples, in insertion order (gathered out of the columns).
    ///
    /// ```
    /// use tb_spec::compile::ArgBlock;
    /// let b = ArgBlock::from_tuples(2, &[vec![1, 2], vec![3, 4]]);
    /// let rows: Vec<Vec<i64>> = b.tuples().collect();
    /// assert_eq!(rows, vec![vec![1, 2], vec![3, 4]]);
    /// ```
    pub fn tuples(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        (0..self.task_count()).map(move |t| (0..self.stride).map(|j| self.col(j)[t]).collect())
    }

    /// Append one task per *set lane*: column `j` of `cols` holds argument
    /// `j` for `Q` candidate tasks, and lane `l`'s tuple
    /// `(cols[0][l], …, cols[k-1][l])` is appended iff `mask` lane `l` is
    /// true, in lane order. This is the vector tier's spawn path — the §6
    /// streaming-compaction step that turns a masked spawn decision into a
    /// dense store: one [`tb_simd::compact_append_i64`] per parameter
    /// column, for any parameter count.
    ///
    /// An empty `cols` (zero-parameter methods) appends the 1-slot padding
    /// [`ArgBlock::push_tuple`] documents.
    ///
    /// ```
    /// use tb_simd::{Lanes, Mask};
    /// use tb_spec::compile::ArgBlock;
    /// let mut b = ArgBlock::with_params(2);
    /// let cols = [Lanes::<i64, 4>([1, 2, 3, 4]), Lanes([10, 20, 30, 40])];
    /// b.push_lane_tuples(&cols, &Mask([true, false, true, false]));
    /// let rows: Vec<Vec<i64>> = b.tuples().collect();
    /// assert_eq!(rows, vec![vec![1, 10], vec![3, 30]]);
    /// ```
    pub fn push_lane_tuples<const Q: usize>(&mut self, cols: &[Lanes<i64, Q>], mask: &Mask<Q>) {
        let incoming = cols.len().max(1);
        if self.stride == 0 {
            self.adopt(incoming);
        }
        debug_assert_eq!(incoming, self.stride, "mixed tuple widths in one ArgBlock");
        let Some((first, tail)) = cols.split_first() else {
            self.col0.extend(std::iter::repeat_n(0, mask.count()));
            return;
        };
        compact_append_i64(&mut self.col0, first, mask);
        for (dst, src) in self.rest.iter_mut().zip(tail) {
            compact_append_i64(dst, src, mask);
        }
    }

    /// Parameter `idx` of the `Q` consecutive tasks starting at `base`, as
    /// one lane vector — a single contiguous load from that parameter's
    /// column.
    ///
    /// # Panics
    /// Unless `base + Q <= self.len()` (the vector tier only runs full
    /// groups).
    #[inline]
    pub fn param_lanes<const Q: usize>(&self, idx: usize, base: usize) -> Lanes<i64, Q> {
        Lanes::from_slice(&self.col(idx)[base..])
    }

    /// The one column of a single-parameter block — each element is a
    /// whole task tuple, readable in place; `None` for wider blocks.
    #[inline]
    pub(crate) fn single_column(&self) -> Option<&[i64]> {
        self.rest.is_empty().then_some(&self.col0[..])
    }
}

impl TaskStore for ArgBlock {
    #[inline]
    fn len(&self) -> usize {
        self.task_count()
    }

    #[inline]
    fn append(&mut self, other: &mut Self) {
        if other.task_count() == 0 {
            return;
        }
        if self.stride == 0 {
            self.adopt(other.stride);
        }
        debug_assert_eq!(self.stride, other.stride, "appending ArgBlocks of different widths");
        self.col0.append(&mut other.col0);
        for (dst, src) in self.rest.iter_mut().zip(&mut other.rest) {
            dst.append(src);
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.col0.clear();
        for c in &mut self.rest {
            c.clear();
        }
    }

    #[inline]
    fn split_off(&mut self, at: usize) -> Self {
        ArgBlock {
            stride: self.stride,
            col0: self.col0.split_off(at),
            rest: self.rest.iter_mut().map(|c| c.split_off(at)).collect(),
        }
    }

    #[inline]
    fn reserve(&mut self, additional: usize) {
        self.col0.reserve(additional);
        for c in &mut self.rest {
            c.reserve(additional);
        }
    }
}

/// A spec lowered to an instruction stream and packaged as a
/// [`BlockProgram`]: runs under every scheduler in `tb-core` (syntactic
/// spawn-site numbering, wrapping-sum reduction), with [`SpecCode`]'s flat
/// execution loop on the `expand` hot path and [`ArgBlock`]'s columnar
/// stores instead of per-task allocations.
///
/// A §5.2 data-parallel `foreach` becomes many level-0 tasks in the root
/// block ([`CompiledSpec::with_data_parallel`]); the engines strip-mine
/// oversized roots (§5.3).
pub struct CompiledSpec {
    code: Arc<SpecCode>,
    shape: ProgramShape<ArgBlock>,
}

impl CompiledSpec {
    /// Compile `spec` for a single root call `f(args)`.
    ///
    /// ```
    /// use tb_core::prelude::*;
    /// let prog = tb_spec::CompiledSpec::new(&tb_spec::examples::fib_spec(), vec![20]).unwrap();
    /// let out = SeqScheduler::new(&prog, SchedConfig::basic(8, 128)).run();
    /// assert_eq!(out.reducer, 6765);
    /// ```
    pub fn new(spec: &RecursiveSpec, args: Vec<i64>) -> Result<Self, SpecError> {
        Self::with_data_parallel(spec, vec![args])
    }

    /// Compile `spec` for a data-parallel outer loop: one root task per
    /// argument tuple (§5.2's `foreach`).
    pub fn with_data_parallel(spec: &RecursiveSpec, calls: Vec<Vec<i64>>) -> Result<Self, SpecError> {
        Ok(Self::from_code(Arc::new(compile(spec)?), &calls))
    }

    /// Attach root calls to already-compiled code (the service layer's
    /// compile-once path: one cached `Arc<SpecCode>`, many submissions).
    ///
    /// # Panics
    /// If any root tuple's length differs from the method's parameter
    /// count. Callers holding unvalidated client input (the service layer)
    /// must check [`SpecCode::params`] first.
    pub fn from_code(code: Arc<SpecCode>, calls: &[Vec<i64>]) -> Self {
        let roots = ArgBlock::from_tuples(code.params(), calls);
        CompiledSpec { shape: ProgramShape::new(code.arity(), roots), code }
    }

    /// The compiled code (shareable across submissions).
    pub fn code(&self) -> &Arc<SpecCode> {
        &self.code
    }

    /// The scheduler arity (static spawn-site count).
    pub fn arity_hint(&self) -> usize {
        self.shape.arity()
    }
}

impl BlockProgram for CompiledSpec {
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
        debug_assert_eq!(
            block.stride(),
            self.code.params().max(1),
            "block width matches the compiled method"
        );
        let store = block.take();
        tb_obs::record(tb_obs::EventKind::TierBegin, 1, store.len() as u64);
        crate::simd_exec::run_scalar(&self.code, &store, out, red);
        tb_obs::record(tb_obs::EventKind::TierEnd, 1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::interp::{interpret, interpret_data_parallel};

    #[test]
    fn compiled_fib_matches_interpreter_under_every_policy() {
        let want = interpret(&examples::fib_spec(), &[16]);
        for cfg in
            [SchedConfig::basic(8, 128), SchedConfig::reexpansion(8, 128), SchedConfig::restart(8, 128, 32)]
        {
            let prog = CompiledSpec::new(&examples::fib_spec(), vec![16]).unwrap();
            let out = SeqScheduler::new(&prog, cfg).run();
            assert_eq!(out.reducer, want, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn compiled_guarded_spawns_keep_syntactic_site_numbering() {
        let spec = examples::parentheses_spec(5);
        let code = compile(&spec).unwrap();
        assert_eq!(code.arity(), 2);
        let sites: Vec<Reg> = code
            .instrs()
            .iter()
            .filter_map(|i| match i {
                Instr::Spawn { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, vec![0, 1], "sites numbered in syntactic order");
    }

    #[test]
    fn constant_folding_collapses_literal_subtrees() {
        use crate::ast::{add, c, lt, p};
        // (2 + 3) < n  =>  Const(5), Param, Lt
        let spec = RecursiveSpec {
            name: "f".into(),
            params: 1,
            base_cond: lt(add(c(2), c(3)), p(0)),
            base: vec![Stmt::Reduce(c(1))],
            inductive: vec![Stmt::Spawn(vec![add(p(0), c(1))])],
        };
        let code = compile(&spec).unwrap();
        assert!(
            code.instrs().iter().any(|i| matches!(i, Instr::Const { v: 5, .. })),
            "folded 2+3 into a literal:\n{}",
            code.disassemble()
        );
        assert_eq!(code.instrs().iter().filter(|i| matches!(i, Instr::Add { .. })).count(), 1);
    }

    #[test]
    fn data_parallel_roots_strip_mine() {
        let spec = examples::fib_spec();
        let calls: Vec<Vec<i64>> = (0..500).map(|i| vec![i % 12]).collect();
        let want = interpret_data_parallel(&spec, &calls);
        let prog = CompiledSpec::with_data_parallel(&spec, calls).unwrap();
        let out = SeqScheduler::new(&prog, SchedConfig::restart(8, 64, 16)).run();
        assert_eq!(out.reducer, want);
    }

    #[test]
    fn compiled_runs_under_work_stealing() {
        let spec = examples::binomial_spec();
        let want = interpret(&spec, &[18, 7]);
        let prog = CompiledSpec::new(&spec, vec![18, 7]).unwrap();
        let pool = tb_runtime::ThreadPool::new(3);
        let out = run_scheduler(SchedulerKind::Par, &prog, SchedConfig::restart(8, 256, 64), Some(&pool));
        assert_eq!(out.reducer, want);
    }

    #[test]
    fn shared_code_stamps_out_many_submissions() {
        let code = Arc::new(compile(&examples::fib_spec()).unwrap());
        let a = CompiledSpec::from_code(Arc::clone(&code), &[vec![10]]);
        let b = CompiledSpec::from_code(Arc::clone(&code), &[vec![12]]);
        assert_eq!(SeqScheduler::new(&a, SchedConfig::basic(4, 32)).run().reducer, 55);
        assert_eq!(SeqScheduler::new(&b, SchedConfig::basic(4, 32)).run().reducer, 144);
        assert!(Arc::ptr_eq(a.code(), b.code()));
    }

    #[test]
    fn argblock_store_contract() {
        let mut a = ArgBlock::from_tuples(2, &[vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(TaskStore::len(&a), 3);
        let tail = TaskStore::split_off(&mut a, 1);
        assert_eq!(TaskStore::len(&a), 1);
        assert_eq!(TaskStore::len(&tail), 2);
        assert_eq!(tail.tuples().next(), Some(vec![3, 4]));

        // Default buckets adopt the stride of the first append.
        let mut dflt = ArgBlock::default();
        assert_eq!(TaskStore::len(&dflt), 0);
        let mut other = ArgBlock::from_tuples(2, &[vec![7, 8]]);
        TaskStore::append(&mut dflt, &mut other);
        assert_eq!(TaskStore::len(&dflt), 1);
        assert!(other.is_empty());

        dflt.push_tuple(&[9, 10]);
        assert_eq!(TaskStore::len(&dflt), 2);
        TaskStore::clear(&mut dflt);
        assert_eq!(TaskStore::len(&dflt), 0);
    }

    #[test]
    fn mnemonics_cover_every_variant_exactly_once() {
        // One sample per variant. `Instr::mnemonic`'s exhaustive match is
        // the compile-time tripwire for new variants; this test forces
        // `MNEMONICS` to follow, and `tests/doc_sync.rs` forces the
        // docs/SPEC.md table to follow that.
        let samples = [
            Instr::Const { dst: 0, v: 0 },
            Instr::Param { dst: 0, idx: 0 },
            Instr::Add { dst: 0, a: 0, b: 0 },
            Instr::Sub { dst: 0, a: 0, b: 0 },
            Instr::Mul { dst: 0, a: 0, b: 0 },
            Instr::Lt { dst: 0, a: 0, b: 0 },
            Instr::Le { dst: 0, a: 0, b: 0 },
            Instr::Eq { dst: 0, a: 0, b: 0 },
            Instr::And { dst: 0, a: 0, b: 0 },
            Instr::Or { dst: 0, a: 0, b: 0 },
            Instr::Not { dst: 0, a: 0 },
            Instr::Reduce { src: 0 },
            Instr::Spawn { site: 0, args: 0 },
            Instr::JumpIfZero { cond: 0, target: 0 },
            Instr::Jump { target: 0 },
            Instr::Halt,
        ];
        assert_eq!(samples.len(), Instr::MNEMONICS.len(), "a variant is missing from MNEMONICS");
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.mnemonic(), Instr::MNEMONICS[i], "MNEMONICS order matches declaration order");
        }
        let mut sorted = Instr::MNEMONICS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), Instr::MNEMONICS.len(), "duplicate mnemonic");
    }

    #[test]
    fn lowered_control_flow_is_strictly_forward() {
        // The vector tier's linear sweep depends on this (see simd_exec);
        // check it on the example specs, including nested guards.
        for spec in [
            examples::fib_spec(),
            examples::binomial_spec(),
            examples::parentheses_spec(6),
            examples::treesum_spec(3),
        ] {
            let code = compile(&spec).unwrap();
            for (pc, i) in code.instrs().iter().enumerate() {
                if let Instr::JumpIfZero { target, .. } | Instr::Jump { target } = i {
                    assert!(*target as usize > pc, "{}: backward jump at {pc}", spec.name);
                }
            }
        }
    }

    #[test]
    fn zero_param_specs_still_execute() {
        // A 0-parameter spec is degenerate but expressible from the AST;
        // the 1-slot padding keeps the flat store counting tasks.
        let spec = RecursiveSpec {
            name: "unit".into(),
            params: 0,
            base_cond: Expr::Const(1),
            base: vec![Stmt::Reduce(Expr::Const(7))],
            inductive: vec![],
        };
        let prog = CompiledSpec::new(&spec, vec![]).unwrap();
        let out = SeqScheduler::new(&prog, SchedConfig::basic(4, 32)).run();
        assert_eq!(out.reducer, 7);
    }
}
