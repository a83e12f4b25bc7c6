//! Shared test-only generator for random *valid, terminating* spec
//! programs, used by the differential suite (`spec_differential.rs`), the
//! preemption round-trip suite (`preempt_equiv.rs`) and the split suite
//! (`restart_split.rs`) — plus the [`KeepThievesHungry`] plug the split
//! tests wrap programs in, and [`every_policy`], the config row those
//! suites iterate.
//!
//! Termination of generated specs is by construction: parameter 0 is
//! *fuel* — every spawn passes `p0 - d` with `d >= 1` as argument 0, and
//! the base predicate always contains `p0 <= 0` as a disjunct — so the
//! recursion depth is bounded by the root fuel no matter what the rest of
//! the program does.

#![allow(dead_code)] // each test crate uses its own subset

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Duration;

// `tb_core` / `tb_spec` (not `taskblocks::*`) so this module also compiles
// when included from `crates/service/tests/*` via `#[path]` — tb-service
// depends on both but not on the root crate.
use tb_core::{BlockProgram, BucketSet, SchedConfig};
use tb_spec::{Expr, RecursiveSpec, Stmt};

/// One config per policy family at the given thresholds: basic and
/// re-expansion at `t_dfe`, restart at `t_dfe`/`t_restart`, and adaptive,
/// which takes only `q`.
pub fn every_policy(q: usize, t_dfe: usize, t_restart: usize) -> [SchedConfig; 4] {
    [
        SchedConfig::basic(q, t_dfe),
        SchedConfig::reexpansion(q, t_dfe),
        SchedConfig::restart(q, t_dfe, t_restart),
        SchedConfig::adaptive(q),
    ]
}

/// A splitmix64 stream: all structural choices derive from one drawn seed,
/// so failing cases reproduce from the printed seed alone.
pub struct G(pub u64);

impl G {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

fn bx(e: Expr) -> Box<Expr> {
    Box::new(e)
}

/// A random expression over `params` parameters, operator tree of at most
/// `depth` levels.
pub fn gen_expr(g: &mut G, params: usize, depth: usize) -> Expr {
    if depth == 0 || g.chance(35) {
        return if g.chance(50) {
            Expr::Const(g.range(-4, 4))
        } else {
            Expr::Param(g.below(params as u64) as usize)
        };
    }
    let a = bx(gen_expr(g, params, depth - 1));
    let b = bx(gen_expr(g, params, depth - 1));
    match g.below(9) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        3 => Expr::Lt(a, b),
        4 => Expr::Le(a, b),
        5 => Expr::Eq(a, b),
        6 => Expr::And(a, b),
        7 => Expr::Or(a, b),
        _ => Expr::Not(a),
    }
}

/// A spawn whose argument 0 strictly burns fuel; other arguments are
/// arbitrary.
pub fn gen_spawn(g: &mut G, params: usize) -> Stmt {
    let mut args = vec![Expr::Sub(bx(Expr::Param(0)), bx(Expr::Const(g.range(1, 2))))];
    for _ in 1..params {
        args.push(gen_expr(g, params, 2));
    }
    Stmt::Spawn(args)
}

/// 1–3 inductive statements: spawns, guarded spawns (exercising the
/// syntactic site-numbering rule across both `If` branches), reductions.
pub fn gen_inductive(g: &mut G, params: usize) -> Vec<Stmt> {
    let n = 1 + g.below(3);
    (0..n)
        .map(|_| match g.below(4) {
            0 | 1 => gen_spawn(g, params),
            2 => {
                let then_b = vec![gen_spawn(g, params)];
                let else_b = if g.chance(50) {
                    vec![gen_spawn(g, params)]
                } else {
                    vec![Stmt::Reduce(gen_expr(g, params, 2))]
                };
                Stmt::If(gen_expr(g, params, 2), then_b, else_b)
            }
            _ => Stmt::Reduce(gen_expr(g, params, 3)),
        })
        .collect()
}

/// A random valid, terminating spec plus a root call for it.
pub fn gen_spec(seed: u64) -> (RecursiveSpec, Vec<i64>) {
    let mut g = G(seed);
    let params = 1 + g.below(3) as usize;
    // `p0 <= 0` always ends the recursion; an optional random disjunct
    // lets some branches take the base case early.
    let fuel_out = Expr::Le(bx(Expr::Param(0)), bx(Expr::Const(0)));
    let base_cond =
        if g.chance(30) { Expr::Or(bx(fuel_out), bx(gen_expr(&mut g, params, 2))) } else { fuel_out };
    let base = (0..1 + g.below(2)).map(|_| Stmt::Reduce(gen_expr(&mut g, params, 3))).collect();
    let inductive = gen_inductive(&mut g, params);
    let spec = RecursiveSpec { name: "gen".into(), params, base_cond, base, inductive };
    let mut root = vec![g.range(4, 7)];
    for _ in 1..params {
        root.push(g.range(-3, 3));
    }
    (spec, root)
}

/// Render an expression back to surface syntax, fully parenthesised so no
/// precedence reasoning is needed. The grammar has no negative literal,
/// so `Const(-4)` renders as `(0 - 4)` — semantically identical under
/// wrapping arithmetic.
pub fn expr_source(e: &Expr) -> String {
    match e {
        Expr::Const(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
        Expr::Const(v) => v.to_string(),
        Expr::Param(i) => format!("p{i}"),
        Expr::Add(a, b) => format!("({} + {})", expr_source(a), expr_source(b)),
        Expr::Sub(a, b) => format!("({} - {})", expr_source(a), expr_source(b)),
        Expr::Mul(a, b) => format!("({} * {})", expr_source(a), expr_source(b)),
        Expr::Lt(a, b) => format!("({} < {})", expr_source(a), expr_source(b)),
        Expr::Le(a, b) => format!("({} <= {})", expr_source(a), expr_source(b)),
        Expr::Eq(a, b) => format!("({} == {})", expr_source(a), expr_source(b)),
        Expr::And(a, b) => format!("({} && {})", expr_source(a), expr_source(b)),
        Expr::Or(a, b) => format!("({} || {})", expr_source(a), expr_source(b)),
        Expr::Not(a) => format!("(!{})", expr_source(a)),
    }
}

fn stmt_source(s: &Stmt, name: &str) -> String {
    match s {
        Stmt::Reduce(e) => format!("reduce {};", expr_source(e)),
        Stmt::Spawn(args) => {
            let args = args.iter().map(expr_source).collect::<Vec<_>>().join(", ");
            format!("spawn {name}({args});")
        }
        Stmt::If(cond, then_b, else_b) => {
            let then_b = block_source(then_b, name);
            if else_b.is_empty() {
                format!("if ({}) {then_b}", expr_source(cond))
            } else {
                format!("if ({}) {then_b} else {}", expr_source(cond), block_source(else_b, name))
            }
        }
    }
}

fn block_source(stmts: &[Stmt], name: &str) -> String {
    let body = stmts.iter().map(|s| stmt_source(s, name)).collect::<Vec<_>>().join(" ");
    if body.is_empty() {
        "{ }".into()
    } else {
        format!("{{ {body} }}")
    }
}

/// Render a spec back to a single line of surface syntax that
/// `tb_spec::parse_spec` accepts — parameters are named `p0..pK`, and the
/// whole program stays newline-free so it frames as one wire request.
pub fn spec_source(spec: &RecursiveSpec) -> String {
    let params = (0..spec.params).map(|i| format!("p{i}")).collect::<Vec<_>>().join(", ");
    format!(
        "spec {}({params}) {{ base ({}) {} else {} }}",
        spec.name,
        expr_source(&spec.base_cond),
        block_source(&spec.base, &spec.name),
        block_source(&spec.inductive, &spec.name),
    )
}

/// The plug: runs `inner` unchanged but notes which threads execute its
/// blocks, and dawdles while only one has — so the job is still running
/// when the pool's other workers have gone idle and asked for work.
pub struct KeepThievesHungry<P> {
    inner: P,
    seen: Mutex<HashSet<ThreadId>>,
}

impl<P> KeepThievesHungry<P> {
    pub fn new(inner: P) -> Self {
        KeepThievesHungry { inner, seen: Mutex::new(HashSet::new()) }
    }

    /// How many distinct threads have executed a block so far.
    pub fn threads_seen(&self) -> usize {
        self.seen.lock().expect("no expand panics while holding the set").len()
    }
}

impl<P: BlockProgram> BlockProgram for KeepThievesHungry<P> {
    type Store = P::Store;
    type Reducer = P::Reducer;

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn make_root(&self) -> P::Store {
        self.inner.make_root()
    }

    fn make_reducer(&self) -> P::Reducer {
        self.inner.make_reducer()
    }

    fn merge_reducers(&self, a: &mut P::Reducer, b: P::Reducer) {
        self.inner.merge_reducers(a, b);
    }

    fn expand(&self, block: &mut P::Store, out: &mut BucketSet<P::Store>, red: &mut P::Reducer) {
        let alone = {
            let mut seen = self.seen.lock().expect("no expand panics while holding the set");
            seen.insert(std::thread::current().id());
            seen.len() < 2
        };
        if alone {
            std::thread::sleep(Duration::from_micros(100));
        }
        self.inner.expand(block, out, red);
    }
}
