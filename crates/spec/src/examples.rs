//! Benchmark programs written in the specification language, used for
//! cross-validation against the native `tb-suite` implementations.

use crate::ast::{add, and, c, eq, lt, p, sub, Expr, RecursiveSpec, Stmt};

/// `Expr::Mul`.
fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Mul(Box::new(a), Box::new(b))
}

/// `fib(n)` — Fig. 1(a) of the paper.
pub fn fib_spec() -> RecursiveSpec {
    RecursiveSpec {
        name: "fib".into(),
        params: 1,
        base_cond: lt(p(0), c(2)),
        base: vec![Stmt::Reduce(p(0))],
        inductive: vec![Stmt::Spawn(vec![sub(p(0), c(1))]), Stmt::Spawn(vec![sub(p(0), c(2))])],
    }
}

/// `binomial(n, k)` — Pascal recursion.
pub fn binomial_spec() -> RecursiveSpec {
    RecursiveSpec {
        name: "binomial".into(),
        params: 2,
        base_cond: Expr::Or(Box::new(eq(p(1), c(0))), Box::new(eq(p(1), p(0)))),
        base: vec![Stmt::Reduce(c(1))],
        inductive: vec![
            Stmt::Spawn(vec![sub(p(0), c(1)), sub(p(1), c(1))]),
            Stmt::Spawn(vec![sub(p(0), c(1)), p(1)]),
        ],
    }
}

/// `parentheses(open, close)` for `n` pairs — guarded spawns.
pub fn parentheses_spec(n: i64) -> RecursiveSpec {
    RecursiveSpec {
        name: "paren".into(),
        params: 2,
        base_cond: and(eq(p(0), c(n)), eq(p(1), c(n))),
        base: vec![Stmt::Reduce(c(1))],
        inductive: vec![
            Stmt::If(lt(p(0), c(n)), vec![Stmt::Spawn(vec![add(p(0), c(1)), p(1)])], vec![]),
            Stmt::If(lt(p(1), p(0)), vec![Stmt::Spawn(vec![p(0), add(p(1), c(1))])], vec![]),
        ],
    }
}

/// `treesum(d, v)` — sum the labels of a complete `k`-ary tree of depth
/// `d`, the §5.2 `foreach` exercise: node `v` at depth `d > 0` spawns
/// children labelled `k·v + 1 … k·v + k` (the heap numbering), and a
/// data-parallel outer loop seeds one root per subtree via
/// `with_data_parallel` ([`treesum_roots`]). Arity `k` exercises non-binary
/// spawn fan-out in every backend.
pub fn treesum_spec(k: i64) -> RecursiveSpec {
    assert!(k >= 1, "treesum needs at least one child per node");
    RecursiveSpec {
        name: "treesum".into(),
        params: 2,
        base_cond: lt(p(0), c(1)),
        base: vec![Stmt::Reduce(p(1))],
        inductive: (1..=k).map(|i| Stmt::Spawn(vec![sub(p(0), c(1)), add(mul(c(k), p(1)), c(i))])).collect(),
    }
}

/// The §5.2 `foreach` driver for [`treesum_spec`]: `roots` initial calls
/// `treesum(depth, i)`, one level-0 task per iteration — the inductive
/// case the strip-mining engines chew through.
pub fn treesum_roots(depth: i64, roots: i64) -> Vec<Vec<i64>> {
    (0..roots).map(|i| vec![depth, i]).collect()
}

/// The exact answer for a [`treesum_spec`]`(k)` run over
/// [`treesum_roots`]`(depth, roots)` (closed-form serial recount, for
/// tests and service verification).
pub fn treesum_expected(k: i64, depth: i64, roots: i64) -> i64 {
    fn node(k: i64, d: i64, v: i64) -> i64 {
        if d < 1 {
            v
        } else {
            (1..=k).fold(0i64, |acc, i| acc.wrapping_add(node(k, d - 1, k.wrapping_mul(v).wrapping_add(i))))
        }
    }
    (0..roots).fold(0i64, |acc, i| acc.wrapping_add(node(k, depth, i)))
}

/// The same ternary tree sum as [`treesum_spec`]`(3)`, in surface syntax.
pub const TREESUM_SOURCE: &str = "spec treesum(d, v) {
  base (d < 1) { reduce v; }
  else {
    spawn treesum(d - 1, 3 * v + 1);
    spawn treesum(d - 1, 3 * v + 2);
    spawn treesum(d - 1, 3 * v + 3);
  }
}";

/// The same fib program as [`fib_spec`], in surface syntax.
pub const FIB_SOURCE: &str = "spec fib(n) {
  base (n < 2) { reduce n; }
  else { spawn fib(n - 1); spawn fib(n - 2); }
}";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::interpret;
    use crate::parse::parse_spec;

    #[test]
    fn parsed_and_built_fib_agree() {
        let parsed = parse_spec(FIB_SOURCE).unwrap();
        let built = fib_spec();
        for n in 0..15 {
            assert_eq!(interpret(&parsed, &[n]), interpret(&built, &[n]), "n={n}");
        }
    }

    #[test]
    fn specs_validate() {
        assert_eq!(fib_spec().validate().unwrap(), 2);
        assert_eq!(binomial_spec().validate().unwrap(), 2);
        assert_eq!(parentheses_spec(5).validate().unwrap(), 2);
        assert_eq!(treesum_spec(3).validate().unwrap(), 3, "k-ary fan-out is the arity");
        assert_eq!(treesum_spec(5).validate().unwrap(), 5);
    }

    #[test]
    fn treesum_matches_its_closed_form_recount() {
        let spec = treesum_spec(3);
        for (depth, roots) in [(0, 4), (1, 1), (3, 5), (5, 2)] {
            let calls = treesum_roots(depth, roots);
            let got = crate::interp::interpret_data_parallel(&spec, &calls);
            assert_eq!(got, treesum_expected(3, depth, roots), "d={depth} roots={roots}");
        }
        // Depth-1 single root 0: children are labels 1, 2, 3.
        assert_eq!(treesum_expected(3, 1, 1), 6);
    }

    #[test]
    fn parsed_treesum_agrees_with_builder() {
        let parsed = parse_spec(TREESUM_SOURCE).unwrap();
        let built = treesum_spec(3);
        for call in treesum_roots(4, 6) {
            assert_eq!(interpret(&parsed, &call), interpret(&built, &call), "{call:?}");
        }
    }

    #[test]
    fn treesum_foreach_runs_compiled() {
        use tb_core::prelude::*;
        let spec = treesum_spec(3);
        let calls = treesum_roots(6, 40);
        let want = treesum_expected(3, 6, 40);
        let compiled = crate::compile::CompiledSpec::with_data_parallel(&spec, calls).unwrap();
        // Small t_dfe forces the §5.3 strip-mining of the foreach roots.
        let cfg = SchedConfig::restart(8, 16, 8);
        assert_eq!(run_policy(&compiled, cfg, None).reducer, want);
    }
}
