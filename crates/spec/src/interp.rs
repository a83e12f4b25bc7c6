//! The direct recursive interpreter: reference semantics for a spec.

use crate::ast::{RecursiveSpec, Stmt};

/// Interpret `spec` called with `args`, returning the summed reduction.
/// This is the meaning the blocked/scheduled executions must preserve.
pub fn interpret(spec: &RecursiveSpec, args: &[i64]) -> i64 {
    assert_eq!(args.len(), spec.params, "arity mismatch at the root call");
    spec.validate().expect("invalid spec");
    let mut acc = 0i64;
    run_call(spec, args, &mut acc);
    acc
}

/// Interpret a data-parallel loop over many initial argument tuples
/// (§5.2's `foreach (d : data) f(d, …)`).
pub fn interpret_data_parallel(spec: &RecursiveSpec, calls: &[Vec<i64>]) -> i64 {
    let mut acc = 0i64;
    for args in calls {
        acc = acc.wrapping_add(interpret(spec, args));
    }
    acc
}

fn run_call(spec: &RecursiveSpec, params: &[i64], acc: &mut i64) {
    if spec.base_cond.eval(params) != 0 {
        run_stmts(spec, &spec.base, params, acc);
    } else {
        run_stmts(spec, &spec.inductive, params, acc);
    }
}

fn run_stmts(spec: &RecursiveSpec, stmts: &[Stmt], params: &[i64], acc: &mut i64) {
    for s in stmts {
        match s {
            // Wrapping, like Expr::eval: the interpreter and the compiled
            // tiers share one total semantics, so the differential tests
            // hold on any input.
            Stmt::Reduce(e) => *acc = acc.wrapping_add(e.eval(params)),
            Stmt::Spawn(args) => {
                let child: Vec<i64> = args.iter().map(|a| a.eval(params)).collect();
                run_call(spec, &child, acc);
            }
            Stmt::If(cond, then_b, else_b) => {
                if cond.eval(params) != 0 {
                    run_stmts(spec, then_b, params, acc);
                } else {
                    run_stmts(spec, else_b, params, acc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn fib_spec_interprets_correctly() {
        let spec = examples::fib_spec();
        assert_eq!(interpret(&spec, &[10]), 55);
        assert_eq!(interpret(&spec, &[1]), 1);
        assert_eq!(interpret(&spec, &[0]), 0);
    }

    #[test]
    fn binomial_spec_interprets_correctly() {
        let spec = examples::binomial_spec();
        assert_eq!(interpret(&spec, &[10, 3]), 120);
        assert_eq!(interpret(&spec, &[5, 5]), 1);
    }

    #[test]
    fn parentheses_spec_counts_catalan() {
        let spec = examples::parentheses_spec(5);
        assert_eq!(interpret(&spec, &[0, 0]), 42);
    }

    #[test]
    fn data_parallel_loop_sums_iterations() {
        let spec = examples::fib_spec();
        let calls: Vec<Vec<i64>> = (0..10).map(|i| vec![i]).collect();
        // sum_{i=0}^{9} fib(i) = fib(11) - 1 = 88
        assert_eq!(interpret_data_parallel(&spec, &calls), 88);
    }
}
