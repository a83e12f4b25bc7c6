//! The §5.3 transformation: spec → blocked task-block program.
//!
//! The original per-call program (Fig. 1(a)) becomes a program over dense
//! task blocks (Fig. 1(b,c)) *generically, once, at the interpreter level*:
//! a task is the method's parameter tuple, and `expand` interprets every
//! task of a block one step, routing each syntactic spawn site to its own
//! bucket. The scheduler then decides BFE vs DFE vs restart — nothing
//! benchmark-specific remains.
//!
//! Data-parallel outer loops become many root tasks; `tb-core`'s engines
//! strip-mine oversized roots (§5.3's strip mining) automatically.

use tb_core::prelude::*;

use crate::ast::{RecursiveSpec, Stmt};

/// A spec compiled to the blocked form: implements [`BlockProgram`], so it
/// runs under every scheduler in `tb-core`.
///
/// This backend interprets the AST inside `expand`; see
/// [`CompiledSpec`](crate::compile::CompiledSpec) for the backend that
/// lowers the same spec to a flat instruction stream first.
pub struct BlockedSpec {
    spec: RecursiveSpec,
    shape: ProgramShape<Vec<Vec<i64>>>,
}

impl BlockedSpec {
    /// Compile `spec` for a single root call `f(args)`.
    pub fn new(spec: RecursiveSpec, args: Vec<i64>) -> Result<Self, crate::ast::SpecError> {
        Self::with_data_parallel(spec, vec![args])
    }

    /// Compile `spec` for a data-parallel outer loop: one root task per
    /// argument tuple (§5.2's `foreach`).
    pub fn with_data_parallel(
        spec: RecursiveSpec,
        calls: Vec<Vec<i64>>,
    ) -> Result<Self, crate::ast::SpecError> {
        let arity = spec.validate()?;
        for call in &calls {
            assert_eq!(call.len(), spec.params, "root call arity mismatch");
        }
        Ok(BlockedSpec { shape: ProgramShape::new(arity, calls), spec })
    }

    /// The scheduler arity (static spawn-site count).
    pub fn arity_hint(&self) -> usize {
        self.shape.arity()
    }

    fn run_stmts(
        &self,
        stmts: &[Stmt],
        params: &[i64],
        site: &mut usize,
        out: &mut BucketSet<Vec<Vec<i64>>>,
        red: &mut i64,
    ) {
        for s in stmts {
            match s {
                Stmt::Reduce(e) => *red = red.wrapping_add(e.eval(params)),
                Stmt::Spawn(args) => {
                    let child: Vec<i64> = args.iter().map(|a| a.eval(params)).collect();
                    out.bucket(*site).push(child);
                    *site += 1;
                }
                Stmt::If(cond, then_b, else_b) => {
                    // Spawn sites are *syntactic*: walk both branches'
                    // site counts so numbering is stable, but only emit
                    // tasks on the taken branch.
                    if cond.eval(params) != 0 {
                        self.run_stmts(then_b, params, site, out, red);
                        *site += count_sites(else_b);
                    } else {
                        *site += count_sites(then_b);
                        self.run_stmts(else_b, params, site, out, red);
                    }
                }
            }
        }
    }
}

fn count_sites(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Spawn(_) => 1,
            Stmt::If(_, t, e) => count_sites(t) + count_sites(e),
            Stmt::Reduce(_) => 0,
        })
        .sum()
}

impl BlockProgram for BlockedSpec {
    type Store = Vec<Vec<i64>>;
    type Reducer = i64;

    fn arity(&self) -> usize {
        self.shape.arity()
    }

    fn make_root(&self) -> Self::Store {
        self.shape.make_root()
    }

    fn make_reducer(&self) -> i64 {
        0
    }

    fn merge_reducers(&self, a: &mut i64, b: i64) {
        tb_core::merge_sum(a, b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut i64) {
        // q = 1: the interpreter tier is scalar by construction.
        tb_obs::record(tb_obs::EventKind::TierBegin, 1, block.len() as u64);
        for task in block.drain(..) {
            let mut site = 0;
            if self.spec.base_cond.eval(&task) != 0 {
                self.run_stmts(&self.spec.base, &task, &mut site, out, red);
            } else {
                self.run_stmts(&self.spec.inductive, &task, &mut site, out, red);
            }
        }
        tb_obs::record(tb_obs::EventKind::TierEnd, 1, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::interp::{interpret, interpret_data_parallel};

    #[test]
    fn blocked_fib_matches_interpreter_under_every_policy() {
        let want = interpret(&examples::fib_spec(), &[16]);
        for cfg in
            [SchedConfig::basic(8, 128), SchedConfig::reexpansion(8, 128), SchedConfig::restart(8, 128, 32)]
        {
            let prog = BlockedSpec::new(examples::fib_spec(), vec![16]).unwrap();
            let out = SeqScheduler::new(&prog, cfg).run();
            assert_eq!(out.reducer, want, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn blocked_parentheses_guarded_spawns_work() {
        let spec = examples::parentheses_spec(6);
        let want = interpret(&spec, &[0, 0]);
        let prog = BlockedSpec::new(spec, vec![0, 0]).unwrap();
        let out = SeqScheduler::new(&prog, SchedConfig::restart(4, 64, 16)).run();
        assert_eq!(out.reducer, want); // Catalan(6) = 132
        assert_eq!(want, 132);
    }

    #[test]
    fn data_parallel_outer_loop_strip_mines() {
        let spec = examples::fib_spec();
        let calls: Vec<Vec<i64>> = (0..500).map(|i| vec![i % 12]).collect();
        let want = interpret_data_parallel(&spec, &calls);
        let prog = BlockedSpec::with_data_parallel(spec, calls).unwrap();
        // t_dfe far below the root size forces strip mining.
        let out = SeqScheduler::new(&prog, SchedConfig::restart(8, 64, 16)).run();
        assert_eq!(out.reducer, want);
    }

    #[test]
    fn blocked_spec_runs_under_work_stealing() {
        let want = interpret(&examples::binomial_spec(), &[18, 7]);
        let prog = BlockedSpec::new(examples::binomial_spec(), vec![18, 7]).unwrap();
        let pool = tb_runtime::ThreadPool::new(3);
        let out = ParRestart::new(&prog, SchedConfig::restart(8, 256, 64)).run(&pool);
        assert_eq!(out.reducer, want);
        let out = ParReExpansion::new(&prog, SchedConfig::reexpansion(8, 256)).run(&pool);
        assert_eq!(out.reducer, want);
    }
}
