//! `fib` — the classic doubly-recursive Fibonacci benchmark.
//!
//! Paper input: `fib(45)` — 45 levels, 3.67 G tasks, `char` data (16-wide
//! vectors). The tree is an unbalanced binary tree (left subtrees are one
//! level deeper than right), which is exactly the shape that starves naive
//! blocked execution and makes re-expansion/restart matter.
//!
//! The SIMD tier processes 16 tasks per step with [`tb_simd::Lanes`]:
//! one comparison for the base-case mask, a masked horizontal add for the
//! reduction, and two streaming compactions for the spawned children.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{compact_append, Lanes};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

/// Vector width for `char`-sized tasks (Table 1 caption).
const Q: usize = 16;

/// The fib benchmark at a given input size.
pub struct Fib {
    /// Argument to `fib`.
    pub n: u8,
}

impl Fib {
    /// Preset inputs: tiny 16, small 34, paper 45.
    pub fn new(scale: Scale) -> Self {
        Fib {
            n: match scale {
                Scale::Tiny => 16,
                Scale::Small => 34,
                Scale::Paper => 45,
            },
        }
    }

    fn program(&self, simd: bool) -> FibProg {
        FibProg { n: self.n, simd }
    }
}

/// fib(n) and the number of recursive calls it makes.
pub fn fib_serial(n: u8) -> (u64, u64) {
    if n < 2 {
        (u64::from(n), 1)
    } else {
        let (a, ta) = fib_serial(n - 1);
        let (b, tb) = fib_serial(n - 2);
        (a + b, ta + tb + 1)
    }
}

fn fib_cilk(ctx: &WorkerCtx<'_>, n: u8) -> u64 {
    if n < 2 {
        return u64::from(n);
    }
    let (a, b) = ctx.join(move |c| fib_cilk(c, n - 1), move |c| fib_cilk(c, n - 2));
    a + b
}

/// Blocked fib. A task is just the argument `n`; a single `u8` column means
/// the AoS and SoA layouts coincide, so one program serves every tier, with
/// `simd` selecting the explicit lane kernel.
struct FibProg {
    n: u8,
    simd: bool,
}

impl BlockProgram for FibProg {
    type Store = Vec<u8>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Vec<u8> {
        vec![self.n]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Vec<u8>, out: &mut BucketSet<Vec<u8>>, red: &mut u64) {
        if self.simd {
            expand_simd(block, out, red);
        } else {
            for n in block.drain(..) {
                if n < 2 {
                    *red += u64::from(n);
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 2);
                }
            }
        }
    }
}

/// 16-lane kernel: mask = base case, masked add into the reduction,
/// compaction of the survivors into both spawn buckets.
fn expand_simd(block: &mut Vec<u8>, out: &mut BucketSet<Vec<u8>>, red: &mut u64) {
    let data = block.as_slice();
    let two = Lanes::<u8, 16>::splat(2);
    let zero = Lanes::<u8, 16>::splat(0);
    let mut i = 0;
    while i + 16 <= data.len() {
        let n = Lanes::<u8, 16>::from_slice(&data[i..]);
        let base = n.lt(two);
        // Base-case contribution: sum of n over base lanes (values 0/1).
        let contrib = n.select(base, zero);
        *red += u64::from(contrib.reduce_add());
        let inductive = base.not();
        let n1 = n.map(|x| x.wrapping_sub(1));
        let n2 = n.map(|x| x.wrapping_sub(2));
        compact_append(out.bucket(0), &n1, &inductive);
        compact_append(out.bucket(1), &n2, &inductive);
        i += 16;
    }
    for &n in &data[i..] {
        if n < 2 {
            *red += u64::from(n);
        } else {
            out.bucket(0).push(n - 1);
            out.bucket(1).push(n - 2);
        }
    }
    block.clear();
}

impl Benchmark for Fib {
    fn name(&self) -> &'static str {
        "fib"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "task"
    }

    fn simd_is_explicit(&self) -> bool {
        true
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (v, tasks) = fib_serial(self.n);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        let n = self.n;
        cilk_summary(Q, pool, |p| Outcome::Exact(p.install(|ctx| fib_cilk(ctx, n))))
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        seq_summary(&self.program(tier == Tier::Simd), cfg, Outcome::Exact)
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        par_summary(&self.program(tier == Tier::Simd), pool, cfg, kind, Outcome::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_reference() {
        assert_eq!(fib_serial(10).0, 55);
        assert_eq!(fib_serial(20).0, 6765);
        // task count = 2*fib(n+1) - 1
        assert_eq!(fib_serial(10).1, 2 * 89 - 1);
    }

    #[test]
    fn all_variants_agree() {
        let b = Fib::new(Scale::Tiny);
        let want = b.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(b.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            for cfg in [SchedConfig::reexpansion(Q, 256), SchedConfig::restart(Q, 256, 64)] {
                assert_eq!(b.blocked_seq(cfg, tier).outcome, want, "{tier:?} {:?}", cfg.policy);
                assert_eq!(b.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want, "{tier:?}");
            }
        }
    }

    #[test]
    fn simd_kernel_matches_scalar_on_ragged_blocks() {
        // Block sizes that exercise both the 16-lane body and the tail.
        for t_dfe in [1usize, 7, 16, 33, 256] {
            let b = Fib { n: 18 };
            let scalar = b.blocked_seq(SchedConfig::restart(Q, t_dfe.max(2), t_dfe.clamp(2, 8)), Tier::Block);
            let simd = b.blocked_seq(SchedConfig::restart(Q, t_dfe.max(2), t_dfe.clamp(2, 8)), Tier::Simd);
            assert_eq!(scalar.outcome, simd.outcome, "t_dfe={t_dfe}");
            assert_eq!(scalar.stats.tasks_executed, simd.stats.tasks_executed);
        }
    }

    #[test]
    fn task_count_matches_table1_formula() {
        let b = Fib { n: 20 };
        let run = b.blocked_seq(SchedConfig::reexpansion(Q, 512), Tier::Block);
        assert_eq!(run.stats.tasks_executed, fib_serial(20).1);
    }
}
