//! `uts` — Unbalanced Tree Search, binomial variant.
//!
//! Paper input: a binomial UTS tree — 228 levels, 19.9 M tasks, `int` data,
//! 4-wide vectors. In a binomial UTS tree every non-root node has `m`
//! children with probability `q` and none otherwise (`mq < 1`), driven by a
//! splittable per-node random stream; the root has `b0` children so the
//! tree doesn't die immediately. Subtree sizes are wildly unpredictable,
//! which is the whole point: this is the classic stress test for dynamic
//! load balancing. The reduction is the node count.
//!
//! The original UTS derives node streams from SHA-1; we substitute
//! SplitMix64 (see [`crate::uts_rng`] and DESIGN.md §4) with the same
//! structural parameters.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;
use crate::uts_rng::{child_state, uniform};

const Q: usize = 4;

/// The UTS benchmark parameters.
pub struct Uts {
    /// Root branching factor.
    pub b0: usize,
    /// Non-root branching factor (children come in all-or-nothing bunches).
    pub m: usize,
    /// Probability (×2⁻⁶⁴ fixed point avoided: stored as f64) that a node
    /// has children.
    pub q: f64,
    /// Root random seed.
    pub seed: u64,
}

impl Uts {
    /// Presets chosen so `m·q` stays near the paper's regime (deep spindly
    /// trees with huge subtree variance): tiny ~1 K nodes, small a few
    /// hundred K, paper tens of M.
    /// The binomial process is heavy-tailed, so total size is a seed
    /// lottery around `b0 / (1 - m·q)`; these seeds were chosen to land in
    /// the documented ranges (tiny ≈ 100 nodes / depth 13, small ≈ 220 K /
    /// depth 320, paper ≈ 1.4 M / depth 1050 — smaller than the paper's
    /// 19.9 M but with the same deep-spindly shape).
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Uts { b0: 16, m: 4, q: 0.24, seed: 19 },
            Scale::Small => Uts { b0: 256, m: 8, q: 0.1245, seed: 19 },
            Scale::Paper => Uts { b0: 2000, m: 8, q: 0.124985, seed: 777 },
        }
    }

    fn has_children(&self, state: u64) -> bool {
        uniform(state) < self.q
    }
}

/// Node count and recursive-call count (equal for UTS: every node is a task).
pub fn uts_serial(u: &Uts) -> (u64, u64) {
    fn rec(u: &Uts, state: u64) -> u64 {
        let mut nodes = 1;
        if u.has_children(state) {
            for i in 0..u.m {
                nodes += rec(u, child_state(state, i as u64));
            }
        }
        nodes
    }
    let mut nodes = 0;
    for i in 0..u.b0 {
        nodes += rec(u, child_state(u.seed, i as u64));
    }
    (nodes, nodes)
}

fn uts_cilk(u: &Uts, ctx: &WorkerCtx<'_>, state: u64) -> u64 {
    let mut nodes = 1;
    if u.has_children(state) {
        fn over(u: &Uts, ctx: &WorkerCtx<'_>, state: u64, lo: usize, hi: usize) -> u64 {
            if hi - lo == 1 {
                return uts_cilk(u, ctx, child_state(state, lo as u64));
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = ctx.join(move |c| over(u, c, state, lo, mid), move |c| over(u, c, state, mid, hi));
            a + b
        }
        nodes += over(u, ctx, state, 0, u.m);
    }
    nodes
}

/// Blocked UTS. A task is just the node's random state; the level-synchrony
/// of blocks means every task in a block sits at the same tree depth, as
/// required. AoS and SoA coincide (single `u64` column).
struct UtsProg<'u> {
    u: &'u Uts,
}

impl BlockProgram for UtsProg<'_> {
    type Store = Vec<u64>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        self.u.m
    }

    fn make_root(&self) -> Self::Store {
        // The virtual root's children are the level-0 tasks (the outer
        // data-parallel-ish seeding of the search).
        (0..self.u.b0).map(|i| child_state(self.u.seed, i as u64)).collect()
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        for state in block.drain(..) {
            *red += 1;
            if self.u.has_children(state) {
                for i in 0..self.u.m {
                    out.bucket(i).push(child_state(state, i as u64));
                }
            }
        }
    }
}

impl Benchmark for Uts {
    fn name(&self) -> &'static str {
        "uts"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "task"
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (v, tasks) = uts_serial(self);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Exact(p.install(|ctx| {
                fn roots(u: &Uts, ctx: &WorkerCtx<'_>, lo: usize, hi: usize) -> u64 {
                    if hi - lo == 1 {
                        return uts_cilk(u, ctx, child_state(u.seed, lo as u64));
                    }
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = ctx.join(move |c| roots(u, c, lo, mid), move |c| roots(u, c, mid, hi));
                    a + b
                }
                roots(self, ctx, 0, self.b0)
            }))
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, _tier: Tier) -> RunSummary {
        seq_summary(&UtsProg { u: self }, cfg, Outcome::Exact)
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        _tier: Tier,
    ) -> RunSummary {
        par_summary(&UtsProg { u: self }, pool, cfg, kind, Outcome::Exact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_deterministic() {
        let u = Uts::new(Scale::Tiny);
        let a = uts_serial(&u);
        let b = uts_serial(&u);
        assert_eq!(a, b);
        assert!(a.0 >= u.b0 as u64, "at least the root's children exist");
    }

    #[test]
    fn all_variants_agree() {
        let u = Uts::new(Scale::Tiny);
        let want = u.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(u.cilk(&pool).outcome, want);
        for cfg in [SchedConfig::reexpansion(Q, 128), SchedConfig::restart(Q, 128, 16)] {
            assert_eq!(u.blocked_seq(cfg, Tier::Block).outcome, want);
            assert_eq!(u.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block).outcome, want);
        }
    }

    #[test]
    fn tree_is_deep_relative_to_size() {
        // The binomial regime produces depth far beyond log2(n) — that is
        // what distinguishes uts in Figure 4/5.
        let u = Uts::new(Scale::Tiny);
        let run = u.blocked_seq(SchedConfig::restart(Q, 64, 16), Tier::Block);
        let n = run.stats.tasks_executed as f64;
        assert!(
            run.stats.max_level as f64 > n.log2(),
            "depth {} vs log2(n) {}",
            run.stats.max_level,
            n.log2()
        );
    }
}
