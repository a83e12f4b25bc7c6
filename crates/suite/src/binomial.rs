//! `binomial` — binomial coefficient by Pascal recursion.
//!
//! Paper input: `C(36,13)` — 36 levels, 4.62 G tasks (2·C(36,13)−1), `char`
//! data. `C(n,k) = C(n-1,k-1) + C(n-1,k)`, base `k == 0 || k == n` → 1.
//! A task is the pair `(n, k)`: two `u8` columns in SoA form.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{compact_append, Lanes, SoaVec2};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

const Q: usize = 16;

/// The binomial benchmark `C(n, k)`.
pub struct Binomial {
    /// Row of Pascal's triangle.
    pub n: u8,
    /// Column.
    pub k: u8,
}

impl Binomial {
    /// Presets: tiny C(16,6), small C(27,10), paper C(36,13).
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Tiny => Binomial { n: 16, k: 6 },
            Scale::Small => Binomial { n: 27, k: 10 },
            Scale::Paper => Binomial { n: 36, k: 13 },
        }
    }
}

/// `C(n,k)` and the number of recursive calls.
pub fn binomial_serial(n: u8, k: u8) -> (u64, u64) {
    if k == 0 || k == n {
        (1, 1)
    } else {
        let (a, ta) = binomial_serial(n - 1, k - 1);
        let (b, tb) = binomial_serial(n - 1, k);
        (a + b, ta + tb + 1)
    }
}

fn binomial_cilk(ctx: &WorkerCtx<'_>, n: u8, k: u8) -> u64 {
    if k == 0 || k == n {
        return 1;
    }
    let (a, b) = ctx.join(move |c| binomial_cilk(c, n - 1, k - 1), move |c| binomial_cilk(c, n - 1, k));
    a + b
}

/// AoS blocked program: `Vec<(n, k)>`.
struct BinAos {
    n: u8,
    k: u8,
}

impl BlockProgram for BinAos {
    type Store = Vec<(u8, u8)>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        vec![(self.n, self.k)]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        for (n, k) in block.drain(..) {
            if k == 0 || k == n {
                *red += 1;
            } else {
                out.bucket(0).push((n - 1, k - 1));
                out.bucket(1).push((n - 1, k));
            }
        }
    }
}

/// SoA blocked program: column of `n`, column of `k`; `simd` switches the
/// 16-lane kernel on.
struct BinSoa {
    n: u8,
    k: u8,
    simd: bool,
}

impl BlockProgram for BinSoa {
    type Store = SoaVec2<u8, u8>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::new();
        s.push(self.n, self.k);
        s
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        let len = block.num_tasks();
        let (ns, ks) = (&block.c0, &block.c1);
        let mut i = 0;
        if self.simd {
            let zero = Lanes::<u8, 16>::splat(0);
            while i + 16 <= len {
                let n = Lanes::<u8, 16>::from_slice(&ns[i..]);
                let k = Lanes::<u8, 16>::from_slice(&ks[i..]);
                let base = k.eq_lanes(zero).or(k.eq_lanes(n));
                *red += base.count() as u64;
                let inductive = base.not();
                let n1 = n.map(|x| x.wrapping_sub(1));
                let k1 = k.map(|x| x.wrapping_sub(1));
                let left = out.bucket(0);
                compact_append(&mut left.c0, &n1, &inductive);
                compact_append(&mut left.c1, &k1, &inductive);
                let right = out.bucket(1);
                compact_append(&mut right.c0, &n1, &inductive);
                compact_append(&mut right.c1, &k, &inductive);
                i += 16;
            }
        }
        for j in i..len {
            let (n, k) = (ns[j], ks[j]);
            if k == 0 || k == n {
                *red += 1;
            } else {
                out.bucket(0).push(n - 1, k - 1);
                out.bucket(1).push(n - 1, k);
            }
        }
        block.clear();
    }
}

impl Benchmark for Binomial {
    fn name(&self) -> &'static str {
        "binomial"
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
            let (v, tasks) = binomial_serial(self.n, self.k);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        let (n, k) = (self.n, self.k);
        cilk_summary(Q, pool, |p| Outcome::Exact(p.install(|ctx| binomial_cilk(ctx, n, k))))
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        match tier {
            Tier::Block => seq_summary(&BinAos { n: self.n, k: self.k }, cfg, Outcome::Exact),
            Tier::Soa => seq_summary(&BinSoa { n: self.n, k: self.k, simd: false }, cfg, Outcome::Exact),
            Tier::Simd => seq_summary(&BinSoa { n: self.n, k: self.k, simd: true }, cfg, Outcome::Exact),
        }
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        match tier {
            Tier::Block => par_summary(&BinAos { n: self.n, k: self.k }, pool, cfg, kind, Outcome::Exact),
            Tier::Soa => {
                par_summary(&BinSoa { n: self.n, k: self.k, simd: false }, pool, cfg, kind, Outcome::Exact)
            }
            Tier::Simd => {
                par_summary(&BinSoa { n: self.n, k: self.k, simd: true }, pool, cfg, kind, Outcome::Exact)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_reference() {
        assert_eq!(binomial_serial(10, 3).0, 120);
        assert_eq!(binomial_serial(16, 6).0, 8008);
        // #tasks = 2*C(n,k) - 1
        assert_eq!(binomial_serial(10, 3).1, 2 * 120 - 1);
    }

    #[test]
    fn all_variants_agree() {
        let b = Binomial::new(Scale::Tiny);
        let want = b.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(b.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            let cfg = SchedConfig::restart(Q, 128, 32);
            assert_eq!(b.blocked_seq(cfg, tier).outcome, want, "{tier:?}");
            assert_eq!(b.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
        }
    }

    #[test]
    fn simd_matches_scalar_task_counts() {
        let b = Binomial { n: 14, k: 5 };
        let cfg = SchedConfig::reexpansion(Q, 64);
        let scalar = b.blocked_seq(cfg, Tier::Soa);
        let simd = b.blocked_seq(cfg, Tier::Simd);
        assert_eq!(scalar.outcome, simd.outcome);
        assert_eq!(scalar.stats.tasks_executed, simd.stats.tasks_executed);
    }
}
