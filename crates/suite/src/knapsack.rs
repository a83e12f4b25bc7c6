//! `knapsack` — exhaustive 0/1 knapsack.
//!
//! Paper input: the "long" instance — 31 levels, 2.15 G tasks (a *perfectly
//! balanced* binary tree: every item is either taken or skipped, no
//! pruning, `2^31` leaves), `short` (i16) data, 8-wide vectors.
//!
//! A task is `(idx, cap_left, value)`; at `idx == n` the leaf contributes
//! `value` if `cap_left >= 0` (overweight branches simply score nothing,
//! keeping the tree perfectly balanced). The reduction is `max`.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{compact_append, Lanes, SoaVec3};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

const Q: usize = 8;

/// A deterministic knapsack instance.
pub struct Knapsack {
    weights: Vec<i16>,
    values: Vec<i16>,
    capacity: i16,
}

impl Knapsack {
    /// Presets: tiny 12 items, small 23, paper 31.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 12,
            Scale::Small => 23,
            Scale::Paper => 31,
        };
        Self::with_items(n)
    }

    /// An instance with `n` items from a fixed pseudo-random stream.
    pub fn with_items(n: usize) -> Self {
        // Deterministic xorshift stream: the instance is part of the
        // benchmark definition.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let weights: Vec<i16> = (0..n).map(|_| (next() % 15 + 1) as i16).collect();
        let values: Vec<i16> = (0..n).map(|_| (next() % 20 + 1) as i16).collect();
        let capacity = weights.iter().map(|&w| w as i32).sum::<i32>() as i16 / 2;
        Knapsack { weights, values, capacity }
    }

    /// Number of items (= tree depth).
    pub fn items(&self) -> usize {
        self.weights.len()
    }
}

/// Best achievable value and recursive-call count.
pub fn knapsack_serial(k: &Knapsack) -> (u64, u64) {
    fn rec(k: &Knapsack, idx: usize, cap: i16, value: i16) -> (i16, u64) {
        if idx == k.weights.len() {
            return (if cap >= 0 { value } else { 0 }, 1);
        }
        let (skip, ts) = rec(k, idx + 1, cap, value);
        let (take, tt) = rec(k, idx + 1, cap - k.weights[idx], value + k.values[idx]);
        (skip.max(take), ts + tt + 1)
    }
    let (v, t) = rec(k, 0, k.capacity, 0);
    (v as u64, t)
}

fn knapsack_cilk(k: &Knapsack, ctx: &WorkerCtx<'_>, idx: usize, cap: i16, value: i16) -> i16 {
    if idx == k.weights.len() {
        return if cap >= 0 { value } else { 0 };
    }
    let (skip, take) = ctx.join(
        move |c| knapsack_cilk(k, c, idx + 1, cap, value),
        move |c| knapsack_cilk(k, c, idx + 1, cap - k.weights[idx], value + k.values[idx]),
    );
    skip.max(take)
}

struct KnapAos<'k> {
    k: &'k Knapsack,
}

impl BlockProgram for KnapAos<'_> {
    type Store = Vec<(u8, i16, i16)>;
    type Reducer = i16;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        vec![(0, self.k.capacity, 0)]
    }

    fn make_reducer(&self) -> i16 {
        0
    }

    fn merge_reducers(&self, a: &mut i16, b: i16) {
        *a = (*a).max(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut i16) {
        let n = self.k.weights.len() as u8;
        for (idx, cap, value) in block.drain(..) {
            if idx == n {
                if cap >= 0 {
                    *red = (*red).max(value);
                }
                continue;
            }
            let i = idx as usize;
            out.bucket(0).push((idx + 1, cap, value));
            out.bucket(1).push((idx + 1, cap - self.k.weights[i], value + self.k.values[i]));
        }
    }
}

struct KnapSoa<'k> {
    k: &'k Knapsack,
    simd: bool,
}

impl BlockProgram for KnapSoa<'_> {
    type Store = SoaVec3<u8, i16, i16>;
    type Reducer = i16;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec3::new();
        s.push(0, self.k.capacity, 0);
        s
    }

    fn make_reducer(&self) -> i16 {
        0
    }

    fn merge_reducers(&self, a: &mut i16, b: i16) {
        *a = (*a).max(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut i16) {
        let n = self.k.weights.len() as u8;
        let len = block.num_tasks();
        let mut i = 0;
        if self.simd {
            // All tasks in a block share a level in the perfectly balanced
            // tree, hence share `idx`; the kernel still reads it per lane
            // and handles mixed blocks correctly via masks.
            let nn = Lanes::<u8, 8>::splat(n);
            let zero16 = Lanes::<i16, 8>::splat(0);
            while i + 8 <= len {
                let idx = Lanes::<u8, 8>::from_slice(&block.c0[i..]);
                let cap = Lanes::<i16, 8>::from_slice(&block.c1[i..]);
                let val = Lanes::<i16, 8>::from_slice(&block.c2[i..]);
                let base = idx.eq_lanes(nn);
                if base.any() {
                    let feasible = cap.ge(zero16).and(base);
                    let scores = val.select(feasible, zero16);
                    // max-reduce the feasible leaf scores.
                    for lane in 0..8 {
                        if feasible.0[lane] {
                            *red = (*red).max(scores.lane(lane));
                        }
                    }
                }
                let inductive = base.not();
                // Per-lane item lookup (gather), then vector arithmetic.
                let mut w = [0i16; 8];
                let mut v = [0i16; 8];
                for lane in 0..8 {
                    let it = idx.lane(lane) as usize;
                    if inductive.0[lane] {
                        w[lane] = self.k.weights[it];
                        v[lane] = self.k.values[it];
                    }
                }
                let w = Lanes(w);
                let v = Lanes(v);
                let idx1 = idx.map(|x| x.wrapping_add(1));
                let cap_take = cap.zip_map(w, i16::wrapping_sub);
                let val_take = val.zip_map(v, i16::wrapping_add);
                let skip = out.bucket(0);
                compact_append(&mut skip.c0, &idx1, &inductive);
                compact_append(&mut skip.c1, &cap, &inductive);
                compact_append(&mut skip.c2, &val, &inductive);
                let take = out.bucket(1);
                compact_append(&mut take.c0, &idx1, &inductive);
                compact_append(&mut take.c1, &cap_take, &inductive);
                compact_append(&mut take.c2, &val_take, &inductive);
                i += 8;
            }
        }
        for j in i..len {
            let (idx, cap, value) = block.get(j);
            if idx == n {
                if cap >= 0 {
                    *red = (*red).max(value);
                }
                continue;
            }
            let it = idx as usize;
            out.bucket(0).push(idx + 1, cap, value);
            out.bucket(1).push(idx + 1, cap - self.k.weights[it], value + self.k.values[it]);
        }
        block.clear();
    }
}

impl Benchmark for Knapsack {
    fn name(&self) -> &'static str {
        "knapsack"
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
            let (v, tasks) = knapsack_serial(self);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Exact(p.install(|ctx| knapsack_cilk(self, ctx, 0, self.capacity, 0)) as u64)
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        let to = |r: i16| Outcome::Exact(r as u64);
        match tier {
            Tier::Block => seq_summary(&KnapAos { k: self }, cfg, to),
            Tier::Soa => seq_summary(&KnapSoa { k: self, simd: false }, cfg, to),
            Tier::Simd => seq_summary(&KnapSoa { k: self, simd: true }, cfg, to),
        }
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        let to = |r: i16| Outcome::Exact(r as u64);
        match tier {
            Tier::Block => par_summary(&KnapAos { k: self }, pool, cfg, kind, to),
            Tier::Soa => par_summary(&KnapSoa { k: self, simd: false }, pool, cfg, kind, to),
            Tier::Simd => par_summary(&KnapSoa { k: self, simd: true }, pool, cfg, kind, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent DP solution for cross-checking the exhaustive search.
    fn dp_solve(k: &Knapsack) -> u64 {
        let cap = k.capacity as usize;
        let mut best = vec![0i32; cap + 1];
        for i in 0..k.items() {
            let (w, v) = (k.weights[i] as usize, k.values[i] as i32);
            for c in (w..=cap).rev() {
                best[c] = best[c].max(best[c - w] + v);
            }
        }
        best[cap] as u64
    }

    #[test]
    fn serial_matches_dp() {
        let k = Knapsack::new(Scale::Tiny);
        assert_eq!(knapsack_serial(&k).0, dp_solve(&k));
    }

    #[test]
    fn tree_is_perfectly_balanced() {
        let k = Knapsack::with_items(10);
        // #tasks = 2^(n+1) - 1 for a perfect binary tree of depth n.
        assert_eq!(knapsack_serial(&k).1, (1 << 11) - 1);
    }

    #[test]
    fn all_variants_agree() {
        let k = Knapsack::new(Scale::Tiny);
        let want = k.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(k.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            let cfg = SchedConfig::restart(Q, 64, 16);
            assert_eq!(k.blocked_seq(cfg, tier).outcome, want, "{tier:?}");
            assert_eq!(k.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
        }
    }

    #[test]
    fn simd_kernel_counts_match() {
        let k = Knapsack::with_items(12);
        let cfg = SchedConfig::reexpansion(Q, 128);
        let a = k.blocked_seq(cfg, Tier::Soa);
        let b = k.blocked_seq(cfg, Tier::Simd);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.stats.tasks_executed, b.stats.tasks_executed);
    }
}
