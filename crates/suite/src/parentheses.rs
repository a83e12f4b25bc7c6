//! `parentheses` — counting balanced parenthesis sequences.
//!
//! Paper input: n=19 — 37 levels (2n−1 recursion steps), 4.85 G tasks,
//! `char` data. A task is a valid prefix, represented by its counts
//! `(open, close)`; it spawns "add `(`" when `open < n` and "add `)`"
//! when `close < open`, and is a base case at `(n, n)`. The number of
//! leaves is the Catalan number `C_n`; the tree is unbalanced because the
//! close-spawn disappears along the left rim.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{compact_append, Lanes, SoaVec2};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

const Q: usize = 16;

/// The parentheses benchmark.
pub struct Parentheses {
    /// Number of parenthesis pairs.
    pub n: u8,
}

impl Parentheses {
    /// Presets: tiny 7, small 15, paper 19.
    pub fn new(scale: Scale) -> Self {
        Parentheses {
            n: match scale {
                Scale::Tiny => 7,
                Scale::Small => 15,
                Scale::Paper => 19,
            },
        }
    }
}

/// Count of balanced sequences (Catalan(n)) and recursive-call count.
pub fn parentheses_serial(n: u8) -> (u64, u64) {
    fn rec(n: u8, open: u8, close: u8) -> (u64, u64) {
        if open == n && close == n {
            return (1, 1);
        }
        let mut count = 0;
        let mut tasks = 1;
        if open < n {
            let (c, t) = rec(n, open + 1, close);
            count += c;
            tasks += t;
        }
        if close < open {
            let (c, t) = rec(n, open, close + 1);
            count += c;
            tasks += t;
        }
        (count, tasks)
    }
    rec(n, 0, 0)
}

fn parens_cilk(ctx: &WorkerCtx<'_>, n: u8, open: u8, close: u8) -> u64 {
    if open == n && close == n {
        return 1;
    }
    match (open < n, close < open) {
        (true, true) => {
            let (a, b) = ctx.join(
                move |c| parens_cilk(c, n, open + 1, close),
                move |c| parens_cilk(c, n, open, close + 1),
            );
            a + b
        }
        (true, false) => parens_cilk(ctx, n, open + 1, close),
        (false, true) => parens_cilk(ctx, n, open, close + 1),
        (false, false) => unreachable!("non-base task must spawn"),
    }
}

struct ParAos {
    n: u8,
}

impl BlockProgram for ParAos {
    type Store = Vec<(u8, u8)>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        vec![(0, 0)]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        let n = self.n;
        for (open, close) in block.drain(..) {
            if open == n && close == n {
                *red += 1;
                continue;
            }
            if open < n {
                out.bucket(0).push((open + 1, close));
            }
            if close < open {
                out.bucket(1).push((open, close + 1));
            }
        }
    }
}

struct ParSoa {
    n: u8,
    simd: bool,
}

impl BlockProgram for ParSoa {
    type Store = SoaVec2<u8, u8>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::new();
        s.push(0, 0);
        s
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        let n = self.n;
        let len = block.num_tasks();
        let (os, cs) = (&block.c0, &block.c1);
        let mut i = 0;
        if self.simd {
            let nn = Lanes::<u8, 16>::splat(n);
            while i + 16 <= len {
                let o = Lanes::<u8, 16>::from_slice(&os[i..]);
                let c = Lanes::<u8, 16>::from_slice(&cs[i..]);
                let base = o.eq_lanes(nn).and(c.eq_lanes(nn));
                *red += base.count() as u64;
                let can_open = o.lt(nn);
                let can_close = c.lt(o);
                let o1 = o.map(|x| x.wrapping_add(1));
                let c1 = c.map(|x| x.wrapping_add(1));
                let b0 = out.bucket(0);
                compact_append(&mut b0.c0, &o1, &can_open);
                compact_append(&mut b0.c1, &c, &can_open);
                let b1 = out.bucket(1);
                compact_append(&mut b1.c0, &o, &can_close);
                compact_append(&mut b1.c1, &c1, &can_close);
                i += 16;
            }
        }
        for j in i..len {
            let (open, close) = (os[j], cs[j]);
            if open == n && close == n {
                *red += 1;
                continue;
            }
            if open < n {
                out.bucket(0).push(open + 1, close);
            }
            if close < open {
                out.bucket(1).push(open, close + 1);
            }
        }
        block.clear();
    }
}

impl Benchmark for Parentheses {
    fn name(&self) -> &'static str {
        "parentheses"
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
            let (v, tasks) = parentheses_serial(self.n);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        let n = self.n;
        cilk_summary(Q, pool, |p| Outcome::Exact(p.install(|ctx| parens_cilk(ctx, n, 0, 0))))
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        match tier {
            Tier::Block => seq_summary(&ParAos { n: self.n }, cfg, Outcome::Exact),
            Tier::Soa => seq_summary(&ParSoa { n: self.n, simd: false }, cfg, Outcome::Exact),
            Tier::Simd => seq_summary(&ParSoa { n: self.n, simd: true }, cfg, Outcome::Exact),
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
            Tier::Block => par_summary(&ParAos { n: self.n }, pool, cfg, kind, Outcome::Exact),
            Tier::Soa => par_summary(&ParSoa { n: self.n, simd: false }, pool, cfg, kind, Outcome::Exact),
            Tier::Simd => par_summary(&ParSoa { n: self.n, simd: true }, pool, cfg, kind, Outcome::Exact),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_catalan() {
        // Catalan numbers: 1, 1, 2, 5, 14, 42, 132, 429 …
        for (n, catalan) in [(1u8, 1u64), (2, 2), (3, 5), (4, 14), (5, 42), (7, 429)] {
            assert_eq!(parentheses_serial(n).0, catalan, "n={n}");
        }
    }

    #[test]
    fn all_variants_agree() {
        let b = Parentheses::new(Scale::Tiny);
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
    fn task_counts_equal_across_tiers() {
        let b = Parentheses { n: 9 };
        let cfg = SchedConfig::reexpansion(Q, 64);
        let a = b.blocked_seq(cfg, Tier::Block).stats.tasks_executed;
        let s = b.blocked_seq(cfg, Tier::Simd).stats.tasks_executed;
        assert_eq!(a, s);
        assert_eq!(a, parentheses_serial(9).1);
    }
}
