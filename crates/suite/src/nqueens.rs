//! `nqueens` — counting N-queens placements.
//!
//! Paper input: 15×15 — 16 levels, 168 M tasks. This is the paper's first
//! *data-parallelism-nested-in-task-parallelism* benchmark: each task (a
//! partial placement) runs a data-parallel loop over candidate columns and
//! spawns one child task per feasible column, so the arity is `n`.
//!
//! A task is `(row, cols, diag1, diag2)` in the classic bitmask encoding;
//! the SoA tier stores the four fields as columns. The spawn loop is
//! value-dependent (iterating set bits), so the Simd tier keeps the SoA
//! kernel (`simd_is_explicit == false`), as the paper's intro notes this
//! benchmark vectorizes through blocking + layout rather than wide
//! arithmetic.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::SoaVec4;

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

const Q: usize = 16;

/// The N-queens benchmark.
pub struct NQueens {
    /// Board size.
    pub n: u8,
}

impl NQueens {
    /// Presets: tiny 8 (92 solutions), small 12 (14 200), paper 15 (2 279 184).
    pub fn new(scale: Scale) -> Self {
        NQueens {
            n: match scale {
                Scale::Tiny => 8,
                Scale::Small => 12,
                Scale::Paper => 15,
            },
        }
    }

    fn full(&self) -> u16 {
        (1u16 << self.n) - 1
    }
}

/// Solutions and recursive-call count.
pub fn nqueens_serial(n: u8) -> (u64, u64) {
    fn rec(full: u16, cols: u16, d1: u32, d2: u32) -> (u64, u64) {
        if cols == full {
            return (1, 1);
        }
        let mut free = !(cols | d1 as u16 | d2 as u16) & full;
        let mut count = 0;
        let mut tasks = 1;
        while free != 0 {
            let bit = free & free.wrapping_neg();
            free ^= bit;
            let (c, t) =
                rec(full, cols | bit, ((d1 | u32::from(bit)) << 1) & 0xFFFF, (d2 | u32::from(bit)) >> 1);
            count += c;
            tasks += t;
        }
        (count, tasks)
    }
    rec((1u16 << n) - 1, 0, 0, 0)
}

fn nqueens_cilk(ctx: &WorkerCtx<'_>, full: u16, cols: u16, d1: u32, d2: u32) -> u64 {
    if cols == full {
        return 1;
    }
    // Fork the candidate columns as a balanced join tree over the set bits.
    fn over_bits(ctx: &WorkerCtx<'_>, full: u16, cols: u16, d1: u32, d2: u32, bits: Vec<u16>) -> u64 {
        match bits.len() {
            0 => 0,
            1 => {
                let bit = bits[0];
                nqueens_cilk(
                    ctx,
                    full,
                    cols | bit,
                    ((d1 | u32::from(bit)) << 1) & 0xFFFF,
                    (d2 | u32::from(bit)) >> 1,
                )
            }
            _ => {
                let mut left = bits;
                let right = left.split_off(left.len() / 2);
                let (a, b) = ctx.join(
                    move |c| over_bits(c, full, cols, d1, d2, left),
                    move |c| over_bits(c, full, cols, d1, d2, right),
                );
                a + b
            }
        }
    }
    let mut free = !(cols | d1 as u16 | d2 as u16) & full;
    let mut bits = Vec::new();
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        bits.push(bit);
    }
    over_bits(ctx, full, cols, d1, d2, bits)
}

type Task = (u8, u16, u32, u32); // (row, cols, diag1, diag2)

#[inline]
pub(crate) fn expand_one(full: u16, n: u8, t: Task, red: &mut u64, mut spawn: impl FnMut(usize, Task)) {
    let (row, cols, d1, d2) = t;
    if cols == full {
        *red += 1;
        return;
    }
    let mut free = !(cols | d1 as u16 | d2 as u16) & full;
    let mut site = 0usize;
    let _ = n;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        spawn(site, (row + 1, cols | bit, ((d1 | u32::from(bit)) << 1) & 0xFFFF, (d2 | u32::from(bit)) >> 1));
        site += 1;
    }
}

struct NqAos {
    n: u8,
    full: u16,
}

impl BlockProgram for NqAos {
    type Store = Vec<Task>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        self.n as usize
    }

    fn make_root(&self) -> Self::Store {
        vec![(0, 0, 0, 0)]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        for t in block.drain(..) {
            expand_one(self.full, self.n, t, red, |site, child| out.bucket(site).push(child));
        }
    }
}

struct NqSoa {
    n: u8,
    full: u16,
}

impl BlockProgram for NqSoa {
    type Store = SoaVec4<u8, u16, u32, u32>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        self.n as usize
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec4::new();
        s.push(0, 0, 0, 0);
        s
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        for i in 0..block.num_tasks() {
            let t = block.get(i);
            expand_one(self.full, self.n, t, red, |site, (r, c, d1, d2)| out.bucket(site).push(r, c, d1, d2));
        }
        block.clear();
    }
}

impl Benchmark for NQueens {
    fn name(&self) -> &'static str {
        "nqueens"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "data-in-task"
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (v, tasks) = nqueens_serial(self.n);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        let full = self.full();
        cilk_summary(Q, pool, |p| Outcome::Exact(p.install(|ctx| nqueens_cilk(ctx, full, 0, 0, 0))))
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        match tier {
            Tier::Block => seq_summary(&NqAos { n: self.n, full: self.full() }, cfg, Outcome::Exact),
            Tier::Soa | Tier::Simd => {
                seq_summary(&NqSoa { n: self.n, full: self.full() }, cfg, Outcome::Exact)
            }
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
            Tier::Block => {
                par_summary(&NqAos { n: self.n, full: self.full() }, pool, cfg, kind, Outcome::Exact)
            }
            Tier::Soa | Tier::Simd => {
                par_summary(&NqSoa { n: self.n, full: self.full() }, pool, cfg, kind, Outcome::Exact)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_solution_counts() {
        assert_eq!(nqueens_serial(6).0, 4);
        assert_eq!(nqueens_serial(8).0, 92);
        assert_eq!(nqueens_serial(9).0, 352);
    }

    #[test]
    fn all_variants_agree() {
        let b = NQueens { n: 7 };
        let want = b.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(b.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa] {
            for cfg in [SchedConfig::reexpansion(Q, 128), SchedConfig::restart(Q, 128, 32)] {
                assert_eq!(b.blocked_seq(cfg, tier).outcome, want);
                assert_eq!(b.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
            }
        }
    }

    #[test]
    fn levels_match_paper_shape() {
        // n+1 levels: root at 0, solutions at level n.
        let b = NQueens { n: 6 };
        let run = b.blocked_seq(SchedConfig::restart(Q, 64, 16), Tier::Block);
        assert_eq!(run.stats.max_level, 6);
    }
}
