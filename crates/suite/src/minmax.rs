//! `minmax` — game-tree search on a 4×4 board.
//!
//! Paper input: 4×4 board, 13 levels, 2.42 G tasks. The computation tree is
//! the move tree of 4×4 tic-tac-toe, depth-capped (the paper's 13 levels =
//! root + 12 plies), with subtrees cut off at won positions — highly
//! irregular fan-out (16 at the root, shrinking each ply).
//!
//! The framework's reductions must be associative and commutative, so —
//! like the original benchmark's reduction-based formulation — the program
//! computes the *outcome tally* of the game tree (wins for either player
//! and depth-capped/drawn leaves, combined into one checksum). The
//! traversal, and hence everything the scheduler sees, is identical to an
//! unpruned minimax sweep.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::SoaVec2;

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::outcome::Outcome;

const Q: usize = 16;

/// A square board small enough for `u16` bitboards.
#[derive(Debug, Clone)]
pub struct Board {
    /// Number of cells (9 or 16).
    pub cells: u8,
    /// Winning-line masks.
    pub lines: Vec<u16>,
    /// Maximum plies explored (the depth cap).
    pub cap: u8,
}

impl Board {
    /// An `n`×`n` board (n = 3 or 4) with a ply cap.
    pub fn square(n: u8, cap: u8) -> Self {
        assert!(n == 3 || n == 4, "u16 bitboards support 3x3 and 4x4");
        let mut lines = Vec::new();
        let idx = |r: u8, c: u8| r * n + c;
        for r in 0..n {
            lines.push((0..n).fold(0u16, |m, c| m | 1 << idx(r, c)));
            lines.push((0..n).fold(0u16, |m, c| m | 1 << idx(c, r)));
        }
        lines.push((0..n).fold(0u16, |m, i| m | 1 << idx(i, i)));
        lines.push((0..n).fold(0u16, |m, i| m | 1 << idx(i, n - 1 - i)));
        Board { cells: n * n, lines, cap }
    }

    /// Does `mask` contain a full line?
    // Subset test, not membership: clippy's `contains` suggestion would
    // change semantics.
    #[expect(clippy::manual_contains)]
    #[inline]
    pub fn wins(&self, mask: u16) -> bool {
        self.lines.iter().any(|&l| mask & l == l)
    }
}

/// Outcome tally, merged by summation and reported as a checksum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Leaves where the first player has a line.
    pub x_wins: u64,
    /// Leaves where the second player has a line.
    pub o_wins: u64,
    /// Full-board or depth-capped leaves.
    pub draws: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.x_wins += o.x_wins;
        self.o_wins += o.o_wins;
        self.draws += o.draws;
    }

    /// Collision-resistant combination of the three counters.
    pub fn checksum(&self) -> u64 {
        self.x_wins
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.o_wins.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
            .wrapping_add(self.draws.wrapping_mul(0x1656_67B1_9E37_79F9))
    }
}

/// The minmax benchmark.
pub struct MinMax {
    board: Board,
}

impl MinMax {
    /// Presets: tiny 3×3 capped at 6 plies; small 4×4 capped at 6; paper
    /// 4×4 capped at 12 (13 levels).
    pub fn new(scale: Scale) -> Self {
        MinMax {
            board: match scale {
                Scale::Tiny => Board::square(3, 6),
                Scale::Small => Board::square(4, 6),
                Scale::Paper => Board::square(4, 12),
            },
        }
    }

    /// The board definition.
    pub fn board(&self) -> &Board {
        &self.board
    }
}

type Task = (u16, u16); // (x bitboard, o bitboard)

#[inline]
fn expand_one(b: &Board, t: Task, red: &mut Tally, mut spawn: impl FnMut(usize, Task)) {
    let (x, o) = t;
    let occupied = x | o;
    let plies = occupied.count_ones() as u8;
    if b.wins(x) {
        red.x_wins += 1;
        return;
    }
    if b.wins(o) {
        red.o_wins += 1;
        return;
    }
    if plies == b.cap || plies == b.cells {
        red.draws += 1;
        return;
    }
    let x_to_move = plies.is_multiple_of(2);
    let mut site = 0usize;
    for cell in 0..b.cells {
        let bit = 1u16 << cell;
        if occupied & bit == 0 {
            let child = if x_to_move { (x | bit, o) } else { (x, o | bit) };
            spawn(site, child);
            site += 1;
        }
    }
}

/// Serial tally and recursive-call count.
pub fn minmax_serial(b: &Board) -> (Tally, u64) {
    fn rec(b: &Board, t: Task) -> (Tally, u64) {
        let mut tally = Tally::default();
        let mut tasks = 1;
        let mut children = Vec::new();
        expand_one(b, t, &mut tally, |_, c| children.push(c));
        for c in children {
            let (ct, cn) = rec(b, c);
            tally.add(ct);
            tasks += cn;
        }
        (tally, tasks)
    }
    rec(b, (0, 0))
}

fn minmax_cilk(b: &Board, ctx: &WorkerCtx<'_>, t: Task) -> Tally {
    let mut tally = Tally::default();
    let mut children = Vec::new();
    expand_one(b, t, &mut tally, |_, c| children.push(c));
    fn over(b: &Board, ctx: &WorkerCtx<'_>, mut kids: Vec<Task>) -> Tally {
        match kids.len() {
            0 => Tally::default(),
            1 => minmax_cilk(b, ctx, kids[0]),
            _ => {
                let right = kids.split_off(kids.len() / 2);
                let (mut a, c) = ctx.join(move |c| over(b, c, kids), move |c| over(b, c, right));
                a.add(c);
                a
            }
        }
    }
    tally.add(over(b, ctx, children));
    tally
}

struct MmAos<'b> {
    b: &'b Board,
}

impl BlockProgram for MmAos<'_> {
    type Store = Vec<Task>;
    type Reducer = Tally;

    fn arity(&self) -> usize {
        self.b.cells as usize
    }

    fn make_root(&self) -> Self::Store {
        vec![(0, 0)]
    }

    fn make_reducer(&self) -> Tally {
        Tally::default()
    }

    fn merge_reducers(&self, a: &mut Tally, b: Tally) {
        a.add(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Tally) {
        for t in block.drain(..) {
            expand_one(self.b, t, red, |site, child| out.bucket(site).push(child));
        }
    }
}

struct MmSoa<'b> {
    b: &'b Board,
}

impl BlockProgram for MmSoa<'_> {
    type Store = SoaVec2<u16, u16>;
    type Reducer = Tally;

    fn arity(&self) -> usize {
        self.b.cells as usize
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::new();
        s.push(0, 0);
        s
    }

    fn make_reducer(&self) -> Tally {
        Tally::default()
    }

    fn merge_reducers(&self, a: &mut Tally, b: Tally) {
        a.add(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Tally) {
        for i in 0..block.num_tasks() {
            let t = block.get(i);
            expand_one(self.b, t, red, |site, (x, o)| out.bucket(site).push(x, o));
        }
        block.clear();
    }
}

impl Benchmark for MinMax {
    fn name(&self) -> &'static str {
        "minmax"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "task"
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (t, tasks) = minmax_serial(&self.board);
            (Outcome::Exact(t.checksum()), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Exact(p.install(|ctx| minmax_cilk(&self.board, ctx, (0, 0))).checksum())
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        let to = |t: Tally| Outcome::Exact(t.checksum());
        match tier {
            Tier::Block => seq_summary(&MmAos { b: &self.board }, cfg, to),
            Tier::Soa | Tier::Simd => seq_summary(&MmSoa { b: &self.board }, cfg, to),
        }
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        let to = |t: Tally| Outcome::Exact(t.checksum());
        match tier {
            Tier::Block => par_summary(&MmAos { b: &self.board }, pool, cfg, kind, to),
            Tier::Soa | Tier::Simd => par_summary(&MmSoa { b: &self.board }, pool, cfg, kind, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_3x3_game_tree_counts_are_classic() {
        // Full 3x3 tic-tac-toe: 255168 games, X wins 131184, O wins 77904,
        // draws 46080.
        let b = Board::square(3, 9);
        let (t, _) = minmax_serial(&b);
        assert_eq!(t.x_wins, 131_184);
        assert_eq!(t.o_wins, 77_904);
        assert_eq!(t.draws, 46_080);
    }

    #[test]
    fn depth_cap_limits_levels() {
        let mm = MinMax::new(Scale::Tiny);
        let run = mm.blocked_seq(SchedConfig::restart(Q, 128, 32), Tier::Block);
        assert!(run.stats.max_level <= 6);
    }

    #[test]
    fn all_variants_agree() {
        let mm = MinMax::new(Scale::Tiny);
        let want = mm.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(mm.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa] {
            let cfg = SchedConfig::reexpansion(Q, 256);
            assert_eq!(mm.blocked_seq(cfg, tier).outcome, want);
            assert_eq!(mm.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
        }
    }

    #[test]
    fn wins_detection() {
        let b = Board::square(4, 12);
        assert!(b.wins(0b1111)); // top row
        assert!(!b.wins(0b0111));
        // main diagonal of 4x4: cells 0,5,10,15
        assert!(b.wins(1 | 1 << 5 | 1 << 10 | 1 << 15));
    }
}
