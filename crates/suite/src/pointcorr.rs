//! `pointcorr` — two-point correlation via kd-tree.
//!
//! Paper input: 300 K points — 18 levels, 1.77 G tasks, `float` data,
//! 4-wide vectors. For every query point, count the points within radius
//! `r`. Three levels of parallelism (§7): a data-parallel outer loop over
//! queries, a task-parallel recursion over kd-tree nodes (spawn left/right
//! when the query ball intersects the child boxes), and a data-parallel
//! base case scanning the points of a leaf.
//!
//! The leaf scan is the SIMD surface: 8 distances per step over the
//! kd-tree's SoA coordinate columns, counting the mask. Counts are exact
//! integers, so every variant must agree bit-for-bit.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{Lanes, SoaVec2};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::geom::kdtree::KdTree;
use crate::geom::points::uniform_cube;
use crate::outcome::Outcome;

const Q: usize = 4;
const LEAF: usize = 8;

/// The point-correlation benchmark.
pub struct PointCorr {
    tree: KdTree,
    queries: Vec<[f32; 3]>,
    r2: f32,
}

impl PointCorr {
    /// Presets: tiny 512 points / 64 queries, small 30 000 / 2 000, paper
    /// 300 000 / 300 000 (every point queries, as in the paper). The radius
    /// targets ~30 neighbours per query in the unit cube.
    pub fn new(scale: Scale) -> Self {
        let (n, nq) = match scale {
            Scale::Tiny => (512, 64),
            Scale::Small => (30_000, 2_000),
            Scale::Paper => (300_000, 300_000),
        };
        let points = uniform_cube(n, 0x9C07_71A0);
        let queries = points[..nq].to_vec();
        let r = (30.0 * 3.0 / (4.0 * std::f32::consts::PI * n as f32)).cbrt();
        PointCorr { tree: KdTree::build(&points, LEAF), queries, r2: r * r }
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }

    /// The kd-tree.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }
}

/// Scalar leaf scan: count stored points within `r2` of `q`.
#[inline]
fn leaf_count_scalar(t: &KdTree, start: u32, end: u32, q: &[f32; 3], r2: f32) -> u64 {
    let mut count = 0;
    for i in start as usize..end as usize {
        let dx = t.xs[i] - q[0];
        let dy = t.ys[i] - q[1];
        let dz = t.zs[i] - q[2];
        if dx * dx + dy * dy + dz * dz <= r2 {
            count += 1;
        }
    }
    count
}

/// Vectorized leaf scan: 8 distances per step over the SoA columns.
#[inline]
fn leaf_count_simd(t: &KdTree, start: u32, end: u32, q: &[f32; 3], r2: f32) -> u64 {
    let (s, e) = (start as usize, end as usize);
    let qx = Lanes::<f32, 8>::splat(q[0]);
    let qy = Lanes::<f32, 8>::splat(q[1]);
    let qz = Lanes::<f32, 8>::splat(q[2]);
    let rr = Lanes::<f32, 8>::splat(r2);
    let mut count = 0u64;
    let mut i = s;
    while i + 8 <= e {
        let dx = Lanes::<f32, 8>::from_slice(&t.xs[i..]) - qx;
        let dy = Lanes::<f32, 8>::from_slice(&t.ys[i..]) - qy;
        let dz = Lanes::<f32, 8>::from_slice(&t.zs[i..]) - qz;
        let d2 = dx * dx + dy * dy + dz * dz;
        count += d2.le(rr).count() as u64;
        i += 8;
    }
    count + leaf_count_scalar(t, i as u32, end, q, r2)
}

/// One traversal step for `(query, node)`.
#[inline]
fn expand_one(
    pc: &PointCorr,
    query: u32,
    node: u32,
    simd: bool,
    red: &mut u64,
    mut spawn: impl FnMut(usize, u32),
) {
    let n = &pc.tree.nodes[node as usize];
    let q = &pc.queries[query as usize];
    if n.dist2_to(q) > pc.r2 {
        return; // pruned: the query ball misses this subtree entirely
    }
    if n.is_leaf() {
        *red += if simd {
            leaf_count_simd(&pc.tree, n.start, n.end, q, pc.r2)
        } else {
            leaf_count_scalar(&pc.tree, n.start, n.end, q, pc.r2)
        };
        return;
    }
    spawn(0, n.left as u32);
    spawn(1, n.right as u32);
}

/// Serial count over all queries; returns (count, task count).
pub fn pointcorr_serial(pc: &PointCorr) -> (u64, u64) {
    let mut count = 0;
    let mut tasks = 0u64;
    let mut stack = Vec::new();
    for query in 0..pc.queries.len() as u32 {
        stack.push(0u32);
        while let Some(node) = stack.pop() {
            tasks += 1;
            expand_one(pc, query, node, false, &mut count, |_, c| stack.push(c));
        }
    }
    (count, tasks)
}

fn query_cilk(pc: &PointCorr, ctx: &WorkerCtx<'_>, query: u32, node: u32) -> u64 {
    let mut count = 0;
    let mut kids = [0u32; 2];
    let mut nk = 0usize;
    expand_one(pc, query, node, false, &mut count, |_, c| {
        kids[nk] = c;
        nk += 1;
    });
    match nk {
        0 => count,
        1 => count + query_cilk(pc, ctx, query, kids[0]),
        _ => {
            let (l, r) = (kids[0], kids[1]);
            let (a, b) = ctx.join(move |c| query_cilk(pc, c, query, l), move |c| query_cilk(pc, c, query, r));
            count + a + b
        }
    }
}

struct PcAos<'p> {
    pc: &'p PointCorr,
}

impl BlockProgram for PcAos<'_> {
    type Store = Vec<(u32, u32)>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        (0..self.pc.queries.len() as u32).map(|q| (q, 0)).collect()
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut u64) {
        for (query, node) in block.drain(..) {
            expand_one(self.pc, query, node, false, red, |site, c| out.bucket(site).push((query, c)));
        }
    }
}

struct PcSoa<'p> {
    pc: &'p PointCorr,
    simd: bool,
}

impl BlockProgram for PcSoa<'_> {
    type Store = SoaVec2<u32, u32>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::with_capacity(self.pc.queries.len());
        for q in 0..self.pc.queries.len() as u32 {
            s.push(q, 0);
        }
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
            let (query, node) = block.get(i);
            expand_one(self.pc, query, node, self.simd, red, |site, c| out.bucket(site).push(query, c));
        }
        block.clear();
    }
}

impl Benchmark for PointCorr {
    fn name(&self) -> &'static str {
        "pointcorr"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "data-in-task-in-data"
    }

    fn simd_is_explicit(&self) -> bool {
        true
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (v, tasks) = pointcorr_serial(self);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Exact(p.install(|ctx| {
                fn queries(pc: &PointCorr, ctx: &WorkerCtx<'_>, lo: u32, hi: u32) -> u64 {
                    if hi - lo == 1 {
                        return query_cilk(pc, ctx, lo, 0);
                    }
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = ctx.join(move |c| queries(pc, c, lo, mid), move |c| queries(pc, c, mid, hi));
                    a + b
                }
                queries(self, ctx, 0, self.queries.len() as u32)
            }))
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        match tier {
            Tier::Block => seq_summary(&PcAos { pc: self }, cfg, Outcome::Exact),
            Tier::Soa => seq_summary(&PcSoa { pc: self, simd: false }, cfg, Outcome::Exact),
            Tier::Simd => seq_summary(&PcSoa { pc: self, simd: true }, cfg, Outcome::Exact),
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
            Tier::Block => par_summary(&PcAos { pc: self }, pool, cfg, kind, Outcome::Exact),
            Tier::Soa => par_summary(&PcSoa { pc: self, simd: false }, pool, cfg, kind, Outcome::Exact),
            Tier::Simd => par_summary(&PcSoa { pc: self, simd: true }, pool, cfg, kind, Outcome::Exact),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::points::dist2;

    /// Brute-force reference count.
    fn brute(pc: &PointCorr) -> u64 {
        let t = &pc.tree;
        let mut count = 0;
        for q in &pc.queries {
            for i in 0..t.len() {
                let p = [t.xs[i], t.ys[i], t.zs[i]];
                if dist2(q, &p) <= pc.r2 {
                    count += 1;
                }
            }
        }
        count
    }

    #[test]
    fn serial_matches_brute_force() {
        let pc = PointCorr::new(Scale::Tiny);
        assert_eq!(pointcorr_serial(&pc).0, brute(&pc));
    }

    #[test]
    fn all_variants_agree_exactly() {
        let pc = PointCorr::new(Scale::Tiny);
        let want = pc.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(pc.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            let cfg = SchedConfig::restart(Q, 256, 64);
            assert_eq!(pc.blocked_seq(cfg, tier).outcome, want, "{tier:?}");
            assert_eq!(pc.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
        }
    }

    #[test]
    fn simd_leaf_scan_matches_scalar() {
        let pc = PointCorr::new(Scale::Tiny);
        let t = &pc.tree;
        for n in t.nodes.iter().filter(|n| n.is_leaf()) {
            for q in pc.queries.iter().take(8) {
                assert_eq!(
                    leaf_count_scalar(t, n.start, n.end, q, pc.r2),
                    leaf_count_simd(t, n.start, n.end, q, pc.r2)
                );
            }
        }
    }
}
