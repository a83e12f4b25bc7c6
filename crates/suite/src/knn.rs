//! `knn` — k-nearest neighbours within a search radius, via kd-tree.
//!
//! Paper input: 100 K points — 15 levels, 1.36 G tasks, `float` data,
//! 4-wide vectors. Like [`crate::pointcorr`] this nests a data-parallel
//! leaf scan inside a task-parallel tree recursion inside a data-parallel
//! query loop.
//!
//! To keep tasks independent (the Cilk condition every scheduler here
//! relies on), pruning uses the *fixed* search radius `r0` rather than the
//! running k-th-best distance — the standard formulation for vectorized
//! kNN (Jo et al., PACT'13): each query returns the `K` smallest distances
//! among points within `r0`. The per-query result lists merge
//! associatively, so the reduction is deterministic under any execution
//! order.

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

/// Neighbours kept per query.
pub const K: usize = 4;

/// A query's running k-best squared distances, ascending; `INFINITY` pads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KBest(pub [f32; K]);

impl Default for KBest {
    fn default() -> Self {
        KBest([f32::INFINITY; K])
    }
}

impl KBest {
    /// Insert a candidate squared distance.
    #[inline]
    pub fn insert(&mut self, d2: f32) {
        if d2 >= self.0[K - 1] {
            return;
        }
        let mut i = K - 1;
        while i > 0 && self.0[i - 1] > d2 {
            self.0[i] = self.0[i - 1];
            i -= 1;
        }
        self.0[i] = d2;
    }

    /// Merge another list (associative, commutative).
    pub fn merge(&mut self, o: &KBest) {
        for &d in &o.0 {
            if d.is_finite() {
                self.insert(d);
            }
        }
    }

    /// Sum of the finite kept distances.
    pub fn finite_sum(&self) -> f64 {
        self.0.iter().filter(|d| d.is_finite()).map(|&d| f64::from(d)).sum()
    }
}

/// Per-worker reducer: one [`KBest`] per query.
#[derive(Debug, Clone)]
pub struct KnnResult {
    best: Vec<KBest>,
}

impl KnnResult {
    fn new(nq: usize) -> Self {
        KnnResult { best: vec![KBest::default(); nq] }
    }

    fn merge(&mut self, o: KnnResult) {
        for (a, b) in self.best.iter_mut().zip(&o.best) {
            a.merge(b);
        }
    }

    /// The scalar the harness compares: total kept distance mass.
    pub fn total(&self) -> f64 {
        self.best.iter().map(KBest::finite_sum).sum()
    }
}

/// The kNN benchmark.
pub struct Knn {
    tree: KdTree,
    queries: Vec<[f32; 3]>,
    r2: f32,
}

impl Knn {
    /// Presets: tiny 512 / 64, small 30 000 / 2 000, paper 100 000 /
    /// 100 000. The radius targets ~25 candidates per query so the K
    /// nearest are virtually always inside it.
    pub fn new(scale: Scale) -> Self {
        let (n, nq) = match scale {
            Scale::Tiny => (512, 64),
            Scale::Small => (30_000, 2_000),
            Scale::Paper => (100_000, 100_000),
        };
        let points = uniform_cube(n, 0x6B6E_6E01);
        // Query points are offset from data points so self-matches don't
        // dominate the k-best lists.
        let queries = uniform_cube(nq, 0x6B6E_6E02);
        let r = (25.0 * 3.0 / (4.0 * std::f32::consts::PI * n as f32)).cbrt();
        Knn { tree: KdTree::build(&points, LEAF), queries, r2: r * r }
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Scalar leaf scan.
#[inline]
fn leaf_scan_scalar(t: &KdTree, start: u32, end: u32, q: &[f32; 3], r2: f32, best: &mut KBest) {
    for i in start as usize..end as usize {
        let dx = t.xs[i] - q[0];
        let dy = t.ys[i] - q[1];
        let dz = t.zs[i] - q[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        if d2 <= r2 {
            best.insert(d2);
        }
    }
}

/// Vectorized leaf scan: distances 8 at a time, insertion scalar on the
/// (rare) in-radius lanes.
#[inline]
fn leaf_scan_simd(t: &KdTree, start: u32, end: u32, q: &[f32; 3], r2: f32, best: &mut KBest) {
    let (s, e) = (start as usize, end as usize);
    let qx = Lanes::<f32, 8>::splat(q[0]);
    let qy = Lanes::<f32, 8>::splat(q[1]);
    let qz = Lanes::<f32, 8>::splat(q[2]);
    let rr = Lanes::<f32, 8>::splat(r2);
    let mut i = s;
    while i + 8 <= e {
        let dx = Lanes::<f32, 8>::from_slice(&t.xs[i..]) - qx;
        let dy = Lanes::<f32, 8>::from_slice(&t.ys[i..]) - qy;
        let dz = Lanes::<f32, 8>::from_slice(&t.zs[i..]) - qz;
        let d2 = dx * dx + dy * dy + dz * dz;
        let m = d2.le(rr);
        if m.any() {
            for lane in 0..8 {
                if m.0[lane] {
                    best.insert(d2.lane(lane));
                }
            }
        }
        i += 8;
    }
    leaf_scan_scalar(t, i as u32, end, q, r2, best);
}

/// One traversal step for `(query, node)`.
#[inline]
fn expand_one(
    knn: &Knn,
    query: u32,
    node: u32,
    simd: bool,
    red: &mut KnnResult,
    mut spawn: impl FnMut(usize, u32),
) {
    let n = &knn.tree.nodes[node as usize];
    let q = &knn.queries[query as usize];
    if n.dist2_to(q) > knn.r2 {
        return;
    }
    if n.is_leaf() {
        let best = &mut red.best[query as usize];
        if simd {
            leaf_scan_simd(&knn.tree, n.start, n.end, q, knn.r2, best);
        } else {
            leaf_scan_scalar(&knn.tree, n.start, n.end, q, knn.r2, best);
        }
        return;
    }
    spawn(0, n.left as u32);
    spawn(1, n.right as u32);
}

/// Serial kNN over all queries; returns (result, task count).
pub fn knn_serial(knn: &Knn) -> (KnnResult, u64) {
    let mut red = KnnResult::new(knn.queries.len());
    let mut tasks = 0u64;
    let mut stack = Vec::new();
    for query in 0..knn.queries.len() as u32 {
        stack.push(0u32);
        while let Some(node) = stack.pop() {
            tasks += 1;
            expand_one(knn, query, node, false, &mut red, |_, c| stack.push(c));
        }
    }
    (red, tasks)
}

fn query_cilk(knn: &Knn, ctx: &WorkerCtx<'_>, query: u32, node: u32) -> KBest {
    let n = &knn.tree.nodes[node as usize];
    let q = &knn.queries[query as usize];
    let mut best = KBest::default();
    if n.dist2_to(q) > knn.r2 {
        return best;
    }
    if n.is_leaf() {
        leaf_scan_scalar(&knn.tree, n.start, n.end, q, knn.r2, &mut best);
        return best;
    }
    let (l, r) = (n.left as u32, n.right as u32);
    let (mut a, b) = ctx.join(move |c| query_cilk(knn, c, query, l), move |c| query_cilk(knn, c, query, r));
    a.merge(&b);
    a
}

struct KnnAos<'k> {
    knn: &'k Knn,
}

impl BlockProgram for KnnAos<'_> {
    type Store = Vec<(u32, u32)>;
    type Reducer = KnnResult;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        (0..self.knn.queries.len() as u32).map(|q| (q, 0)).collect()
    }

    fn make_reducer(&self) -> KnnResult {
        KnnResult::new(self.knn.queries.len())
    }

    fn merge_reducers(&self, a: &mut KnnResult, b: KnnResult) {
        a.merge(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut KnnResult) {
        for (query, node) in block.drain(..) {
            expand_one(self.knn, query, node, false, red, |site, c| out.bucket(site).push((query, c)));
        }
    }
}

struct KnnSoa<'k> {
    knn: &'k Knn,
    simd: bool,
}

impl BlockProgram for KnnSoa<'_> {
    type Store = SoaVec2<u32, u32>;
    type Reducer = KnnResult;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::with_capacity(self.knn.queries.len());
        for q in 0..self.knn.queries.len() as u32 {
            s.push(q, 0);
        }
        s
    }

    fn make_reducer(&self) -> KnnResult {
        KnnResult::new(self.knn.queries.len())
    }

    fn merge_reducers(&self, a: &mut KnnResult, b: KnnResult) {
        a.merge(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut KnnResult) {
        for i in 0..block.num_tasks() {
            let (query, node) = block.get(i);
            expand_one(self.knn, query, node, self.simd, red, |site, c| out.bucket(site).push(query, c));
        }
        block.clear();
    }
}

impl Benchmark for Knn {
    fn name(&self) -> &'static str {
        "knn"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "data-in-task-in-data"
    }

    fn tolerance(&self) -> f64 {
        1e-6
    }

    fn simd_is_explicit(&self) -> bool {
        true
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (r, tasks) = knn_serial(self);
            (Outcome::Approx(r.total()), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Approx(p.install(|ctx| {
                fn queries(knn: &Knn, ctx: &WorkerCtx<'_>, lo: u32, hi: u32) -> f64 {
                    if hi - lo == 1 {
                        return query_cilk(knn, ctx, lo, 0).finite_sum();
                    }
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) =
                        ctx.join(move |c| queries(knn, c, lo, mid), move |c| queries(knn, c, mid, hi));
                    a + b
                }
                queries(self, ctx, 0, self.queries.len() as u32)
            }))
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        let to = |r: KnnResult| Outcome::Approx(r.total());
        match tier {
            Tier::Block => seq_summary(&KnnAos { knn: self }, cfg, to),
            Tier::Soa => seq_summary(&KnnSoa { knn: self, simd: false }, cfg, to),
            Tier::Simd => seq_summary(&KnnSoa { knn: self, simd: true }, cfg, to),
        }
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        let to = |r: KnnResult| Outcome::Approx(r.total());
        match tier {
            Tier::Block => par_summary(&KnnAos { knn: self }, pool, cfg, kind, to),
            Tier::Soa => par_summary(&KnnSoa { knn: self, simd: false }, pool, cfg, kind, to),
            Tier::Simd => par_summary(&KnnSoa { knn: self, simd: true }, pool, cfg, kind, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::points::dist2;

    #[test]
    fn kbest_keeps_smallest_sorted() {
        let mut b = KBest::default();
        for d in [5.0, 1.0, 3.0, 2.0, 4.0, 0.5] {
            b.insert(d);
        }
        assert_eq!(b.0, [0.5, 1.0, 2.0, 3.0]);
        let mut other = KBest::default();
        other.insert(0.1);
        b.merge(&other);
        assert_eq!(b.0, [0.1, 0.5, 1.0, 2.0]);
    }

    /// Brute-force per-query reference.
    fn brute(knn: &Knn) -> f64 {
        let t = &knn.tree;
        let mut total = 0.0;
        for q in &knn.queries {
            let mut best = KBest::default();
            for i in 0..t.len() {
                let p = [t.xs[i], t.ys[i], t.zs[i]];
                let d2 = dist2(q, &p);
                if d2 <= knn.r2 {
                    best.insert(d2);
                }
            }
            total += best.finite_sum();
        }
        total
    }

    #[test]
    fn serial_matches_brute_force() {
        let knn = Knn::new(Scale::Tiny);
        let (r, _) = knn_serial(&knn);
        let b = brute(&knn);
        assert!((r.total() - b).abs() <= 1e-9 * b.abs().max(1.0));
    }

    #[test]
    fn all_variants_agree() {
        let knn = Knn::new(Scale::Tiny);
        let want = knn.serial().outcome;
        let tol = knn.tolerance();
        let pool = ThreadPool::new(2);
        assert!(knn.cilk(&pool).outcome.matches(&want, tol));
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            let cfg = SchedConfig::restart(Q, 256, 64);
            assert!(knn.blocked_seq(cfg, tier).outcome.matches(&want, tol), "{tier:?}");
            assert!(knn.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome.matches(&want, tol));
        }
    }
}
