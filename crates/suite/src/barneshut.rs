//! `barneshut` — the Barnes-Hut force-computation phase.
//!
//! Paper input: 1 M bodies — 18 levels, 3.0 G tasks, `float` data, 4-wide
//! vectors. This is the paper's flagship *task-parallelism-nested-in-data-
//! parallelism* benchmark (Fig. 2): a data-parallel loop over bodies, each
//! iteration a task-parallel recursive traversal of the octree with the
//! Barnes-Hut opening criterion deciding between approximating a cell by
//! its centre of mass (base case) and descending into its children
//! (spawns, arity 8).
//!
//! The root block contains one `(body, root)` task per body; the scheduler
//! strip-mines it (§5.3). Forces accumulate into per-worker dense arrays
//! (one `[f64; 3]` per body), merged after the run — contribution terms are
//! computed in `f32` (bitwise identical across variants) and summed in
//! `f64`, so outcomes agree across schedulers to ~1e-9 relative.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::{Lanes, SoaVec2};

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::geom::octree::Octree;
use crate::geom::points::plummer_cloud;
use crate::outcome::Outcome;

const Q: usize = 4;
const EPS2: f32 = 1e-4;

/// The Barnes-Hut benchmark: an octree plus the opening parameter θ.
pub struct BarnesHut {
    tree: Octree,
    theta2: f32,
}

impl BarnesHut {
    /// Presets: tiny 256 bodies, small 20 000, paper 1 000 000 — all
    /// Plummer-distributed (centrally condensed, deep octree), θ = 0.6.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 256,
            Scale::Small => 20_000,
            Scale::Paper => 1_000_000,
        };
        Self::with_bodies(plummer_cloud(n, 0xBA12_BA12), 0.6)
    }

    /// Build from explicit bodies and opening angle θ.
    pub fn with_bodies(bodies: Vec<[f32; 3]>, theta: f32) -> Self {
        BarnesHut { tree: Octree::build(bodies), theta2: theta * theta }
    }

    /// Number of bodies.
    pub fn n_bodies(&self) -> usize {
        self.tree.bodies.len()
    }

    /// The octree.
    pub fn tree(&self) -> &Octree {
        &self.tree
    }
}

/// Per-worker force accumulator: one `[f64; 3]` per body.
#[derive(Debug, Clone)]
pub struct Forces {
    f: Vec<[f64; 3]>,
}

impl Forces {
    fn zeros(n: usize) -> Self {
        Forces { f: vec![[0.0; 3]; n] }
    }

    #[inline]
    fn add(&mut self, body: u32, g: [f32; 3]) {
        let slot = &mut self.f[body as usize];
        slot[0] += f64::from(g[0]);
        slot[1] += f64::from(g[1]);
        slot[2] += f64::from(g[2]);
    }

    fn merge(&mut self, o: Forces) {
        for (a, b) in self.f.iter_mut().zip(o.f) {
            a[0] += b[0];
            a[1] += b[1];
            a[2] += b[2];
        }
    }

    /// Sum of force magnitudes — the scalar the harness compares.
    pub fn magnitude_sum(&self) -> f64 {
        self.f.iter().map(|v| (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()).sum()
    }
}

/// The single-interaction kernel: force of a cell (com, mass) on `p`,
/// computed entirely in `f32` so every variant produces identical terms.
#[inline]
fn interaction(p: &[f32; 3], com: &[f32; 3], mass: f32) -> [f32; 3] {
    let dx = com[0] - p[0];
    let dy = com[1] - p[1];
    let dz = com[2] - p[2];
    let dr2 = dx * dx + dy * dy + dz * dz + EPS2;
    let inv = 1.0 / (dr2 * dr2.sqrt());
    let g = mass * inv;
    [g * dx, g * dy, g * dz]
}

/// One traversal step for `(body, node)`: either call `add` with the
/// cell's point-mass contribution (base case per the opening criterion) or
/// `spawn` the children. Shared by every variant.
#[inline]
fn expand_one_generic(
    bh: &BarnesHut,
    body: u32,
    node: u32,
    add: &mut impl FnMut([f32; 3]),
    mut spawn: impl FnMut(usize, u32),
) {
    let n = &bh.tree.nodes[node as usize];
    let p = &bh.tree.bodies[body as usize];
    if n.is_leaf() {
        if n.body != body as i32 {
            add(interaction(p, &n.com, n.mass));
        }
        return;
    }
    let dx = n.com[0] - p[0];
    let dy = n.com[1] - p[1];
    let dz = n.com[2] - p[2];
    let dr2 = dx * dx + dy * dy + dz * dz;
    let size2 = 4.0 * n.half * n.half;
    if size2 <= bh.theta2 * dr2 {
        // Far enough: the cell acts as a point mass (Fig. 2's "update p").
        add(interaction(p, &n.com, n.mass));
        return;
    }
    for (oct, &c) in n.children.iter().enumerate() {
        if c >= 0 {
            spawn(oct, c as u32);
        }
    }
}

/// [`expand_one_generic`] accumulating into the dense per-worker reducer.
#[inline]
fn expand_one(bh: &BarnesHut, body: u32, node: u32, red: &mut Forces, spawn: impl FnMut(usize, u32)) {
    let mut add = |g: [f32; 3]| red.add(body, g);
    expand_one_generic(bh, body, node, &mut add, spawn);
}

/// Serial traversal of every body; returns (forces, task count).
pub fn barneshut_serial(bh: &BarnesHut) -> (Forces, u64) {
    let mut red = Forces::zeros(bh.n_bodies());
    let mut tasks = 0u64;
    let mut stack: Vec<u32> = Vec::new();
    for body in 0..bh.n_bodies() as u32 {
        stack.push(0);
        while let Some(node) = stack.pop() {
            tasks += 1;
            expand_one(bh, body, node, &mut red, |_, c| stack.push(c));
        }
    }
    (red, tasks)
}

fn body_cilk(bh: &BarnesHut, ctx: &WorkerCtx<'_>, body: u32, node: u32) -> [f64; 3] {
    let mut acc = [0f64; 3];
    let mut kids: Vec<u32> = Vec::new();
    {
        let mut add = |g: [f32; 3]| {
            acc[0] += f64::from(g[0]);
            acc[1] += f64::from(g[1]);
            acc[2] += f64::from(g[2]);
        };
        expand_one_generic(bh, body, node, &mut add, |_, c| kids.push(c));
    }
    fn over(bh: &BarnesHut, ctx: &WorkerCtx<'_>, body: u32, mut kids: Vec<u32>) -> [f64; 3] {
        match kids.len() {
            0 => [0.0; 3],
            1 => body_cilk(bh, ctx, body, kids[0]),
            _ => {
                let right = kids.split_off(kids.len() / 2);
                let (a, b) = ctx.join(move |c| over(bh, c, body, kids), move |c| over(bh, c, body, right));
                [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
            }
        }
    }
    let sub = over(bh, ctx, body, kids);
    [acc[0] + sub[0], acc[1] + sub[1], acc[2] + sub[2]]
}

struct BhAos<'b> {
    bh: &'b BarnesHut,
}

impl BlockProgram for BhAos<'_> {
    type Store = Vec<(u32, u32)>;
    type Reducer = Forces;

    fn arity(&self) -> usize {
        8
    }

    fn make_root(&self) -> Self::Store {
        (0..self.bh.n_bodies() as u32).map(|b| (b, 0)).collect()
    }

    fn make_reducer(&self) -> Forces {
        Forces::zeros(self.bh.n_bodies())
    }

    fn merge_reducers(&self, a: &mut Forces, b: Forces) {
        a.merge(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Forces) {
        for (body, node) in block.drain(..) {
            expand_one(self.bh, body, node, red, |site, c| out.bucket(site).push((body, c)));
        }
    }
}

/// SoA program; `simd` turns on the 8-lane distance/interaction kernel
/// (gathered loads, vector arithmetic, per-lane routing).
struct BhSoa<'b> {
    bh: &'b BarnesHut,
    simd: bool,
}

impl BhSoa<'_> {
    #[inline]
    fn expand_simd(
        &self,
        block: &SoaVec2<u32, u32>,
        out: &mut BucketSet<SoaVec2<u32, u32>>,
        red: &mut Forces,
    ) {
        let bh = self.bh;
        let len = block.num_tasks();
        let mut i = 0;
        while i + 8 <= len {
            // Gather per-lane node and body data into lanes.
            let mut px = [0f32; 8];
            let mut py = [0f32; 8];
            let mut pz = [0f32; 8];
            let mut cx = [0f32; 8];
            let mut cy = [0f32; 8];
            let mut cz = [0f32; 8];
            let mut mass = [0f32; 8];
            let mut size2 = [0f32; 8];
            let mut is_leaf = [false; 8];
            let mut leaf_self = [false; 8];
            for lane in 0..8 {
                let (body, node) = block.get(i + lane);
                let n = &bh.tree.nodes[node as usize];
                let p = &bh.tree.bodies[body as usize];
                px[lane] = p[0];
                py[lane] = p[1];
                pz[lane] = p[2];
                cx[lane] = n.com[0];
                cy[lane] = n.com[1];
                cz[lane] = n.com[2];
                mass[lane] = n.mass;
                size2[lane] = 4.0 * n.half * n.half;
                is_leaf[lane] = n.is_leaf();
                leaf_self[lane] = n.body == body as i32;
            }
            let px = Lanes(px);
            let py = Lanes(py);
            let pz = Lanes(pz);
            let dx = Lanes(cx) - px;
            let dy = Lanes(cy) - py;
            let dz = Lanes(cz) - pz;
            let dr2 = dx * dx + dy * dy + dz * dz;
            // Opening test, vectorized: far ⇔ size2 <= θ²·dr2.
            let far = Lanes(size2).le(dr2 * Lanes::splat(bh.theta2));
            // Interaction magnitudes for all lanes (wasted work on spawn
            // lanes is the SIMD trade; they are masked out below).
            let dr2e = dr2 + Lanes::splat(EPS2);
            let inv = Lanes::splat(1.0f32) / (dr2e * dr2e.sqrt());
            let g = Lanes(mass) * inv;
            let gx = g * dx;
            let gy = g * dy;
            let gz = g * dz;
            for lane in 0..8 {
                let (body, node) = block.get(i + lane);
                let accumulate = if is_leaf[lane] { !leaf_self[lane] } else { far.0[lane] };
                if accumulate {
                    red.add(body, [gx.lane(lane), gy.lane(lane), gz.lane(lane)]);
                } else if !is_leaf[lane] {
                    let n = &bh.tree.nodes[node as usize];
                    for (oct, &c) in n.children.iter().enumerate() {
                        if c >= 0 {
                            out.bucket(oct).push(body, c as u32);
                        }
                    }
                }
            }
            i += 8;
        }
        for j in i..len {
            let (body, node) = block.get(j);
            expand_one(bh, body, node, red, |site, c| out.bucket(site).push(body, c));
        }
    }
}

impl BlockProgram for BhSoa<'_> {
    type Store = SoaVec2<u32, u32>;
    type Reducer = Forces;

    fn arity(&self) -> usize {
        8
    }

    fn make_root(&self) -> Self::Store {
        let mut s = SoaVec2::with_capacity(self.bh.n_bodies());
        for b in 0..self.bh.n_bodies() as u32 {
            s.push(b, 0);
        }
        s
    }

    fn make_reducer(&self) -> Forces {
        Forces::zeros(self.bh.n_bodies())
    }

    fn merge_reducers(&self, a: &mut Forces, b: Forces) {
        a.merge(b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Forces) {
        if self.simd {
            self.expand_simd(block, out, red);
        } else {
            for idx in 0..block.num_tasks() {
                let (body, node) = block.get(idx);
                expand_one(self.bh, body, node, red, |site, c| out.bucket(site).push(body, c));
            }
        }
        block.clear();
    }
}

impl Benchmark for BarnesHut {
    fn name(&self) -> &'static str {
        "barneshut"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "task-in-data"
    }

    fn tolerance(&self) -> f64 {
        1e-6
    }

    fn simd_is_explicit(&self) -> bool {
        true
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (f, tasks) = barneshut_serial(self);
            (Outcome::Approx(f.magnitude_sum()), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            let mag = p.install(|ctx| {
                fn bodies(bh: &BarnesHut, ctx: &WorkerCtx<'_>, lo: u32, hi: u32) -> f64 {
                    if hi - lo == 1 {
                        let f = body_cilk(bh, ctx, lo, 0);
                        return (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
                    }
                    let mid = lo + (hi - lo) / 2;
                    let (a, b) = ctx.join(move |c| bodies(bh, c, lo, mid), move |c| bodies(bh, c, mid, hi));
                    a + b
                }
                bodies(self, ctx, 0, self.n_bodies() as u32)
            });
            Outcome::Approx(mag)
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        let to = |f: Forces| Outcome::Approx(f.magnitude_sum());
        match tier {
            Tier::Block => seq_summary(&BhAos { bh: self }, cfg, to),
            Tier::Soa => seq_summary(&BhSoa { bh: self, simd: false }, cfg, to),
            Tier::Simd => seq_summary(&BhSoa { bh: self, simd: true }, cfg, to),
        }
    }

    fn blocked_par(
        &self,
        pool: &ThreadPool,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: Tier,
    ) -> RunSummary {
        let to = |f: Forces| Outcome::Approx(f.magnitude_sum());
        match tier {
            Tier::Block => par_summary(&BhAos { bh: self }, pool, cfg, kind, to),
            Tier::Soa => par_summary(&BhSoa { bh: self, simd: false }, pool, cfg, kind, to),
            Tier::Simd => par_summary(&BhSoa { bh: self, simd: true }, pool, cfg, kind, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(n²) summation for validation.
    fn direct_forces(bodies: &[[f32; 3]]) -> f64 {
        let mut total = 0.0;
        for (i, p) in bodies.iter().enumerate() {
            let mut f = [0f64; 3];
            for (j, q) in bodies.iter().enumerate() {
                if i == j {
                    continue;
                }
                let g = interaction(p, q, 1.0);
                f[0] += f64::from(g[0]);
                f[1] += f64::from(g[1]);
                f[2] += f64::from(g[2]);
            }
            total += (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]).sqrt();
        }
        total
    }

    #[test]
    fn bh_approximates_direct_summation() {
        let bodies = plummer_cloud(200, 77);
        let bh = BarnesHut::with_bodies(bodies.clone(), 0.5);
        let (f, _) = barneshut_serial(&bh);
        let approx = f.magnitude_sum();
        let exact = direct_forces(&bodies);
        let rel = (approx - exact).abs() / exact;
        assert!(rel < 0.05, "BH error {rel} too large (θ=0.5)");
    }

    #[test]
    fn all_variants_agree() {
        let bh = BarnesHut::new(Scale::Tiny);
        let want = bh.serial().outcome;
        let tol = bh.tolerance();
        let pool = ThreadPool::new(2);
        assert!(bh.cilk(&pool).outcome.matches(&want, tol));
        for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
            let cfg = SchedConfig::restart(Q, 256, 64);
            assert!(bh.blocked_seq(cfg, tier).outcome.matches(&want, tol), "{tier:?}");
            assert!(bh.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome.matches(&want, tol));
        }
    }

    #[test]
    fn task_counts_match_across_variants() {
        let bh = BarnesHut::new(Scale::Tiny);
        let (_, serial_tasks) = barneshut_serial(&bh);
        let cfg = SchedConfig::reexpansion(Q, 512);
        let run = bh.blocked_seq(cfg, Tier::Block);
        assert_eq!(run.stats.tasks_executed, serial_tasks);
        let simd = bh.blocked_seq(cfg, Tier::Simd);
        assert_eq!(simd.stats.tasks_executed, serial_tasks);
    }
}
