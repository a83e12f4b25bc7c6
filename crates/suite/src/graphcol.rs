//! `graphcol` — counting proper 3-colourings of a random graph.
//!
//! Paper input: 3 colours on a 38-vertex graph — 39 levels, 42.4 M tasks.
//! Vertices are coloured in index order; a task carries the vertex to
//! colour next plus one occupancy bitmask per colour, and spawns one child
//! per colour that no earlier neighbour already uses (the data-parallel
//! loop over colours nested in the task recursion). Fan-out shrinks as the
//! graph constrains choices, which gives the benchmark its irregularity.

use tb_core::prelude::*;
use tb_runtime::{ThreadPool, WorkerCtx};
use tb_simd::SoaVec4;

use crate::bench::{
    cilk_summary, par_summary, seq_summary, serial_summary, Benchmark, RunSummary, Scale, Tier,
};
use crate::graphs::Graph;
use crate::outcome::Outcome;

const Q: usize = 16;
const COLORS: usize = 3;

/// The graph-colouring benchmark on a fixed random graph.
pub struct GraphCol {
    graph: Graph,
}

impl GraphCol {
    /// Presets: tiny 12 vertices, small 26, paper 38 — all with the edge
    /// density (1/4) that keeps the colouring tree large but finite.
    pub fn new(scale: Scale) -> Self {
        let n = match scale {
            Scale::Tiny => 12,
            Scale::Small => 26,
            Scale::Paper => 38,
        };
        GraphCol { graph: Graph::random(n, 1, 4, 0xC01C_C01C) }
    }

    /// The instance's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

type Task = (u8, u64, u64, u64); // (next vertex, colour-0 set, colour-1 set, colour-2 set)

#[inline]
fn expand_one(g: &Graph, t: Task, red: &mut u64, mut spawn: impl FnMut(usize, Task)) {
    let (v, m0, m1, m2) = t;
    if v as usize == g.n {
        *red += 1;
        return;
    }
    let adj = g.adj[v as usize];
    let bit = 1u64 << v;
    let masks = [m0, m1, m2];
    for (c, &mc) in masks.iter().enumerate() {
        if adj & mc == 0 {
            let mut child = [m0, m1, m2];
            child[c] |= bit;
            spawn(c, (v + 1, child[0], child[1], child[2]));
        }
    }
}

/// Proper 3-colourings and recursive-call count.
pub fn graphcol_serial(g: &Graph) -> (u64, u64) {
    fn rec(g: &Graph, t: Task) -> (u64, u64) {
        let mut count = 0;
        let mut tasks = 1;
        let mut children = Vec::new();
        expand_one(g, t, &mut count, |_, c| children.push(c));
        for c in children {
            let (cc, ct) = rec(g, c);
            count += cc;
            tasks += ct;
        }
        (count, tasks)
    }
    rec(g, (0, 0, 0, 0))
}

fn graphcol_cilk(g: &Graph, ctx: &WorkerCtx<'_>, t: Task) -> u64 {
    let mut count = 0;
    let mut children = Vec::new();
    expand_one(g, t, &mut count, |_, c| children.push(c));
    fn over(g: &Graph, ctx: &WorkerCtx<'_>, mut kids: Vec<Task>) -> u64 {
        match kids.len() {
            0 => 0,
            1 => graphcol_cilk(g, ctx, kids[0]),
            _ => {
                let right = kids.split_off(kids.len() / 2);
                let (a, b) = ctx.join(move |c| over(g, c, kids), move |c| over(g, c, right));
                a + b
            }
        }
    }
    count + over(g, ctx, children)
}

struct GcAos<'g> {
    g: &'g Graph,
}

impl BlockProgram for GcAos<'_> {
    type Store = Vec<Task>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        COLORS
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
            expand_one(self.g, t, red, |site, child| out.bucket(site).push(child));
        }
    }
}

struct GcSoa<'g> {
    g: &'g Graph,
}

impl BlockProgram for GcSoa<'_> {
    type Store = SoaVec4<u8, u64, u64, u64>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        COLORS
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
            expand_one(self.g, t, red, |site, (v, m0, m1, m2)| out.bucket(site).push(v, m0, m1, m2));
        }
        block.clear();
    }
}

impl Benchmark for GraphCol {
    fn name(&self) -> &'static str {
        "graphcol"
    }

    fn q(&self) -> usize {
        Q
    }

    fn nesting(&self) -> &'static str {
        "data-in-task"
    }

    fn serial(&self) -> RunSummary {
        serial_summary(Q, || {
            let (v, tasks) = graphcol_serial(&self.graph);
            (Outcome::Exact(v), tasks)
        })
    }

    fn cilk(&self, pool: &ThreadPool) -> RunSummary {
        cilk_summary(Q, pool, |p| {
            Outcome::Exact(p.install(|ctx| graphcol_cilk(&self.graph, ctx, (0, 0, 0, 0))))
        })
    }

    fn blocked_seq(&self, cfg: SchedConfig, tier: Tier) -> RunSummary {
        match tier {
            Tier::Block => seq_summary(&GcAos { g: &self.graph }, cfg, Outcome::Exact),
            Tier::Soa | Tier::Simd => seq_summary(&GcSoa { g: &self.graph }, cfg, Outcome::Exact),
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
            Tier::Block => par_summary(&GcAos { g: &self.graph }, pool, cfg, kind, Outcome::Exact),
            Tier::Soa | Tier::Simd => par_summary(&GcSoa { g: &self.graph }, pool, cfg, kind, Outcome::Exact),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_six_colorings() {
        let mut g = Graph { n: 3, adj: vec![0; 3] };
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            g.adj[u] |= 1 << v;
            g.adj[v] |= 1 << u;
        }
        assert_eq!(graphcol_serial(&g).0, 6);
    }

    #[test]
    fn empty_graph_has_three_to_the_n() {
        let g = Graph { n: 5, adj: vec![0; 5] };
        assert_eq!(graphcol_serial(&g).0, 243);
    }

    #[test]
    fn all_variants_agree() {
        let b = GraphCol::new(Scale::Tiny);
        let want = b.serial().outcome;
        let pool = ThreadPool::new(2);
        assert_eq!(b.cilk(&pool).outcome, want);
        for tier in [Tier::Block, Tier::Soa] {
            let cfg = SchedConfig::restart(Q, 128, 32);
            assert_eq!(b.blocked_seq(cfg, tier).outcome, want);
            assert_eq!(b.blocked_par(&pool, cfg, SchedulerKind::Par, tier).outcome, want);
        }
    }

    #[test]
    fn levels_are_vertices_plus_one() {
        let b = GraphCol::new(Scale::Tiny);
        let run = b.blocked_seq(SchedConfig::reexpansion(Q, 64), Tier::Block);
        assert_eq!(run.stats.max_level, b.graph.n as u64);
    }
}
