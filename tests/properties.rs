//! Property-based tests of the framework's core invariants, driven over
//! randomly generated computation trees (the §4 model objects).

mod common;

use common::KeepThievesHungry;
use proptest::prelude::*;
use taskblocks::model::{optimal_bound, CompTree, TreeWalk};
use taskblocks::prelude::*;

/// Strategy: a random computation tree with its shape knobs.
fn arb_tree() -> impl Strategy<Value = CompTree> {
    (8usize..400, 0.50f64..0.95, any::<u64>())
        .prop_map(|(max_nodes, p, seed)| CompTree::random_binary(max_nodes, p, seed))
}

/// Strategy: scheduler thresholds with the §3.5 constraints.
fn arb_cfg() -> impl Strategy<Value = SchedConfig> {
    (1usize..5, 0usize..3, prop_oneof![Just(0), Just(1), Just(2)]).prop_map(|(k, shrink, policy)| {
        let q = 4;
        let t_dfe = (k * q).max(1);
        let t_small = (t_dfe >> shrink).max(1);
        match policy {
            0 => SchedConfig::basic(q, t_dfe),
            1 => SchedConfig::reexpansion_with(q, t_dfe, t_small),
            _ => SchedConfig::restart(q, t_dfe, t_small),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every scheduler executes every tree node exactly once, whatever the
    /// thresholds.
    #[test]
    fn every_node_exactly_once(tree in arb_tree(), cfg in arb_cfg()) {
        let walk = TreeWalk::recording(&tree);
        let out = run_policy(&walk, cfg, None);
        out.reducer.assert_exactly_once(&tree);
    }

    /// §4 preliminaries: n/Q <= Ts <= n and Ts >= h for every policy.
    #[test]
    fn step_count_bounds(tree in arb_tree(), cfg in arb_cfg()) {
        let walk = TreeWalk::new(&tree);
        let out = run_policy(&walk, cfg, None);
        let n = tree.len() as u64;
        let h = tree.height() as u64;
        let q = cfg.q as u64;
        prop_assert!(out.stats.simd_steps >= n.div_ceil(q));
        prop_assert!(out.stats.simd_steps <= n);
        prop_assert!(out.stats.simd_steps >= h);
    }

    /// Theorem 3 with an explicit constant: restart's step count is within
    /// 3x of n/Q + h on every tree, at every block size.
    #[test]
    fn restart_is_near_optimal(tree in arb_tree(), k in 1usize..8) {
        let q = 4;
        let cfg = SchedConfig::restart(q, k * q, k * q);
        let walk = TreeWalk::new(&tree);
        let out = run_policy(&walk, cfg, None);
        let opt = tree.len() as f64 / q as f64 + tree.height() as f64;
        prop_assert!(
            (out.stats.simd_steps as f64) <= 3.0 * opt,
            "steps {} > 3x optimal {}", out.stats.simd_steps, opt
        );
    }

    /// Restart at any block size never has lower SIMD utilization than
    /// re-expansion at the same block size (Figure 4, generalized).
    #[test]
    fn restart_dominates_reexp_utilization(tree in arb_tree(), k in 1usize..16) {
        let q = 4;
        let x = run_policy(&TreeWalk::new(&tree), SchedConfig::reexpansion(q, k * q), None);
        let r = run_policy(&TreeWalk::new(&tree), SchedConfig::restart(q, k * q, k * q), None);
        prop_assert!(
            r.stats.simd_utilization() >= x.stats.simd_utilization() - 1e-9,
            "restart {} < reexp {}", r.stats.simd_utilization(), x.stats.simd_utilization()
        );
    }

    /// Lemma 8 (space): parked tasks never exceed levels x 2 blocks x the
    /// transient block cap (arity x t_dfe).
    #[test]
    fn deque_space_bound(tree in arb_tree(), k in 1usize..8) {
        let q = 4;
        let cfg = SchedConfig::restart(q, k * q, k * q);
        let walk = TreeWalk::new(&tree);
        let out = run_policy(&walk, cfg, None);
        let h = (out.stats.max_level + 1) as u64;
        let cap = h * 2 * (2 * k as u64 * q as u64);
        prop_assert!(out.stats.max_deque_tasks <= cap,
            "deque {} > bound {}", out.stats.max_deque_tasks, cap);
    }

    /// The pool scheduler computes what the sequential one computes, on
    /// arbitrary trees and worker counts.
    #[test]
    fn parallel_equals_sequential(tree in arb_tree(), workers in 1usize..5) {
        let cfg = SchedConfig::restart(4, 32, 16);
        let seq = run_policy(&TreeWalk::new(&tree), cfg, None);
        let pool = ThreadPool::new(workers);
        let par = run_scheduler(SchedulerKind::Par, &TreeWalk::new(&tree), cfg, Some(&pool));
        prop_assert_eq!(seq.reducer.count, par.reducer.count);
        prop_assert_eq!(par.stats.tasks_executed, tree.len() as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Work-stealing simplified restart visits every node exactly once
    /// (steals and restarts never duplicate or drop work).
    #[test]
    fn work_stealing_exactly_once(tree in arb_tree(), workers in 2usize..5) {
        let pool = ThreadPool::new(workers);
        let cfg = SchedConfig::restart(4, 32, 8);
        let walk = TreeWalk::recording(&tree);
        let out = run_policy(&walk, cfg, Some(&pool));
        out.reducer.assert_exactly_once(&tree);
    }
}

/// Lemma 7's analogue for the scheduler that runs, `ParSplit` under restart
/// at `t_dfe = t_restart = kQ`: splits play the steals' part. Both bounds
/// are counts, not times, so they can be checked on any host.
///
/// * `splits ≤ k·P·h` — Lemma 7's `E[S] = O(kPh)` with constant 1, a
///   measured bound (the runs stay well under it), not a derived one.
/// * `simd_steps ≤ c·(optimal_bound + splits·h)` with `c = 1 + 1/k`:
///   - at most one incomplete step per superstep (Claim 1), and at most
///     `n/Q` complete ones, so `simd_steps ≤ n/Q + supersteps`;
///   - a superstep of at least `t_restart = kQ` tasks happens at most
///     `n/(kQ)` times;
///   - a block below `t_restart` runs only breadth-first (the warm-up
///     ramp, or a forced burst after a failed scan). Each such step takes
///     the block one level down and absorbs that level's parked blocks,
///     and what is parked afterwards lies below the level the ramp or
///     burst ended at. So each engine runs at most `h` of them, and a run
///     has `splits + 1` engines;
///   - hence `simd_steps ≤ n/Q + n/(kQ) + (splits + 1)·h
///     ≤ (1 + 1/k)·(n/Q + h + splits·h)`.
#[test]
fn split_restart_keeps_lemma_7() {
    const Q: usize = 8;
    for seed in [3u64, 11] {
        let tree = CompTree::random_binary(100_000, 0.75, seed);
        let (n, h) = (tree.len() as f64, tree.height() as f64);
        for p in [2usize, 4] {
            let pool = ThreadPool::new(p);
            for k in [2usize, 16] {
                let what = format!("seed {seed}, P = {p}, k = {k}");
                let walk = KeepThievesHungry::new(TreeWalk::new(&tree));
                let out = run_policy(&walk, SchedConfig::restart(Q, k * Q, k * Q), Some(&pool));
                assert_eq!(out.stats.tasks_executed, tree.len() as u64, "{what}");
                let splits = out.stats.splits as f64;
                assert!(splits >= 1.0, "{what}: workers sat hungry and the run never split");
                let kph = (k * p) as f64 * h;
                assert!(splits <= kph, "{what}: {splits} splits > kPh = {kph}");
                let c = 1.0 + 1.0 / k as f64;
                let bound = c * (optimal_bound(n, h, Q as f64) + splits * h);
                let steps = out.stats.simd_steps as f64;
                assert!(steps <= bound, "{what}: {steps} SIMD steps > {c}·(opt + splits·h) = {bound:.0}");
            }
        }
    }
}
