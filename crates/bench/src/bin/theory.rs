//! Validates the §4 theory empirically: measured SIMD step counts for the
//! three sequential strategies across tree shapes and block sizes,
//! compared against the Theorem 1–3 closed forms, plus the analogue of
//! Theorem 4's Lemma 7 for the pool scheduler (`ParSplit` under restart):
//! its splits against `kPh`, and its steps against
//! `optimal_bound + splits·h`. Exits 1 if either parallel bound fails.

use tb_bench::{HarnessArgs, TableSink};
use tb_core::prelude::*;
use tb_model::{basic_bound, optimal_bound, reexpansion_bound, CompTree, TreeWalk};
use tb_runtime::ThreadPool;

const Q: usize = 8;

fn measured_steps(tree: &CompTree, cfg: SchedConfig) -> u64 {
    let walk = TreeWalk::new(tree);
    run_policy(&walk, cfg, None).stats.simd_steps
}

fn main() {
    let args = HarnessArgs::parse();
    println!("§4 theory validation | Q={Q}\n");
    let trees: Vec<(&str, CompTree)> = vec![
        ("perfect(2^17)", CompTree::perfect_binary(17)),
        ("random(150k)", CompTree::random_binary(150_000, 0.75, 11)),
        ("comb(3000)", CompTree::comb(3000)),
        ("binomial", CompTree::binomial(64, 8, 0.122, 5, 150_000)),
        ("chain(4000)", CompTree::chain(4000)),
    ];
    let mut sink = TableSink::new(
        &args.out_dir,
        "theory",
        &["tree", "n", "h", "k", "basic", "basic/bound", "reexp", "reexp/bound", "restart", "restart/opt"],
    );
    for (name, tree) in &trees {
        let n = tree.len() as f64;
        let h = tree.height() as f64;
        for k in [1usize, 4, 32, 256] {
            let t_dfe = k * Q;
            let basic = measured_steps(tree, SchedConfig::basic(Q, t_dfe));
            let reexp = measured_steps(tree, SchedConfig::reexpansion(Q, t_dfe));
            let restart = measured_steps(tree, SchedConfig::restart(Q, t_dfe, t_dfe));
            let bb = basic_bound(n, h, Q as f64, k as f64);
            let rb = reexpansion_bound(n, h, Q as f64, k as f64, k as f64);
            let ob = optimal_bound(n, h, Q as f64);
            sink.row(vec![
                name.to_string(),
                (n as u64).to_string(),
                (h as u64).to_string(),
                k.to_string(),
                basic.to_string(),
                format!("{:.2}", basic as f64 / bb),
                reexp.to_string(),
                format!("{:.2}", reexp as f64 / rb),
                restart.to_string(),
                format!("{:.2}", restart as f64 / ob),
            ]);
        }
    }
    sink.finish();
    println!(
        "\nTheorem 3 check: the restart/opt column should stay O(1) (a small constant)\n\
         across *all* trees and *all* k — restart's step count does not depend on the\n\
         block size. basic/bound and reexp/bound should also be Θ(1) w.r.t. their own\n\
         (weaker) bounds, with basic degrading on unbalanced trees at small k."
    );

    // Lemma 7 (E[S] = O(kPh)) for the scheduler that runs: ParSplit under
    // restart, whose splits play the steals' part. Each engine runs at most
    // one underfull superstep per level, so its steps stay within
    // c·(optimal_bound + splits·h) with c = 1 + 1/k (derived beside
    // `split_restart_keeps_lemma_7` in tests/properties.rs). Counts, not
    // times, so the bounds hold on an oversubscribed host too.
    println!(
        "\nParSplit(restart): splits against Lemma 7's kPh, and steps against \
         c·(optimal_bound + splits·h), c = 1 + 1/k:"
    );
    let tree = CompTree::random_binary(100_000, 0.75, 3);
    let (n, h) = (tree.len() as f64, tree.height() as f64);
    let mut failed = false;
    for p in [2usize, 4, 8] {
        let pool = ThreadPool::new(p);
        for k in [2usize, 16] {
            let walk = TreeWalk::new(&tree);
            let cfg = SchedConfig::restart(Q, k * Q, k * Q);
            let split = run_policy(&walk, cfg, Some(&pool));
            let kph = k as f64 * p as f64 * h;
            let splits = split.stats.splits;
            let split_ratio = splits as f64 / kph;
            let step_ratio =
                split.stats.simd_steps as f64 / (optimal_bound(n, h, Q as f64) + splits as f64 * h);
            let ok = split_ratio <= 1.0 && step_ratio <= 1.0 + 1.0 / k as f64;
            failed |= !ok;
            println!(
                "  P={p} k={k:<3} kPh={kph:<8.0} splits={splits:<5} splits/kPh={split_ratio:.4} \
                 simd_steps/(opt+splits·h)={step_ratio:.3}{}",
                if ok { "" } else { "  <- BOUND FAILED" }
            );
        }
    }
    if failed {
        eprintln!("theory: a ParSplit(restart) Lemma 7 bound failed");
        std::process::exit(1);
    }
}
