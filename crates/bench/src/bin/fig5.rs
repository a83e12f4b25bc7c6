//! Regenerates **Figure 5** of the paper: speedup (relative to the
//! 1-worker Cilk baseline) as a function of worker count, at the small
//! block size 2^5 where the schedulers' utilization gap matters, for the
//! six benchmarks the paper plots — `scalar` (the input Cilk program),
//! `reexp`, and `restart`.

use tb_bench::{HarnessArgs, TableSink};
use tb_core::prelude::SchedConfig;
use tb_runtime::ThreadPool;
use tb_suite::{benchmark_by_name, SchedulerKind, Tier};

const FIG5_BENCHES: &[&str] = &["graphcol", "uts", "minmax", "barneshut", "pointcorr", "knn"];
const BLOCK: usize = 1 << 5;

fn main() {
    let args = HarnessArgs::parse();
    let max_w = args.workers.max(2);
    let mut worker_grid = vec![1usize, 2, 4, 8, 16];
    worker_grid.retain(|&w| w <= max_w);
    println!(
        "Figure 5 reproduction | scale={} block=2^5 workers={:?} physical_cores={}\n",
        args.scale_name(),
        worker_grid,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut sink = TableSink::new(
        &args.out_dir,
        &format!("fig5_{}", args.scale_name()),
        &["benchmark", "variant", "workers", "speedup_vs_1w_cilk"],
    );
    for name in FIG5_BENCHES {
        if !args.selected(name) {
            continue;
        }
        let b = benchmark_by_name(name, args.scale).expect("known benchmark");
        let reexp = SchedConfig::reexpansion(args.bench_q(b.q()), BLOCK);
        let restart = SchedConfig::restart(args.bench_q(b.q()), BLOCK, BLOCK);
        let base = {
            let pool = ThreadPool::new(1);
            b.cilk(&pool).stats.wall.as_secs_f64()
        };
        for &w in &worker_grid {
            let pool = ThreadPool::new(w);
            let scalar = base / b.cilk(&pool).stats.wall.as_secs_f64();
            let x = base
                / b.blocked_par(&pool, reexp, SchedulerKind::ReExpansion, Tier::Simd)
                    .stats
                    .wall
                    .as_secs_f64();
            // The §3.4 restart scheduler the theory analyzes…
            let r = base
                / b.blocked_par(&pool, restart, SchedulerKind::RestartIdeal, Tier::Simd)
                    .stats
                    .wall
                    .as_secs_f64();
            // …and restart on the shared pool (sequential engines that
            // split on demand), in the column the paper gives its §6
            // Cilk-embeddable simplification.
            let rs = base
                / b.blocked_par(&pool, restart, SchedulerKind::RestartSimplified, Tier::Simd)
                    .stats
                    .wall
                    .as_secs_f64();
            for (variant, s) in [("scalar", scalar), ("reexp", x), ("restart", r), ("restart-simplified", rs)]
            {
                sink.row(vec![name.to_string(), variant.into(), w.to_string(), format!("{s:.2}")]);
            }
            println!("{name:>11} w={w:<2} scalar={scalar:6.2} reexp={x:6.2} restart={r:6.2} restart-simpl={rs:6.2}");
        }
        println!();
    }
    sink.finish();
    println!(
        "note: speedups beyond the physical core count rely on SMT/oversubscription; \
         the paper's 8-core/16-thread shapes flatten past 8 likewise (§7.3)"
    );
}
