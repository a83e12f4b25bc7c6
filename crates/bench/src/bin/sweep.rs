//! Ablation: empirical best-block-size search (how Table 1's "Block size"
//! column was chosen in the paper). Sweeps `t_dfe` over powers of two for
//! one or more benchmarks and reports wall time and utilization per
//! scheduler, marking each benchmark's empirically best setting.
//!
//! ```sh
//! cargo run --release -p tb-bench --bin sweep -- --only fib,uts --workers 4
//! ```

use tb_bench::{secs, HarnessArgs, TableSink};
use tb_core::prelude::SchedConfig;
use tb_runtime::ThreadPool;
use tb_suite::{all_benchmarks, SchedulerKind, Tier};

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "block-size sweep | scale={} workers={} (t_restart = t_dfe, Tier::Simd)\n",
        args.scale_name(),
        args.workers
    );
    let pool = ThreadPool::new(args.workers);
    let mut sink = TableSink::new(
        &args.out_dir,
        &format!("sweep_{}", args.scale_name()),
        &["benchmark", "log2_block", "reexp_wall", "restart_wall", "reexp_util", "restart_util"],
    );
    for b in all_benchmarks(args.scale) {
        if !args.selected(b.name()) {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for log2 in 4..=15u32 {
            let block = 1usize << log2;
            let reexp = b.blocked_par(
                &pool,
                SchedConfig::reexpansion(args.bench_q(b.q()), block),
                SchedulerKind::Par,
                Tier::Simd,
            );
            let restart = b.blocked_par(
                &pool,
                SchedConfig::restart(args.bench_q(b.q()), block, block),
                SchedulerKind::Par,
                Tier::Simd,
            );
            let best_wall = reexp.stats.wall.min(restart.stats.wall).as_secs_f64();
            if best.is_none_or(|(_, w)| best_wall < w) {
                best = Some((log2, best_wall));
            }
            sink.row(vec![
                b.name().to_string(),
                log2.to_string(),
                secs(reexp.stats.wall),
                secs(restart.stats.wall),
                format!("{:.1}", reexp.stats.simd_utilization() * 100.0),
                format!("{:.1}", restart.stats.simd_utilization() * 100.0),
            ]);
        }
        let (log2, wall) = best.expect("swept at least one size");
        println!("{:>12}: best block 2^{log2} ({wall:.4}s); paper's Table 1 best: 2^{}", b.name(), {
            let (blk, _) = tb_bench::paper_block_sizes(b.name());
            blk.trailing_zeros()
        });
    }
    sink.finish();
}
