//! Regenerates **Figure 5** of the paper: speedup (relative to the
//! 1-worker Cilk baseline) as a function of worker count, at the small
//! block size 2^5 where the schedulers' utilization gap matters, for the
//! six benchmarks the paper plots — `scalar` (the input Cilk program),
//! `reexp`, and `restart`, both blocked variants on the pool scheduler that
//! splits on demand. Each cell also reports the run's `max_deque_tasks`,
//! the memory side of the block size.

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
        &["benchmark", "variant", "workers", "speedup_vs_1w_cilk", "max_deque_tasks"],
    );
    for name in FIG5_BENCHES {
        if !args.selected(name) {
            continue;
        }
        let b = benchmark_by_name(name, args.scale).expect("known benchmark");
        let reexp_cfg = SchedConfig::reexpansion(args.bench_q(b.q()), BLOCK);
        let restart_cfg = SchedConfig::restart(args.bench_q(b.q()), BLOCK, BLOCK);
        let base = {
            let pool = ThreadPool::new(1);
            b.cilk(&pool).stats.wall.as_secs_f64()
        };
        for &w in &worker_grid {
            let pool = ThreadPool::new(w);
            let scalar = b.cilk(&pool).stats;
            let reexp = b.blocked_par(&pool, reexp_cfg, SchedulerKind::Par, Tier::Simd).stats;
            let restart = b.blocked_par(&pool, restart_cfg, SchedulerKind::Par, Tier::Simd).stats;
            let mut line = format!("{name:>11} w={w:<2}");
            for (variant, stats) in [("scalar", scalar), ("reexp", reexp), ("restart", restart)] {
                let speedup = base / stats.wall.as_secs_f64();
                let deque = stats.max_deque_tasks;
                sink.row(vec![
                    name.to_string(),
                    variant.into(),
                    w.to_string(),
                    format!("{speedup:.2}"),
                    deque.to_string(),
                ]);
                line += &format!(" {variant}={speedup:6.2} (deque {deque:>7})");
            }
            println!("{line}");
        }
        println!();
    }
    sink.finish();
    println!(
        "note: speedups beyond the physical core count rely on SMT/oversubscription; \
         the paper's 8-core/16-thread shapes flatten past 8 likewise (§7.3)"
    );
}
