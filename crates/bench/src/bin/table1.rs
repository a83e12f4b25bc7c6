//! Regenerates **Table 1** of the paper: benchmark characteristics and
//! end-to-end performance of every variant at the per-benchmark best block
//! sizes.
//!
//! Columns mirror the paper: `Ts` (sequential), `T1`/`TP` (input Cilk
//! program on 1/P workers), `T1x`/`T1r` (single-worker SIMD re-expansion /
//! restart), `TPx`/`TPr` (P-worker re-expansion / restart), plus the
//! speedup ratios the paper reports. Run with `--scale paper` for the
//! paper's exact inputs.

use tb_bench::{geomean, paper_block_sizes, ratio, secs, HarnessArgs, TableSink};
use tb_core::prelude::SchedConfig;
use tb_runtime::ThreadPool;
use tb_suite::{all_benchmarks, SchedulerKind, Tier};

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Table 1 reproduction | scale={} workers={} physical_cores={}\n",
        args.scale_name(),
        args.workers,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let mut sink = TableSink::new(
        &args.out_dir,
        &format!("table1_{}", args.scale_name()),
        &[
            "benchmark",
            "levels",
            "tasks",
            "block",
            "rb",
            "Ts",
            "T1",
            "TP",
            "T1x",
            "T1r",
            "TPx",
            "TPr",
            "Ts/T1",
            "Ts/T1x",
            "Ts/T1r",
            "Ts/TP",
            "Ts/TPx",
            "Ts/TPr",
        ],
    );
    let pool1 = ThreadPool::new(1);
    let poolp = ThreadPool::new(args.workers);
    let (mut g1x, mut g1r, mut gpx, mut gpr, mut g1, mut gp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());

    for b in all_benchmarks(args.scale) {
        if !args.selected(b.name()) {
            continue;
        }
        let (block, rb) = paper_block_sizes(b.name());
        let reexp = SchedConfig::reexpansion(args.bench_q(b.q()), block);
        let restart = SchedConfig::restart(args.bench_q(b.q()), block, rb);

        let ts = b.serial();
        let t1 = b.cilk(&pool1);
        let tp = b.cilk(&poolp);
        let t1x = b.blocked_seq(reexp, Tier::Simd);
        let t1r = b.blocked_seq(restart, Tier::Simd);
        let tpx = b.blocked_par(&poolp, reexp, SchedulerKind::Par, Tier::Simd);
        let tpr = b.blocked_par(&poolp, restart, SchedulerKind::Par, Tier::Simd);

        for (name, run) in
            [("T1", &t1), ("TP", &tp), ("T1x", &t1x), ("T1r", &t1r), ("TPx", &tpx), ("TPr", &tpr)]
        {
            assert!(
                run.outcome.matches(&ts.outcome, b.tolerance().max(1e-9)),
                "{}: {name} disagrees with serial ({:?} vs {:?})",
                b.name(),
                run.outcome,
                ts.outcome
            );
        }

        let tsw = ts.stats.wall.as_secs_f64();
        g1.push(tsw / t1.stats.wall.as_secs_f64());
        gp.push(tsw / tp.stats.wall.as_secs_f64());
        g1x.push(tsw / t1x.stats.wall.as_secs_f64());
        g1r.push(tsw / t1r.stats.wall.as_secs_f64());
        gpx.push(tsw / tpx.stats.wall.as_secs_f64());
        gpr.push(tsw / tpr.stats.wall.as_secs_f64());

        sink.row(vec![
            b.name().to_string(),
            (t1x.stats.max_level + 1).to_string(),
            t1x.stats.tasks_executed.to_string(),
            format!("2^{}", block.trailing_zeros()),
            rb.to_string(),
            secs(ts.stats.wall),
            secs(t1.stats.wall),
            secs(tp.stats.wall),
            secs(t1x.stats.wall),
            secs(t1r.stats.wall),
            secs(tpx.stats.wall),
            secs(tpr.stats.wall),
            ratio(tsw, t1.stats.wall.as_secs_f64()),
            ratio(tsw, t1x.stats.wall.as_secs_f64()),
            ratio(tsw, t1r.stats.wall.as_secs_f64()),
            ratio(tsw, tp.stats.wall.as_secs_f64()),
            ratio(tsw, tpx.stats.wall.as_secs_f64()),
            ratio(tsw, tpr.stats.wall.as_secs_f64()),
        ]);
        eprintln!("[table1] {} done", b.name());
    }
    sink.row(vec![
        "geo.mean".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{:.2}", geomean(&g1)),
        format!("{:.2}", geomean(&g1x)),
        format!("{:.2}", geomean(&g1r)),
        format!("{:.2}", geomean(&gp)),
        format!("{:.2}", geomean(&gpx)),
        format!("{:.2}", geomean(&gpr)),
    ]);
    sink.finish();
    println!(
        "\npaper (8-core E5-2670, 16 workers, paper scale): geomean Ts/T1x=1.89 Ts/T1r=1.87 \
         Ts/T16=4.2 Ts/T16x=26.7 Ts/T16r=26.0"
    );
}
