//! `trace <bench>/<variant>/w<N> [--smoke] [--out PATH]` — run one suite
//! benchmark with `tb-obs` tracing enabled (globally *and* via
//! `SchedConfig::with_trace`), drain every per-worker ring, and write a
//! Chrome trace-event JSON file (default under `results/`) that loads
//! directly in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//! one track per worker thread, duration spans for spec-tier execution,
//! async spans for jobs crossing park/resume, instants for everything else.
//!
//! `<variant>` is `basic` (re-expansion's warm-up phase, §3.2), `restart`
//! (`ParRestartIdeal`, §3.4) or `adaptive`; `--smoke` runs the tiny input.
//! The file is self-validated with `tb_bench::trace_check` and the command
//! exits 1 if its own output fails the checker, 2 on a usage error.

use tb_bench::trace_check::check_chrome_trace;
use tb_core::prelude::*;
use tb_runtime::ThreadPool;
use tb_suite::{benchmark_by_name, Scale, Tier};

const USAGE: &str = "usage: trace <bench>/<variant>/w<N> [--smoke] [--out PATH]
  bench: a tb-suite benchmark (fib, uts, nqueens, barneshut, ...)
  variant: basic | restart | adaptive";

/// Fixed thresholds, not per-benchmark tuned ones: a trace is read for
/// the shape of the schedule, and that should not vary with the host.
const T_DFE: usize = 1 << 10;
const T_RESTART: usize = 1 << 8;

struct TraceArgs {
    bench: String,
    variant: String,
    workers: usize,
    smoke: bool,
    out: Option<String>,
}

fn parse(argv: &[String]) -> Result<TraceArgs, String> {
    let (mut cell, mut smoke, mut out) = (None, false, None);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().ok_or("--out needs a path")?.clone()),
            other if cell.is_none() => cell = Some(other),
            other => return Err(format!("unexpected extra argument {other:?}")),
        }
    }
    let cell = cell.ok_or("missing <bench>/<variant>/w<N>")?;
    let parts: Vec<&str> = cell.split('/').collect();
    let [bench, variant, w] = parts[..] else {
        return Err(format!("cell must be <bench>/<variant>/w<N>, e.g. fib/restart/w4; got {cell:?}"));
    };
    let workers = w
        .strip_prefix('w')
        .and_then(|n| n.parse().ok())
        .filter(|&n: &usize| n >= 1)
        .ok_or_else(|| format!("worker count must be w<N> with N >= 1, got {w:?}"))?;
    Ok(TraceArgs { bench: bench.to_string(), variant: variant.to_string(), workers, smoke, out })
}

fn run(args: &TraceArgs) -> Result<(), (i32, String)> {
    let scale = if args.smoke { Scale::Tiny } else { Scale::Small };
    let b = benchmark_by_name(&args.bench, scale)
        .ok_or_else(|| (2, format!("unknown benchmark {:?}\n{USAGE}", args.bench)))?;
    let (cfg, kind) = match args.variant.as_str() {
        "basic" => (SchedConfig::basic(b.q(), T_DFE), SchedulerKind::ReExpansion),
        "restart" => (SchedConfig::restart(b.q(), T_DFE, T_RESTART), SchedulerKind::RestartIdeal),
        "adaptive" => (SchedConfig::adaptive(b.q()), SchedulerKind::Adaptive),
        other => return Err((2, format!("unknown variant {other:?}\n{USAGE}"))),
    };

    tb_obs::set_enabled(true);
    let pool = ThreadPool::new(args.workers);
    let summary = b.blocked_par(&pool, cfg.with_trace(true), kind, Tier::Block);
    tb_obs::set_enabled(false);
    let snapshot = tb_obs::metrics_snapshot();
    let tracks = tb_obs::drain_all();
    let json = tb_obs::chrome_trace_json(&tracks);

    let (bench, variant, w) = (&args.bench, &args.variant, args.workers);
    let path = args.out.clone().unwrap_or_else(|| format!("results/trace_{bench}_{variant}_w{w}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| (1, format!("create {}: {e}", dir.display())))?;
    }
    std::fs::write(&path, &json).map_err(|e| (1, format!("write {path}: {e}")))?;
    println!(
        "trace | {bench}/{variant}/w{w} | wall={:.4}s tasks={} | {} events recorded, {} dropped, {} track(s)",
        summary.stats.wall.as_secs_f64(),
        summary.stats.tasks_executed,
        snapshot.events_recorded,
        snapshot.events_dropped,
        tracks.len(),
    );
    let s = check_chrome_trace(&json)
        .map_err(|e| (1, format!("exported trace FAILED its own schema check: {e}")))?;
    println!(
        "schema ok: {} events, {} tracks, {} duration pair(s), {} async pair(s), {} instant(s)",
        s.events, s.tracks, s.duration_pairs, s.async_pairs, s.instants
    );
    println!("[trace written to {path} — load it at https://ui.perfetto.dev]");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&argv).map_err(|e| (2, format!("{e}\n{USAGE}"))).and_then(|args| run(&args));
    if let Err((code, msg)) = result {
        eprintln!("{msg}");
        std::process::exit(code);
    }
}
