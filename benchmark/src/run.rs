//! One workload, one process: the run the driver's contract describes
//! (`--workload W --seed N --seconds S --trace 0|1`), and the full set that
//! starts one such child per workload and pass.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use crate::json::{self, Json};
use crate::metrics::{Layers, END_TO_END, PER_LAYER};
use crate::sizing::{frozen_json, Sizing, LADDER_OPS, LADDER_OPS_SLOW, SETUP_REPLICAS, WORKLOADS};
use crate::stats::median;
use crate::trace::{check_nesting, Tracer};
use crate::workloads::{idle_cpu_share, set_up};
use crate::{micro, sys};

/// Share of a traced run's `--seconds` spent in the untraced window that
/// the counter deltas are taken across; the rest is for the ladder.
const TRACED_WINDOW_SHARE: f64 = 0.4;

/// Window length and ladder prefix of `--smoke`: plumbing only, no number
/// from it means anything.
pub const SMOKE_SECONDS: f64 = 1.0;
const SMOKE_LADDER_OPS: usize = 50;
const SMOKE_IDLE_SECONDS: f64 = 0.2;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where trace files and result documents go.
    pub out_dir: PathBuf,
}

/// What one run reports: the contract's last line of standard output.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value, unit)| {
            (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Run one workload in this process.
pub fn run_one(opts: &RunOpts) -> Result<RunReport, String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?} (expected one of {WORKLOADS:?})", opts.workload));
    }
    let sizing = Sizing::derive(sys::nproc());
    if sizing.oversubscribed() {
        eprintln!(
            "tb-e2e: warning: {} busy threads on {} core(s) — this host is oversubscribed; timings are not comparable",
            sizing.busy_threads(&opts.workload),
            sizing.nproc
        );
    }
    if opts.trace {
        run_traced(opts, sizing)
    } else {
        run_untraced(opts, sizing)
    }
}

/// The end-to-end run: set up `SETUP_REPLICAS` times (reporting the
/// median), then one untraced measured window on the last set-up.
fn run_untraced(opts: &RunOpts, sizing: Sizing) -> Result<RunReport, String> {
    let replicas = if opts.smoke { 1 } else { SETUP_REPLICAS };
    let mut setups = Vec::with_capacity(replicas);
    let mut workload = None;
    for _ in 0..replicas {
        drop(workload.take()); // shut the previous replica down first
        let began = Instant::now();
        workload = Some(set_up(&opts.workload, opts.seed, sizing)?);
        setups.push(began.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up replica");
    let window = workload.window(opts.seconds)?;
    drop(workload);

    let mut values: Vec<(&'static str, f64)> = vec![("setup_s", median(&setups))];
    values.extend(window.end_to_end());
    values.push(("peak_rss_mb", sys::peak_rss_mib()));
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            (name, value.unwrap_or_else(|| panic!("end-to-end metric {name} was not measured")), unit)
        })
        .collect();
    Ok(RunReport {
        correct: window.failed == 0 && window.ops() > 0,
        attempted: window.attempted.max(1),
        failed: window.failed,
        metrics,
    })
}

/// The traced run: a shorter untraced window (for counter deltas), then the
/// ladder twice over successive stretches of the stream — spans off, then
/// on, whose ratio is the tracing overhead — and the layer microbenches.
fn run_traced(opts: &RunOpts, sizing: Sizing) -> Result<RunReport, String> {
    let mut workload = set_up(&opts.workload, opts.seed, sizing)?;
    let window = workload.window(opts.seconds * TRACED_WINDOW_SHARE)?;
    let mut layers = Layers::default();
    workload.counters(&mut layers)?;
    layers.set(
        "runtime.pool.idle_cpu_share",
        idle_cpu_share(if opts.smoke { SMOKE_IDLE_SECONDS } else { 1.0 }),
    );

    let ladder_ops = match opts.workload.as_str() {
        _ if opts.smoke => SMOKE_LADDER_OPS,
        "lib_batch" | "wire_heavy" => LADDER_OPS_SLOW,
        _ => LADDER_OPS,
    };
    let mut tracer = Tracer::new(false);
    let spans_off = workload.ladder(&mut tracer, ladder_ops, &mut Layers::default())?;
    tracer.set_recording(true);
    let spans_on = workload.ladder(&mut tracer, ladder_ops, &mut layers)?;
    // Same op count both times, so ops/s traced over ops/s untraced is the
    // inverse ratio of the times.
    layers.set("client.trace_overhead_ratio", spans_off / spans_on);
    let ladder = workload.ladder_tally();
    drop(workload);

    micro::run(&mut tracer, sizing.threads_per_shard, &mut layers);
    check_nesting(tracer.spans())?;
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let trace_path = opts.out_dir.join(format!("trace_{}.json", opts.workload));
    std::fs::write(&trace_path, tracer.chrome_json(&opts.workload).compact())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let failed = window.failed + ladder.failed;
    Ok(RunReport {
        correct: failed == 0 && window.ops() > 0,
        attempted: (window.attempted + ladder.attempted).max(1),
        failed,
        metrics: PER_LAYER.iter().map(|&(name, unit, _)| (name, layers.get(name), unit)).collect(),
    })
}

/// Options of the full set.
#[derive(Debug, Clone)]
pub struct SetOpts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// Start `tb-e2e --workload … --trace …` as a child process (so CPU, peak
/// RSS and stray threads are per workload), echo its standard error, and
/// parse the report off its last line of standard output.
pub fn run_child(set: &SetOpts, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &set.seed.to_string()])
        .args(["--seconds", &set.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&set.out_dir);
    if set.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("starting the {workload} run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("the {workload} run (trace {}) failed: {}", u8::from(trace), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("the {workload} run printed nothing"))?;
    json::parse(last).map_err(|e| format!("the {workload} run's report does not parse: {e}"))
}

/// One workload's entry of a result document, from its two child reports.
fn workload_entry(set: &SetOpts, workload: &str) -> Result<Json, String> {
    let e2e = run_child(set, workload, false)?;
    let traced = run_child(set, workload, true)?;
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let correct = [&e2e, &traced].iter().all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(num(&e2e, "attempted") + num(&traced, "attempted"))),
        ("failed", Json::Num(num(&e2e, "failed") + num(&traced, "failed"))),
        ("end_to_end", e2e.get("metrics").cloned().unwrap_or(Json::Null)),
        ("per_layer", traced.get("metrics").cloned().unwrap_or(Json::Null)),
        ("trace_file", Json::str(set.out_dir.join(format!("trace_{workload}.json")).display().to_string())),
    ]))
}

/// Header of a result document: where, on what and with which frozen
/// sizes the numbers were taken.
fn result_header(set: &SetOpts) -> Vec<(String, Json)> {
    let sizing = Sizing::derive(sys::nproc());
    vec![
        ("schema".into(), Json::str("tb-e2e/v1")),
        ("seed".into(), Json::Num(set.seed as f64)),
        ("seconds".into(), Json::Num(set.seconds)),
        ("smoke".into(), Json::Bool(set.smoke)),
        ("oversubscribed".into(), Json::Bool(sizing.oversubscribed())),
        ("provenance".into(), sys::provenance()),
        ("sizing".into(), sizing.to_json()),
        ("frozen".into(), frozen_json()),
    ]
}

/// Run the full set `sets` times, interleaving the sets workload by
/// workload (A₁B₁A₂B₂…) so host drift lands on all sets alike. Returns one
/// result document per set.
pub fn run_sets(set: &SetOpts, sets: usize) -> Result<Vec<Json>, String> {
    let mut entries: Vec<Vec<(String, Json)>> = vec![Vec::new(); sets];
    for workload in WORKLOADS {
        for per_set in entries.iter_mut() {
            eprintln!("tb-e2e: {workload} …");
            per_set.push((workload.to_string(), workload_entry(set, workload)?));
        }
    }
    Ok(entries
        .into_iter()
        .map(|workloads| {
            let mut doc = result_header(set);
            doc.push(("workloads".into(), Json::Obj(workloads)));
            Json::Obj(doc)
        })
        .collect())
}

/// Print every metric of a result document by name, with its unit.
pub fn print_result(doc: &Json) {
    let Some(workloads) = doc.get("workloads").and_then(Json::as_obj) else { return };
    for (name, entry) in workloads {
        let status =
            if entry.get("correct").and_then(Json::as_bool) == Some(true) { "correct" } else { "INCORRECT" };
        let count = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!("\n== {name}: {status}, {} attempted, {} failed", count("attempted"), count("failed"));
        for section in ["end_to_end", "per_layer"] {
            let Some(metrics) = entry.get(section).and_then(Json::as_obj) else { continue };
            println!("  -- {section}");
            for (metric, value) in metrics {
                let v = value.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = value.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("  {metric:<40} {v:>16.4} {unit}");
            }
        }
    }
}

/// Write `doc` to `path`, creating its directory.
pub fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Is every workload of `doc` correct?
pub fn all_correct(doc: &Json) -> bool {
    doc.get("workloads").and_then(Json::as_obj).is_some_and(|w| {
        !w.is_empty() && w.iter().all(|(_, e)| e.get("correct").and_then(Json::as_bool) == Some(true))
    })
}
