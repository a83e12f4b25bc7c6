//! `compare`, `aa` and `calibrate`: judging two result documents by the
//! bounds `BENCHMARK.json` fixes, the self-test that runs the same code
//! twice, and the seed sweep that records each pair's run-to-run spread.

use std::path::Path;

use crate::json::{self, Json};
use crate::run::{run_child, SetOpts};
use crate::sizing::WORKLOADS;
use crate::stats::{iqr_share, median, quartiles};
use crate::sys;

/// `setup_s` is small in absolute terms on some workloads; a worsening
/// below this many seconds is never a regression, whatever its share.
const SETUP_FLOOR_S: f64 = 0.05;

/// Per-layer counts that depend only on the seed: two result documents of
/// one seed must agree on them exactly.
const EXACT_LAYER_METRICS: [&str; 3] =
    ["core.sched.supersteps", "core.sched.simd_utilization", "service.wire.req_bytes_mean"];

pub fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// The recorded run-to-run spread of a (workload, metric) pair.
fn recorded_spread(calibration: Option<&Json>, workload: &str, metric: &str) -> Option<f64> {
    calibration?.get("pairs")?.get(workload)?.get(metric)?.get("spread")?.as_f64()
}

/// Compare `b` against `a` (same code or parent vs change) under
/// `bench`'s bounds. Prints one row per (workload, end-to-end metric) and
/// returns the breaches; empty means `b` is no worse than `a`.
pub fn compare(a: &Json, b: &Json, bench: &Json, calibration: Option<&Json>) -> Result<Vec<String>, String> {
    let mut breaches = Vec::new();
    for (doc, side) in [(a, "A"), (b, "B")] {
        if doc.get("oversubscribed").and_then(Json::as_bool) != Some(false) {
            breaches.push(format!("{side} was taken oversubscribed (more busy threads than cores)"));
        }
    }
    let metrics =
        bench.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json has no end_to_end list")?;
    println!(
        "{:<11} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in WORKLOADS {
        for side in [a, b] {
            let entry = side.get("workloads").and_then(|w| w.get(workload));
            if entry.and_then(|e| e.get("correct")).and_then(Json::as_bool) != Some(true) {
                breaches.push(format!("{workload}: a run is missing or incorrect"));
            }
        }
        let failed = |doc: &Json| doc.get("workloads")?.get(workload)?.get("failed")?.as_f64();
        if failed(b) > failed(a) {
            breaches.push(format!("{workload}: failed ops rose from {:?} to {:?}", failed(a), failed(b)));
        }
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("end_to_end entry without a bound")?;
            let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (
                metric_value(a, workload, "end_to_end", name),
                metric_value(b, workload, "end_to_end", name),
            ) else {
                breaches.push(format!("{workload}/{name}: missing from a result"));
                continue;
            };
            let worse_by = if lower_is_better { (vb - va) / va } else { (va - vb) / va };
            let spread = recorded_spread(calibration, workload, name);
            let verdict = if spread.is_some_and(|s| s > bound) {
                // The pair's own noise exceeds its bound: neither "same"
                // nor "worse" can be told from one run of each.
                "unresolved"
            } else if worse_by > bound && !(name == "setup_s" && vb - va < SETUP_FLOOR_S) {
                breaches.push(format!(
                    "{workload}/{name}: worse by {:.1}% (bound {:.0}%)",
                    worse_by * 100.0,
                    bound * 100.0
                ));
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<11} {name:<14} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%  {verdict}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
        if a.get("seed") == b.get("seed") {
            for name in EXACT_LAYER_METRICS {
                let (va, vb) = (
                    metric_value(a, workload, "per_layer", name),
                    metric_value(b, workload, "per_layer", name),
                );
                if va != vb {
                    breaches.push(format!("{workload}/{name}: exact count differs ({va:?} vs {vb:?})"));
                }
            }
        }
    }
    Ok(breaches)
}

/// Run every workload `runs` times untraced, each run with another seed,
/// and record per (workload, end-to-end metric) the values, their median,
/// quartiles and spread (IQR / median — what the driver computes).
pub fn calibrate(set: &SetOpts, runs: usize, bench: &Json) -> Result<Json, String> {
    let metrics =
        bench.get("end_to_end").and_then(Json::as_arr).ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut pairs = Vec::new();
    println!("{:<11} {:<14} {:>14} {:>8} {:>7}", "workload", "metric", "median", "spread", "bound");
    for workload in WORKLOADS {
        let mut reports = Vec::with_capacity(runs);
        for run in 0..runs {
            let seeded = SetOpts { seed: set.seed + run as u64, ..set.clone() };
            eprintln!("tb-e2e: calibrating {workload}, seed {} …", seeded.seed);
            let report = run_child(&seeded, workload, false)?;
            if report.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{workload}, seed {}: incorrect run", seeded.seed));
            }
            reports.push(report);
        }
        let mut per_metric = Vec::new();
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).ok_or("end_to_end entry without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let values: Vec<f64> =
                reports.iter().filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64()).collect();
            if values.len() != runs {
                return Err(format!("{workload}/{name}: missing from a run"));
            }
            let (q1, q3) = quartiles(&values);
            let spread = iqr_share(&values);
            println!(
                "{workload:<11} {name:<14} {:>14.4} {:>7.2}% {:>6.0}%",
                median(&values),
                spread * 100.0,
                bound * 100.0
            );
            per_metric.push((
                name.to_string(),
                Json::obj([
                    ("median", Json::Num(median(&values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                    ("values", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ]),
            ));
        }
        pairs.push((workload.to_string(), Json::Obj(per_metric)));
    }
    Ok(Json::obj([
        ("schema", Json::str("tb-e2e-calibration/v1")),
        ("runs", Json::Num(runs as f64)),
        ("first_seed", Json::Num(set.seed as f64)),
        ("seconds", Json::Num(set.seconds)),
        ("provenance", sys::provenance()),
        ("pairs", Json::Obj(pairs)),
    ]))
}
