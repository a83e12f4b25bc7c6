//! `tb-e2e` command line. See README.md; `run.sh` builds and calls this.
//!
//! ```text
//! tb-e2e --workload W --seed N --seconds S --trace 0|1   one run (driver contract)
//! tb-e2e [--seed N] [--seconds S] [--smoke]              every workload, both passes
//! tb-e2e compare A.json B.json                           judge B against A
//! tb-e2e aa [--seed N] [--seconds S]                     same code twice, then compare
//! tb-e2e calibrate [--runs R] [--seed N] [--seconds S]   seed sweep → calibration.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use tb_e2e::compare::{calibrate, compare, load};
use tb_e2e::run::{
    all_correct, print_result, run_one, run_sets, write_json, RunOpts, SetOpts, SMOKE_SECONDS,
};

/// The measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is the same.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    command: Option<String>,
    files: Vec<PathBuf>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out_dir: PathBuf,
    bench: PathBuf,
    calibration: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 10,
        out_dir: PathBuf::from("benchmark/out"),
        bench: PathBuf::from("BENCHMARK.json"),
        calibration: PathBuf::from("benchmark/calibration.json"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got {other:?}")),
                }
            }
            "--runs" => {
                args.runs =
                    value("a number")?.parse().ok().filter(|&r| r >= 2).ok_or("--runs needs a number ≥ 2")?
            }
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--bench" => args.bench = PathBuf::from(value("a path")?),
            "--calibration" => args.calibration = PathBuf::from(value("a path")?),
            "--smoke" => args.smoke = true,
            "compare" | "aa" | "calibrate" if args.command.is_none() => args.command = Some(arg),
            other if args.command.as_deref() == Some("compare") && !other.starts_with('-') => {
                args.files.push(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let seconds = args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let set = SetOpts { seed: args.seed, seconds, smoke: args.smoke, out_dir: args.out_dir.clone() };
    // The recorded spreads are optional: without them no pair is unresolved.
    let calibration = load(&args.calibration).ok();
    match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => {
            let report = run_one(&RunOpts {
                workload: workload.clone(),
                seed: args.seed,
                seconds,
                trace: args.trace,
                smoke: args.smoke,
                out_dir: args.out_dir,
            })?;
            println!("{}", report.to_json().compact());
            Ok(report.correct)
        }
        (None, None) => {
            let doc = run_sets(&set, 1)?.pop().expect("one set was run");
            print_result(&doc);
            let path = args.out_dir.join("result.json");
            write_json(&path, &doc)?;
            println!("\n[result written to {}]", path.display());
            Ok(all_correct(&doc))
        }
        (Some("compare"), _) => {
            let [a, b] = &args.files[..] else { return Err("compare needs two result files".into()) };
            let breaches = compare(&load(a)?, &load(b)?, &load(&args.bench)?, calibration.as_ref())?;
            breaches.iter().for_each(|b| println!("BREACH {b}"));
            Ok(breaches.is_empty())
        }
        (Some("aa"), _) => {
            let docs = run_sets(&set, 2)?;
            for (i, doc) in docs.iter().enumerate() {
                write_json(&args.out_dir.join(format!("aa_{}.json", i + 1)), doc)?;
            }
            let breaches = compare(&docs[0], &docs[1], &load(&args.bench)?, calibration.as_ref())?;
            breaches.iter().for_each(|b| println!("BREACH {b}"));
            Ok(breaches.is_empty())
        }
        (Some("calibrate"), _) => {
            let doc = calibrate(&set, args.runs, &load(&args.bench)?)?;
            write_json(&args.calibration, &doc)?;
            println!("\n[calibration written to {}]", args.calibration.display());
            Ok(true)
        }
        (Some(other), _) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tb-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
