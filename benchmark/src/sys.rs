//! Host facts and process accounting read from `/proc` (Linux only, like
//! the rest of the repo's harnesses).

use std::process::Command;

use crate::json::Json;

/// Clock ticks per second for `/proc/self/stat` times. Linux has fixed
/// `USER_HZ` at 100 on every architecture this repo builds on.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads, exited ones included) in
/// seconds.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU time of the calling thread alone, in seconds.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

fn stat_cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name, which may itself hold
    // spaces: utime and stime are the 14th and 15th fields overall.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// CPUs this process may run on — what `nproc` prints: the size of the
/// affinity mask in `/proc/self/status`, falling back to
/// `available_parallelism`.
pub fn nproc() -> usize {
    let listed = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:").map(str::trim).map(count_cpu_list))
        .unwrap_or(0);
    if listed > 0 {
        listed
    } else {
        available_parallelism()
    }
}

/// Count CPUs in a kernel list such as `0-3,8,10-11`.
fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(hi.trim().parse::<usize>().ok()?.checked_sub(lo.trim().parse::<usize>().ok()?)? + 1)
        })
        .sum()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// First line of `cmd args…`, or `"unknown"` when the tool is missing or
/// fails (the driver's checkout is not a git repository).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken, for `result.json`.
pub fn provenance() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("available_parallelism", Json::Num(available_parallelism() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("detected_lane_width", Json::Num(tb_spec::detected_lane_width() as f64)),
        ("detected_q_i64", Json::Num(tb_simd::detected_q::<i64>() as f64)),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("git_commit", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
    ])
}
