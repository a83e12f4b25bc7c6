//! The metric catalogue (names, units, directions — `BENCHMARK.json` lists
//! the same; `tests/harness.rs` checks they agree) and the reduction of a
//! measured window to the end-to-end numbers.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::stats::{median, percentile_sorted, sort};

/// A metric's name, unit and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// What a user of the system sees. Every workload reports all of them,
/// client-side, tracing off.
pub const END_TO_END: [MetricDef; 7] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("tasks_per_s", "1/s", "higher"),
    ("lat_p50_us", "us", "lower"),
    ("lat_p99_us", "us", "lower"),
    ("cpu_us_per_op", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Single-layer metrics, `<crate>.<module>.<metric>`, from the traced run.
/// README.md says how each is measured and which end-to-end metric on
/// which workload it should move.
pub const PER_LAYER: [MetricDef; 64] = [
    ("service.wire.self_us_per_op", "us", "lower"),
    ("service.wire.parse_ns_per_req", "ns", "lower"),
    ("service.wire.conn_setup_us", "us", "lower"),
    ("service.wire.req_bytes_mean", "B", "lower"),
    ("service.shard.self_us_per_op", "us", "lower"),
    ("service.shard.core_ns_per_op", "ns", "lower"),
    ("service.shard.placed", "count", "higher"),
    ("service.shard.shed", "count", "lower"),
    ("service.shard.rejected", "count", "lower"),
    ("service.shard.shed_ratio", "ratio", "lower"),
    ("service.shard.reports", "count", "lower"),
    ("service.shard.stale_reports", "count", "lower"),
    ("service.shard.balance", "ratio", "lower"),
    ("service.sched.core_ns_per_op", "ns", "lower"),
    ("service.sched.admit_p50_us", "us", "lower"),
    ("service.sched.admit_p99_us", "us", "lower"),
    ("service.sched.backpressure_waits", "count", "lower"),
    ("service.sched.inter_lat_p99_us", "us", "lower"),
    ("service.sched.batch_lat_p99_us", "us", "lower"),
    ("service.runtime.self_us_per_op", "us", "lower"),
    ("service.runtime.spec_cache_hit_ratio", "ratio", "higher"),
    ("service.runtime.spec_compiles", "count", "lower"),
    ("service.runtime.gate_slots_held_end", "count", "lower"),
    ("runtime.pool.self_us_per_op", "us", "lower"),
    ("runtime.pool.spawn_rtt_us", "us", "lower"),
    ("runtime.pool.install_rtt_us", "us", "lower"),
    ("runtime.pool.join_ns", "ns", "lower"),
    ("runtime.pool.steal_attempts", "count", "lower"),
    ("runtime.pool.steals", "count", "higher"),
    ("runtime.pool.steal_hit_ratio", "ratio", "higher"),
    ("runtime.pool.idle_cpu_share", "ratio", "lower"),
    ("runtime.injector.push_steal_ns", "ns", "lower"),
    ("runtime.injector.full_waits", "count", "lower"),
    ("runtime.injector.segments_allocated", "count", "lower"),
    ("runtime.injector.segments_recycled", "count", "higher"),
    ("runtime.deque.push_pop_ns", "ns", "lower"),
    ("runtime.deque.steal_ns", "ns", "lower"),
    ("core.sched.seq_ns_per_task", "ns", "lower"),
    ("core.sched.par_ns_per_task", "ns", "lower"),
    ("core.sched.par_gain", "ratio", "higher"),
    ("core.sched.adaptive_over_restart", "ratio", "higher"),
    ("core.sched.simd_utilization", "ratio", "higher"),
    ("core.sched.lane_occupancy", "ratio", "higher"),
    ("core.sched.supersteps", "count", "lower"),
    ("core.sched.restart_actions", "count", "lower"),
    ("core.sched.merges", "count", "lower"),
    ("core.sched.max_deque_tasks", "count", "lower"),
    ("core.deque.leveled_push_pop_ns", "ns", "lower"),
    ("core.deque.leveled_steal_half_ns", "ns", "lower"),
    ("spec.parse_us_per_src", "us", "lower"),
    ("spec.compile_us_per_src", "us", "lower"),
    ("spec.exec_us_per_op", "us", "lower"),
    ("spec.exec_ns_per_task_scalar", "ns", "lower"),
    ("spec.exec_ns_per_task_simd", "ns", "lower"),
    ("spec.simd_gain", "ratio", "higher"),
    ("spec.lane_width", "count", "higher"),
    ("simd.compact_ns_per_elem", "ns", "lower"),
    ("simd.detected_q", "count", "higher"),
    ("suite.serial_ns_per_task", "ns", "lower"),
    ("suite.cilk_ns_per_task", "ns", "lower"),
    ("suite.speedup_vs_serial", "ratio", "higher"),
    ("client.gen_lag_p99_us", "us", "lower"),
    ("client.poll_interval_us", "us", "lower"),
    ("client.trace_overhead_ratio", "ratio", "higher"),
];

/// Per-layer values of one traced run. Every catalogue entry is present; a
/// layer the workload bypasses reads 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Record `value` under a catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("{name} is not in the per-layer catalogue"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// One verified-correct op of a measured window (kept small: a window
/// holds up to half a million of them, and they count towards peak RSS).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    /// Closed loop: client write → client read. Open loop: due instant →
    /// observed completion. Saturates at ≈ 4.29 s.
    pub lat_ns: u32,
    /// The op's exact recursion-task count (from the oracle).
    pub tasks: u32,
    /// Workload-defined class (`svc_burst`: 0 = batch, 1 = inter).
    pub class: u8,
}

impl Sample {
    pub fn new(since_open: Duration, latency: Duration, tasks: u64, class: u8) -> Self {
        Sample {
            end_ns: since_open.as_nanos() as u64,
            lat_ns: u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX),
            tasks: u32::try_from(tasks).unwrap_or(u32::MAX),
            class,
        }
    }
}

/// What one measured window produced, before reduction.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Wrong value, unexpected `ERR`, shed or rejected, io error, timeout.
    pub failed: u64,
    pub wall_s: f64,
    /// Process CPU (all threads, the load generator included) over the
    /// window.
    pub cpu_s: f64,
}

/// Equal time slices a window's latency samples are cut into. A
/// percentile is taken per slice and the median slice reported, so a
/// transient stall on a shared host lifts one slice, not the number.
const SLICES: usize = 5;

impl Window {
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Latency percentile in µs: the median over [`SLICES`] time slices of
    /// the slice's nearest-rank percentile. Falls back to the whole window
    /// when a slice would hold too few samples to have ten beyond `p`.
    pub fn latency_us(&self, p: f64, class: Option<u8>) -> f64 {
        let picked = || self.samples.iter().filter(move |s| class.is_none_or(|c| s.class == c));
        let total = picked().count();
        if total == 0 {
            return 0.0;
        }
        let needed = (10.0 / (1.0 - p / 100.0).max(1e-9)) as usize;
        let slices = if total / SLICES >= needed { SLICES } else { 1 };
        let span = self.samples.iter().map(|s| s.end_ns).max().unwrap_or(0) + 1;
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
        for s in picked() {
            buckets[(s.end_ns as u128 * slices as u128 / span as u128) as usize].push(s.lat_ns as f64 / 1e3);
        }
        let per_slice: Vec<f64> = buckets
            .iter_mut()
            .filter(|b| !b.is_empty())
            .map(|b| {
                sort(b);
                percentile_sorted(b, p)
            })
            .collect();
        median(&per_slice)
    }

    /// The window's end-to-end metrics (everything but `setup_s` and
    /// `peak_rss_mb`, which belong to the process).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops() as f64;
        let tasks: u64 = self.samples.iter().map(|s| u64::from(s.tasks)).sum();
        vec![
            ("ops_per_s", ops / self.wall_s),
            ("tasks_per_s", tasks as f64 / self.wall_s),
            ("lat_p50_us", self.latency_us(50.0, None)),
            ("lat_p99_us", self.latency_us(99.0, None)),
            ("cpu_us_per_op", self.cpu_s * 1e6 / ops.max(1.0)),
        ]
    }
}
