//! The five workloads. Each is set up from a seed (inputs, oracle, the
//! system under test, a fixed-count warm-up), then asked for an untraced
//! measured window and — in a traced run — for its layer numbers.

use tb_service::ShardSnapshot;

use crate::ladder::Tally;
use crate::metrics::{Layers, Window};
use crate::sizing::Sizing;
use crate::stats::ratio;
use crate::trace::Tracer;

pub mod lib_batch;
pub mod svc_burst;
pub mod wire;

/// A set-up workload. Dropping it shuts the system under test down and
/// joins every thread it started.
pub trait Workload {
    /// Run the untraced measured window for about `seconds`, verify every
    /// result, and check the layer counters' conservation laws across it.
    fn window(&mut self, seconds: f64) -> Result<Window, String>;

    /// Layer metrics that need no ladder: the exported counters' deltas
    /// across the last window, connection set-up.
    fn counters(&mut self, layers: &mut Layers) -> Result<(), String>;

    /// The traced pass: replay the next `ladder_ops` ops of the same stream
    /// at each rung, one span per call, and fill in the layer timings.
    /// Successive calls continue through the stream. Returns the seconds
    /// the rung passes took.
    fn ladder(&mut self, tracer: &mut Tracer, ladder_ops: usize, layers: &mut Layers) -> Result<f64, String>;

    /// Rung calls the ladder has verified so far and how many of them
    /// returned a wrong result.
    fn ladder_tally(&self) -> Tally;
}

/// Generate `name`'s inputs from `seed`, build its oracle and system under
/// test, and warm it up. The time this takes is `setup_s`.
pub fn set_up(name: &str, seed: u64, sizing: Sizing) -> Result<Box<dyn Workload>, String> {
    match name {
        "lib_batch" => Ok(Box::new(lib_batch::LibBatch::set_up(seed, sizing)?)),
        "wire_small" | "wire_heavy" | "wire_churn" => Ok(Box::new(wire::Wire::set_up(name, seed, sizing)?)),
        "svc_burst" => Ok(Box::new(svc_burst::SvcBurst::set_up(seed, sizing)?)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// What the service layers' exported counters did across a window.
#[derive(Debug, Clone, Default)]
pub struct ServiceDelta {
    pub submitted: u64,
    pub placed: u64,
    pub shed: u64,
    pub rejected: u64,
    pub reports: u64,
    pub stale_reports: u64,
    /// Value completions per shard.
    pub completed: Vec<u64>,
    /// Spec submissions the shard runtimes rejected (parse/validate).
    pub spec_rejected: u64,
    pub spec_compiles: u64,
    pub spec_cache_hits: u64,
    pub backpressure_waits: u64,
    /// Lifetime totals over all shards at the window's end.
    pub injector_full_waits: u64,
    pub injector_segments_allocated: u64,
    pub injector_segments_recycled: u64,
    pub gate_slots_held_end: usize,
    /// Sample-weighted mean of the tenants' median admission latency, and
    /// the worst tenant's p99 (lifetime histograms, read at the end).
    pub admit_p50_us: f64,
    pub admit_p99_us: f64,
}

impl ServiceDelta {
    pub fn between(before: &ShardSnapshot, after: &ShardSnapshot) -> Self {
        let (b, a) = (&before.placement, &after.placement);
        let sum =
            |s: &ShardSnapshot, f: fn(&tb_service::ServiceStats) -> u64| s.shards.iter().map(f).sum::<u64>();
        let diff = |f: fn(&tb_service::ServiceStats) -> u64| sum(after, f) - sum(before, f);
        let tenants = || after.shards.iter().flat_map(|s| s.tenants.iter()).filter(|t| t.admit_samples > 0);
        let samples: u64 = tenants().map(|t| t.admit_samples).sum();
        ServiceDelta {
            submitted: a.submitted - b.submitted,
            placed: a.placed - b.placed,
            shed: a.shed - b.shed,
            rejected: a.rejected - b.rejected,
            reports: a.reports - b.reports,
            stale_reports: a.stale_reports - b.stale_reports,
            completed: after
                .shards
                .iter()
                .zip(&before.shards)
                .map(|(x, y)| x.completed - y.completed)
                .collect(),
            spec_rejected: diff(|s| s.rejected),
            spec_compiles: diff(|s| s.spec_compiles),
            spec_cache_hits: diff(|s| s.spec_cache_hits),
            backpressure_waits: diff(|s| s.backpressure_waits),
            injector_full_waits: sum(after, |s| s.injector.full_waits),
            injector_segments_allocated: sum(after, |s| s.injector.segments_allocated),
            injector_segments_recycled: sum(after, |s| s.injector.segments_recycled),
            gate_slots_held_end: after.gate_slots_held(),
            admit_p50_us: ratio(
                tenants().map(|t| (t.admit_p50_us * t.admit_samples) as f64).sum(),
                samples as f64,
            ),
            admit_p99_us: tenants().map(|t| t.admit_p99_us).max().unwrap_or(0) as f64,
        }
    }

    /// The conservation laws of the service layers over a window in which
    /// `values` ops returned a value and `spec_errors` ops drew the
    /// runtime's caret diagnostic. The books are read at quiescence (every
    /// client has its reply), where the counters are exact.
    pub fn check(&self, values: u64, spec_errors: u64) -> Result<(), String> {
        let completed: u64 = self.completed.iter().sum();
        let laws = [
            (
                self.submitted == self.placed + self.shed + self.rejected,
                "placement.submitted == placed + shed + rejected",
            ),
            (self.submitted == values + spec_errors, "placement.submitted == ops that reached the runtime"),
            (completed == values, "shard completions == ops that returned a value"),
            (self.spec_rejected == spec_errors, "runtime rejections == ops that drew a spec diagnostic"),
            (self.gate_slots_held_end == 0, "gate_slots_held() == 0 after the window"),
            (self.injector_full_waits == 0, "injector.full_waits == 0"),
        ];
        match laws.iter().find(|(holds, _)| !holds) {
            None => Ok(()),
            Some((_, law)) => Err(format!("conservation breach: {law} does not hold ({self:?})")),
        }
    }

    /// Counter-derived layer metrics.
    pub fn fill(&self, layers: &mut Layers) {
        let completed: u64 = self.completed.iter().sum();
        let busiest = self.completed.iter().copied().max().unwrap_or(0);
        layers.set("service.shard.placed", self.placed as f64);
        layers.set("service.shard.shed", self.shed as f64);
        layers.set("service.shard.rejected", self.rejected as f64);
        layers.set("service.shard.shed_ratio", ratio(self.shed as f64, self.submitted as f64));
        layers.set("service.shard.reports", self.reports as f64);
        layers.set("service.shard.stale_reports", self.stale_reports as f64);
        layers.set(
            "service.shard.balance",
            ratio(busiest as f64 * self.completed.len() as f64, completed as f64),
        );
        layers.set("service.sched.admit_p50_us", self.admit_p50_us);
        layers.set("service.sched.admit_p99_us", self.admit_p99_us);
        layers.set("service.sched.backpressure_waits", self.backpressure_waits as f64);
        layers.set(
            "service.runtime.spec_cache_hit_ratio",
            ratio(self.spec_cache_hits as f64, (self.spec_cache_hits + self.spec_compiles) as f64),
        );
        layers.set("service.runtime.spec_compiles", self.spec_compiles as f64);
        layers.set("service.runtime.gate_slots_held_end", self.gate_slots_held_end as f64);
        layers.set("runtime.injector.full_waits", self.injector_full_waits as f64);
        layers.set("runtime.injector.segments_allocated", self.injector_segments_allocated as f64);
        layers.set("runtime.injector.segments_recycled", self.injector_segments_recycled as f64);
    }
}

/// Process CPU share of `seconds` spent idle, taken while a workload's
/// system is up and no op is in flight: what parked workers, the accept
/// loop and idle connections cost.
pub fn idle_cpu_share(seconds: f64) -> f64 {
    let (cpu0, t0) = (crate::sys::process_cpu_s(), std::time::Instant::now());
    std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
    (crate::sys::process_cpu_s() - cpu0) / t0.elapsed().as_secs_f64()
}
