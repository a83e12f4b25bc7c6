//! `svc_burst`: open loop — the only workload in which queues actually
//! form. One generator thread submits in-process on a fixed schedule (two
//! closed-loop connections can never build a queue): every
//! `BURST_PERIOD_US` a burst of `BURST_JOBS` `fib(16)`-class jobs, ¾ from
//! tenant `batch` (priority 0, weight 1) and ¼ from `inter` (priority 1,
//! weight 4). Latency runs from the burst's *due* instant to the observed
//! completion, so a late generator or a slow drain both count.
//!
//! The generator never sleeps: it sweeps for completions and spins up to
//! the next due instant. A generator that slept between sweeps was placed,
//! run to run, on the busier worker's CPU or on the other one, and median
//! latency came out at 1.7, 2.0 or 4.5 ms accordingly (the submitter and
//! the completing worker contend on the admission and placement mutexes
//! only when they truly run in parallel). Spinning pins it to a CPU of its
//! own, which is also where it would be on any larger host. Its own CPU
//! time is spin, not work, and is left out of `cpu_us_per_op`.
//!
//! It submits through `ShardedRuntime::submit_spec_tier_as`, the blocking
//! path, with tenant gates several bursts deep so the generator never
//! blocks. The shedding path the wire server uses cannot queue: the
//! placement core caps a shard's outstanding jobs at `max_inflight`, which
//! is also the admission scheduler's `max_running`, so on that path a job
//! is either running or refused and the admission queue stays empty. The
//! blocking path books past that cap and the jobs wait in `SchedCore`,
//! which is the queue this workload exists to load.

use std::time::{Duration, Instant};

use tb_service::{JobHandle, ShardConfig, ShardedRuntime, TenantId, TenantSpec};
use tb_spec::SpecTier;

use super::{ServiceDelta, Workload};
use crate::gen::{burst_schedule, canonical_source, Args, BurstJob, Source, Template};
use crate::ladder::{service_ladder, LadderEnv, LadderOp, Tally};
use crate::metrics::{Layers, Sample, Window};
use crate::oracle::{Expect, JobFacts, SpecOracle};
use crate::sizing::*;
use crate::stats::{percentile_sorted, sort};
use crate::sys::{process_cpu_s, thread_cpu_s};
use crate::trace::Tracer;

/// Spin-loop hints between two completion sweeps; the achieved interval is
/// reported as `client.poll_interval_us`.
const SPINS_PER_SWEEP: usize = 64;

/// Give up on jobs still outstanding this long after the last burst.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// `Sample::class` values.
const BATCH: u8 = 0;
const INTER: u8 = 1;

struct Outstanding {
    handle: JobHandle<i64>,
    due: Instant,
    facts: JobFacts,
    class: u8,
}

/// How the generator itself did over a window.
#[derive(Default)]
struct GeneratorStats {
    /// How late each burst started, µs.
    lag_us: Vec<f64>,
    sweeps: u64,
    /// Time spent in sweep-then-spin iterations.
    polling: Duration,
    /// The generator thread's own CPU time.
    cpu_s: f64,
}

pub struct SvcBurst {
    sizing: Sizing,
    rt: ShardedRuntime,
    source: String,
    schedule: Vec<Vec<BurstJob>>,
    /// Oracle facts for `fib(n)`, indexed by `n - BURST_FIB_ARGS.start()`.
    facts: Vec<JobFacts>,
    batch: TenantId,
    inter: TenantId,
    next_burst: usize,
    last_delta: ServiceDelta,
    last_generator: GeneratorStats,
    last_tenant_p99: [f64; 2],
    ladder_next: usize,
    tally: Tally,
}

impl SvcBurst {
    pub fn set_up(seed: u64, sizing: Sizing) -> Result<Self, String> {
        let schedule = burst_schedule(seed);
        let source = Source { text: canonical_source(Template::Fib), template: Template::Fib };
        let args = BURST_FIB_ARGS.map(Args::one);
        let oracle = SpecOracle::build(std::slice::from_ref(&source), args.clone().map(|a| (0, a)))?;
        let facts = args.map(|a| oracle.facts(0, a)).collect();

        let rt = ShardedRuntime::with_config(ShardConfig::uniform(sizing.shards, sizing.threads_per_shard));
        // Fixed registration order fixes the ids and so the home shards:
        // on two shards `batch` (id 1) and `inter` (id 2) land apart.
        let batch = rt.register_tenant(TenantSpec::new("batch", BURST_BATCH_PENDING).weight(1).priority(0));
        let inter = rt.register_tenant(TenantSpec::new("inter", BURST_INTER_PENDING).weight(4).priority(1));
        let mut burst = SvcBurst {
            sizing,
            rt,
            source: source.text,
            schedule,
            facts,
            batch,
            inter,
            next_burst: 0,
            last_delta: ServiceDelta::default(),
            last_generator: GeneratorStats::default(),
            last_tenant_p99: [0.0; 2],
            ladder_next: 0,
            tally: Tally::default(),
        };
        let (warm, _) = burst.drive(BURST_WARMUP_BURSTS);
        if warm.failed > 0 {
            return Err(format!("{} of {} warm-up jobs failed", warm.failed, warm.attempted));
        }
        Ok(burst)
    }

    fn facts_for(&self, n: i64) -> JobFacts {
        self.facts[(n - BURST_FIB_ARGS.start()) as usize]
    }

    /// Run `bursts` bursts on schedule, sweeping for completions between
    /// them, then drain.
    fn drive(&mut self, bursts: usize) -> (Window, GeneratorStats) {
        let (cfg, kind) = wire_sched();
        let period = Duration::from_micros(BURST_PERIOD_US);
        let mut window = Window::default();
        window.samples.reserve(bursts * BURST_JOBS);
        let mut generator = GeneratorStats::default();
        let mut outstanding: Vec<Outstanding> = Vec::with_capacity(4 * BURST_JOBS);
        let (cpu0, own_cpu0) = (process_cpu_s(), thread_cpu_s());
        let start = Instant::now();

        // One sweep: record every job that has finished since the last.
        let sweep = |outstanding: &mut Vec<Outstanding>, window: &mut Window| {
            let now = Instant::now();
            let mut i = 0;
            while i < outstanding.len() {
                if !outstanding[i].handle.is_finished() {
                    i += 1;
                    continue;
                }
                let mut job = outstanding.swap_remove(i);
                if job.handle.try_take() == Some(Ok(job.facts.value)) {
                    window.samples.push(Sample::new(now - start, now - job.due, job.facts.tasks, job.class));
                } else {
                    window.failed += 1;
                }
            }
        };

        // Sweep once, then spin a little.
        let poll =
            |outstanding: &mut Vec<Outstanding>, window: &mut Window, generator: &mut GeneratorStats| {
                let began = Instant::now();
                sweep(outstanding, window);
                for _ in 0..SPINS_PER_SWEEP {
                    std::hint::spin_loop();
                }
                generator.sweeps += 1;
                generator.polling += began.elapsed();
            };

        for b in 0..bursts {
            let due = start + period * b as u32;
            // Sweep for completions, then spin, up to the due instant.
            while Instant::now() < due {
                if outstanding.is_empty() {
                    std::hint::spin_loop();
                } else {
                    poll(&mut outstanding, &mut window, &mut generator);
                }
            }
            generator.lag_us.push((Instant::now() - due).as_secs_f64() * 1e6);

            let burst = self.next_burst;
            self.next_burst = (burst + 1) % self.schedule.len();
            let jobs = &self.schedule[burst];
            for job in jobs {
                window.attempted += 1;
                let (tenant, class) = if job.inter { (self.inter, INTER) } else { (self.batch, BATCH) };
                let handle =
                    self.rt.submit_spec_tier_as(tenant, &self.source, vec![job.n], cfg, kind, SpecTier::Auto);
                outstanding.push(Outstanding { handle, due, facts: self.facts_for(job.n), class });
            }
        }
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !outstanding.is_empty() && Instant::now() < deadline {
            poll(&mut outstanding, &mut window, &mut generator);
        }
        window.failed += outstanding.len() as u64; // timed out
        window.wall_s = start.elapsed().as_secs_f64();
        generator.cpu_s = thread_cpu_s() - own_cpu0;
        window.cpu_s = process_cpu_s() - cpu0 - generator.cpu_s;
        (window, generator)
    }
}

impl Workload for SvcBurst {
    fn window(&mut self, seconds: f64) -> Result<Window, String> {
        let bursts = ((seconds * 1e6) as u64 / BURST_PERIOD_US).max(1) as usize;
        let before = self.rt.snapshot();
        let (window, generator) = self.drive(bursts);
        self.last_delta = ServiceDelta::between(&before, &self.rt.snapshot());
        // A timed-out job is a failure already counted, and leaves the
        // books open; they must balance whenever everything came back.
        if window.failed == 0 {
            self.last_delta.check(window.ops(), 0)?;
        }
        self.last_generator = generator;
        self.last_tenant_p99 = [window.latency_us(99.0, Some(BATCH)), window.latency_us(99.0, Some(INTER))];
        Ok(window)
    }

    fn counters(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.last_delta.fill(layers);
        layers.set("service.sched.batch_lat_p99_us", self.last_tenant_p99[BATCH as usize]);
        layers.set("service.sched.inter_lat_p99_us", self.last_tenant_p99[INTER as usize]);
        let g = &self.last_generator;
        if !g.lag_us.is_empty() {
            let mut lag = g.lag_us.clone();
            sort(&mut lag);
            layers.set("client.gen_lag_p99_us", percentile_sorted(&lag, 99.0));
        }
        if g.sweeps > 0 {
            layers.set("client.poll_interval_us", g.polling.as_secs_f64() * 1e6 / g.sweeps as f64);
        }
        Ok(())
    }

    fn ladder(&mut self, tracer: &mut Tracer, ladder_ops: usize, layers: &mut Layers) -> Result<f64, String> {
        let ops: Vec<LadderOp> = self
            .schedule
            .iter()
            .flatten()
            .cycle()
            .skip(self.ladder_next)
            .take(ladder_ops)
            .map(|job| LadderOp {
                line: None,
                tenant: if job.inter { self.inter } else { self.batch },
                source: Some((0, self.source.as_str())),
                hot: true,
                args: vec![job.n],
                expect: Expect::Value(self.facts_for(job.n).value),
            })
            .collect();
        let mut env = LadderEnv { rt: &self.rt, conn: None, sizing: self.sizing };
        let (tally, replay_s) = service_ladder(&mut env, &ops, tracer, layers);
        self.tally.add(tally);
        self.ladder_next += ladder_ops;
        Ok(replay_s)
    }

    fn ladder_tally(&self) -> Tally {
        self.tally
    }
}
