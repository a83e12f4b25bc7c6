//! The layer ladder for spec jobs: the same request replayed, serially, at
//! successively deeper public entry points of the stack —
//!
//! ```text
//! wire.rtt            TCP round trip to the real server
//! shard.submit_wait   ShardedRuntime::try_submit_spec_tier_as + wait
//! runtime.submit_wait Runtime::submit_spec_foreach_tier_as + wait (bare, no placement)
//! pool.run            run_scheduler on a pool of the shard's size (prebuilt code)
//! spec.exec_1t        run_policy(.., None): the single-thread engine, no pool
//! ```
//!
//! The prefix is replayed rung by rung (all requests at one rung, then all
//! at the next), so only the rung's own pool is awake. A layer's self time
//! is its rung's median minus the median of the rung below, over the
//! requests whose source is in the hot set (so every rung sees a cache hit
//! and the difference is the layer, not a compile). Each rung call is one
//! span carrying its request's id, under the pass's span.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use tb_core::{run_policy, run_scheduler, BlockProgram, ExecStats, RunOutput};
use tb_runtime::{PoolMetrics, ThreadPool};
use tb_service::wire::parse_request;
use tb_service::{
    AdmissionPolicy, JobError, PlacementCore, PlacementPolicy, Runtime, RuntimeConfig, SchedCore,
    ShardedRuntime, TenantId, TenantSpec, DEFAULT_TENANT,
};
use tb_spec::{compile, parse_spec, CompiledSpec, SpecCode, SpecTier, VectorSpec};

use crate::metrics::Layers;
use crate::oracle::{response_ok, Expect};
use crate::sizing::{wire_sched, Sizing};
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// One request of the ladder prefix, borrowing its texts from the
/// workload's stream.
pub struct LadderOp<'a> {
    /// The wire request, terminator included (`None`: the workload has no
    /// wire rung).
    pub line: Option<Vec<u8>>,
    pub tenant: TenantId,
    /// Source index and text; `None` for a line `parse_request` refuses,
    /// which only the wire rung can see.
    pub source: Option<(u32, &'a str)>,
    /// The source is in the hot set: every rung hits the spec cache.
    pub hot: bool,
    pub args: Vec<i64>,
    pub expect: Expect,
}

/// What the ladder needs from the workload's system under test.
pub struct LadderEnv<'a> {
    pub rt: &'a ShardedRuntime,
    /// A connection to the workload's server, when it has one.
    pub conn: Option<(TcpStream, BufReader<TcpStream>)>,
    pub sizing: Sizing,
}

/// Run `prog` under the wire scheduler settings: on `pool`, or on the
/// calling thread's single-thread engine.
fn run<P: BlockProgram>(prog: &P, pool: Option<&ThreadPool>) -> RunOutput<P::Reducer> {
    let (cfg, kind) = wire_sched();
    match pool {
        Some(pool) => run_scheduler(kind, prog, cfg, Some(pool)),
        None => run_policy(prog, cfg, None),
    }
}

/// Build the program for `code(args)` at lane width `q` the way the service
/// does per job (`q ≤ 1`: the scalar tier) and run it.
fn exec(code: &Arc<SpecCode>, args: &[i64], q: usize, pool: Option<&ThreadPool>) -> RunOutput<i64> {
    let calls = [args.to_vec()];
    match q {
        0 | 1 => run(&CompiledSpec::from_code(Arc::clone(code), &calls), pool),
        q => run(&VectorSpec::from_code_with_width(Arc::clone(code), &calls, q), pool),
    }
}

/// Request id of spans that belong to no single request (source
/// compilation, pure-core replays); requests are numbered from 1.
pub const NO_REQUEST: u64 = 0;

/// One rung call: which op of the prefix, how long, how many tasks ran.
struct Call {
    op: usize,
    ns: u64,
    tasks: u64,
}

/// Replay `ops` at one rung. `prepare` picks what the rung needs from an
/// op (outside the clock; `None`: the rung does not apply to it), `body`
/// makes the call and reports the tasks it executed. One span named `rung`
/// per call, carrying the op's request id, all under one pass span.
fn rung_pass<'o, I>(
    tracer: &mut Tracer,
    rung: &'static str,
    ops: &'o [LadderOp<'o>],
    prepare: impl Fn(&'o LadderOp<'o>) -> Option<I>,
    mut body: impl FnMut(&'o LadderOp<'o>, I) -> u64,
) -> Vec<Call> {
    tracer
        .span("ladder.pass", NO_REQUEST, |t| {
            let mut calls = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let Some(input) = prepare(op) else { continue };
                let (tasks, ns) = t.span(rung, i as u64 + 1, |_| body(op, input));
                calls.push(Call { op: i, ns, tasks });
            }
            calls
        })
        .0
}

/// Attempted ops and failed verifications of a ladder pass.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

fn value_ok(got: &Result<i64, JobError>, expect: Expect) -> bool {
    match (got, expect) {
        (Ok(v), Expect::Value(want)) => *v == want,
        (Err(JobError::Rejected(_)), Expect::Err(class)) => class.reaches_runtime(),
        _ => false,
    }
}

/// Replay `ops` at every rung and fill in the ladder-derived layer
/// metrics. Returns the verification tally and the seconds the rung passes
/// took.
pub fn service_ladder(
    env: &mut LadderEnv<'_>,
    ops: &[LadderOp<'_>],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> (Tally, f64) {
    let (cfg, kind) = wire_sched();
    let q = SpecTier::Auto.lane_width();
    let shard_threads = env.sizing.threads_per_shard;
    // The rungs below the sharded runtime run on instances of their own,
    // shaped like one shard; they idle (parked) whenever another rung runs.
    let bare = Runtime::with_config(RuntimeConfig { threads: shard_threads, ..RuntimeConfig::default() });
    let pool = ThreadPool::new(shard_threads);

    // Side spans: parse and lower each distinct source once, directly.
    let mut codes: HashMap<u32, Arc<SpecCode>> = HashMap::new();
    let (mut parse_ns, mut compile_ns) = (Vec::new(), Vec::new());
    tracer.span("ladder.sources", NO_REQUEST, |t| {
        for op in ops {
            let Some((index, text)) = op.source else { continue };
            if codes.contains_key(&index) {
                continue;
            }
            let (spec, ns) = t.span("spec.parse", NO_REQUEST, |_| parse_spec(text));
            let Ok(spec) = spec else { continue };
            parse_ns.push(ns as f64);
            let (code, ns) = t.span("spec.compile", NO_REQUEST, |_| compile(&spec));
            if let Ok(code) = code {
                compile_ns.push(ns as f64);
                codes.insert(index, Arc::new(code));
            }
        }
    });
    // Warm the bare runtime's cache with the hot sources, as the workload's
    // own warm-up did for the shards.
    for op in ops.iter().filter(|o| o.hot) {
        if let (Some((_, text)), Expect::Value(_)) = (op.source, op.expect) {
            let _ = bare
                .submit_spec_foreach_tier_as(
                    DEFAULT_TENANT,
                    text,
                    vec![op.args.clone()],
                    cfg,
                    kind,
                    SpecTier::Auto,
                )
                .wait();
        }
    }

    // One pass over the prefix per rung, top of the stack first. Rung-major
    // order keeps every pool but the rung's own parked: a pool worker that
    // just ran a job yields in a loop before it sleeps, and on a small host
    // that would be charged to the next rung of the same request.
    let mut tally = Tally::default();
    let mut counts = ExecCounts::default();
    let began = Instant::now();
    let mut response = String::new();
    let wire = match env.conn.as_mut() {
        Some((w, rd)) => rung_pass(
            tracer,
            "wire.rtt",
            ops,
            |op| op.line.as_deref(),
            |op, line| {
                let io = w.write_all(line).and_then(|()| {
                    response.clear();
                    rd.read_line(&mut response)
                });
                tally.check(io.is_ok() && response_ok(response.trim_end(), op.expect));
                0
            },
        ),
        None => Vec::new(),
    };
    fn source_text<'o>(op: &'o LadderOp<'o>) -> Option<&'o str> {
        op.source.map(|(_, text)| text)
    }
    let shard = rung_pass(tracer, "shard.submit_wait", ops, source_text, |op, text| {
        let got = env
            .rt
            .try_submit_spec_tier_as(op.tenant, text, op.args.clone(), cfg, kind, SpecTier::Auto)
            .map(|h| h.wait());
        tally.check(got.is_ok_and(|g| value_ok(&g, op.expect)));
        0
    });
    let runtime = rung_pass(tracer, "runtime.submit_wait", ops, source_text, |op, text| {
        let got = bare
            .submit_spec_foreach_tier_as(
                DEFAULT_TENANT,
                text,
                vec![op.args.clone()],
                cfg,
                kind,
                SpecTier::Auto,
            )
            .wait();
        tally.check(value_ok(&got, op.expect));
        0
    });
    // The rungs below the service take prebuilt code and run only jobs that
    // have a value; each reports the tasks it executed.
    let runnable = |op: &LadderOp| match (op.source.and_then(|(i, _)| codes.get(&i)), op.expect) {
        (Some(code), Expect::Value(want)) => Some((Arc::clone(code), want)),
        _ => None,
    };
    let steals_before = pool.metrics();
    let par = rung_pass(tracer, "pool.run", ops, runnable, |op, (code, want)| {
        let out = exec(&code, &op.args, q, Some(&pool));
        tally.check(out.reducer == want);
        out.stats.tasks_executed
    });
    let steals = pool.metrics().since(&steals_before);
    let simd = rung_pass(tracer, "spec.exec_1t", ops, runnable, |op, (code, want)| {
        let out = exec(&code, &op.args, q, None);
        tally.check(out.reducer == want);
        counts.add(&out.stats);
        out.stats.tasks_executed
    });
    let scalar = rung_pass(tracer, "spec.exec_1t_scalar", ops, runnable, |op, (code, want)| {
        let out = exec(&code, &op.args, 1, None);
        tally.check(out.reducer == want);
        out.stats.tasks_executed
    });
    let replay_s = began.elapsed().as_secs_f64();

    // A layer's self time: the median, over the hot requests both rungs
    // served, of the request's time at the rung minus its time one rung
    // down (paired per request, so a mix of job sizes cancels).
    let hot_ns = |rung: &[Call]| -> HashMap<usize, f64> {
        rung.iter().filter(|c| ops[c.op].hot).map(|c| (c.op, c.ns as f64)).collect()
    };
    let self_us = |upper: &[Call], lower: &[Call]| -> f64 {
        let lower = hot_ns(lower);
        let diffs: Vec<f64> =
            hot_ns(upper).iter().filter_map(|(op, ns)| Some((ns - lower.get(op)?) / 1e3)).collect();
        median(&diffs)
    };
    layers.set("service.wire.self_us_per_op", self_us(&wire, &shard));
    layers.set("service.shard.self_us_per_op", self_us(&shard, &runtime));
    layers.set("service.runtime.self_us_per_op", self_us(&runtime, &par));
    layers.set("runtime.pool.self_us_per_op", self_us(&par, &simd));
    let exec_us: Vec<f64> = hot_ns(&simd).values().map(|ns| ns / 1e3).collect();
    layers.set("spec.exec_us_per_op", median(&exec_us));

    // Σ(tasks, ns) over a rung's calls.
    let totals = |rung: &[Call]| rung.iter().fold((0u64, 0u64), |(t, n), c| (t + c.tasks, n + c.ns));
    let (par_tasks_ns, simd_tasks_ns, scalar_tasks_ns) = (totals(&par), totals(&simd), totals(&scalar));
    let mean = |xs: &[f64]| ratio(xs.iter().sum::<f64>(), xs.len() as f64);
    layers.set("spec.parse_us_per_src", mean(&parse_ns) / 1e3);
    layers.set("spec.compile_us_per_src", mean(&compile_ns) / 1e3);
    let per_task = |(tasks, ns): (u64, u64)| ratio(ns as f64, tasks as f64);
    layers.set("spec.exec_ns_per_task_scalar", per_task(scalar_tasks_ns));
    layers.set("spec.exec_ns_per_task_simd", per_task(simd_tasks_ns));
    layers.set("spec.simd_gain", ratio(per_task(scalar_tasks_ns), per_task(simd_tasks_ns)));
    layers.set("core.sched.seq_ns_per_task", per_task(simd_tasks_ns));
    layers.set("core.sched.par_ns_per_task", per_task(par_tasks_ns));
    layers.set("core.sched.par_gain", ratio(per_task(simd_tasks_ns), per_task(par_tasks_ns)));
    counts.fill(layers);
    // `Runtime` does not export its pool's steal counters, so on service
    // workloads these are the pool.run rung's.
    fill_steals(&steals, layers);

    tracer.span("ladder.cores", NO_REQUEST, |t| {
        let lines: Vec<&str> = ops
            .iter()
            .filter_map(|op| op.line.as_deref())
            .filter_map(|l| std::str::from_utf8(l).ok())
            .map(|l| l.trim_end_matches('\n'))
            .collect();
        if !lines.is_empty() {
            let (parsed, ns) = t.span("wire.parse", NO_REQUEST, |_| {
                lines.iter().filter(|l| std::hint::black_box(parse_request(l)).is_ok()).count()
            });
            std::hint::black_box(parsed);
            layers.set("service.wire.parse_ns_per_req", ns as f64 / lines.len() as f64);
        }
        let tenants: Vec<TenantId> = ops.iter().filter(|o| o.source.is_some()).map(|o| o.tenant).collect();
        let highest = tenants.iter().copied().max().unwrap_or(0);
        layers.set("service.shard.core_ns_per_op", shard_core_ns(t, &tenants, highest, env.sizing));
        layers.set("service.sched.core_ns_per_op", sched_core_ns(t, &tenants, highest));
    });
    (tally, replay_s)
}

/// The exact single-thread machine-model counts (Fig. 4 / the space
/// bound), summed over the ladder's ops — programs may differ in `Q`, so
/// lane slots are summed per run. They must repeat run to run.
#[derive(Default)]
pub struct ExecCounts {
    tasks: u64,
    tasks_in_complete_steps: u64,
    /// Σ simd_steps × Q: lanes offered.
    lane_slots: u64,
    supersteps: u64,
    restart_actions: u64,
    merges: u64,
    max_deque_tasks: u64,
}

impl ExecCounts {
    pub fn add(&mut self, s: &ExecStats) {
        self.tasks += s.tasks_executed;
        self.tasks_in_complete_steps += s.tasks_in_complete_steps;
        self.lane_slots += s.simd_steps * s.q;
        self.supersteps += s.supersteps;
        self.restart_actions += s.restart_actions;
        self.merges += s.merges;
        self.max_deque_tasks = self.max_deque_tasks.max(s.max_deque_tasks);
    }

    pub fn fill(&self, layers: &mut Layers) {
        layers.set(
            "core.sched.simd_utilization",
            ratio(self.tasks_in_complete_steps as f64, self.tasks as f64),
        );
        layers.set("core.sched.lane_occupancy", ratio(self.tasks as f64, self.lane_slots as f64));
        layers.set("core.sched.supersteps", self.supersteps as f64);
        layers.set("core.sched.restart_actions", self.restart_actions as f64);
        layers.set("core.sched.merges", self.merges as f64);
        layers.set("core.sched.max_deque_tasks", self.max_deque_tasks as f64);
    }
}

/// A pool's steal counters over some stretch, as layer metrics.
pub fn fill_steals(steals: &PoolMetrics, layers: &mut Layers) {
    layers.set("runtime.pool.steal_attempts", steals.steal_attempts as f64);
    layers.set("runtime.pool.steals", steals.steals as f64);
    layers.set("runtime.pool.steal_hit_ratio", ratio(steals.steals as f64, steals.steal_attempts as f64));
}

/// Passes over the tenant sequence per pure-core replay: enough events for
/// a nanosecond figure.
const CORE_PASSES: usize = 50;

/// `PlacementCore::submit` + `complete` over the workload's tenant
/// sequence, ns per op.
fn shard_core_ns(t: &mut Tracer, tenants: &[TenantId], highest: TenantId, sizing: Sizing) -> f64 {
    if tenants.is_empty() {
        return 0.0;
    }
    let mut core = PlacementCore::new(PlacementPolicy::Affinity);
    for _ in 0..sizing.shards {
        core.add_shard(RuntimeConfig::default().max_inflight);
    }
    for _ in 0..=highest {
        core.add_tenant(64);
    }
    let ((), ns) = t.span("shard.core", NO_REQUEST, |_| {
        for _ in 0..CORE_PASSES {
            for &tenant in tenants {
                if let Some(shard) = core.submit(tenant).shard() {
                    core.complete(shard, tenant);
                }
            }
        }
    });
    std::hint::black_box(core.counters());
    ns as f64 / (CORE_PASSES * tenants.len()) as f64
}

/// `SchedCore::submit` / `schedule` / `complete` / `schedule` over the
/// workload's tenant sequence, ns per op.
fn sched_core_ns(t: &mut Tracer, tenants: &[TenantId], highest: TenantId) -> f64 {
    if tenants.is_empty() {
        return 0.0;
    }
    let defaults = RuntimeConfig::default();
    let mut core = SchedCore::new(AdmissionPolicy {
        max_running: defaults.max_inflight,
        max_parked: defaults.max_parked,
        fifo: false,
    });
    for i in 0..=highest {
        core.add_tenant(TenantSpec::new(format!("t{i}"), 64));
    }
    let ((), ns) = t.span("sched.core", NO_REQUEST, |_| {
        for _ in 0..CORE_PASSES {
            for &tenant in tenants {
                let id = core.submit(tenant, false);
                std::hint::black_box(core.schedule());
                core.complete(id);
                std::hint::black_box(core.schedule());
            }
        }
    });
    ns as f64 / (CORE_PASSES * tenants.len()) as f64
}
