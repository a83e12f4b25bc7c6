//! Trace-conservation: the per-kind event counts of a traced run must
//! reconcile with the counters the runtime already keeps (`ExecStats`,
//! `PoolMetrics`, `ServiceStats`). A lost event (torn ring slot, a record
//! call on the wrong side of a gate) or a double-recorded one breaks an
//! equality here even when the trace still *renders* fine in Perfetto.
//!
//! One `#[test]` fn: the tb-obs registry and enable flag are process
//! global, so the phases below must not interleave with each other
//! or with any other test in this binary. Each phase starts from a fresh
//! `drain_all()` so it only ever counts its own events.
//!
//! The equalities and their recording-site justifications:
//!
//! * seq + parallel: `sum(Superstep.arg)` == `ExecStats.tasks_executed`.
//!   Every scheduler records exactly one `Superstep` per executed block,
//!   carrying the block's task count, at the same place it calls
//!   `account_block` — and `Restart` events carry parked (not executed)
//!   blocks, so they are deliberately excluded from the sum.
//! * seq + parallel: `count(Restart)` == `ExecStats.restart_actions`. Every
//!   scheduler records one `Restart` where it counts one restart action:
//!   an underfull block parked on the deque before a rescan.
//! * pool: `count(StealHit) + count(InjectorPop)` == the `steals` delta of
//!   `PoolMetrics::since`, exactly. Hits can only happen while the run's
//!   jobs exist, so the counter is stable on both edges of the window.
//!   `count(StealAttempt)` cannot be pinned to one counter delta: idle
//!   workers sweep continuously, so an unbounded number of sweeps can land
//!   between a `drain_all()` and the counter read next to it. Instead the
//!   counter is read on *both* sides of each drain (`a0`, drain, `a1`,
//!   run, `b0`, drain, `b1`). A worker bumps its counter, then records the
//!   event, so per worker `counter - 1 <= events <= counter` at every
//!   instant; each worker's ring is read once inside each drain, hence
//!   `b0 - a1 - workers <= count(StealAttempt) <= b1 - a0 + workers`.
//! * split on demand, every policy: each `SeqScheduler::split_off`
//!   records one engine-level `Park` and the second engine's `resume` one
//!   `Resume`, so both counts equal `ExecStats::splits` (non-zero once
//!   thieves are kept hungry); the pool and superstep equalities above
//!   hold across the splits.
//! * the seam with a token and a flag (what the service drives every job
//!   through): unfired they change no count; a preempted split run parks
//!   whole, so `count(Park) == count(Resume) == splits + parks`.
//! * service: the `Park` job-id multiset equals the `Resume` job-id
//!   multiset at quiescence (every parked frontier resumed),
//!   `count(Admit)` equals the summed per-tenant `admissions` counter, and
//!   `count(JobDone)` equals the jobs retired.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{KeepThievesHungry, ParkAt};
use taskblocks::prelude::*;
use tb_obs::{EventKind, Track};
use tb_service::TenantSpec;

/// The doc-example Fib: arity 2, one task per call-tree node.
struct Fib(u32);

impl BlockProgram for Fib {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        2
    }
    fn make_root(&self) -> Vec<u32> {
        vec![self.0]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        for n in block.drain(..) {
            if n < 2 {
                *red += u64::from(n);
            } else {
                out.bucket(0).push(n - 1);
                out.bucket(1).push(n - 2);
            }
        }
    }
}

/// Respawns its single task until `release` fires — the preemption target
/// (same shape as the admission integration tests' plug).
struct SpinUntil {
    release: Arc<AtomicBool>,
    started: Arc<AtomicBool>,
}

impl BlockProgram for SpinUntil {
    type Store = Vec<u32>;
    type Reducer = u64;
    fn arity(&self) -> usize {
        1
    }
    fn make_root(&self) -> Vec<u32> {
        vec![0]
    }
    fn make_reducer(&self) -> u64 {
        0
    }
    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }
    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        self.started.store(true, Ordering::Release);
        for t in block.drain(..) {
            if self.release.load(Ordering::Acquire) {
                *red += 1;
            } else {
                out.bucket(0).push(t);
            }
        }
    }
}

fn count(tracks: &[Track], kind: EventKind) -> u64 {
    tracks.iter().flat_map(|t| &t.events).filter(|e| e.kind == kind).count() as u64
}

fn sum_args(tracks: &[Track], kind: EventKind) -> u64 {
    tracks.iter().flat_map(|t| &t.events).filter(|e| e.kind == kind).map(|e| e.arg).sum()
}

/// Job-id multiset (sorted args) of one event kind.
fn ids(tracks: &[Track], kind: EventKind) -> Vec<u64> {
    let mut v: Vec<u64> =
        tracks.iter().flat_map(|t| &t.events).filter(|e| e.kind == kind).map(|e| e.arg).collect();
    v.sort_unstable();
    v
}

#[test]
fn traced_runs_reconcile_with_scheduler_counters() {
    // Big rings so nothing overflows mid-phase — the final drop check
    // below is what makes every equality here exact rather than "modulo
    // whatever the ring overwrote".
    tb_obs::set_ring_capacity(1 << 18);
    tb_obs::set_enabled(true);
    let _ = tb_obs::drain_all();

    // ---- Phase A: sequential engine, superstep accounting -------------
    let cfg = SchedConfig::restart(4, 64, 16).with_trace(true);
    let out = SeqScheduler::new(&Fib(20), cfg).run();
    assert_eq!(out.reducer, 6_765);
    let tracks = tb_obs::drain_all();
    assert_eq!(
        sum_args(&tracks, EventKind::Superstep),
        out.stats.tasks_executed,
        "seq: one Superstep per executed block, arg = its task count"
    );
    assert_eq!(count(&tracks, EventKind::StealHit), 0, "no pool exists in phase A");
    assert!(out.stats.restart_actions > 0, "fib(20) under restart parks underfull blocks");
    assert_eq!(
        count(&tracks, EventKind::Restart),
        out.stats.restart_actions,
        "seq: one Restart per restart action"
    );

    // Same invariant through the spec pipeline: `CompiledSpec::expand`
    // brackets every block in TierBegin/TierEnd, with TierBegin carrying
    // the block's task count — so the tier spans replay `tasks_executed`
    // too, and the bracket counts must balance.
    let spec = taskblocks::spec::examples::fib_spec();
    let compiled = taskblocks::spec::CompiledSpec::new(&spec, vec![20]).unwrap();
    let out = SeqScheduler::new(&compiled, cfg).run();
    assert_eq!(out.reducer, 6_765);
    let tracks = tb_obs::drain_all();
    assert_eq!(sum_args(&tracks, EventKind::TierBegin), out.stats.tasks_executed);
    assert_eq!(count(&tracks, EventKind::TierBegin), count(&tracks, EventKind::TierEnd));

    // ---- Phase B: work-stealing pool, steal accounting ----------------
    const WORKERS: u64 = 4;
    let pool = ThreadPool::new(WORKERS as usize);
    let a0 = pool.metrics();
    let _ = tb_obs::drain_all(); // window starts here: idle sweeps before this are out
    let a1 = pool.metrics();
    let out = run_scheduler(SchedulerKind::RestartIdeal, &Fib(22), cfg, Some(&pool));
    assert_eq!(out.reducer, 17_711);
    let b0 = pool.metrics();
    let tracks = tb_obs::drain_all();
    let b1 = pool.metrics();
    let delta = b1.since(&a0);

    // Exact: a hit only ever happens while the run's jobs are live, so no
    // hit can straddle either window edge.
    let hits = count(&tracks, EventKind::StealHit);
    let pops = count(&tracks, EventKind::InjectorPop);
    assert_eq!(
        hits + pops,
        delta.steals,
        "every found job is exactly one StealHit (deque) or InjectorPop (injector) event"
    );
    assert_eq!(count(&tracks, EventKind::InjectorPush), delta.injector_pushes);
    assert_eq!(sum_args(&tracks, EventKind::Superstep), out.stats.tasks_executed);
    assert!(out.stats.restart_actions > 0, "the §3.4 scheduler parks underfull blocks too");
    assert_eq!(
        count(&tracks, EventKind::Restart),
        out.stats.restart_actions,
        "RestartIdeal: one Restart per restart action, as on the engine"
    );
    // Bracketed, not slack-matched — see the module docs for the bound.
    let attempts = count(&tracks, EventKind::StealAttempt);
    assert!(attempts >= hits + pops, "every hit came from a recorded sweep");
    let floor = b0.since(&a1).steal_attempts.saturating_sub(WORKERS);
    let ceiling = delta.steal_attempts + WORKERS;
    assert!(
        (floor..=ceiling).contains(&attempts),
        "steal-attempt events ({attempts}) left the counter bracket [{floor}, {ceiling}]"
    );
    drop(pool);

    // ---- Phase B2: split on demand under every policy ------------------
    let policies = [
        SchedConfig::basic(4, 64),
        SchedConfig::reexpansion(4, 64),
        SchedConfig::restart(4, 64, 16),
        SchedConfig::adaptive(4),
    ];
    for pcfg in policies {
        let pcfg = pcfg.with_trace(true);
        for workers in [2usize, 4] {
            let what = format!("{:?} on {workers} workers", pcfg.policy);
            let pool = ThreadPool::new(workers);
            let plug = KeepThievesHungry::new(Fib(22));
            let before = pool.metrics();
            let _ = tb_obs::drain_all();
            let out = run_scheduler(SchedulerKind::Par, &plug, pcfg, Some(&pool));
            assert_eq!(out.reducer, 17_711, "{what}");
            let tracks = tb_obs::drain_all();
            let delta = pool.metrics().since(&before);
            assert_eq!(sum_args(&tracks, EventKind::Superstep), out.stats.tasks_executed, "{what}");
            assert_eq!(count(&tracks, EventKind::Restart), out.stats.restart_actions, "{what}");
            let splits = out.stats.splits;
            assert!(splits >= 1, "{what}: workers sat hungry and the job never split");
            assert_eq!(count(&tracks, EventKind::Park), splits, "{what}: one engine-level Park per split");
            assert_eq!(
                count(&tracks, EventKind::Resume),
                splits,
                "{what}: every split frontier was resumed once"
            );
            assert_eq!(
                count(&tracks, EventKind::StealHit) + count(&tracks, EventKind::InjectorPop),
                delta.steals,
                "{what}: splits go through join, so every stolen one is a StealHit like any other job"
            );
            assert!(plug.threads_seen() >= 2, "{what}: a split was stolen and run by a second worker");
        }
    }

    // ---- Phase B3: the seam with a token and a flag ----------------------
    // The service drives every job through the same loop with its cancel
    // token and, when preemptible, its preempt flag. Unfired, they change
    // no count; fired once from inside `expand`, the whole split run parks
    // as one frontier (one engine-level Park, however many pieces were
    // running) and its resume is one Resume.
    for park_at in [vec![], vec![2_000u64]] {
        let pcfg = SchedConfig::restart(4, 64, 16).with_trace(true);
        let what = format!("park at {park_at:?}");
        let pool = ThreadPool::new(2);
        let parks_wanted = park_at.len() as u64;
        let plug = KeepThievesHungry::new(ParkAt::new(Fib(22), park_at));
        let token = CancelToken::new();
        let seam = Seam { cancel: Some(&token), preempt: Some(plug.inner().flag()), split: true };
        let _ = tb_obs::drain_all();
        let mut parks = 0;
        let mut engine = SeqScheduler::new(&plug, pcfg);
        let out = loop {
            match pool.install(|ctx| drive(engine, seam, ctx)) {
                Outcome::Done(out) => break out,
                Outcome::Parked(frontier) => {
                    parks += 1;
                    plug.inner().flag().store(false, Ordering::Release);
                    engine = SeqScheduler::resume(&plug, frontier);
                }
                Outcome::Cancelled(_) => panic!("{what}: the token never fired"),
            }
        };
        assert_eq!(out.reducer, 17_711, "{what}");
        assert_eq!(parks, parks_wanted, "{what}");
        let tracks = tb_obs::drain_all();
        assert_eq!(sum_args(&tracks, EventKind::Superstep), out.stats.tasks_executed, "{what}");
        assert!(out.stats.splits >= 1, "{what}: workers sat hungry and the job never split");
        assert_eq!(
            count(&tracks, EventKind::Park),
            out.stats.splits + parks,
            "{what}: Park = splits + parks"
        );
        assert_eq!(
            count(&tracks, EventKind::Resume),
            out.stats.splits + parks,
            "{what}: Resume = splits + resumes"
        );
    }

    // ---- Phase C: service admission, park/resume pairing ---------------
    let _ = tb_obs::drain_all();
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 4 });
    let batch = rt.register_tenant(TenantSpec::new("batch", 8));
    let interactive = rt.register_tenant(TenantSpec::new("interactive", 8).priority(1));
    let (release, started) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));

    let svc_cfg = SchedConfig::basic(4, 64); // trace=false: no engine-level Park/Resume mixed in
    let b = rt.submit_preemptible(
        batch,
        SpinUntil { release: Arc::clone(&release), started: Arc::clone(&started) },
        svc_cfg,
    );
    while !started.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    // The interactive job can only complete by preempting the batch job
    // out of the single slot.
    let i = rt.submit_as(interactive, Fib(10), svc_cfg, SchedulerKind::Seq);
    assert_eq!(i.wait(), Ok(55));
    release.store(true, Ordering::Release);
    assert_eq!(b.wait(), Ok(1));

    let stats = rt.stats();
    let tracks = tb_obs::drain_all();
    let parks = ids(&tracks, EventKind::Park);
    let resumes = ids(&tracks, EventKind::Resume);
    assert!(!parks.is_empty(), "the batch job must have parked: {stats:?}");
    assert_eq!(parks, resumes, "at quiescence every parked job id resumed exactly as often");
    let admissions: u64 = stats.tenants.iter().map(|t| t.counters.admissions).sum();
    assert_eq!(count(&tracks, EventKind::Admit), admissions, "one Admit per Action::Start");
    assert!(count(&tracks, EventKind::Preempt) >= 1);
    assert_eq!(
        count(&tracks, EventKind::JobDone),
        stats.completed + stats.cancelled + stats.panicked,
        "one JobDone per retired job"
    );
    assert!(stats.trace_bytes > 0, "ServiceStats surfaces process-wide trace totals");

    // No ring ever overflowed: the equalities above counted every event.
    let snap = tb_obs::metrics_snapshot();
    assert_eq!(snap.events_dropped, 0, "rings were sized to hold every phase");
    tb_obs::set_enabled(false);
}
