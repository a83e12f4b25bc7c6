//! Threaded integration tests for the admission scheduler: the
//! starvation regression (a light tenant behind a heavy flood; the legacy
//! tenant-blind FIFO arm of the pair is core-level only and lives in
//! `sched_core.rs::fifo_mode_reproduces_the_tenant_blind_gate`),
//! end-to-end preemption through a real pool (park at a superstep
//! boundary, run the interactive job, resume), per-tenant shedding, and
//! stats plumbing.
//!
//! Determinism here comes from *structure*, not sleeps: a `SpinUntil` plug
//! occupies the single pool slot while the test scripts arrivals, so
//! admission order is decided entirely by the scheduler — and the
//! interactive job in the preemption test can only complete at all if the
//! batch job actually swapped out.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use tb_core::prelude::*;
use tb_service::{Runtime, RuntimeConfig, TenantSpec, DEFAULT_TENANT};

/// Reduces to 1 and records its tag in the shared log when executed.
struct Mark {
    tag: u32,
    log: Arc<Mutex<Vec<u32>>>,
}

impl BlockProgram for Mark {
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
    fn expand(&self, block: &mut Vec<u32>, _out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        for _ in block.drain(..) {
            self.log.lock().unwrap().push(self.tag);
            *red += 1;
        }
    }
}

/// Respawns its single task every superstep until `release` fires, then
/// reduces to 1 — an unbounded supply of superstep boundaries, which makes
/// it both a pool *plug* (occupies its slot for as long as the test needs)
/// and the ideal preemption target.
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

fn await_flag(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

fn cfg() -> SchedConfig {
    SchedConfig::basic(4, 64)
}

/// The starvation regression: plug the single pool slot, queue 40
/// heavy-tenant jobs, then ONE light-tenant job, release the plug and let
/// everything drain. Under weighted-fair admission the light tenant is
/// admitted within a couple of service times of the plug's release.
#[test]
fn fair_admission_bounds_a_light_tenants_wait() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 0 });
    let heavy = rt.register_tenant(TenantSpec::new("heavy", 64));
    let light = rt.register_tenant(TenantSpec::new("light", 8));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (release, started) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));

    let plug = rt.submit_as(
        heavy,
        SpinUntil { release: Arc::clone(&release), started: Arc::clone(&started) },
        cfg(),
        SchedulerKind::Seq,
    );
    await_flag(&started); // the slot is occupied: arrivals below only queue
    let heavies: Vec<_> = (0..40)
        .map(|_| rt.submit_as(heavy, Mark { tag: 0, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq))
        .collect();
    let light_h = rt.submit_as(light, Mark { tag: 1, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    release.store(true, Ordering::Release);

    assert_eq!(plug.wait(), Ok(1));
    for h in heavies {
        assert_eq!(h.wait(), Ok(1));
    }
    assert_eq!(light_h.wait(), Ok(1));
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 41);
    let pos = log.iter().position(|&t| t == 1).expect("light job ran");
    assert!(pos <= 3, "light tenant ran at position {pos}; fair admission should bound this to ~0");
}

/// End-to-end preemption through a real pool: one worker, one slot. The
/// interactive job can ONLY complete if the running batch job parks at a
/// superstep boundary and hands over its slot; the batch job must then
/// resume and finish with the right answer.
#[test]
fn interactive_tenant_preempts_batch_work_and_batch_resumes() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 4 });
    let batch = rt.register_tenant(TenantSpec::new("batch", 8));
    let interactive = rt.register_tenant(TenantSpec::new("interactive", 8).priority(1));
    let (release, started) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let log = Arc::new(Mutex::new(Vec::new()));

    let b = rt.submit_preemptible(
        batch,
        SpinUntil { release: Arc::clone(&release), started: Arc::clone(&started) },
        cfg(),
    );
    await_flag(&started); // batch job is mid-run on the only worker
    let i = rt.submit_as(interactive, Mark { tag: 7, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    // Completing at all proves the swap-out happened: there is no second
    // slot or worker this job could have used.
    assert_eq!(i.wait(), Ok(1));

    let stats = rt.stats();
    assert!(stats.preemptions >= 1, "the batch job must have parked: {stats:?}");
    assert!(stats.tenants[batch as usize].counters.preemptions >= 1);

    release.store(true, Ordering::Release);
    assert_eq!(b.wait(), Ok(1), "the parked frontier resumed and finished correctly");
    let stats = rt.stats();
    assert!(stats.resumes >= 1, "the parked job must have been resumed: {stats:?}");
    assert_eq!(stats.parked, 0, "nothing left in the park pool at quiescence");
    assert_eq!(stats.parked_tasks, 0);
}

/// Per-tenant bounds are isolated: a tenant at its pending cap sheds its
/// own `try_submit_as`, while a neighbour tenant's submissions still pass.
#[test]
fn tenant_bound_sheds_without_touching_neighbours() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, max_parked: 0 });
    let a = rt.register_tenant(TenantSpec::new("a", 2));
    let b = rt.register_tenant(TenantSpec::new("b", 2));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (release, started) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));

    let plug = rt.submit_as(
        a,
        SpinUntil { release: Arc::clone(&release), started: Arc::clone(&started) },
        cfg(),
        SchedulerKind::Seq,
    );
    await_flag(&started);
    let second = rt.submit_as(a, Mark { tag: 1, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    // Tenant a is at its bound of 2 pending (one running, one waiting).
    let shed = rt.try_submit_as(a, Mark { tag: 2, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    let spec = match shed {
        Err(prog) => prog,
        Ok(_) => panic!("tenant a is at its bound; submission should shed"),
    };
    assert_eq!(spec.tag, 2, "the program comes back unchanged");
    // Tenant b has its own bound and is unaffected by a's saturation.
    let bh = rt
        .try_submit_as(b, Mark { tag: 3, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq)
        .unwrap_or_else(|_| panic!("tenant b must not be blocked by tenant a's flood"));

    release.store(true, Ordering::Release);
    assert_eq!(plug.wait(), Ok(1));
    assert_eq!(second.wait(), Ok(1));
    assert_eq!(bh.wait(), Ok(1));

    let stats = rt.stats();
    assert_eq!(stats.tenants[a as usize].counters.submitted, 2, "the shed job never entered");
    assert_eq!(stats.tenants[b as usize].counters.submitted, 1);
    assert_eq!(stats.tenants[a as usize].pending, 0, "nothing left pending");
    assert_eq!(stats.tenants[b as usize].pending, 0);
}

/// Stats plumbing: per-tenant snapshots carry names, weights, priorities
/// and consistent counters; global aggregates match.
#[test]
fn stats_expose_tenant_queues_and_counters() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, max_parked: 2 });
    let client = rt.register_tenant(TenantSpec::new("client", 4).weight(3).priority(1));
    let log = Arc::new(Mutex::new(Vec::new()));

    let h1 = rt.submit_as(DEFAULT_TENANT, Mark { tag: 0, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    let h2 = rt.submit_as(client, Mark { tag: 1, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    let h3 = rt.submit_as(client, Mark { tag: 1, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq);
    assert_eq!(h1.wait(), Ok(1));
    assert_eq!(h2.wait(), Ok(1));
    assert_eq!(h3.wait(), Ok(1));

    let stats = rt.stats();
    assert_eq!(stats.tenants.len(), 2, "default tenant + one registered");
    let default = &stats.tenants[tb_service::DEFAULT_TENANT as usize];
    assert_eq!(default.name, "default");
    let snap = &stats.tenants[client as usize];
    assert_eq!((snap.name.as_str(), snap.weight, snap.priority), ("client", 3, 1));
    assert_eq!(snap.counters.submitted, 2);
    assert_eq!(snap.counters.completed, 2);
    assert_eq!(snap.counters.admissions, 2);
    assert_eq!(default.counters.submitted, 1);
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.max_inflight, 4);
    assert_eq!(stats.max_parked, 2);
    assert_eq!((stats.inflight, stats.waiting, stats.parked), (0, 0, 0), "quiescent");
}

/// A cancel reaches a job that is still queued: with the only worker
/// pinned by a plug, the job cannot start before the cancel lands, so it
/// must come back `Cancelled` without ever running, and still return its
/// tenant's pending slot.
#[test]
fn cancel_reaches_a_still_queued_job() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 64, max_parked: 0 });
    let (release, started) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let plug = rt.submit_as(
        DEFAULT_TENANT,
        SpinUntil { release: Arc::clone(&release), started: Arc::clone(&started) },
        cfg(),
        SchedulerKind::Seq,
    );
    await_flag(&started); // the only worker is occupied: the next job can only queue
    let log = Arc::new(Mutex::new(Vec::new()));
    let queued =
        rt.submit_as(DEFAULT_TENANT, Mark { tag: 1, log: Arc::clone(&log) }, cfg(), SchedulerKind::Par);
    queued.cancel();
    release.store(true, Ordering::Release);
    assert_eq!(plug.wait(), Ok(1));
    assert_eq!(queued.wait(), Err(tb_service::JobError::Cancelled));
    assert!(log.lock().unwrap().is_empty(), "the cancelled job never expanded a block");

    let stats = rt.stats();
    let default = &stats.tenants[DEFAULT_TENANT as usize];
    assert_eq!(default.pending, 0, "the cancelled job still returned its pending slot");
    assert_eq!(stats.cancelled, 1);
}

/// Per-tenant counters roll up identically through a `ShardSnapshot`: the
/// same `TenantSnapshot` structures a standalone runtime exposes arrive
/// per shard, and summing a tenant across shards accounts for every job it
/// submitted anywhere — the placement layer adds routing, not a second
/// bookkeeping scheme.
#[test]
fn shard_snapshot_rolls_up_the_same_tenant_counters() {
    use tb_service::{PlacementPolicy, ShardConfig, ShardedRuntime};

    let rt = ShardedRuntime::with_config(ShardConfig::uniform(2, 1).policy(PlacementPolicy::LeastLoaded));
    let log = Arc::new(Mutex::new(Vec::new()));
    let client = rt.register_tenant(TenantSpec::new("client", 4).weight(3).priority(1));

    let handles: Vec<_> = (0..6)
        .map(|i| rt.submit_as(client, Mark { tag: i, log: Arc::clone(&log) }, cfg(), SchedulerKind::Seq))
        .collect();
    for h in handles {
        assert_eq!(h.wait(), Ok(1));
    }

    let snap = rt.snapshot();
    assert_eq!(snap.shards.len(), 2);
    // Identity and spec fields survive per shard...
    for stats in &snap.shards {
        let t = &stats.tenants[client as usize];
        assert_eq!((t.name.as_str(), t.weight, t.priority), ("client", 3, 1));
        assert_eq!(t.counters.submitted, t.counters.completed, "per-shard books balance");
        assert_eq!(t.pending, 0);
    }
    // ...and the cross-shard sum accounts for every job exactly once.
    let submitted: u64 = snap.shards.iter().map(|s| s.tenants[client as usize].counters.submitted).sum();
    let completed: u64 = snap.shards.iter().map(|s| s.tenants[client as usize].counters.completed).sum();
    assert_eq!(submitted, 6);
    assert_eq!(completed, 6);
    // LeastLoaded over an idle pair spreads the load: both shards did work.
    assert!(
        snap.shards.iter().all(|s| s.tenants[client as usize].counters.submitted >= 1),
        "least-loaded placement left a shard idle: {snap:?}"
    );
    // The placement core agrees with the rolled-up tenant counters.
    assert_eq!(snap.placement.completed, submitted);
    assert_eq!(snap.gate_slots_held(), 0);
    assert_eq!(log.lock().unwrap().len(), 6);
}
