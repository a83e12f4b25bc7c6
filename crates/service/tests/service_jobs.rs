//! Integration tests for the service layer: multi-tenant submission,
//! cooperative cancellation, handle drop (detach), backpressure and panic
//! containment — the behaviours a long-lived shared runtime must not get
//! wrong under concurrent clients.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tb_core::prelude::*;
use tb_service::{JobError, Runtime, RuntimeConfig, DEFAULT_TENANT};
use tb_spec::SpecTier;

/// Count the leaves of a depth-n binary tree: 2^n leaves, known answer,
/// exponential work — ideal for "did it actually run / stop" checks.
struct Tree(u32);

impl BlockProgram for Tree {
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
            if n == 0 {
                *red += 1;
            } else {
                out.bucket(0).push(n - 1);
                out.bucket(1).push(n - 1);
            }
        }
    }
}

/// A tree whose expansion also ticks a shared counter, so tests can observe
/// whether work kept happening after a cancel/drop.
struct CountingTree {
    depth: u32,
    ticks: Arc<AtomicU64>,
}

impl BlockProgram for CountingTree {
    type Store = Vec<u32>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        2
    }

    fn make_root(&self) -> Vec<u32> {
        vec![self.depth]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
        self.ticks.fetch_add(block.len() as u64, Ordering::Relaxed);
        for n in block.drain(..) {
            if n == 0 {
                *red += 1;
            } else {
                out.bucket(0).push(n - 1);
                out.bucket(1).push(n - 1);
            }
        }
    }
}

#[test]
fn mixed_schedulers_coexist_on_one_pool() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 3, max_inflight: 32, ..RuntimeConfig::default() });
    let mut handles = Vec::new();
    for round in 0..4u32 {
        let depth = 8 + round;
        handles.push((
            depth,
            rt.submit_as(DEFAULT_TENANT, Tree(depth), SchedConfig::basic(4, 64), SchedulerKind::Par),
        ));
        handles.push((
            depth,
            rt.submit_as(DEFAULT_TENANT, Tree(depth), SchedConfig::restart(4, 64, 16), SchedulerKind::Par),
        ));
        handles.push((
            depth,
            rt.submit_as(DEFAULT_TENANT, Tree(depth), SchedConfig::reexpansion(4, 64), SchedulerKind::Seq),
        ));
    }
    for (depth, h) in handles {
        assert_eq!(h.wait(), Ok(1u64 << depth), "depth {depth}");
    }
    let stats = rt.stats();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.completed, 12);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.injector.full_waits, 0, "submission must never block on capacity");
}

#[test]
fn concurrent_clients_hammer_one_runtime() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    std::thread::scope(|s| {
        for client in 0..4 {
            let rt = rt.clone();
            s.spawn(move || {
                for i in 0..10u32 {
                    let depth = 6 + (client + i) % 5;
                    let cfg = if i % 2 == 0 {
                        SchedConfig::reexpansion(4, 32)
                    } else {
                        SchedConfig::restart(4, 32, 8)
                    };
                    let h = rt.submit_as(DEFAULT_TENANT, Tree(depth), cfg, SchedulerKind::Par);
                    assert_eq!(h.wait(), Ok(1u64 << depth));
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.completed, 40);
    assert_eq!(stats.injector.full_waits, 0);
}

#[test]
fn cancellation_stops_expansion_promptly() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    // Depth 40: ~2^40 leaves, would run for hours — cancellation is the
    // only way this test can finish.
    let h = rt.submit_as(
        DEFAULT_TENANT,
        CountingTree { depth: 40, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 256),
        SchedulerKind::Par,
    );
    // Let it get going, then cancel.
    while ticks.load(Ordering::Relaxed) < 1000 {
        std::hint::spin_loop();
    }
    h.cancel();
    let res = h.wait(); // must return quickly, not after 2^40 tasks
    assert_eq!(res, Err(JobError::Cancelled));
    let after_cancel = ticks.load(Ordering::Relaxed);
    // The drain may consume already-materialised blocks but must not keep
    // expanding: give it a beat and check the counter stopped moving.
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(ticks.load(Ordering::Relaxed), after_cancel, "expansion continued after cancel+wait");
    assert_eq!(rt.stats().cancelled, 1);
}

#[test]
fn dropping_a_handle_mid_run_detaches_without_wedging() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 2, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    let h = rt.submit_as(
        DEFAULT_TENANT,
        CountingTree { depth: 18, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 64),
        SchedulerKind::Par,
    );
    drop(h); // detach: the run continues and must release its gate slot
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.stats().completed < 1 {
        assert!(Instant::now() < deadline, "detached job never completed");
        std::thread::yield_now();
    }
    assert_eq!(ticks.load(Ordering::Relaxed), (1u64 << 19) - 1, "detached job ran to completion");
    assert_eq!(rt.stats().inflight, 0, "gate slot leaked by dropped handle");
    // The runtime is still fully usable afterwards.
    let h = rt.submit_as(DEFAULT_TENANT, Tree(10), SchedConfig::basic(4, 64), SchedulerKind::Par);
    assert_eq!(h.wait(), Ok(1 << 10));
}

#[test]
fn dropping_a_cancelled_handle_is_also_clean() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 2, ..RuntimeConfig::default() });
    let ticks = Arc::new(AtomicU64::new(0));
    let h = rt.submit_as(
        DEFAULT_TENANT,
        CountingTree { depth: 40, ticks: Arc::clone(&ticks) },
        SchedConfig::basic(4, 256),
        SchedulerKind::Par,
    );
    while ticks.load(Ordering::Relaxed) < 100 {
        std::hint::spin_loop();
    }
    h.cancel();
    drop(h);
    let deadline = Instant::now() + Duration::from_secs(60);
    while rt.stats().cancelled < 1 {
        assert!(Instant::now() < deadline, "cancelled+dropped job never wound down");
        std::thread::yield_now();
    }
    assert_eq!(rt.stats().inflight, 0);
}

#[test]
fn backpressure_blocks_then_releases() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, ..RuntimeConfig::default() });
    // Fill the single slot with a slow job, then submit another: the
    // second submit must block until the first completes.
    let slow = rt.submit_as(DEFAULT_TENANT, Tree(18), SchedConfig::basic(4, 64), SchedulerKind::Par);
    let fast = rt.submit_as(DEFAULT_TENANT, Tree(4), SchedConfig::basic(4, 64), SchedulerKind::Par);
    assert_eq!(fast.wait(), Ok(16));
    assert_eq!(slow.wait(), Ok(1 << 18));
    assert!(rt.stats().backpressure_waits >= 1, "the second submit should have hit the gate");
}

#[test]
fn try_submit_sheds_load_when_saturated() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 1, max_inflight: 1, ..RuntimeConfig::default() });
    let slow = rt.submit_as(DEFAULT_TENANT, Tree(20), SchedConfig::basic(4, 64), SchedulerKind::Par);
    // The slot is taken (the job may already be running, but it has not
    // completed): try_submit must bounce and return the program.
    match rt.try_submit_as(DEFAULT_TENANT, Tree(5), SchedConfig::basic(4, 64), SchedulerKind::Par) {
        Err(prog) => assert_eq!(prog.0, 5, "program handed back intact"),
        Ok(_) => panic!("try_submit admitted past a full gate"),
    }
    assert_eq!(slow.wait(), Ok(1 << 20));
    // Slot free again: admission works.
    let h = rt
        .try_submit_as(DEFAULT_TENANT, Tree(5), SchedConfig::basic(4, 64), SchedulerKind::Par)
        .unwrap_or_else(|_| panic!("gate should be free"));
    assert_eq!(h.wait(), Ok(32));
}

#[test]
fn panicking_program_is_contained() {
    struct Bomb;
    impl BlockProgram for Bomb {
        type Store = Vec<u32>;
        type Reducer = u64;
        fn arity(&self) -> usize {
            1
        }
        fn make_root(&self) -> Vec<u32> {
            vec![1]
        }
        fn make_reducer(&self) -> u64 {
            0
        }
        fn merge_reducers(&self, _: &mut u64, _: u64) {}
        fn expand(&self, _: &mut Vec<u32>, _: &mut BucketSet<Vec<u32>>, _: &mut u64) {
            panic!("bomb");
        }
    }
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let h = rt.submit_as(DEFAULT_TENANT, Bomb, SchedConfig::basic(4, 64), SchedulerKind::Seq);
    assert_eq!(h.wait(), Err(JobError::Panicked));
    assert_eq!(rt.stats().panicked, 1);
    assert_eq!(rt.stats().inflight, 0, "panicked job released its slot");
    // Pool workers survived; the runtime still serves.
    let h = rt.submit_as(DEFAULT_TENANT, Tree(8), SchedConfig::basic(4, 64), SchedulerKind::Par);
    assert_eq!(h.wait(), Ok(256));
}

// ---------------------------------------------------------------------------
// The spec-source submission path: clients ship programs as text.
// ---------------------------------------------------------------------------

const FIB_SRC: &str = "spec fib(n) {
  base (n < 2) { reduce n; }
  else { spawn fib(n - 1); spawn fib(n - 2); }
}";

#[test]
fn spec_source_jobs_run_under_every_kind() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    let configs = [
        SchedConfig::basic(4, 64),
        SchedConfig::reexpansion(4, 64),
        SchedConfig::restart(4, 64, 16),
        SchedConfig::adaptive(4),
    ];
    for cfg in configs {
        for kind in SchedulerKind::ALL {
            let h = rt.submit_spec_foreach_tier_as(
                DEFAULT_TENANT,
                FIB_SRC,
                vec![vec![18]],
                cfg,
                kind,
                SpecTier::Auto,
            );
            assert_eq!(h.wait(), Ok(2584), "{kind:?} {:?}", cfg.policy);
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.spec_compiles, 1, "compiled once");
    let submissions = configs.len() * SchedulerKind::ALL.len();
    assert_eq!(stats.spec_cache_hits, submissions as u64 - 1, "every resubmission hit the cache");
    assert_eq!(stats.rejected, 0);
}

#[test]
fn spec_foreach_submission_strip_mines_many_roots() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 3, max_inflight: 8, ..RuntimeConfig::default() });
    let calls: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 10]).collect();
    // sum of fib(0..=9) cycled 20 times: (fib(11) - 1) * 20
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        FIB_SRC,
        calls,
        SchedConfig::basic(8, 32),
        SchedulerKind::Par,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(88 * 20));
}

#[test]
fn malformed_spec_source_is_rejected_not_panicked() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        "spec f(n) { base (n < 2) { reduce n; } else { spawn g(n - 1); } }",
        vec![vec![5]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Par,
        SpecTier::Auto,
    );
    assert!(h.is_finished(), "rejection completes the handle immediately");
    match h.wait() {
        Err(JobError::Rejected(msg)) => {
            assert!(msg.contains("self-recursive"), "diagnostic names the violation: {msg}");
            assert!(msg.contains('^'), "diagnostic carries the caret line: {msg}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    let stats = rt.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.submitted, 0, "rejected specs never occupy a gate slot");
    assert_eq!(stats.inflight, 0);
    // The runtime still serves after a rejection.
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        FIB_SRC,
        vec![vec![10]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(55));
}

#[test]
fn wrong_root_arity_is_rejected_with_a_message() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        FIB_SRC,
        vec![vec![10, 3]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    match h.wait() {
        Err(JobError::Rejected(msg)) => {
            assert!(msg.contains("2 args") && msg.contains("1 params"), "{msg}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(rt.stats().rejected, 1);
}

#[test]
fn spec_cache_is_shared_across_concurrent_clients() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 16, ..RuntimeConfig::default() });
    std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = rt.clone();
            s.spawn(move || {
                for n in [8i64, 10, 12] {
                    let h = rt.submit_spec_foreach_tier_as(
                        DEFAULT_TENANT,
                        FIB_SRC,
                        vec![vec![n]],
                        SchedConfig::basic(4, 32),
                        SchedulerKind::Seq,
                        SpecTier::Auto,
                    );
                    let want = [21, 55, 144][[8, 10, 12].iter().position(|&x| x == n).unwrap()];
                    assert_eq!(h.wait(), Ok(want));
                }
            });
        }
    });
    let stats = rt.stats();
    assert_eq!(stats.completed, 12);
    // The source may compile more than once under a racing first miss
    // (compilation happens outside the lock), but the cache must converge:
    // compiles + hits account for every submission.
    assert!(stats.spec_compiles >= 1);
    assert_eq!(stats.spec_compiles + stats.spec_cache_hits, 12);
}

#[test]
fn hostile_spec_source_cannot_kill_the_runtime() {
    // A pathological source (50k nested parens) must come back as a
    // Rejected handle — before the parser's nesting limits this aborted
    // the whole process with a stack overflow.
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, ..RuntimeConfig::default() });
    let hostile = format!(
        "spec f(n) {{ base (n < 2) {{ reduce {}n{}; }} else {{ spawn f(n - 1); }} }}",
        "(".repeat(50_000),
        ")".repeat(50_000)
    );
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        &hostile,
        vec![vec![5]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    assert!(matches!(h.wait(), Err(JobError::Rejected(_))));
    // The runtime survives and still serves.
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        FIB_SRC,
        vec![vec![10]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(55));
}
