//! Stress tests for the work-stealing runtime substrate: deep nesting,
//! wide fan-out, repeated pool churn, split-on-demand storms, and
//! randomized owner-vs-thieves torture of the deques (the lock-free
//! Chase–Lev job deque and the locked shared leveled block deque). These
//! are the conditions Cilk's THE protocol is hardened against; ours must
//! survive them too.
//!
//! The deque tests are conservation arguments: every pushed token is
//! accounted exactly once across owner pops and thief steals (a lost CAS
//! that still delivered its element, an ABA'd slot, or a double-material-
//! ized speculative copy would all break the sum or the count). Run them
//! under `--release` too — optimized codegen reorders more aggressively
//! and is where ordering bugs actually surface.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use taskblocks::core::{SharedLeveledDeque, TaskBlock};
use taskblocks::prelude::*;
use taskblocks::runtime::deque::{Steal, Worker};
use taskblocks::runtime::injector::Injector;

#[test]
fn deeply_nested_joins_do_not_deadlock() {
    // A right-leaning chain of joins 2000 deep: every level forks a stub
    // left branch and recurses on the stealable right branch.
    fn chain(ctx: &WorkerCtx<'_>, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        let (a, b) = ctx.join(|_| 0u64, move |c| chain(c, depth - 1));
        a + b
    }
    let pool = ThreadPool::new(3);
    assert_eq!(pool.install(|ctx| chain(ctx, 2000)), 1);
}

#[test]
fn wide_fanout_via_binary_splitting() {
    fn sum_range(ctx: &WorkerCtx<'_>, lo: u64, hi: u64) -> u64 {
        if hi - lo <= 64 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = ctx.join(move |c| sum_range(c, lo, mid), move |c| sum_range(c, mid, hi));
        a + b
    }
    let pool = ThreadPool::new(4);
    let n = 1_000_000u64;
    assert_eq!(pool.install(|ctx| sum_range(ctx, 0, n)), n * (n - 1) / 2);
}

#[test]
fn pool_churn_does_not_leak_or_wedge() {
    for round in 0..25 {
        let pool = ThreadPool::new(1 + round % 4);
        let v = pool.install(|ctx| {
            let (a, b) = ctx.join(|_| 21u64, |_| 21u64);
            a + b
        });
        assert_eq!(v, 42);
    }
}

#[test]
fn split_storms_conserve_every_token() {
    // The fork shape of the pool restart scheduler: an owner works through
    // a pile it holds by value and, when a thief is hungry (and every
    // eighth token regardless, so the storm rages even on a busy pool),
    // splits half of it off as the owned input of a joined sibling.
    fn storm(ctx: &WorkerCtx<'_>, mut pile: Vec<u64>) -> (u64, u64) {
        let (mut count, mut sum) = (0u64, 0u64);
        while let Some(token) = pile.pop() {
            count += 1;
            sum += token;
            if pile.len() >= 2 && (ctx.thief_hungry() || count % 8 == 0) {
                let theirs = pile.split_off(pile.len() / 2);
                let ((ac, asum), (bc, bsum)) = ctx.join(move |c| storm(c, pile), move |c| storm(c, theirs));
                return (count + ac + bc, sum + asum + bsum);
            }
        }
        (count, sum)
    }
    let pool = ThreadPool::new(4);
    let n = 1u64 << 12;
    let (count, sum) = pool.install(|ctx| storm(ctx, (1..=n).collect()));
    // Every token consumed exactly once, whichever side of a split ran it.
    assert_eq!(count, n);
    assert_eq!(sum, n * (n + 1) / 2);
}

#[test]
fn results_with_heap_payloads_move_correctly() {
    let pool = ThreadPool::new(3);
    let (left, right) = pool.install(|ctx| {
        ctx.join(
            |_| (0..100u32).collect::<Vec<_>>(),
            |_| "the stolen branch returns an owned string".to_string(),
        )
    });
    assert_eq!(left.len(), 100);
    assert!(right.contains("stolen"));
}

/// A tiny deterministic RNG so the stress schedules vary but reproduce.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn chase_lev_randomized_owner_vs_thieves_conserves_every_item() {
    // One owner doing a random push/pop mix, three thieves stealing
    // continuously. Every item carries its value; at the end the sum and
    // count over {owner pops, thief steals} must equal what was pushed —
    // any take-race double-delivery or lost element breaks it.
    const ITEMS: u64 = 60_000;
    for seed in 1..=3u64 {
        let w: Worker<u64> = Worker::new();
        let stolen_sum = AtomicU64::new(0);
        let stolen_cnt = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut popped_sum = 0u64;
        let mut popped_cnt = 0u64;
        let mut rng = 0x9E37_79B9_0000_0000u64 | seed;
        std::thread::scope(|s| {
            for _ in 0..3 {
                let st = w.stealer();
                let (stolen_sum, stolen_cnt, done) = (&stolen_sum, &stolen_cnt, &done);
                s.spawn(move || loop {
                    match st.steal() {
                        Steal::Success(v) => {
                            stolen_sum.fetch_add(v, Ordering::Relaxed);
                            stolen_cnt.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && st.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut next = 0u64;
            while next < ITEMS {
                // Random-length push burst, then a few owner pops.
                let burst = 1 + xorshift(&mut rng) % 64;
                for _ in 0..burst {
                    if next == ITEMS {
                        break;
                    }
                    w.push(next);
                    next += 1;
                }
                let pops = xorshift(&mut rng) % 8;
                for _ in 0..pops {
                    if let Some(v) = w.pop() {
                        popped_sum += v;
                        popped_cnt += 1;
                    }
                }
            }
            while let Some(v) = w.pop() {
                popped_sum += v;
                popped_cnt += 1;
            }
            done.store(true, Ordering::Release);
        });
        let total_cnt = popped_cnt + stolen_cnt.load(Ordering::Relaxed);
        let total_sum = popped_sum + stolen_sum.load(Ordering::Relaxed);
        assert_eq!(total_cnt, ITEMS, "seed {seed}: item delivered zero or twice");
        assert_eq!(total_sum, ITEMS * (ITEMS - 1) / 2, "seed {seed}: item value corrupted");
    }
}

#[test]
fn chase_lev_last_element_race_owner_vs_thief() {
    // The t == b corner: owner pop and thief steal race for a lone item,
    // thousands of times. Exactly one side must win each round — claims
    // are counted and value-summed, never made twice. (No per-round value
    // assertion: the thief may legitimately claim round r+1's element
    // while still acting on a stale view of round r, so only the
    // conservation totals are meaningful.)
    const ROUNDS: usize = 20_000;
    let w: Worker<usize> = Worker::new();
    let s = w.stealer();
    let thief_got = AtomicUsize::new(0);
    let thief_sum = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut owner_got = 0usize;
    let mut owner_sum = 0usize;
    std::thread::scope(|scope| {
        let (thief_got, thief_sum, done) = (&thief_got, &thief_sum, &done);
        scope.spawn(move || loop {
            match s.steal() {
                Steal::Success(v) => {
                    thief_sum.fetch_add(v, Ordering::Relaxed);
                    // AcqRel: the owner's wait below synchronizes on this.
                    thief_got.fetch_add(1, Ordering::AcqRel);
                }
                Steal::Retry => std::hint::spin_loop(),
                Steal::Empty => {
                    if done.load(Ordering::Acquire) && s.is_empty() {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        });
        for round in 0..ROUNDS {
            let before = thief_got.load(Ordering::Acquire);
            w.push(round);
            match w.pop() {
                Some(v) => {
                    owner_got += 1;
                    owner_sum += v;
                }
                None => {
                    // Thief must have it (or be about to finish claiming
                    // it): wait until its counter ticks so every round's
                    // element is claimed before the next push.
                    while thief_got.load(Ordering::Acquire) == before {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(owner_got + thief_got.load(Ordering::Relaxed), ROUNDS, "element claimed zero or twice");
    assert_eq!(
        owner_sum + thief_sum.load(Ordering::Relaxed),
        ROUNDS * (ROUNDS - 1) / 2,
        "element value corrupted or duplicated"
    );
}

#[test]
fn shared_leveled_deque_steal_half_storm_conserves_tasks() {
    // Owner parks/merges/scans across many levels while thieves strip
    // whole levels with steal_half; total tasks across owner takes, thief
    // loot (primary + leftover), and the final drain must match pushes.
    const ROUNDS: usize = 400;
    const LEVELS: usize = 70; // crosses a segment boundary (64)
    for seed in 1..=2u64 {
        let d: SharedLeveledDeque<Vec<u64>> = SharedLeveledDeque::new();
        let stolen = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut rng = 0xDEAD_BEEF_0000_0000u64 | seed;
        let mut owner_tasks = 0u64;
        let mut pushed = 0u64;
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (d, stolen, done) = (&d, &stolen, &done);
                s.spawn(move || loop {
                    match d.steal_half(8) {
                        Some(loot) => {
                            let n = loot.primary.len() + loot.leftover.as_ref().map_or(0, TaskBlock::len);
                            stolen.fetch_add(n as u64, Ordering::Relaxed);
                        }
                        None => {
                            // The confirmation steal after `done` may itself
                            // succeed (the first miss can be transient under
                            // contention); its loot must be counted, not
                            // dropped.
                            if done.load(Ordering::Acquire) {
                                match d.steal_half(8) {
                                    Some(loot) => {
                                        let n = loot.primary.len()
                                            + loot.leftover.as_ref().map_or(0, TaskBlock::len);
                                        stolen.fetch_add(n as u64, Ordering::Relaxed);
                                    }
                                    None => break,
                                }
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            let mut merges = 0u64;
            for _ in 0..ROUNDS {
                let level = (xorshift(&mut rng) as usize) % LEVELS;
                let n = 1 + (xorshift(&mut rng) as usize) % 9;
                pushed += n as u64;
                if xorshift(&mut rng).is_multiple_of(2) {
                    d.push_dfe(TaskBlock::new(level, vec![0u64; n]));
                } else {
                    d.push_restart(TaskBlock::new(level, vec![0u64; n]));
                }
                match xorshift(&mut rng) % 4 {
                    0 => {
                        if let Some(b) = d.find_restart_full(12, &mut merges) {
                            owner_tasks += b.len() as u64;
                        }
                    }
                    1 => {
                        if let Some(b) = d.take_level(level) {
                            owner_tasks += b.len() as u64;
                        }
                    }
                    _ => {}
                }
            }
            done.store(true, Ordering::Release);
        });
        while let Some(loot) = d.steal_half(1) {
            owner_tasks += (loot.primary.len() + loot.leftover.as_ref().map_or(0, TaskBlock::len)) as u64;
        }
        assert_eq!(
            owner_tasks + stolen.load(Ordering::Relaxed),
            pushed,
            "seed {seed}: task lost or duplicated under steal-half"
        );
        assert_eq!(d.task_count(), 0, "seed {seed}: counters out of sync at quiescence");
        assert_eq!(d.block_count(), 0, "seed {seed}: counters out of sync at quiescence");
    }
}

#[test]
fn segmented_injector_100k_jobs_from_8_threads_conserves_every_job() {
    // The PR 3 injector-full regression guard: 100 000 jobs pushed from 8
    // producer threads through the segmented unbounded injector while 3
    // consumers drain it. Conservation: every pushed token is delivered
    // exactly once (count and value-sum both match), and — the property
    // the segmented design exists for — no producer ever waited on
    // capacity. Run in debug AND `--release`; optimized codegen reorders
    // more aggressively and is where the segment hand-off would break.
    const PRODUCERS: u64 = 8;
    const PER_PRODUCER: u64 = 12_500; // 8 × 12.5k = 100k jobs
    const TOTAL: u64 = PRODUCERS * PER_PRODUCER;
    let inj: Injector<u64> = Injector::new();
    let got_sum = AtomicU64::new(0);
    let got_cnt = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let inj = &inj;
            s.spawn(move || {
                for i in 0..PER_PRODUCER {
                    inj.push(p * PER_PRODUCER + i);
                }
            });
        }
        for _ in 0..3 {
            let (inj, got_sum, got_cnt) = (&inj, &got_sum, &got_cnt);
            s.spawn(move || loop {
                match inj.steal() {
                    Steal::Success(v) => {
                        got_sum.fetch_add(v, Ordering::Relaxed);
                        got_cnt.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        if got_cnt.load(Ordering::Relaxed) == TOTAL {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    assert_eq!(got_cnt.load(Ordering::Relaxed), TOTAL, "job lost or double-delivered");
    assert_eq!(got_sum.load(Ordering::Relaxed), TOTAL * (TOTAL - 1) / 2, "job payload corrupted");
    assert!(inj.is_empty());
    let m = inj.metrics();
    assert_eq!(m.full_waits, 0, "unbounded injector must never block a submission on capacity");
    assert!(m.segments_allocated >= 2, "100k jobs crossed many segment boundaries");
}

#[test]
fn pool_spawn_100k_fire_and_forget_jobs_all_execute_exactly_once() {
    // Same conservation argument one layer up: 100k spawn()ed pool jobs
    // from 8 submitting threads, each bumping a counter and a value sum
    // exactly once. Exercises the injector under the pool's real consumer
    // (worker steal sweeps + parking) rather than a synthetic drain loop.
    const SUBMITTERS: u64 = 8;
    const PER_SUBMITTER: u64 = 12_500;
    const TOTAL: u64 = SUBMITTERS * PER_SUBMITTER;
    let pool = ThreadPool::new(4);
    let sum = std::sync::Arc::new(AtomicU64::new(0));
    let cnt = std::sync::Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for p in 0..SUBMITTERS {
            let (pool, sum, cnt) = (&pool, &sum, &cnt);
            s.spawn(move || {
                for i in 0..PER_SUBMITTER {
                    let v = p * PER_SUBMITTER + i;
                    let (sum, cnt) = (std::sync::Arc::clone(sum), std::sync::Arc::clone(cnt));
                    pool.spawn(move |_ctx| {
                        sum.fetch_add(v, Ordering::Relaxed);
                        cnt.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
    });
    // Submissions done; wait for the pool to drain them.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while cnt.load(Ordering::Relaxed) < TOTAL {
        assert!(std::time::Instant::now() < deadline, "pool wedged draining spawned jobs");
        std::thread::yield_now();
    }
    assert_eq!(cnt.load(Ordering::Relaxed), TOTAL, "spawned job lost or run twice");
    assert_eq!(sum.load(Ordering::Relaxed), TOTAL * (TOTAL - 1) / 2);
    assert_eq!(pool.injector_metrics().full_waits, 0);
}

#[test]
fn pool_survives_many_workers_on_lock_free_deques() {
    // End-to-end: an 8-worker pool (heavily oversubscribed on small CI
    // boxes) computing a fork-heavy reduction lands on the exact answer.
    fn sum_range(ctx: &WorkerCtx<'_>, lo: u64, hi: u64) -> u64 {
        if hi - lo <= 32 {
            return (lo..hi).sum();
        }
        let mid = lo + (hi - lo) / 2;
        let (a, b) = ctx.join(move |c| sum_range(c, lo, mid), move |c| sum_range(c, mid, hi));
        a + b
    }
    let pool = ThreadPool::new(8);
    let n = 300_000u64;
    assert_eq!(pool.install(|ctx| sum_range(ctx, 0, n)), n * (n - 1) / 2);
    let m = pool.metrics();
    assert!(m.steal_attempts >= m.steals);
}

#[test]
fn cross_shard_conservation_with_one_shard_saturated() {
    // The sharded-runtime conservation argument, end to end: four
    // single-worker shards behind the placement layer, one shard pinned at
    // capacity by flag-held blocker jobs, and M client threads hammering
    // the try-submission path with a mix of fib specs, fan-out tree
    // programs and malformed sources. Throughout the storm and at
    // quiescence, the rolled-up `ShardSnapshot`s must show (a) the
    // placement conservation identity `submitted == placed + shed +
    // rejected`, (b) no tenant ever holding more gate slots than its
    // `max_pending` on any shard, and (c) after the drain, zero held
    // slots, zero inflight jobs and every booking retired — shedding
    // around the saturated shard must lose nothing and leak nothing.
    use std::sync::Arc;

    use taskblocks::service::{
        PlacementPolicy, RuntimeConfig, ShardConfig, ShardedRuntime, TenantId, TenantSpec,
    };
    use taskblocks::spec::SpecTier;

    const SHARDS: usize = 4;
    const CAPACITY: usize = 4; // per-shard max_inflight = placement capacity
    const CLIENTS: u64 = 5;
    const ITERS: u64 = 60;
    const FIB: &str =
        "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }";

    /// Occupies its shard until the shared flag flips; its gate slot and
    /// placement booking stay held the whole time.
    struct Blocker(Arc<AtomicBool>);
    impl BlockProgram for Blocker {
        type Store = Vec<u8>;
        type Reducer = i64;
        fn arity(&self) -> usize {
            1
        }
        fn make_root(&self) -> Vec<u8> {
            vec![1]
        }
        fn make_reducer(&self) -> i64 {
            0
        }
        fn merge_reducers(&self, a: &mut i64, b: i64) {
            *a += b;
        }
        fn expand(&self, block: &mut Vec<u8>, _out: &mut BucketSet<Vec<u8>>, red: &mut i64) {
            while !self.0.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            *red += block.drain(..).len() as i64;
        }
    }

    /// A little fan-out tree (UTS-flavoured): count the leaves of a
    /// depth-`n` binary tree.
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

    let shard_cfg = RuntimeConfig { threads: 1, max_inflight: CAPACITY, max_parked: 0 };
    let rt = ShardedRuntime::with_config(ShardConfig {
        shards: vec![shard_cfg; SHARDS],
        policy: PlacementPolicy::Affinity,
    });

    let saturator = rt.register_tenant(TenantSpec::new("saturator", CAPACITY));
    let sat_home = rt.home_shard(saturator);
    // Per-shard bound 2 for every client tenant; 12 of them guarantees
    // some are homed on the shard we saturate (the hash is deterministic,
    // so this is a structural assertion, not a coin flip).
    let clients: Vec<TenantId> =
        (0..12).map(|i| rt.register_tenant(TenantSpec::new(format!("client{i}"), 2))).collect();
    assert!(
        clients.iter().any(|&t| rt.home_shard(t) == sat_home),
        "pick more client tenants: none homed on the saturated shard"
    );

    // Pin the saturator's home shard at capacity: CAPACITY blockers via
    // the blocking path (which routes home unconditionally). One spins on
    // the shard's only worker; the rest hold gate slots in its queues.
    let release = Arc::new(AtomicBool::new(false));
    let blockers: Vec<_> = (0..CAPACITY)
        .map(|_| {
            rt.submit_as(
                saturator,
                Blocker(Arc::clone(&release)),
                SchedConfig::basic(1, 8),
                SchedulerKind::Par,
            )
        })
        .collect();
    assert_eq!(rt.snapshot().loads[sat_home as usize].pending, CAPACITY, "home shard pinned full");

    let local_ok = AtomicU64::new(0);
    let local_capacity_rejects = AtomicU64::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let rt = rt.clone();
            let clients = &clients;
            let (local_ok, local_capacity_rejects) = (&local_ok, &local_capacity_rejects);
            s.spawn(move || {
                let mut rng = 0x5EED_0000_0000_0000u64 | (client + 1);
                let mut fib_handles = Vec::new();
                let mut tree_handles = Vec::new();
                let mut reject_handles = Vec::new();
                for i in 0..ITERS {
                    let tenant = clients[(xorshift(&mut rng) as usize) % clients.len()];
                    match xorshift(&mut rng) % 4 {
                        // fib(10) = 55 through the spec path, tier rotating.
                        0 | 1 => {
                            let tier = match xorshift(&mut rng) % 3 {
                                0 => SpecTier::Auto,
                                1 => SpecTier::Scalar,
                                _ => SpecTier::Simd,
                            };
                            match rt.try_submit_spec_tier_as(
                                tenant,
                                FIB,
                                vec![10],
                                SchedConfig::restart(2, 256, 32),
                                SchedulerKind::Par,
                                tier,
                            ) {
                                Ok(h) => fib_handles.push(h),
                                Err(args) => {
                                    assert_eq!(args, vec![10], "capacity Err hands the args back");
                                    local_capacity_rejects.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        // A 2^6-leaf tree through the program path.
                        2 => match rt.try_submit_as(
                            tenant,
                            Tree(6),
                            SchedConfig::basic(2, 64),
                            SchedulerKind::Par,
                        ) {
                            Ok(h) => tree_handles.push(h),
                            Err(_) => {
                                local_capacity_rejects.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        // A malformed source: if placed, it must come back
                        // as Rejected and still retire its booking.
                        _ => match rt.try_submit_spec_tier_as(
                            tenant,
                            "spec broken(n) { base (n < 2) { reduce n; } else { oops; } }",
                            vec![3],
                            SchedConfig::basic(1, 16),
                            SchedulerKind::Par,
                            SpecTier::Auto,
                        ) {
                            Ok(h) => reject_handles.push(h),
                            Err(_) => {
                                local_capacity_rejects.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                    }

                    // Sample the rolled-up snapshot mid-storm: conservation
                    // and the per-tenant gate bound must hold at every
                    // instant, not just at quiescence.
                    if i % 16 == 0 {
                        let snap = rt.snapshot();
                        let p = snap.placement;
                        assert_eq!(
                            p.submitted,
                            p.placed + p.shed + p.rejected,
                            "conservation broke mid-storm: {p:?}"
                        );
                        for stats in &snap.shards {
                            for t in &stats.tenants {
                                assert!(
                                    t.pending <= t.max_pending,
                                    "tenant {} holds {} gate slots, bound {}",
                                    t.name,
                                    t.pending,
                                    t.max_pending
                                );
                            }
                        }
                    }
                }
                local_ok.fetch_add(
                    (fib_handles.len() + tree_handles.len() + reject_handles.len()) as u64,
                    Ordering::Relaxed,
                );
                for h in fib_handles {
                    assert_eq!(h.wait(), Ok(55), "fib(10) through a shard");
                }
                for h in tree_handles {
                    assert_eq!(h.wait(), Ok(64), "2^6 leaves through a shard");
                }
                for h in reject_handles {
                    let err = h.wait().expect_err("malformed source must be rejected");
                    assert!(matches!(err, taskblocks::service::JobError::Rejected(_)));
                }
            });
        }
    });

    // The clients drained their own jobs, so the siblings are empty while
    // the saturated shard still holds its blockers: a client homed there
    // must now shed deterministically.
    let shed_before = rt.snapshot().placement.shed;
    let homebound = clients.iter().copied().find(|&t| rt.home_shard(t) == sat_home).unwrap();
    let shed_handle = rt
        .try_submit_spec_tier_as(
            homebound,
            FIB,
            vec![10],
            SchedConfig::restart(2, 256, 32),
            SchedulerKind::Par,
            SpecTier::Auto,
        )
        .expect("siblings have room: this job sheds, it does not reject");
    assert_eq!(shed_handle.wait(), Ok(55));
    assert!(rt.snapshot().placement.shed > shed_before, "the controlled overflow was shed");

    // Drain the saturated shard and audit quiescence.
    release.store(true, Ordering::Release);
    for h in blockers {
        assert_eq!(h.wait(), Ok(1), "released blocker completes");
    }
    let snap = rt.snapshot();
    let p = snap.placement;
    assert_eq!(p.submitted, p.placed + p.shed + p.rejected, "conservation at quiescence: {p:?}");
    assert_eq!(p.abandoned, 0, "no core-approved submission was refused by a gate: {p:?}");
    assert_eq!(p.placed + p.shed, p.completed, "every booking retired: {p:?}");
    assert_eq!(
        p.placed + p.shed,
        local_ok.load(Ordering::Relaxed) + CAPACITY as u64 + 1,
        "client tallies agree with the core: storm Oks + blockers + the controlled shed"
    );
    assert_eq!(
        p.rejected,
        local_capacity_rejects.load(Ordering::Relaxed),
        "every capacity Err the clients saw is a core rejection and vice versa"
    );
    assert_eq!(snap.gate_slots_held(), 0, "drained shards hold no gate slots");
    assert_eq!(snap.inflight(), 0, "drained shards run nothing");
    for (i, view) in snap.loads.iter().enumerate() {
        assert_eq!(view.pending, 0, "shard {i} still has a booking at quiescence");
    }
    // Service-stats rollup agrees with placement: accepted jobs all
    // completed, and the malformed sources are the only failures.
    assert_eq!(snap.submitted(), snap.completed(), "no job was lost inside a shard");
    assert_eq!(
        snap.completed() + snap.failed(),
        p.completed,
        "shard completions + spec rejections account for every retired booking"
    );
}
