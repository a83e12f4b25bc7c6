//! Regression tests for the `submit_spec` compile cache's LRU eviction
//! (the ROADMAP "spec-cache eviction" item) and for the execution-tier
//! knob threaded through the spec submission path.
//!
//! The PR 4 cache was capped but never evicted: the first 1024 distinct
//! sources occupied the map forever, so a hot program arriving *after*
//! 1024 cold one-shots recompiled on every submission. The cache is now a
//! true LRU — every hit restamps its entry, and insertion at capacity
//! evicts the least-recently-used source — which these tests pin down
//! through the public `ServiceStats` counters (`spec_compiles` counts
//! misses, `spec_cache_hits` counts hits).

use tb_core::{SchedConfig, SchedulerKind};
use tb_service::{Runtime, RuntimeConfig, DEFAULT_TENANT};
use tb_spec::SpecTier;

/// Matches `SPEC_CACHE_CAP` in `tb-service`; the tests below fill exactly
/// this many distinct cold sources.
const CAP: usize = 1024;

const HOT_SRC: &str = "spec hot(n) {
  base (n < 2) { reduce n; }
  else { spawn hot(n - 1); spawn hot(n - 2); }
}";

/// A family of distinct single-task sources (the reduce constant varies,
/// so every source text — and thus every cache key — differs).
fn cold_src(i: usize) -> String {
    format!("spec cold(n) {{ base (0 < 1) {{ reduce {i}; }} else {{ spawn cold(n - 1); }} }}")
}

fn tiny_cfg() -> SchedConfig {
    SchedConfig::basic(4, 32)
}

#[test]
fn hot_source_survives_a_cap_of_cold_ones() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        HOT_SRC,
        vec![vec![8]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(21));
    // Interleave CAP distinct cold sources with hot resubmissions: the
    // hot entry is always the most recently used, so LRU eviction must
    // sacrifice cold entries around it, never the hot one.
    for i in 0..CAP {
        let c = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            &cold_src(i),
            vec![vec![0]],
            tiny_cfg(),
            SchedulerKind::Seq,
            SpecTier::Auto,
        );
        assert_eq!(c.wait(), Ok(i as i64));
        let h = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            HOT_SRC,
            vec![vec![8]],
            tiny_cfg(),
            SchedulerKind::Seq,
            SpecTier::Auto,
        );
        assert_eq!(h.wait(), Ok(21));
    }
    let stats = rt.stats();
    assert_eq!(stats.spec_compiles as usize, 1 + CAP, "hot compiled exactly once, colds once each");
    assert_eq!(stats.spec_cache_hits as usize, CAP, "every hot resubmission hit the cache");
    assert_eq!(stats.rejected, 0);
}

#[test]
fn late_arriving_hot_source_displaces_a_cold_one() {
    // The case the PR 4 cap got wrong: fill the cache to capacity first,
    // *then* start using a new program heavily. A never-evicting cap
    // recompiles the newcomer forever; an LRU admits it on first sight
    // and serves every subsequent submission from the cache.
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    for i in 0..CAP {
        let c = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            &cold_src(i),
            vec![vec![0]],
            tiny_cfg(),
            SchedulerKind::Seq,
            SpecTier::Auto,
        );
        assert_eq!(c.wait(), Ok(i as i64));
    }
    for _ in 0..3 {
        let h = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            HOT_SRC,
            vec![vec![8]],
            tiny_cfg(),
            SchedulerKind::Seq,
            SpecTier::Auto,
        );
        assert_eq!(h.wait(), Ok(21));
    }
    let stats = rt.stats();
    assert_eq!(stats.spec_compiles as usize, CAP + 1, "the late hot source compiled exactly once");
    assert_eq!(stats.spec_cache_hits, 2, "its resubmissions were cache hits");
}

#[test]
fn eviction_victim_is_the_least_recently_used() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    // Fill to capacity, then touch source 0 so source 1 becomes the LRU.
    for i in 0..CAP {
        rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            &cold_src(i),
            vec![vec![0]],
            tiny_cfg(),
            SchedulerKind::Seq,
            SpecTier::Auto,
        )
        .wait()
        .unwrap();
    }
    rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        &cold_src(0),
        vec![vec![0]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    )
    .wait()
    .unwrap();
    // One newcomer evicts exactly one entry — the LRU, source 1.
    rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        HOT_SRC,
        vec![vec![2]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    )
    .wait()
    .unwrap();
    let compiles_before = rt.stats().spec_compiles;
    // Source 0 (touched) and the newcomer are still cached…
    rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        &cold_src(0),
        vec![vec![0]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    )
    .wait()
    .unwrap();
    rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        HOT_SRC,
        vec![vec![2]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    )
    .wait()
    .unwrap();
    assert_eq!(rt.stats().spec_compiles, compiles_before, "touched and new entries survived");
    // …while source 1 was evicted and recompiles.
    rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        &cold_src(1),
        vec![vec![0]],
        tiny_cfg(),
        SchedulerKind::Seq,
        SpecTier::Auto,
    )
    .wait()
    .unwrap();
    assert_eq!(rt.stats().spec_compiles, compiles_before + 1, "the LRU entry was the victim");
}

#[test]
fn execution_tiers_agree_and_share_the_cache() {
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 8, ..RuntimeConfig::default() });
    let cfg = SchedConfig::restart(4, 64, 16);
    let mut results = Vec::new();
    for tier in [SpecTier::Auto, SpecTier::Scalar, SpecTier::Simd] {
        let h = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            HOT_SRC,
            vec![vec![17]],
            cfg,
            SchedulerKind::Par,
            tier,
        );
        results.push(h.wait().unwrap_or_else(|e| panic!("{tier:?}: {e:?}")));
    }
    assert_eq!(results, vec![1597, 1597, 1597], "all tiers are bit-identical");
    let stats = rt.stats();
    assert_eq!(stats.spec_compiles, 1, "tiers share one lowered SpecCode");
    assert_eq!(stats.spec_cache_hits, 2);

    // The foreach path honors the tier knob too.
    let calls: Vec<Vec<i64>> = (0..50).map(|i| vec![i % 10]).collect();
    let want = 88 * 5; // sum fib(0..=9) = fib(11) - 1 = 88, cycled 5 times
    for tier in [SpecTier::Scalar, SpecTier::Simd] {
        let h = rt.submit_spec_foreach_tier_as(
            DEFAULT_TENANT,
            HOT_SRC,
            calls.clone(),
            cfg,
            SchedulerKind::Par,
            tier,
        );
        assert_eq!(h.wait(), Ok(want), "{tier:?}");
    }
}
