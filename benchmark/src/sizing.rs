//! Every frozen size and every count derived from the host, in one place.
//!
//! The constants were chosen on the seed commit on a 2-core container so
//! that each workload yields ≥ 3000 verified ops in a 15 s window and loads
//! the layer it is meant to load (README.md, "Workloads"). They are part of
//! the benchmark's definition: changing one changes every baseline, so it
//! is a benchmark change, never part of a change that claims a gain.
//! `result.json` records them next to the numbers.

use std::ops::RangeInclusive;

use tb_core::{SchedConfig, SchedulerKind};

use crate::json::Json;

/// Stable workload identifiers, in run order.
pub const WORKLOADS: [&str; 5] = ["lib_batch", "wire_small", "wire_heavy", "wire_churn", "svc_burst"];

/// `tb-server serve`'s default shard count — the production shape.
pub const SHARDS: usize = 2;

/// The scheduler settings `wire.rs` hard-codes for every wire job; the
/// in-process rungs and `svc_burst` use the same so the ladder compares
/// like with like.
pub fn wire_sched() -> (SchedConfig, SchedulerKind) {
    (SchedConfig::restart(8, 1 << 10, 64), SchedulerKind::RestartSimplified)
}

/// Thresholds for `lib_batch`'s `RestartSimplified` runs (the pinned-grid
/// values of `tb-bench`); its `Adaptive` runs take none.
pub const LIB_T_DFE: usize = 1 << 10;
pub const LIB_T_RESTART: usize = 64;

// lib_batch: native programs, each 1.7–4.2 ms at 2 workers averaged over
// the two schedulers (≈ 2.9 ms over the mix; adaptive is 1.4–9× faster
// than restart, the extreme being uts).
pub const LIB_FIB_N: u8 = 26;
pub const LIB_BINOMIAL: (u8, u8) = (21, 8);
pub const LIB_NQUEENS_N: u8 = 11;
/// `(b0, m, q, seed)`: 61 528 nodes.
pub const LIB_UTS: (usize, usize, f64, u64) = (256, 8, 0.124, 19);
pub const LIB_WARMUP_OPS: usize = 40;
/// Pre-generated op stream length; the window cycles through it.
pub const LIB_STREAM_OPS: usize = 1000;

// wire_small / wire_churn: tiny jobs, ≈ 5–10 µs of execution in a
// ≈ 30 µs round trip.
pub const SMALL_FIB_ARGS: RangeInclusive<i64> = 8..=12;
pub const SMALL_BINOMIAL: (i64, i64) = (10, 4);
pub const SMALL_HOT_SOURCES: usize = 4;
pub const WIRE_TENANTS: usize = 8;
pub const SMALL_WARMUP_OPS: usize = 4000;
pub const WIRE_STREAM_OPS: usize = 1 << 15;

// wire_heavy: ≈ 3–5 ms of execution each on one shard worker.
pub const HEAVY_FIB_N: i64 = 25;
pub const HEAVY_BINOMIAL: (i64, i64) = (19, 8);
pub const HEAVY_PAREN_N: i64 = 10;
pub const HEAVY_TREESUM_DEPTH: i64 = 11;
pub const HEAVY_WARMUP_OPS: usize = 60;
pub const HEAVY_STREAM_OPS: usize = 1 << 12;

// wire_churn: the cold set is 8× the per-shard LRU (1024 entries).
pub const CHURN_HOT_SOURCES: usize = 64;
pub const CHURN_COLD_SOURCES: usize = 8192;
pub const CHURN_COLD_PERCENT: u64 = 40;
/// Parts per thousand of requests that are malformed.
pub const CHURN_MALFORMED_PERMILLE: u64 = 30;
pub const CHURN_SOURCE_BYTES: RangeInclusive<usize> = 300..=3000;
/// Enough for each shard's LRU to reach capacity before the window.
pub const CHURN_WARMUP_OPS: usize = 8000;

// svc_burst: 64 jobs every 10 ms: the busier shard (48 batch jobs) drains a
// burst in ≈ 50 % of the period. 96 jobs saturate it on 2 cores.
pub const BURST_PERIOD_US: u64 = 10_000;
pub const BURST_JOBS: usize = 64;
/// One in `BURST_INTER_EVERY` jobs belongs to tenant `inter`.
pub const BURST_INTER_EVERY: usize = 4;
pub const BURST_FIB_ARGS: RangeInclusive<i64> = 15..=17;
/// Gate capacities, several bursts deep: the seed sheds nothing.
pub const BURST_BATCH_PENDING: usize = 512;
pub const BURST_INTER_PENDING: usize = 256;
pub const BURST_WARMUP_BURSTS: usize = 30;
pub const BURST_SCHEDULE_BURSTS: usize = 256;

/// Ladder prefix lengths (ops replayed at every rung).
pub const LADDER_OPS: usize = 2000;
pub const LADDER_OPS_SLOW: usize = 100;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPLICAS: usize = 3;

/// Thread and connection counts derived from the host. Pool workers never
/// exceed `nproc`; closed-loop connections deliberately do (see `conns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    pub nproc: usize,
    pub shards: usize,
    pub threads_per_shard: usize,
    /// Closed-loop connections (each is one serial caller): eight per core,
    /// enough to keep every core busy. With `conns ≤ nproc` the cores idle
    /// between hand-offs, and on a virtual machine waking a halted vCPU
    /// costs tens of microseconds — whether a hand-off pays that depends on
    /// where the kernel last placed the threads, and throughput wandered
    /// 13–23 k ops/s within one run. Saturated, it repeats.
    pub conns: usize,
    /// `lib_batch`'s single pool.
    pub pool_workers: usize,
}

impl Sizing {
    pub fn derive(nproc: usize) -> Self {
        let nproc = nproc.max(1);
        Sizing {
            nproc,
            shards: SHARDS,
            threads_per_shard: (nproc / 2).max(1),
            conns: (8 * nproc).clamp(8, 32),
            pool_workers: nproc,
        }
    }

    /// Pool workers that compute during `workload`'s window (connection
    /// threads and the burst generator come on top).
    pub fn busy_threads(&self, workload: &str) -> usize {
        match workload {
            "lib_batch" => self.pool_workers,
            _ => self.shards * self.threads_per_shard,
        }
    }

    /// True on a host too small for the production shape (one core): the
    /// numbers are still printed, but `result.json` carries the tag and
    /// `compare` refuses them.
    pub fn oversubscribed(&self) -> bool {
        WORKLOADS.iter().any(|w| self.busy_threads(w) > self.nproc)
    }

    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::Num(v as f64);
        Json::obj([
            ("nproc", n(self.nproc)),
            ("shards", n(self.shards)),
            ("threads_per_shard", n(self.threads_per_shard)),
            ("conns", n(self.conns)),
            ("pool_workers", n(self.pool_workers)),
            ("oversubscribed", Json::Bool(self.oversubscribed())),
        ])
    }
}

/// The frozen constants, for `result.json`.
pub fn frozen_json() -> Json {
    let n = |v: usize| Json::Num(v as f64);
    let i = |v: i64| Json::Num(v as f64);
    let range = |r: &RangeInclusive<i64>| Json::Arr(vec![i(*r.start()), i(*r.end())]);
    Json::obj([
        ("sched", Json::str("restart(q=8, t_dfe=1024, t_restart=64) / RestartSimplified")),
        (
            "lib_batch",
            Json::obj([
                ("fib_n", n(LIB_FIB_N as usize)),
                ("binomial", Json::Arr(vec![n(LIB_BINOMIAL.0 as usize), n(LIB_BINOMIAL.1 as usize)])),
                ("nqueens_n", n(LIB_NQUEENS_N as usize)),
                (
                    "uts",
                    Json::Arr(vec![
                        n(LIB_UTS.0),
                        n(LIB_UTS.1),
                        Json::Num(LIB_UTS.2),
                        Json::Num(LIB_UTS.3 as f64),
                    ]),
                ),
                ("knn", Json::str("Scale::Small")),
                ("t_dfe", n(LIB_T_DFE)),
                ("t_restart", n(LIB_T_RESTART)),
                ("warmup_ops", n(LIB_WARMUP_OPS)),
            ]),
        ),
        (
            "wire_small",
            Json::obj([
                ("fib_args", range(&SMALL_FIB_ARGS)),
                ("binomial", Json::Arr(vec![i(SMALL_BINOMIAL.0), i(SMALL_BINOMIAL.1)])),
                ("hot_sources", n(SMALL_HOT_SOURCES)),
                ("tenants", n(WIRE_TENANTS)),
                ("warmup_ops", n(SMALL_WARMUP_OPS)),
            ]),
        ),
        (
            "wire_heavy",
            Json::obj([
                ("fib_n", i(HEAVY_FIB_N)),
                ("binomial", Json::Arr(vec![i(HEAVY_BINOMIAL.0), i(HEAVY_BINOMIAL.1)])),
                ("paren_n", i(HEAVY_PAREN_N)),
                ("treesum_depth", i(HEAVY_TREESUM_DEPTH)),
                ("warmup_ops", n(HEAVY_WARMUP_OPS)),
            ]),
        ),
        (
            "wire_churn",
            Json::obj([
                ("hot_sources", n(CHURN_HOT_SOURCES)),
                ("cold_sources", n(CHURN_COLD_SOURCES)),
                ("cold_percent", n(CHURN_COLD_PERCENT as usize)),
                ("malformed_permille", n(CHURN_MALFORMED_PERMILLE as usize)),
                (
                    "source_bytes",
                    Json::Arr(vec![n(*CHURN_SOURCE_BYTES.start()), n(*CHURN_SOURCE_BYTES.end())]),
                ),
                ("warmup_ops", n(CHURN_WARMUP_OPS)),
            ]),
        ),
        (
            "svc_burst",
            Json::obj([
                ("period_us", n(BURST_PERIOD_US as usize)),
                ("jobs_per_burst", n(BURST_JOBS)),
                ("inter_every", n(BURST_INTER_EVERY)),
                ("fib_args", range(&BURST_FIB_ARGS)),
                ("batch_pending", n(BURST_BATCH_PENDING)),
                ("inter_pending", n(BURST_INTER_PENDING)),
                ("warmup_bursts", n(BURST_WARMUP_BURSTS)),
            ]),
        ),
        ("ladder_ops", n(LADDER_OPS)),
        ("ladder_ops_slow", n(LADDER_OPS_SLOW)),
        ("setup_replicas", n(SETUP_REPLICAS)),
    ])
}
