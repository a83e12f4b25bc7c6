//! Count gate for the engine's strip rule: whatever `t_dfe` is, the engine
//! strip-mines the root and cuts oversized blocks at
//! `S = max(t_dfe, 1024)` tasks. Counts, not times, so both tests hold on
//! any host.

use taskblocks::prelude::*;
use taskblocks::suite::{benchmark_by_name, Scale, Tier};

/// The strip size when `t_dfe` is below the floor.
const S: usize = 1024;

/// A data-parallel outer loop over ternary subtrees: each task is a
/// remaining depth and spawns three children until it reaches 0. With
/// three spawn sites the DFE leftovers of one level merge into blocks
/// twice the size of the block that made them, so the engine's `2·S` cut
/// is exercised, not only the root strips.
struct Ternary {
    roots: usize,
    depth: u8,
}

impl BlockProgram for Ternary {
    type Store = Vec<u8>;
    type Reducer = u64;

    fn arity(&self) -> usize {
        3
    }

    fn make_root(&self) -> Vec<u8> {
        vec![self.depth; self.roots]
    }

    fn make_reducer(&self) -> u64 {
        0
    }

    fn merge_reducers(&self, a: &mut u64, b: u64) {
        *a += b;
    }

    fn expand(&self, block: &mut Vec<u8>, out: &mut BucketSet<Vec<u8>>, leaves: &mut u64) {
        for d in block.drain(..) {
            if d == 0 {
                *leaves += 1;
            } else {
                for site in 0..3 {
                    out.bucket(site).push(d - 1);
                }
            }
        }
    }
}

#[test]
fn small_t_dfe_runs_in_s_task_strips_and_no_block_reaches_two_strips() {
    let prog = Ternary { roots: 5_000, depth: 3 };
    let restart = SchedConfig::restart(4, 64, 16);
    for cfg in [
        SchedConfig::basic(4, 64),
        SchedConfig::reexpansion(4, 64),
        restart,
        restart.with_policy(PolicyKind::Adaptive),
    ] {
        let what = format!("{:?}", cfg.policy);
        let mut engine = SeqScheduler::new(&prog, cfg);
        let (mut root_blocks, mut largest) = (Vec::new(), 0);
        loop {
            match engine.step() {
                StepEvent::Bfe { level, tasks } | StepEvent::Dfe { level, tasks } => {
                    if level == 0 {
                        root_blocks.push(tasks);
                    }
                    largest = largest.max(tasks);
                }
                StepEvent::Done => break,
                _ => {}
            }
        }
        assert_eq!(root_blocks, [S, S, S, S, 5_000 - 4 * S], "{what}: the root runs in S-task strips");
        assert!(largest < 2 * S, "{what}: a {largest}-task block ran");
        assert!(largest >= 2 * cfg.t_dfe, "{what}: no block grew past 2·t_dfe, so the floor never applied");
        assert_eq!(engine.into_output().reducer, 5_000 * 27, "{what}");
    }
}

/// `(supersteps, tasks_executed)` of one run.
type Counts = (u64, u64);

/// `(benchmark, restart counts, adaptive counts)`
/// on the sequential engine at `Scale::Tiny`, under `restart(q, 1024, 64)`
/// and `adaptive(q)`: the configs the benchmark's library and wire
/// workloads run. Both have `t_dfe ≥ 1024`, so `S == t_dfe` and the strip
/// rule must leave every count where the `2·t_dfe` cap had it; these are
/// the values read under that cap.
const PINNED: [(&str, Counts, Counts); 5] = [
    ("fib", (16, 3_193), (16, 3_193)),
    ("binomial", (41, 16_015), (16, 16_015)),
    ("nqueens", (9, 2_057), (21, 2_057)),
    ("uts", (13, 108), (18, 108)),
    ("knn", (7, 2_380), (127, 2_380)),
];

#[test]
fn benchmarked_configs_keep_their_supersteps_and_tasks() {
    for (name, restart, adaptive) in PINNED {
        let b = benchmark_by_name(name, Scale::Tiny).expect("known benchmark");
        let q = b.q();
        for (cfg, want) in
            [(SchedConfig::restart(q, 1024, 64), restart), (SchedConfig::adaptive(q), adaptive)]
        {
            let stats = b.blocked_seq(cfg, Tier::Block).stats;
            assert_eq!((stats.supersteps, stats.tasks_executed), want, "{name} under {:?}", cfg.policy);
        }
    }
}
