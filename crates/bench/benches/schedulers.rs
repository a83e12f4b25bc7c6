//! Criterion benches for the scheduler engines themselves: the same
//! program under basic / re-expansion / restart at small and large block
//! sizes (the ablation behind Figure 4's utilization story), plus every
//! policy on the pool scheduler and the §3.4 reference, all driven through
//! the uniform `run_policy` / `run_scheduler` dispatch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tb_core::prelude::*;
use tb_model::{CompTree, TreeWalk};
use tb_runtime::ThreadPool;

fn seq_policies(c: &mut Criterion) {
    let tree = CompTree::random_binary(60_000, 0.75, 7);
    let mut g = c.benchmark_group("seq_scheduler");
    for (name, cfg) in [
        ("basic/b=2^6", SchedConfig::basic(8, 1 << 6)),
        ("reexp/b=2^6", SchedConfig::reexpansion(8, 1 << 6)),
        ("restart/b=2^6", SchedConfig::restart(8, 1 << 6, 1 << 6)),
        ("basic/b=2^12", SchedConfig::basic(8, 1 << 12)),
        ("reexp/b=2^12", SchedConfig::reexpansion(8, 1 << 12)),
        ("restart/b=2^12", SchedConfig::restart(8, 1 << 12, 1 << 12)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let walk = TreeWalk::new(&tree);
                run_policy(&walk, cfg, None).stats.tasks_executed
            })
        });
    }
    g.finish();
}

fn par_schedulers(c: &mut Criterion) {
    let tree = CompTree::random_binary(60_000, 0.75, 7);
    let restart = SchedConfig::restart(8, 1 << 9, 1 << 7);
    let mut g = c.benchmark_group("par_scheduler");
    for workers in [1usize, 2, 4] {
        let pool = ThreadPool::new(workers);
        for (kind, cfg) in [
            (SchedulerKind::Par, SchedConfig::basic(8, 1 << 9)),
            (SchedulerKind::Par, SchedConfig::reexpansion(8, 1 << 9)),
            (SchedulerKind::Par, restart),
            (SchedulerKind::Par, SchedConfig::adaptive(8)),
            (SchedulerKind::RestartIdeal, restart),
        ] {
            let label = match kind {
                SchedulerKind::Par => format!("par-{}", cfg.policy.name()),
                _ => kind.name().to_string(),
            };
            g.bench_with_input(BenchmarkId::new(label, workers), &workers, |b, _| {
                b.iter(|| {
                    let walk = TreeWalk::new(&tree);
                    run_scheduler(kind, &walk, cfg, Some(&pool)).stats.tasks_executed
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, seq_policies, par_schedulers);
criterion_main!(benches);
