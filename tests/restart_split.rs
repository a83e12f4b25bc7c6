//! Every policy on the pool is the sequential engine plus on-demand
//! frontier splitting (`SeqScheduler::split_off`). Three properties keep
//! that honest, under basic, re-expansion, restart and adaptive alike:
//!
//! * **No thief, no difference.** On a one-worker pool nobody is ever
//!   hungry, so `SchedulerKind::Par` must take exactly the steps of
//!   `run_policy(.., None)` — same supersteps, same tasks.
//! * **A split is invisible in the result.** Splitting at any superstep
//!   boundary conserves the frontier's tasks, and the two engines'
//!   reducers merge to what the uninterrupted run computes.
//! * **Hungry thieves get fed.** With idle workers and nothing queued, a
//!   running job splits and another worker executes part of it.

mod common;

use common::{every_policy, gen_spec, KeepThievesHungry, G};
use proptest::prelude::*;
use taskblocks::prelude::*;
use taskblocks::spec::{examples, CompiledSpec, VectorSpec};
use taskblocks::suite::{benchmark_by_name, Scale, Tier};

#[test]
fn one_worker_pool_takes_the_sequential_engines_steps() {
    fn same_steps<P: BlockProgram>(what: &str, prog: &P, cfg: SchedConfig, pool: &ThreadPool)
    where
        P::Reducer: PartialEq + std::fmt::Debug,
    {
        let what = format!("{what} under {:?}", cfg.policy);
        let seq = run_policy(prog, cfg, None);
        let par = run_scheduler(SchedulerKind::Par, prog, cfg, Some(pool));
        assert_eq!(par.reducer, seq.reducer, "{what}: reduction");
        assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed, "{what}: tasks executed");
        assert_eq!(par.stats.supersteps, seq.stats.supersteps, "{what}: supersteps");
    }

    let pool = ThreadPool::new(1);
    let specs = [
        ("fib(21)", examples::fib_spec(), vec![21]),
        ("binomial(16,7)", examples::binomial_spec(), vec![16, 7]),
        ("paren(8)", examples::parentheses_spec(8), vec![0, 0]),
        ("treesum(9)", examples::treesum_spec(3), vec![9, 0]),
    ];
    for cfg in every_policy(8, 1 << 10, 64) {
        for (name, spec, root) in &specs {
            let scalar = CompiledSpec::new(spec, root.clone()).unwrap();
            same_steps(&format!("spec {name} scalar"), &scalar, cfg, &pool);
            let vector = VectorSpec::new(spec, root.clone()).unwrap();
            same_steps(&format!("spec {name} vector"), &vector, cfg, &pool);
        }
    }

    for name in ["fib", "nqueens", "uts"] {
        let b = benchmark_by_name(name, Scale::Tiny).expect("known benchmark");
        for cfg in every_policy(b.q(), 64, 16) {
            let what = format!("native {name} under {:?}", cfg.policy);
            let seq = b.blocked_seq(cfg, Tier::Block);
            let par = b.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block);
            assert_eq!(par.outcome, seq.outcome, "{what}: outcome");
            assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed, "{what}: tasks executed");
            assert_eq!(par.stats.supersteps, seq.stats.supersteps, "{what}: supersteps");
        }
    }
}

/// Tasks held by `engine`'s frontier, read through a park/resume round trip.
fn frontier_tasks<'p, P: BlockProgram>(
    prog: &'p P,
    engine: SeqScheduler<'p, P>,
) -> (usize, SeqScheduler<'p, P>) {
    let frontier = engine.park();
    let tasks = frontier.tasks();
    (tasks, SeqScheduler::resume(prog, frontier))
}

/// Step `engine` to completion, attempting a split after every step for
/// which `wants_split` says so; each split-off frontier is resumed and run
/// the same way, and everything merges into one output.
fn run_splitting<'p, P: BlockProgram>(
    prog: &'p P,
    mut engine: SeqScheduler<'p, P>,
    wants_split: &mut dyn FnMut() -> bool,
) -> RunOutput<P::Reducer> {
    let mut pieces = Vec::new();
    while engine.step() != StepEvent::Done {
        if !wants_split() {
            continue;
        }
        let (before, resumed) = frontier_tasks(prog, engine);
        engine = resumed;
        if let Some(split) = engine.split_off() {
            assert!(split.tasks() > 0, "a split frontier carries work");
            assert!(!split.is_done());
            let (rest, resumed) = frontier_tasks(prog, engine);
            engine = resumed;
            assert_eq!(rest + split.tasks(), before, "split_off lost or duplicated tasks");
            pieces.push(split);
        }
    }
    assert!(engine.split_off().is_none(), "a finished engine has nothing to split");
    let mut out = engine.into_output();
    for piece in pieces {
        let theirs = run_splitting(prog, SeqScheduler::resume(prog, piece), wants_split);
        prog.merge_reducers(&mut out.reducer, theirs.reducer);
        out.stats.absorb(&theirs.stats);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Splitting at every superstep boundary, and at a random subset of
    /// them with the split halves splitting again, never changes what a
    /// random spec program computes or how many tasks it executes — under
    /// any policy.
    #[test]
    fn splits_conserve_tasks_and_the_reduction(seed in any::<u64>(), split_seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        let compiled = CompiledSpec::new(&spec, root).unwrap();
        let mut g = G(split_seed);
        // Small thresholds: boundaries fall between BFE, DFE, restart-scan
        // and strip-mining supersteps alike.
        for cfg in every_policy(4, 16, 8) {
            let straight = SeqScheduler::new(&compiled, cfg).run();

            let mut fresh = SeqScheduler::new(&compiled, cfg);
            prop_assert!(fresh.split_off().is_none(), "only the root block exists: unsplittable");

            let every = run_splitting(&compiled, fresh, &mut || true);
            prop_assert_eq!(every.reducer, straight.reducer, "{:?}: split at every boundary", cfg.policy);
            prop_assert_eq!(every.stats.tasks_executed, straight.stats.tasks_executed);

            let some = run_splitting(&compiled, SeqScheduler::new(&compiled, cfg), &mut || g.chance(20));
            prop_assert_eq!(some.reducer, straight.reducer, "{:?}: random splits", cfg.policy);
            prop_assert_eq!(some.stats.tasks_executed, straight.stats.tasks_executed);
        }
    }

    /// A data-parallel root (§5.2 foreach) splits through its unstripped
    /// remainder: same conservation, same answer, under any policy.
    #[test]
    fn root_remainders_split_too(seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        let mut g = G(seed ^ 0xD1F7_57EE);
        let calls: Vec<Vec<i64>> = (0..20 + g.below(40))
            .map(|_| root.iter().map(|_| g.range(0, 4)).collect())
            .collect();
        let compiled = CompiledSpec::with_data_parallel(&spec, calls).unwrap();
        // t_dfe far below the root count: most roots wait in the remainder
        // (adaptive strips at its grain cap, so it takes the same t_dfe).
        let [basic, reexp, restart, _] = every_policy(4, 8, 4);
        for cfg in [basic, reexp, restart, restart.with_policy(PolicyKind::Adaptive)] {
            let straight = SeqScheduler::new(&compiled, cfg).run();

            let mut engine = SeqScheduler::new(&compiled, cfg);
            let first = engine.split_off().expect("an unstripped root remainder is splittable");
            prop_assert!(first.tasks() >= 6, "half of at least 12 waiting roots");
            let mut out = run_splitting(&compiled, engine, &mut || g.chance(30));
            let theirs = run_splitting(&compiled, SeqScheduler::resume(&compiled, first), &mut || false);
            compiled.merge_reducers(&mut out.reducer, theirs.reducer);
            prop_assert_eq!(out.reducer, straight.reducer, "{:?}", cfg.policy);
            prop_assert_eq!(
                out.stats.tasks_executed + theirs.stats.tasks_executed,
                straight.stats.tasks_executed
            );
        }
    }
}

#[test]
fn hungry_thieves_get_a_share_of_a_running_job() {
    let fib = CompiledSpec::new(&examples::fib_spec(), vec![22]).unwrap();
    for cfg in every_policy(4, 64, 16) {
        let want = run_policy(&fib, cfg, None);
        for workers in [2usize, 4] {
            let what = format!("{:?} on {workers} workers", cfg.policy);
            let pool = ThreadPool::new(workers);
            let plug = KeepThievesHungry::new(&fib);
            let got = run_scheduler(SchedulerKind::Par, &plug, cfg, Some(&pool));
            assert_eq!(got.reducer, want.reducer, "{what}: reduction");
            assert_eq!(got.stats.tasks_executed, want.stats.tasks_executed, "{what}: tasks");
            assert!(plug.threads_seen() >= 2, "{what}: no split reached a second worker");
            // One injector pop for the root, then at least the stolen split.
            assert!(got.stats.steals >= 2, "{what}: steals = {}", got.stats.steals);
        }
    }
}
