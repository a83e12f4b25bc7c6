//! Preemption meets splitting: a run that has split across workers parks
//! whole at the superstep seam and resumes to the uninterrupted result.
//!
//! The seam ([`drive`]) checks the preempt flag before every superstep of
//! every running piece. A piece that sees it set hands its engine up the
//! join tree, the joins absorb finished and parked siblings alike, and the
//! top of the tree parks one frontier. Resuming that frontier starts one
//! engine, which splits again on demand. These tests pin the two promises
//! that make this safe to run under the service:
//!
//! * a `submit_preemptible` job is an ordinary split-on-demand job until
//!   the flag is set — it runs on more than one worker;
//! * parking a split run at any boundary, any number of times, changes
//!   neither the reduction nor the tasks executed.

mod common;

use std::sync::atomic::Ordering;

use common::{every_policy, gen_spec, KeepThievesHungry, ParkAt, G};
use proptest::prelude::*;
use taskblocks::prelude::*;
use taskblocks::spec::{examples, CompiledSpec};

/// Drive `prog` on `pool` through the seam, parking whenever its
/// [`ParkAt`] flag is set and resuming at once with the flag cleared.
/// Returns the output and the parks taken.
fn run_parking<P: BlockProgram>(
    pool: &ThreadPool,
    prog: &ParkAt<P>,
    cfg: SchedConfig,
) -> (RunOutput<P::Reducer>, u64) {
    let seam = Seam { preempt: Some(prog.flag()), ..Seam::default() };
    let mut engine = SeqScheduler::new(prog, cfg);
    let mut parks = 0;
    loop {
        match pool.install(|ctx| drive(engine, seam, ctx)) {
            Outcome::Done(out) => return (out, parks),
            Outcome::Parked(frontier) => {
                parks += 1;
                prog.flag().store(false, Ordering::Release);
                engine = SeqScheduler::resume(prog, frontier);
            }
            Outcome::Cancelled(_) => unreachable!("no token was given"),
        }
    }
}

#[test]
fn preemptible_jobs_split_across_workers() {
    let fib = CompiledSpec::new(&examples::fib_spec(), vec![22]).unwrap();
    let want = run_policy(&fib, SchedConfig::restart(4, 64, 16), None).reducer;
    let rt = Runtime::with_config(RuntimeConfig { threads: 2, max_inflight: 4, max_parked: 4 });
    // The runtime takes an owned `'static` program; leak one so the test
    // can still ask which threads ran it.
    let plug: &'static KeepThievesHungry<CompiledSpec> = Box::leak(Box::new(KeepThievesHungry::new(fib)));
    let h = rt.submit_preemptible(DEFAULT_TENANT, plug, SchedConfig::restart(4, 64, 16));
    assert_eq!(h.wait(), Ok(want));
    assert!(plug.threads_seen() >= 2, "the preemptible job never split to the idle worker");
}

#[test]
fn a_split_run_parks_whole_and_resumes() {
    let fib = CompiledSpec::new(&examples::fib_spec(), vec![22]).unwrap();
    for cfg in every_policy(4, 64, 16) {
        let straight = SeqScheduler::new(&fib, cfg).run();
        for workers in [2usize, 4] {
            let what = format!("{:?} on {workers} workers", cfg.policy);
            let pool = ThreadPool::new(workers);
            let plug = KeepThievesHungry::new(&fib);
            let prog = ParkAt::new(&plug, vec![10_000, 30_000]);
            let (out, parks) = run_parking(&pool, &prog, cfg);
            assert_eq!(out.reducer, straight.reducer, "{what}");
            assert_eq!(out.stats.tasks_executed, straight.stats.tasks_executed, "{what}");
            assert_eq!(parks, 2, "{what}: each mark parked the run once");
            assert!(out.stats.splits >= 1 && plug.threads_seen() >= 2, "{what}: the run never split");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parking a 2–4-worker split run at seeded boundaries, from inside
    /// `expand` on whichever worker crosses the mark, is invisible: the
    /// reduction is bit-identical and the tasks executed equal the
    /// uninterrupted run's, under every policy.
    #[test]
    fn parked_split_runs_match_uninterrupted_runs(seed in any::<u64>(), park_seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        let compiled = CompiledSpec::new(&spec, root).unwrap();
        let mut g = G(park_seed);
        let pool = ThreadPool::new(2 + g.below(3) as usize);
        for cfg in every_policy(2, 8, 4) {
            let straight = SeqScheduler::new(&compiled, cfg).run();
            let tasks = straight.stats.tasks_executed;
            let marks: Vec<u64> = (0..1 + g.below(4)).map(|_| 1 + g.below(tasks.max(1))).collect();
            let prog = ParkAt::new(&compiled, marks);
            let (out, parks) = run_parking(&pool, &prog, cfg);
            prop_assert_eq!(out.reducer, straight.reducer, "{:?}: reduction changed across {} parks", cfg.policy, parks);
            prop_assert_eq!(out.stats.tasks_executed, tasks, "{:?}: parking changed the computation tree", cfg.policy);
        }
    }
}
