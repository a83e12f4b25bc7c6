//! The preemption round-trip property behind `tb-service`'s preemptible
//! jobs: parking a sequential run at **any** superstep boundary and
//! resuming the frontier later — even on another thread — must be
//! invisible in the result. Random spec programs (shared generator,
//! `common::gen_spec`) are run with pseudo-random park/resume bursts and
//! compared against uninterrupted runs: the reduction must be
//! bit-identical AND the computation tree identical (same task count,
//! same supersteps) — across both execution tiers (scalar
//! `CompiledSpec`, masked-lane `VectorSpec`), every boundary-producing
//! scheduler config (basic BFE/DFE, re-expansion, restart parking with
//! strip mining), and against every policy under all three scheduler
//! implementations.
//!
//! This is the safety case for `Runtime::submit_preemptible`: the service
//! may interrupt a batch job at an arbitrary boundary chosen by admission
//! timing, so the equivalence has to hold at *every* boundary, not just
//! convenient ones.

mod common;

use common::{every_policy, gen_spec, G};
use proptest::prelude::*;
use taskblocks::prelude::*;
use taskblocks::spec::{CompiledSpec, VectorSpec};

/// Run `prog` under the stepping engine, parking at pseudo-random superstep
/// boundaries (bursts of 0–4 steps between parks, driven by `park_seed`)
/// and crossing every frontier to a fresh thread before resuming — the
/// same round-trip a parked frontier makes through the service's park
/// pool. Returns the output and the number of parks taken.
fn run_with_parks<P>(prog: &P, cfg: SchedConfig, park_seed: u64) -> (RunOutput<P::Reducer>, usize)
where
    P: BlockProgram,
    P::Store: Send + 'static,
    P::Reducer: Send + 'static,
{
    let mut g = G(park_seed);
    let mut sched = SeqScheduler::new(prog, cfg);
    let mut parks = 0;
    loop {
        for _ in 0..g.below(5) {
            if sched.is_done() {
                break;
            }
            sched.step();
        }
        if sched.is_done() {
            return (sched.into_output(), parks);
        }
        let frontier = sched.park();
        let frontier = std::thread::spawn(move || frontier).join().expect("carrier thread");
        sched = SeqScheduler::resume(prog, frontier);
        parks += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parked-and-resumed runs ≡ uninterrupted runs for random programs:
    /// same reduction, same task count, same supersteps — over both
    /// execution tiers, and agreeing with every scheduler implementation's
    /// result.
    #[test]
    fn parked_runs_match_uninterrupted_runs(seed in any::<u64>(), park_seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        spec.validate().expect("generator only emits valid specs");
        let compiled = CompiledSpec::new(&spec, root.clone()).unwrap();
        // Restart config with small thresholds: parks land between BFE,
        // DFE, restart-scan and strip-mining supersteps alike.
        let cfg = SchedConfig::restart(4, 16, 8);

        let straight = SeqScheduler::new(&compiled, cfg).run();
        let (parked, parks) = run_with_parks(&compiled, cfg, park_seed);
        prop_assert_eq!(parked.reducer, straight.reducer, "reduction changed across {} parks", parks);
        prop_assert_eq!(parked.stats.tasks_executed, straight.stats.tasks_executed,
            "parking changed the computation tree");
        prop_assert_eq!(parked.stats.supersteps, straight.stats.supersteps,
            "parking changed the superstep count");

        // Masked-lane vector tier.
        let simd = VectorSpec::from_code_with_width(
            std::sync::Arc::clone(compiled.code()), std::slice::from_ref(&root), 4);
        let (parked_simd, _) = run_with_parks(&simd, cfg, park_seed);
        prop_assert_eq!(parked_simd.reducer, straight.reducer, "vector tier reduction");

        // And the parked run agrees with every policy under all three
        // scheduler implementations (1 and 3 workers), so a job that parks
        // under the service matches what any non-preemptible submission
        // computes.
        let one = ThreadPool::new(1);
        let pool = ThreadPool::new(3);
        for other in every_policy(4, 16, 8) {
            for kind in SchedulerKind::ALL {
                prop_assert_eq!(run_scheduler(kind, &compiled, other, Some(&one)).reducer,
                    parked.reducer, "parked seq vs {:?}/{:?} (1 worker)", kind, other.policy);
                prop_assert_eq!(run_scheduler(kind, &compiled, other, Some(&pool)).reducer,
                    parked.reducer, "parked seq vs {:?}/{:?} (3 workers)", kind, other.policy);
            }
        }
    }

    /// The equivalence holds under every boundary-producing config family,
    /// not just restart: basic (pure BFE/DFE), re-expansion (block
    /// regrowth), and a tiny-threshold restart (parking + strip mining on
    /// nearly every step).
    #[test]
    fn parks_are_exact_at_every_boundary_kind(seed in any::<u64>(), park_seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        let compiled = CompiledSpec::new(&spec, root).unwrap();
        for cfg in [
            SchedConfig::basic(4, 16),
            SchedConfig::reexpansion(4, 16),
            SchedConfig::restart(2, 4, 2),
        ] {
            let straight = SeqScheduler::new(&compiled, cfg).run();
            let (parked, _) = run_with_parks(&compiled, cfg, park_seed);
            prop_assert_eq!(parked.reducer, straight.reducer);
            prop_assert_eq!(parked.stats.tasks_executed, straight.stats.tasks_executed);
            prop_assert_eq!(parked.stats.supersteps, straight.stats.supersteps);
        }
    }
}
