//! Cross-crate integration: every scheduler implementation computes the
//! same answer as every other, across benchmarks, policies, tiers and
//! worker counts — all driven through the uniform `Scheduler` dispatch,
//! never by naming a concrete scheduler type.

use taskblocks::prelude::*;
use taskblocks::suite::{all_benchmarks, benchmark_by_name, Scale, SchedulerKind, Tier};

/// The satellite matrix: both schedulers return identical reducers on
/// fib, nqueens and uts, for every policy family, on 1/2/4 threads.
/// (Named when the pool ran five scheduler types; the policy × scheduler
/// cells it covers are the same.)
#[test]
fn five_schedulers_agree_on_fib_nqueens_uts_across_policies_and_threads() {
    let q = 4;
    let (t_dfe, t_restart) = (64, 16);
    for name in ["fib", "nqueens", "uts"] {
        let b = benchmark_by_name(name, Scale::Tiny).expect("known benchmark");
        let reference = b.serial().outcome;
        for policy in [PolicyKind::Basic, PolicyKind::ReExpansion, PolicyKind::Restart, PolicyKind::Adaptive]
        {
            // Adaptive carries no cutoffs to tune — its config is just Q.
            let cfg = match policy {
                PolicyKind::Adaptive => SchedConfig::adaptive(q),
                _ => SchedConfig::restart(q, t_dfe, t_restart).with_policy(policy),
            };
            // The sequential engine honours the policy exactly...
            let seq = b.blocked_seq(cfg, Tier::Block);
            assert_eq!(seq.outcome, reference, "{name}: seq under {policy:?} disagrees with serial");
            // ...and so does the pool scheduler, at every worker count.
            for threads in [1usize, 2, 4] {
                let pool = ThreadPool::new(threads);
                let got = b.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block);
                assert_eq!(
                    got.outcome, reference,
                    "{name}: par under {policy:?} on {threads} threads disagrees"
                );
            }
        }
    }
}

#[test]
fn every_benchmark_agrees_across_all_schedulers_and_tiers() {
    let pool = ThreadPool::new(3);
    for b in all_benchmarks(Scale::Tiny) {
        let want = b.serial().outcome;
        let tol = b.tolerance().max(1e-9);
        assert!(b.cilk(&pool).outcome.matches(&want, tol), "{}: cilk variant disagrees", b.name());
        for (t_dfe, t_r) in [(64usize, 16usize), (1 << 12, 1 << 8)] {
            for tier in [Tier::Block, Tier::Soa, Tier::Simd] {
                let configs = [
                    SchedConfig::basic(b.q(), t_dfe),
                    SchedConfig::reexpansion(b.q(), t_dfe),
                    SchedConfig::restart(b.q(), t_dfe, t_r),
                    SchedConfig::adaptive(b.q()),
                ];
                let runs = configs.iter().flat_map(|&cfg| SchedulerKind::ALL.map(|kind| (kind, cfg)));
                for (kind, cfg) in runs {
                    let got = match kind {
                        SchedulerKind::Seq => b.blocked_seq(cfg, tier),
                        SchedulerKind::Par => b.blocked_par(&pool, cfg, kind, tier),
                    };
                    assert!(
                        got.outcome.matches(&want, tol),
                        "{}: {} {:?} {tier:?} t_dfe={t_dfe} disagrees: {:?} vs {:?}",
                        b.name(),
                        kind.name(),
                        cfg.policy,
                        got.outcome,
                        want
                    );
                }
            }
        }
    }
}

#[test]
fn task_counts_are_identical_across_schedulers() {
    // Blocking changes the schedule, never the computation tree: every
    // deterministic benchmark must execute the same number of tasks under
    // every policy and tier.
    for b in all_benchmarks(Scale::Tiny) {
        let reference = b.blocked_seq(SchedConfig::reexpansion(b.q(), 256), Tier::Block).stats.tasks_executed;
        for cfg in [
            SchedConfig::basic(b.q(), 256),
            SchedConfig::restart(b.q(), 256, 64),
            SchedConfig::restart(b.q(), 32, 32),
            SchedConfig::adaptive(b.q()),
        ] {
            for tier in [Tier::Block, Tier::Soa] {
                let got = b.blocked_seq(cfg, tier).stats.tasks_executed;
                assert_eq!(got, reference, "{} {:?} {tier:?}", b.name(), cfg.policy);
            }
        }
    }
}

#[test]
fn stats_counters_are_internally_consistent() {
    for b in all_benchmarks(Scale::Tiny) {
        let run = b.blocked_seq(SchedConfig::restart(b.q(), 128, 32), Tier::Block);
        let s = &run.stats;
        assert_eq!(s.simd_steps, s.complete_steps + s.incomplete_steps, "{}", b.name());
        assert!(s.incomplete_steps <= s.supersteps, "{}: Claim 1 violated", b.name());
        assert!(s.tasks_in_complete_steps <= s.tasks_executed, "{}", b.name());
        assert_eq!(s.supersteps, s.bfe_actions + s.dfe_actions, "{}", b.name());
        assert!(s.simd_utilization() >= 0.0 && s.simd_utilization() <= 1.0);
        // Model lower bounds (§4 preliminaries).
        assert!(s.simd_steps >= s.tasks_executed.div_ceil(s.q));
        assert!(s.simd_steps > s.max_level);
    }
}

#[test]
fn restart_utilization_dominates_reexpansion_at_small_blocks() {
    // Figure 4's headline, asserted across the whole suite at block 2^4.
    for b in all_benchmarks(Scale::Tiny) {
        let x = b.blocked_seq(SchedConfig::reexpansion(b.q(), 16), Tier::Block);
        let r = b.blocked_seq(SchedConfig::restart(b.q(), 16, 16), Tier::Block);
        assert!(
            r.stats.simd_utilization() >= x.stats.simd_utilization() - 0.02,
            "{}: restart {:.3} < reexp {:.3} at block 2^4",
            b.name(),
            r.stats.simd_utilization(),
            x.stats.simd_utilization()
        );
    }
}

#[test]
fn parallel_runs_are_repeatable() {
    // Work stealing changes the schedule nondeterministically; outcomes
    // must not change.
    let pool = ThreadPool::new(4);
    for b in all_benchmarks(Scale::Tiny) {
        let cfg = SchedConfig::restart(b.q(), 128, 32);
        let a = b.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block);
        for _ in 0..3 {
            let c = b.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block);
            assert!(a.outcome.matches(&c.outcome, b.tolerance().max(1e-9)), "{}", b.name());
            assert_eq!(a.stats.tasks_executed, c.stats.tasks_executed, "{}", b.name());
        }
    }
}
