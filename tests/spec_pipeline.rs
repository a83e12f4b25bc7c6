//! The §5 pipeline end to end: text → AST → interpreter semantics →
//! instruction lowering (the §5.3 blocking transformation) → every
//! scheduler → native implementation → the service front-end.

use taskblocks::prelude::*;
use taskblocks::spec::{examples, interpret, parse_spec, CompiledSpec, SpecTier, VectorSpec};
use taskblocks::suite::fib::fib_serial;
use taskblocks::suite::parentheses::parentheses_serial;

#[test]
fn parsed_fib_matches_native_suite_implementation() {
    let spec = parse_spec(examples::FIB_SOURCE).unwrap();
    for n in [0u8, 1, 5, 14] {
        let via_spec = interpret(&spec, &[i64::from(n)]);
        let native = fib_serial(n).0;
        assert_eq!(via_spec as u64, native, "fib({n})");
    }
}

#[test]
fn data_parallel_specs_run_under_work_stealing() {
    let spec = examples::binomial_spec();
    let calls: Vec<Vec<i64>> = (0..64).map(|i| vec![12 + (i % 4), 5]).collect();
    let want: i64 = calls.iter().map(|c| interpret(&spec, c)).sum();
    let prog = CompiledSpec::with_data_parallel(&spec, calls).unwrap();
    let pool = ThreadPool::new(4);
    for _ in 0..3 {
        let out = run_policy(&prog, SchedConfig::restart(16, 128, 32), Some(&pool));
        assert_eq!(out.reducer, want);
    }
}

#[test]
fn compiled_spec_matches_native_under_all_policies() {
    let spec = examples::parentheses_spec(8);
    let native = parentheses_serial(8).0;
    for cfg in [
        SchedConfig::basic(16, 256),
        SchedConfig::reexpansion(16, 256),
        SchedConfig::restart(16, 256, 64),
        SchedConfig::restart(16, 8, 8),
    ] {
        let prog = CompiledSpec::new(&spec, vec![0, 0]).unwrap();
        let out = run_policy(&prog, cfg, None);
        assert_eq!(out.reducer as u64, native, "{:?}", cfg.policy);
    }
}

#[test]
fn compiled_spec_task_counts_match_native_tree() {
    // The transformation must produce the same computation tree, not just
    // the same answer.
    let prog = CompiledSpec::new(&examples::fib_spec(), vec![15]).unwrap();
    let out = run_policy(&prog, SchedConfig::reexpansion(16, 128), None);
    assert_eq!(out.stats.tasks_executed, fib_serial(15).1);
}

#[test]
fn vector_spec_matches_native_under_all_policies() {
    let spec = examples::parentheses_spec(8);
    let native = parentheses_serial(8).0;
    for cfg in [
        SchedConfig::basic(16, 256),
        SchedConfig::reexpansion(16, 256),
        SchedConfig::restart(16, 256, 64),
        SchedConfig::restart(16, 8, 8),
    ] {
        let prog = VectorSpec::new(&spec, vec![0, 0]).unwrap();
        let out = run_policy(&prog, cfg, None);
        assert_eq!(out.reducer as u64, native, "{:?}", cfg.policy);
    }
}

#[test]
fn vector_spec_task_counts_match_native_tree() {
    let prog = VectorSpec::new(&examples::fib_spec(), vec![15]).unwrap();
    let out = run_policy(&prog, SchedConfig::reexpansion(16, 128), None);
    assert_eq!(out.stats.tasks_executed, fib_serial(15).1);
}

#[test]
fn spec_source_through_the_service_front_end() {
    // The full PR 4 loop: a client ships source text to a shared Runtime,
    // which parses, lowers and schedules it — then reuses the cached code
    // for a foreach resubmission under a different scheduler kind.
    let rt = Runtime::new(3);
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        examples::TREESUM_SOURCE,
        vec![vec![6, 0]],
        SchedConfig::restart(8, 64, 16),
        SchedulerKind::RestartSimplified,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(examples::treesum_expected(3, 6, 1)));

    let calls = examples::treesum_roots(5, 24);
    let want = examples::treesum_expected(3, 5, 24);
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        examples::TREESUM_SOURCE,
        calls,
        SchedConfig::basic(8, 32),
        SchedulerKind::ReExpansion,
        SpecTier::Auto,
    );
    assert_eq!(h.wait(), Ok(want));
}

#[test]
fn interpreter_and_compiled_agree_on_a_grid_of_inputs() {
    let spec = examples::binomial_spec();
    for n in 1..=12i64 {
        for k in 0..=n {
            let want = interpret(&spec, &[n, k]);
            let prog = CompiledSpec::new(&spec, vec![n, k]).unwrap();
            let got = run_policy(&prog, SchedConfig::restart(8, 32, 8), None).reducer;
            assert_eq!(got, want, "C({n},{k})");
        }
    }
}
