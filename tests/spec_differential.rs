//! The differential property test over the spec-language pipeline: random
//! *valid* specs (see `common::gen_spec` — termination is by fuel
//! construction), executed through all three routes — the recursive
//! reference interpreter, the instruction-stream `CompiledSpec` and the
//! masked-lane `VectorSpec` (exercised at every monomorphized width
//! 2/4/8, not just the host's detected one) — under every policy and both
//! schedulers at 1/2/4 workers. Every route must produce the identical (wrapping-`i64`)
//! reduction, and the compiled tiers must expand the identical computation
//! tree (same task count, same supersteps), not merely agree on the
//! answer.

mod common;

use common::{every_policy, gen_spec, G};
use proptest::prelude::*;
use taskblocks::prelude::*;
use taskblocks::spec::{interpret, CompiledSpec, VectorSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// interpreter == CompiledSpec == VectorSpec, every policy under both
    /// schedulers, 1/2/4 workers, with thresholds small enough to exercise restart
    /// parking and strip mining (and, for the vector tier, ragged remainder
    /// peels at every width).
    #[test]
    fn backends_agree_on_random_specs(seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        spec.validate().expect("generator only emits valid specs");
        let want = interpret(&spec, &root);

        let compiled = CompiledSpec::new(&spec, root.clone()).unwrap();
        let cfg = SchedConfig::restart(4, 16, 8);

        let c_seq = run_scheduler(SchedulerKind::Seq, &compiled, cfg, None);
        prop_assert_eq!(c_seq.reducer, want, "compiled/seq vs interpreter");

        // The vector tier at every monomorphized width: bit-identical
        // reduction AND the identical computation tree (same task count,
        // same supersteps — the buckets must match block for block).
        let code = std::sync::Arc::clone(compiled.code());
        for q in [2usize, 4, 8] {
            let simd = VectorSpec::from_code_with_width(
                std::sync::Arc::clone(&code), std::slice::from_ref(&root), q);
            let s_seq = run_scheduler(SchedulerKind::Seq, &simd, cfg, None);
            prop_assert_eq!(s_seq.reducer, want, "simd/seq q={} vs interpreter", q);
            prop_assert_eq!(s_seq.stats.tasks_executed, c_seq.stats.tasks_executed,
                "vector tier (q={}) expanded a different tree", q);
            prop_assert_eq!(s_seq.stats.supersteps, c_seq.stats.supersteps,
                "vector tier (q={}) took different supersteps", q);
        }
        let simd = VectorSpec::from_code_with_width(code, std::slice::from_ref(&root), 4);

        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            for cfg in every_policy(4, 16, 8) {
                for kind in SchedulerKind::ALL {
                    let got = run_scheduler(kind, &compiled, cfg, Some(&pool)).reducer;
                    prop_assert_eq!(got, want, "compiled under {:?}/{:?} w={}", kind, cfg.policy, threads);
                    let got = run_scheduler(kind, &simd, cfg, Some(&pool)).reducer;
                    prop_assert_eq!(got, want, "compiled_simd under {:?}/{:?} w={}", kind, cfg.policy, threads);
                }
            }
        }
    }

    /// The same agreement over a §5.2 foreach: many random roots, one
    /// reduction.
    #[test]
    fn backends_agree_on_data_parallel_specs(seed in any::<u64>()) {
        let (spec, root) = gen_spec(seed);
        let mut g = G(seed ^ 0xD1F7_57EE);
        let calls: Vec<Vec<i64>> = (0..1 + g.below(40))
            .map(|_| root.iter().map(|_| g.range(0, 5)).collect())
            .collect();
        let want = taskblocks::spec::interp::interpret_data_parallel(&spec, &calls);

        let compiled = CompiledSpec::with_data_parallel(&spec, calls.clone()).unwrap();
        // A root count that is rarely a multiple of the lane width makes
        // the foreach case exercise the vector tier's remainder peel on
        // the strip-mined root blocks themselves.
        let simd = VectorSpec::from_code_with_width(
            std::sync::Arc::clone(compiled.code()), &calls, 4);
        // t_dfe of 8 far below the root count forces strip mining.
        let pool = ThreadPool::new(3);
        for cfg in every_policy(4, 8, 4) {
            for kind in SchedulerKind::ALL {
                prop_assert_eq!(run_scheduler(kind, &compiled, cfg, Some(&pool)).reducer, want,
                    "compiled foreach under {:?}/{:?}", kind, cfg.policy);
                prop_assert_eq!(run_scheduler(kind, &simd, cfg, Some(&pool)).reducer, want,
                    "compiled_simd foreach under {:?}/{:?}", kind, cfg.policy);
            }
        }
    }
}
