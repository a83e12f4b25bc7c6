//! The §3.4 restart scheduler's regression cases, run on [`ParSplit`]
//! under the restart policy, the scheduler that replaced it: the same
//! programs, configs and worker counts, with the same expected outcomes.
//! DESIGN.md §13 records the retired scheduler and its last numbers.

mod tests {
    use tb_runtime::ThreadPool;

    use crate::par::split::tests::Fib;
    use crate::par::ParSplit;
    use crate::policy::SchedConfig;
    use crate::seq::SeqScheduler;

    #[test]
    fn matches_sequential_restart() {
        let prog = Fib(24);
        let cfg = SchedConfig::restart(8, 256, 64);
        let seq = SeqScheduler::new(&prog, cfg).run();
        let par = ParSplit::new(&prog, cfg).run(&ThreadPool::new(4));
        assert_eq!(par.reducer, seq.reducer);
        assert_eq!(par.stats.tasks_executed, seq.stats.tasks_executed);
    }

    #[test]
    fn one_worker_completes() {
        let prog = Fib(20);
        let out = ParSplit::new(&prog, SchedConfig::restart(4, 64, 16)).run(&ThreadPool::new(1));
        assert_eq!(out.reducer, 6765);
    }

    #[test]
    fn steals_happen_with_multiple_workers() {
        let prog = Fib(22);
        let out = ParSplit::new(&prog, SchedConfig::restart(4, 128, 32)).run(&ThreadPool::new(4));
        assert!(out.stats.steal_attempts > 0, "{:?}", out.stats);
    }

    #[test]
    fn repeated_runs_are_deterministic_in_outcome() {
        // The schedule varies run to run (racy splits and steals), the
        // reduction must not.
        let prog = Fib(23);
        let cfg = SchedConfig::restart(4, 64, 16);
        let expected = SeqScheduler::new(&prog, cfg).run();
        let pool = ThreadPool::new(4);
        for _ in 0..5 {
            let par = ParSplit::new(&prog, cfg).run(&pool);
            assert_eq!(par.reducer, expected.reducer);
            assert_eq!(par.stats.tasks_executed, expected.stats.tasks_executed);
        }
    }

    #[test]
    fn tiny_thresholds_maximise_contention_and_still_complete() {
        let prog = Fib(18);
        let out = ParSplit::new(&prog, SchedConfig::restart(2, 4, 2)).run(&ThreadPool::new(4));
        assert_eq!(out.reducer, 2584);
    }
}
