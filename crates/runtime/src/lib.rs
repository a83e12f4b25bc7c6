//! # tb-runtime — a Cilk-style child-stealing work-stealing runtime
//!
//! The PPoPP'17 task-block schedulers were implemented on MIT Cilk 5.4.6;
//! this crate is the equivalent substrate, built from scratch: a fixed
//! pool of workers, per-worker lock-free Chase–Lev deques ([`deque`]) with
//! owners operating LIFO at the bottom and thieves stealing the oldest
//! entry with a single CAS at the top, plus an unbounded locked injector
//! ([`injector`]) feeding both the blocking [`ThreadPool::install`] entry
//! point and the fire-and-forget [`ThreadPool::spawn`] used by the
//! `tb-service` front-end. Work moves between workers without a lock; the
//! injector's lock is taken once per external job, and idle workers sleep
//! on it with no timeout. Submission never blocks on capacity. The
//! memory-ordering and wake-up arguments live in DESIGN.md §6–§7.
//!
//! Primitives:
//!
//! * [`WorkerCtx::join`] — Cilk's `spawn`/`sync` pair at its most common:
//!   fork two closures, run the first inline, expose the second for
//!   stealing, and steal-while-waiting until both are done.
//! * [`WorkerCtx::thief_hungry`] — the demand signal for serial-by-default
//!   work: "some worker is idle and has nothing to take". `tb-core`'s pool
//!   scheduler runs a sequential engine privately and polls it between
//!   supersteps, splitting only on demand.
//!
//! Differences from MIT Cilk, and why they don't matter here: Cilk steals
//! *continuations* while this runtime steals *children*. At task-block
//! granularity the schedulable units are identical (the right-hand block of
//! every fork), so steal counts and load-balancing behaviour match; only
//! which side of the fork waits differs. See DESIGN.md §4.

pub mod deque;
pub mod injector;
mod job;
mod latch;
mod metrics;
mod pool;

pub use injector::InjectorMetrics;
pub use metrics::PoolMetrics;
pub use pool::{PoolLoad, ThreadPool, WorkerCtx};

#[cfg(test)]
mod tests {
    use super::*;

    fn fib(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = ctx.join(move |c| fib(c, n - 1), move |c| fib(c, n - 2));
        a + b
    }

    #[test]
    fn join_computes_fib_across_workers() {
        let pool = ThreadPool::new(4);
        let r = pool.install(|ctx| fib(ctx, 20));
        assert_eq!(r, 6765);
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ThreadPool::new(1);
        let r = pool.install(|ctx| fib(ctx, 15));
        assert_eq!(r, 610);
    }

    #[test]
    fn deep_sequential_joins() {
        let pool = ThreadPool::new(2);
        let total = pool.install(|ctx| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                let (a, b) = ctx.join(move |_| i, move |_| i * 2);
                acc += a + b;
            }
            acc
        });
        assert_eq!(total, (0..1000u64).map(|i| 3 * i).sum());
    }

    #[test]
    fn steals_are_observed_under_contention() {
        let pool = ThreadPool::new(4);
        // Plenty of forks: some must be stolen with 4 workers.
        pool.install(|ctx| fib(ctx, 23));
        let m = pool.metrics();
        assert!(m.steals > 0, "expected at least one steal, got {m:?}");
        assert!(m.steal_attempts >= m.steals);
    }

    #[test]
    fn pool_shuts_down_cleanly() {
        for _ in 0..10 {
            let pool = ThreadPool::new(3);
            let r = pool.install(|ctx| fib(ctx, 10));
            assert_eq!(r, 55);
            drop(pool);
        }
    }

    #[test]
    fn a_fully_asleep_pool_shuts_down_promptly() {
        // Shutdown must reach workers asleep on the injector: there is no
        // timed re-check to fall back on, so a missed wake would hang drop.
        let pool = ThreadPool::new(3);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while pool.load().active_workers != 0 {
            assert!(std::time::Instant::now() < deadline, "workers never fell asleep");
            std::thread::yield_now();
        }
        let start = std::time::Instant::now();
        drop(pool);
        assert!(start.elapsed() < std::time::Duration::from_secs(2), "drop waited on a sleeper");
    }

    #[test]
    fn results_flow_back_from_both_branches() {
        let pool = ThreadPool::new(4);
        let (a, b) = pool.install(|ctx| ctx.join(|_| "left".to_string(), |_| vec![1, 2, 3]));
        assert_eq!(a, "left");
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn panics_propagate_from_stolen_branch() {
        let pool = ThreadPool::new(2);
        pool.install(|ctx| {
            let ((), ()) = ctx.join(
                |c| {
                    // Give the other branch a chance to be stolen.
                    let _ = fib(c, 18);
                },
                |_| panic!("boom"),
            );
        });
    }
}
