//! Cooperative cancellation for in-flight scheduler runs.
//!
//! The schedulers have no preemption points — a run owns its blocks until
//! the computation tree is exhausted. Cancellation therefore rides on the
//! one hook every scheduler already calls on every block:
//! [`BlockProgram::expand`]. [`Cancellable`] wraps any program; once its
//! [`CancelToken`] fires, every subsequent `expand` *drains* its input
//! block without producing children or touching the reducer. The live task
//! count collapses geometrically, every scheduler (sequential, pool-based,
//! dedicated-thread) winds down through its normal completion path, and no
//! block is leaked — parked restart blocks included, because they too are
//! eventually fed back through `expand`.
//!
//! This is *cooperative* at block granularity: a cancel lands within one
//! `expand` call of wherever each worker currently is. The paper's block
//! sizes (§3.5) bound that latency to `t_dfe × arity` tasks per worker.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::program::{BlockProgram, BucketSet};

/// A shared one-way cancellation flag. Cloning is cheap (an `Arc` bump);
/// all clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A [`BlockProgram`] wrapper that makes any program cancellable: after the
/// token fires, `expand` turns into a pure drain (tasks consumed, no
/// children, reducer untouched), so the run completes through the
/// scheduler's normal exhaustion path with a partial reducer.
pub struct Cancellable<P> {
    inner: P,
    token: CancelToken,
}

impl<P: BlockProgram> Cancellable<P> {
    /// Wrap `inner`; the run stops expanding once `token` fires.
    pub fn new(inner: P, token: CancelToken) -> Self {
        Cancellable { inner, token }
    }

    /// The wrapped program's token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Unwrap the inner program.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: BlockProgram> BlockProgram for Cancellable<P> {
    type Store = P::Store;
    type Reducer = P::Reducer;

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn make_root(&self) -> Self::Store {
        if self.token.is_cancelled() {
            // Cancelled before the run started: empty root, nothing runs.
            Self::Store::default()
        } else {
            self.inner.make_root()
        }
    }

    fn make_reducer(&self) -> Self::Reducer {
        self.inner.make_reducer()
    }

    fn merge_reducers(&self, a: &mut Self::Reducer, b: Self::Reducer) {
        self.inner.merge_reducers(a, b);
    }

    fn expand(&self, block: &mut Self::Store, out: &mut BucketSet<Self::Store>, red: &mut Self::Reducer) {
        if self.token.is_cancelled() {
            // Drain: consume every task, spawn nothing. The scheduler sees
            // an all-base-case block and winds down normally.
            use crate::block::TaskStore;
            let _ = block.take();
            return;
        }
        self.inner.expand(block, out, red);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedConfig;
    use crate::scheduler::{run_scheduler_on, SchedulerKind};

    struct Tree(u32);

    impl BlockProgram for Tree {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            vec![self.0]
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            for n in block.drain(..) {
                if n == 0 {
                    *red += 1;
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 1);
                }
            }
        }
    }

    #[test]
    fn uncancelled_wrapper_is_transparent() {
        let token = CancelToken::new();
        let prog = Cancellable::new(Tree(10), token.clone());
        let configs = [
            SchedConfig::basic(4, 64),
            SchedConfig::reexpansion(4, 64),
            SchedConfig::restart(4, 64, 16),
            SchedConfig::adaptive(4),
        ];
        for cfg in configs {
            for kind in SchedulerKind::ALL {
                let out = run_scheduler_on(kind, &prog, cfg, 2);
                assert_eq!(out.reducer, 1 << 10, "{kind:?} {:?}", cfg.policy);
            }
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn pre_cancelled_run_does_no_work() {
        let token = CancelToken::new();
        token.cancel();
        let prog = Cancellable::new(Tree(16), token);
        let out = run_scheduler_on(SchedulerKind::Seq, &prog, SchedConfig::basic(4, 64), 1);
        assert_eq!(out.reducer, 0);
        assert_eq!(out.stats.tasks_executed, 0, "empty root: nothing expanded");
    }

    #[test]
    fn mid_run_cancel_drains_to_completion() {
        // Cancel from a racing thread while a deep tree runs; the run must
        // terminate (drain) and return a partial reducer <= the full count.
        let token = CancelToken::new();
        let prog = Cancellable::new(Tree(22), token.clone());
        std::thread::scope(|s| {
            let t = token.clone();
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(200));
                t.cancel();
            });
            let out = run_scheduler_on(SchedulerKind::Par, &prog, SchedConfig::reexpansion(4, 256), 2);
            assert!(out.reducer <= 1 << 22);
        });
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
