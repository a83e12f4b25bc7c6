//! Job handles: the client's view of a submitted run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tb_core::CancelToken;

/// Why a job produced no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's [`CancelToken`] fired before the run finished; the partial
    /// reduction is discarded.
    Cancelled,
    /// The program panicked inside the scheduler; the panic was contained
    /// on the worker and surfaced here instead of unwinding the pool.
    Panicked,
    /// The submission was rejected before any worker ran it — a spec
    /// source that failed to parse/validate, or root arguments that do not
    /// match the method. The message is the located diagnostic (for parse
    /// errors, a caret line pointing into the client's source).
    Rejected(std::sync::Arc<str>),
}

impl JobError {
    /// A [`JobError::Rejected`] from any diagnostic.
    pub fn rejected(message: impl std::fmt::Display) -> Self {
        JobError::Rejected(message.to_string().into())
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Panicked => write!(f, "job panicked"),
            JobError::Rejected(msg) => write!(f, "job rejected: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Shared completion state between a [`JobHandle`] and the pool job that
/// fulfils it. The worker side holds its own `Arc`, which is what makes
/// dropping the handle mid-run safe: the run continues, publishes into the
/// state, releases its backpressure slot, and the state is freed when the
/// last `Arc` goes.
pub(crate) struct JobCore<R> {
    slot: Mutex<Option<Result<R, JobError>>>,
    cv: Condvar,
    done: AtomicBool,
    cancel: CancelToken,
}

impl<R> JobCore<R> {
    pub(crate) fn new() -> Self {
        JobCore {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            cancel: CancelToken::new(),
        }
    }

    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Publish the result and wake every waiter. Called exactly once, by
    /// the worker that ran the job.
    pub(crate) fn complete(&self, result: Result<R, JobError>) {
        let mut slot = self.slot.lock();
        *slot = Some(result);
        self.done.store(true, Ordering::Release);
        drop(slot);
        self.cv.notify_all();
    }
}

/// A handle to one submitted job.
///
/// The handle is the *client's* end only — dropping it detaches the job
/// (the run continues to completion and its backpressure slot is released
/// normally); it does **not** cancel. Cancellation is explicit via
/// [`JobHandle::cancel`] and cooperative: the run stops before the next
/// superstep of each running piece (see `tb_core::cancel`).
pub struct JobHandle<R> {
    core: Arc<JobCore<R>>,
}

impl<R> JobHandle<R> {
    pub(crate) fn new(core: Arc<JobCore<R>>) -> Self {
        JobHandle { core }
    }

    /// Block the calling thread until the job completes, returning its
    /// reduction (or why there is none). Must be called from a non-worker
    /// thread — the same rule as `ThreadPool::install`.
    pub fn wait(self) -> Result<R, JobError> {
        let mut slot = self.core.slot.lock();
        while slot.is_none() {
            self.core.cv.wait(&mut slot);
        }
        slot.take().expect("job result present after wakeup")
    }

    /// Non-blocking poll: the result if the job has completed, `None`
    /// otherwise. A taken result is gone — a second poll returns `None`
    /// with [`JobHandle::is_finished`] still true.
    pub fn try_take(&mut self) -> Option<Result<R, JobError>> {
        if !self.is_finished() {
            return None;
        }
        self.core.slot.lock().take()
    }

    /// Has the job completed (successfully, cancelled, or panicked)?
    pub fn is_finished(&self) -> bool {
        self.core.done.load(Ordering::Acquire)
    }

    /// Request cooperative cancellation. Idempotent; returns immediately —
    /// use [`JobHandle::wait`] to observe the wind-down finishing.
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }

    /// A clone of the job's cancel token (e.g. to hand to a watchdog).
    pub fn cancel_token(&self) -> CancelToken {
        self.core.cancel_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_then_wait_returns_value() {
        let core = Arc::new(JobCore::new());
        core.complete(Ok(41));
        let h = JobHandle::new(core);
        assert!(h.is_finished());
        assert_eq!(h.wait(), Ok(41));
    }

    #[test]
    fn try_take_is_none_until_done_then_consumes() {
        let core: Arc<JobCore<u32>> = Arc::new(JobCore::new());
        let mut h = JobHandle::new(Arc::clone(&core));
        assert!(h.try_take().is_none());
        core.complete(Err(JobError::Cancelled));
        assert_eq!(h.try_take(), Some(Err(JobError::Cancelled)));
        assert!(h.try_take().is_none(), "result is taken once");
        assert!(h.is_finished());
    }

    #[test]
    fn wait_blocks_until_cross_thread_complete() {
        let core = Arc::new(JobCore::new());
        let h = JobHandle::new(Arc::clone(&core));
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            core.complete(Ok("done"));
        });
        assert_eq!(h.wait(), Ok("done"));
        t.join().unwrap();
    }
}
