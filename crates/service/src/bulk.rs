//! Bulk data-parallel submission: one input slice, many chunk jobs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use tb_core::CancelToken;

use crate::handle::JobError;

/// Shared state between a [`BulkHandle`] and its chunk jobs.
pub(crate) struct BulkCore<R> {
    results: Mutex<Vec<Option<Result<R, JobError>>>>,
    remaining: AtomicUsize,
    done: AtomicBool,
    cv: Condvar,
    cancel: CancelToken,
}

impl<R> BulkCore<R> {
    pub(crate) fn new(chunks: usize) -> Self {
        BulkCore {
            results: Mutex::new((0..chunks).map(|_| None).collect()),
            remaining: AtomicUsize::new(chunks),
            done: AtomicBool::new(chunks == 0),
            cv: Condvar::new(),
            cancel: CancelToken::new(),
        }
    }

    pub(crate) fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Record chunk `index`'s result; the last chunk wakes the waiters.
    pub(crate) fn complete_chunk(&self, index: usize, result: Result<R, JobError>) {
        {
            let mut results = self.results.lock();
            debug_assert!(results[index].is_none(), "chunk completed twice");
            results[index] = Some(result);
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.results.lock();
            self.done.store(true, Ordering::Release);
            self.cv.notify_all();
        }
    }
}

/// A handle to one bulk submission: the input slice was cut into chunks
/// ([`BulkHandle::chunks`] of them), each running as its own job; the
/// handle aggregates the per-chunk reductions in chunk order (i.e. input
/// order — chunking is order-preserving).
///
/// Like [`JobHandle`](crate::JobHandle), dropping the handle detaches; the
/// chunk jobs run to completion and release their backpressure slots.
pub struct BulkHandle<R> {
    core: Arc<BulkCore<R>>,
    chunks: usize,
}

impl<R> BulkHandle<R> {
    pub(crate) fn new(core: Arc<BulkCore<R>>, chunks: usize) -> Self {
        BulkHandle { core, chunks }
    }

    /// Number of chunk jobs this submission was cut into.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Have all chunks completed?
    pub fn is_finished(&self) -> bool {
        self.core.done.load(Ordering::Acquire)
    }

    /// Request cooperative cancellation of every chunk (running chunks
    /// drain; chunks still queued complete immediately with
    /// [`JobError::Cancelled`]).
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }

    /// Block until every chunk completes and return the per-chunk results
    /// in chunk (input) order.
    ///
    /// The result mutex is held only long enough to take the completed
    /// vector out; unwrapping (and anything the caller does with the
    /// results) runs with the lock released.
    pub fn wait(self) -> Vec<Result<R, JobError>> {
        let taken = {
            let mut results = self.core.results.lock();
            while !self.core.done.load(Ordering::Acquire) {
                self.core.cv.wait(&mut results);
            }
            std::mem::take(&mut *results)
        };
        taken.into_iter().map(|slot| slot.expect("all chunks completed")).collect()
    }

    /// Block until every chunk completes, then fold the chunk reductions in
    /// chunk (input) order with `merge`, short-circuiting on the first
    /// chunk error.
    ///
    /// The fold runs strictly *after* the result mutex is released (it
    /// operates on the taken vector, never inside the lock), so a slow —
    /// or re-entrant, e.g. one that submits and waits on further work —
    /// merge closure cannot block chunk completion or other waiters.
    pub fn wait_merged<T, F>(self, init: T, mut merge: F) -> Result<T, JobError>
    where
        F: FnMut(T, R) -> T,
    {
        let mut acc = init;
        for result in self.wait() {
            acc = merge(acc, result?);
        }
        Ok(acc)
    }
}

/// Adaptive DCAFE-style chunk sizing: aim for a fixed number of chunks per
/// worker when the queue is idle, and *grow* the chunk size with the
/// current injector depth — a backed-up queue gets fewer, larger jobs
/// instead of being flooded with one task per item. Returns the chunk
/// length in items (at least 1, at most `items`).
pub(crate) fn chunk_len(items: usize, workers: usize, queue_depth: usize) -> usize {
    /// Idle-queue target: enough chunks per worker to balance, few enough
    /// to keep per-chunk overhead negligible.
    const CHUNKS_PER_WORKER: usize = 4;
    if items == 0 {
        return 1;
    }
    let workers = workers.max(1);
    let base = items.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    // Each `workers` jobs already queued double the chunk: depth 0 → ×1,
    // depth = workers → ×2, etc., capped so a chunk is never larger than
    // the whole bulk.
    let factor = (queue_depth / workers).saturating_add(1);
    base.saturating_mul(factor).min(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_queue_yields_a_few_chunks_per_worker() {
        let len = chunk_len(1024, 4, 0);
        assert_eq!(len, 64, "1024 items / (4 workers * 4 chunks)");
        let chunks = 1024usize.div_ceil(len);
        assert_eq!(chunks, 16);
    }

    #[test]
    fn deep_queue_coarsens_chunks() {
        let idle = chunk_len(1024, 4, 0);
        let busy = chunk_len(1024, 4, 32);
        assert!(busy > idle, "backlog must coarsen: {idle} -> {busy}");
        assert!(busy <= 1024);
        // Depth = 2 × workers → ×3.
        assert_eq!(chunk_len(1024, 4, 8), 192);
    }

    #[test]
    fn degenerate_inputs_stay_sane() {
        assert_eq!(chunk_len(0, 4, 0), 1);
        assert_eq!(chunk_len(1, 4, 100), 1);
        assert_eq!(chunk_len(3, 128, 0), 1);
        // Chunk never exceeds the input length.
        assert_eq!(chunk_len(10, 1, 1_000_000), 10);
    }

    #[test]
    fn empty_bulk_is_immediately_done() {
        let core: Arc<BulkCore<u64>> = Arc::new(BulkCore::new(0));
        let h = BulkHandle::new(core, 0);
        assert!(h.is_finished());
        assert!(h.wait().is_empty());
    }

    #[test]
    fn chunk_completion_order_does_not_matter() {
        let core = Arc::new(BulkCore::new(3));
        core.complete_chunk(2, Ok(30u64));
        core.complete_chunk(0, Ok(10));
        let h = BulkHandle::new(Arc::clone(&core), 3);
        assert!(!h.is_finished());
        core.complete_chunk(1, Err(JobError::Cancelled));
        assert!(h.is_finished());
        assert_eq!(h.wait(), vec![Ok(10), Err(JobError::Cancelled), Ok(30)]);
    }

    #[test]
    fn wait_merged_folds_in_chunk_order() {
        let core = Arc::new(BulkCore::new(3));
        core.complete_chunk(1, Ok(2u64));
        core.complete_chunk(0, Ok(1));
        core.complete_chunk(2, Ok(3));
        let h = BulkHandle::new(core, 3);
        let digits = h.wait_merged(0u64, |acc, r| acc * 10 + r).unwrap();
        assert_eq!(digits, 123, "fold order is chunk order, not completion order");
    }

    #[test]
    fn wait_merged_short_circuits_on_chunk_error() {
        let core = Arc::new(BulkCore::new(2));
        core.complete_chunk(0, Err(JobError::Panicked));
        core.complete_chunk(1, Ok(7u64));
        let h = BulkHandle::new(core, 2);
        assert_eq!(h.wait_merged(0u64, |acc, r| acc + r), Err(JobError::Panicked));
    }

    #[test]
    fn merge_runs_outside_the_result_mutex() {
        let core = Arc::new(BulkCore::new(2));
        core.complete_chunk(0, Ok(1u64));
        core.complete_chunk(1, Ok(2));
        let h = BulkHandle::new(Arc::clone(&core), 2);
        let sum = h
            .wait_merged(0u64, |acc, r| {
                assert!(core.results.try_lock().is_some(), "merge held the result mutex");
                acc + r
            })
            .unwrap();
        assert_eq!(sum, 3);
    }
}
