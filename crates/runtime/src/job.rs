//! Type-erased job references.
//!
//! A [`JobRef`] is a raw pointer to a job living on some owner's stack plus
//! the monomorphized function that executes it — the same design MIT Cilk
//! (and rayon) use to keep fork overhead at a couple of pointer writes.
//!
//! # Safety contract
//!
//! Whoever creates a `JobRef` must keep the pointee alive until the job's
//! latch is set (or the owner physically removes the ref from its own deque,
//! at which point no thief can ever observe it). All owners in this crate
//! are blocking primitives ([`WorkerCtx::join`],
//! [`ThreadPool::install`]) that do not return before one of those two
//! things has happened.
//!
//! On the Chase–Lev deques of [`crate::deque`], a racing thief may make a
//! *speculative bitwise copy* of a `JobRef` and then lose the claiming CAS,
//! abandoning the copy without dropping it. That is sound here by
//! construction: a `JobRef` is two plain words with no drop glue, and only
//! the CAS winner's copy is ever [executed](JobRef::execute) — the
//! at-most-once execution contract is enforced by the deque's index
//! protocol (each index is claimed by exactly one pop/steal), not by move
//! semantics of the ref itself. Equally, "the owner physically removes the
//! ref" above means the owner's `pop` *claimed the job's index*: after
//! that, no thief's CAS on that index can succeed, so no thief can execute
//! it — stale speculative copies are discarded, never run.
//!
//! [`WorkerCtx::join`]: crate::pool::WorkerCtx::join
//! [`ThreadPool::install`]: crate::pool::ThreadPool::install

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

use crate::latch::Latch;
use crate::pool::WorkerCtx;

/// An erased pointer to a job awaiting execution.
pub(crate) struct JobRef {
    data: *const (),
    exec: unsafe fn(*const (), &WorkerCtx<'_>),
}

// SAFETY: a JobRef is only ever executed once, and the pointee is kept alive
// by its owner per the module contract; sending the pointer between worker
// threads is the whole point.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must outlive the job's execution; `exec` must be the matching
    /// executor for the concrete job type behind `data`.
    pub(crate) unsafe fn new(data: *const (), exec: unsafe fn(*const (), &WorkerCtx<'_>)) -> Self {
        JobRef { data, exec }
    }

    /// Identity of the job (for the "is this the one I pushed?" check).
    pub(crate) fn id(&self) -> *const () {
        self.data
    }

    /// Run the job.
    ///
    /// # Safety
    /// Must be called at most once per job instance.
    pub(crate) unsafe fn execute(self, ctx: &WorkerCtx<'_>) {
        (self.exec)(self.data, ctx)
    }
}

/// A job allocated on its owner's stack: closure, result slot and latch.
///
/// The owner blocks (executing other work) until the latch is set, which is
/// what makes the stack allocation sound.
pub(crate) struct StackJob<L: Latch, F, R> {
    pub(crate) latch: L,
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce(&WorkerCtx<'_>) -> R + Send,
    R: Send,
{
    pub(crate) fn new(latch: L, f: F) -> Self {
        StackJob { latch, f: UnsafeCell::new(Some(f)), result: UnsafeCell::new(None) }
    }

    /// # Safety
    /// The returned ref must not outlive `self`, and `self` must not move
    /// while the ref is live.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        unsafe { JobRef::new(self as *const Self as *const (), Self::execute_erased) }
    }

    unsafe fn execute_erased(data: *const (), ctx: &WorkerCtx<'_>) {
        let this = unsafe { &*(data as *const Self) };
        let f = unsafe { (*this.f.get()).take().expect("job executed twice") };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(ctx)));
        unsafe { *this.result.get() = Some(result) };
        this.latch.set();
    }

    /// Extract the result after the latch has been set, propagating panics.
    ///
    /// # Safety
    /// Only call after `latch.probe()` returned true (or the job ran
    /// inline), and only once.
    pub(crate) unsafe fn take_result(&self) -> R {
        match unsafe { (*self.result.get()).take().expect("result not ready") } {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Run the job inline on the owner's thread (after popping it back).
    pub(crate) fn run_inline(&self, ctx: &WorkerCtx<'_>) {
        // SAFETY: owner recovered the sole JobRef, so this is the only
        // execution.
        unsafe { Self::execute_erased(self as *const Self as *const (), ctx) }
    }
}

/// A heap-allocated fire-and-forget job for [`ThreadPool::spawn`]: the
/// closure owns everything it needs, so there is no latch and no waiting
/// owner — the box is reconstituted and consumed by whichever worker
/// executes the ref. Completion signalling (if any) lives inside the
/// closure; a panic is caught here so a misbehaving job cannot take its
/// worker thread down with it.
///
/// [`ThreadPool::spawn`]: crate::pool::ThreadPool::spawn
pub(crate) struct HeapJob<F> {
    f: F,
}

impl<F> HeapJob<F>
where
    F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
{
    /// Box `f` and erase it into a `JobRef`. The ref owns the allocation:
    /// executing it frees the box (and the deque protocol guarantees
    /// exactly one execution).
    pub(crate) fn into_job_ref(f: F) -> JobRef {
        let data = Box::into_raw(Box::new(HeapJob { f }));
        // SAFETY: the box stays alive until the (unique) execution, which
        // reconstitutes and drops it.
        unsafe { JobRef::new(data as *const (), Self::execute_erased) }
    }

    unsafe fn execute_erased(data: *const (), ctx: &WorkerCtx<'_>) {
        let this = unsafe { Box::from_raw(data as *mut Self) };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (this.f)(ctx))) {
            // Spawned jobs have no waiting owner to rethrow into; report and
            // keep the worker alive. Service-layer jobs catch their own
            // panics before this backstop and route them to the job handle.
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("tb-runtime: spawned job panicked: {msg}");
        }
    }
}
