//! Hand-rolled lock-free work-stealing structures: a Chase–Lev deque for
//! the per-worker job queues. (The pool's injector lives in
//! [`crate::injector`]: a locked queue that idle workers also sleep on.)
//!
//! Until PR 2 the pool ran on the `crossbeam-deque` shim, which guards a
//! `VecDeque` with a mutex — one lock acquisition per push/pop/steal. That
//! is invisible while blocks are huge, but it serializes the scheduling
//! hot path exactly when the restart scheduler needs it least: at small
//! block sizes, where scheduling actions are frequent (the regime Figure 4
//! and Theorem 4 care about). This module removes every lock from the
//! push/pop/steal path.
//!
//! # The Chase–Lev deque
//!
//! [`Worker`]/[`Stealer`] implement the classic Chase–Lev dynamic circular
//! work-stealing deque ("Dynamic Circular Work-Stealing Deque", SPAA'05)
//! with the C11 memory orderings of Lê, Pop, Cohen & Zappa Nardelli
//! ("Correct and Efficient Work-Stealing for Weak Memory Models",
//! PPoPP'13). The owner pushes and pops at the *bottom*; thieves steal at
//! the *top* with a single `compare_exchange` per successful steal. The
//! memory-ordering argument — which fences are load-bearing and why — is
//! written out inline at each call site and summarised in DESIGN.md §6.
//!
//! ## Speculative reads and non-`Copy` elements
//!
//! A thief reads the element *before* its claiming CAS; on CAS failure the
//! bitwise copy is abandoned with [`std::mem::forget`] (never dropped), so
//! exactly one handle materialises each element even for non-`Copy` types.
//! This is the same contract the real `crossbeam-deque` relies on. For
//! the pool's job-reference elements the copy is two plain words.
//!
//! ## Buffer reclamation
//!
//! When the owner grows the ring it cannot free the old buffer — a thief
//! racing on the previous epoch may still read (and then discard) a slot
//! from it. Instead of dragging in an epoch GC, retired buffers are parked
//! on the deque and freed when the last handle drops. Buffers double
//! geometrically, so all retired generations together are smaller than the
//! live one — bounded, and exactly the trade crossbeam's epoch collector
//! makes, amortised to deque lifetime.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

/// Result of a steal attempt (mirrors `crossbeam_deque::Steal`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The source was empty.
    Empty,
    /// One item was stolen.
    Success(T),
    /// The attempt lost a race with the owner or another thief; retry.
    Retry,
}

impl<T> Steal<T> {
    /// The stolen item, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }
}

/// A fixed-capacity ring of `MaybeUninit<T>` slots addressed by wrapping
/// indices. Grown by allocating a double-sized successor, never in place.
struct Buffer<T> {
    ptr: *mut MaybeUninit<T>,
    cap: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Buffer<T>> {
        debug_assert!(cap.is_power_of_two());
        let mut slots: Vec<MaybeUninit<T>> = Vec::with_capacity(cap);
        // SAFETY: MaybeUninit needs no initialisation; set_len within capacity.
        unsafe { slots.set_len(cap) };
        let ptr = Box::into_raw(slots.into_boxed_slice()) as *mut MaybeUninit<T>;
        Box::new(Buffer { ptr, cap })
    }

    /// # Safety
    /// `index`'s slot must hold a live `T` written by `write` that no other
    /// materialised read has consumed.
    unsafe fn read(&self, index: isize) -> T {
        let slot = unsafe { self.ptr.add(index as usize & (self.cap - 1)) };
        unsafe { (*slot).assume_init_read() }
    }

    /// # Safety
    /// The slot at `index` must be logically vacant (outside `top..bottom`).
    unsafe fn write(&self, index: isize, value: T) {
        let slot = unsafe { self.ptr.add(index as usize & (self.cap - 1)) };
        unsafe { (*slot).write(value) };
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        // SAFETY: reconstruct the boxed slice allocated in `alloc`. Live
        // elements (if any) are drained by `Inner::drop` before this runs;
        // MaybeUninit slots themselves need no per-element drop.
        drop(unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(self.ptr, self.cap)) });
    }
}

const INITIAL_CAP: usize = 64;

struct Inner<T> {
    /// Next index a thief will claim. Monotonically increasing; thieves
    /// advance it with `compare_exchange`.
    top: CachePadded<AtomicIsize>,
    /// One past the owner's most recent push. Only the owner writes it.
    bottom: CachePadded<AtomicIsize>,
    /// Current ring. Only the owner replaces it (on growth).
    buffer: AtomicPtr<Buffer<T>>,
    /// Previous generations, kept alive for racing thieves. Owner-only.
    retired: UnsafeCell<Vec<*mut Buffer<T>>>,
}

// SAFETY: the protocol below guarantees each element is materialised by
// exactly one handle; `retired` is only touched by the unique owner handle.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole remaining handle: drain live elements, then free all buffers.
        let top = self.top.load(Ordering::Relaxed);
        let bottom = self.bottom.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        // SAFETY: exclusive access; `top..bottom` are the live slots.
        unsafe {
            for i in top..bottom {
                drop((*buf).read(i));
            }
            drop(Box::from_raw(buf));
            for b in (*self.retired.get()).drain(..) {
                drop(Box::from_raw(b));
            }
        }
    }
}

/// The owner's handle to a Chase–Lev deque: LIFO `push`/`pop` at the bottom.
///
/// Deliberately `!Sync` and not `Clone`: the protocol requires a unique
/// owner (only it writes `bottom` and replaces the buffer).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Opts out of `Sync`/`Send`-via-`&` so two threads cannot both act as
    /// the owner through a shared reference.
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: moving the unique owner handle to another thread is fine; the
// protocol only forbids *concurrent* owners.
unsafe impl<T: Send> Send for Worker<T> {}

impl<T: Send> Default for Worker<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Send> Worker<T> {
    /// An empty deque owned by the caller.
    pub fn new() -> Self {
        let inner = Arc::new(Inner {
            top: CachePadded::new(AtomicIsize::new(0)),
            bottom: CachePadded::new(AtomicIsize::new(0)),
            buffer: AtomicPtr::new(Box::into_raw(Buffer::alloc(INITIAL_CAP))),
            retired: UnsafeCell::new(Vec::new()),
        });
        Worker { inner, _not_sync: PhantomData }
    }

    /// A thief-side handle to this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { inner: Arc::clone(&self.inner) }
    }

    /// Push onto the owner's end.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        // `bottom` is ours alone: Relaxed read-back of our own last store.
        let b = inner.bottom.load(Ordering::Relaxed);
        // Acquire on `top`: pairs with thieves' Release CAS so the size
        // check below never *under*estimates how much room the ring has
        // (stale `top` only overestimates the size, forcing a harmless
        // early grow).
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: owner is the only mutator of `buffer`/`retired`.
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(buf, t, b);
            }
            (*buf).write(b, value);
        }
        // Release on `bottom`: publishes both the element write above and
        // (transitively) any new buffer installed by `grow` to thieves,
        // whose size check Acquire-loads `bottom`. Without it a thief could
        // observe the incremented index but a stale slot.
        inner.bottom.store(b + 1, Ordering::Release);
    }

    /// Pop from the owner's end (most recently pushed first).
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        // Reserve the bottom slot *before* reading `top`.
        inner.bottom.store(b, Ordering::Relaxed);
        // SeqCst fence: the heart of Chase–Lev. The owner's
        // `bottom = b` store must be globally ordered against every thief's
        // `top` CAS; both sides go through the single total order of
        // SeqCst operations, so either the thief sees the reservation
        // (its `t >= b` check fails and it backs off) or the owner sees
        // the thief's incremented `top` below and backs off itself.
        // Acquire/Release alone cannot order this store-then-load pattern.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t > b {
            // Deque was empty; undo the reservation.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        if t == b {
            // Last element: race thieves for it with the same CAS they use.
            // SeqCst success ordering keeps the CAS in the fence's total
            // order; failure can be Relaxed (we only undo and leave).
            let won = inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
            inner.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
            // SAFETY: winning the CAS grants the sole right to slot `b`.
            return Some(unsafe { (*buf).read(b) });
        }
        // t < b: more than one element remained; no thief can reach `b`.
        // SAFETY: slot `b` is exclusively ours after the reservation.
        Some(unsafe { (*buf).read(b) })
    }

    /// True when the deque currently holds no items (owner's view).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued items (exact for the owner between its own ops).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Replace the full ring with one of twice the capacity, copying the
    /// live range `t..b`. The old ring is *retired*, not freed: a thief
    /// that loaded the old pointer may still speculatively read from it.
    ///
    /// # Safety
    /// Owner-only; `old` must be the currently installed buffer.
    unsafe fn grow(&self, old: *mut Buffer<T>, t: isize, b: isize) -> *mut Buffer<T> {
        let inner = &*self.inner;
        let new = unsafe {
            let new = Box::into_raw(Buffer::alloc((*old).cap * 2));
            for i in t..b {
                // Bitwise relocation: the old slots stay untouched so
                // in-flight speculative reads still see their bytes.
                let v = (*old).read(i);
                (*new).write(i, v);
            }
            (*self.inner.retired.get()).push(old);
            new
        };
        // Release: a thief Acquire-loading `buffer` (or Acquire-loading
        // `bottom` stored after us) must see fully copied slots.
        inner.buffer.store(new, Ordering::Release);
        new
    }
}

/// A thief's handle: `steal` claims the oldest item with one CAS.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

// SAFETY: see `Inner`; stealers only use the CAS protocol.
unsafe impl<T: Send> Send for Stealer<T> {}
unsafe impl<T: Send> Sync for Stealer<T> {}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { inner: Arc::clone(&self.inner) }
    }
}

impl<T: Send> Stealer<T> {
    /// Steal the oldest item.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        // Acquire on `top`: see at least everything the previous successful
        // thief saw (keeps repeated steals monotone).
        let t = inner.top.load(Ordering::Acquire);
        // SeqCst fence, pairing with the fence in `pop`: orders our `top`
        // load before the `bottom` load so we cannot read a `bottom` that
        // predates a pop whose CAS we would then race incorrectly.
        fence(Ordering::SeqCst);
        // Acquire on `bottom`: pairs with the owner's Release store in
        // `push`, making the pushed element (and any grown buffer) visible
        // before we read the slot.
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Consume edge: the buffer pointer is published by the same
        // Release chain as `bottom`; Acquire keeps the slot copy below
        // from being hoisted above it.
        let buf = inner.buffer.load(Ordering::Acquire);
        // Speculative bitwise copy — see module docs. Must happen *before*
        // the CAS: after the CAS the owner may legitimately overwrite the
        // slot (push after wraparound), so reading afterwards could tear.
        let value = unsafe { (*buf).read(t) };
        // SeqCst success: joins the total order with `pop`'s fence/CAS so
        // owner and thieves agree on who claimed index `t`. On failure the
        // copy is abandoned un-dropped — the winner owns the element.
        if inner.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_err() {
            std::mem::forget(value);
            return Steal::Retry;
        }
        Steal::Success(value)
    }

    /// True when no items are visible (approximate between operations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of visible items (a snapshot; may be stale immediately).
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Acquire);
        let b = self.inner.bottom.load(Ordering::Acquire);
        (b - t).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn lifo_owner_fifo_thief() {
        let w: Worker<u32> = Worker::new();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some(3), "owner pops newest");
        assert_eq!(s.steal(), Steal::Success(1), "thief steals oldest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn growth_preserves_contents() {
        let w: Worker<usize> = Worker::new();
        let n = INITIAL_CAP * 8 + 3;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        for i in (0..n).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_steal_conserves_items() {
        let w: Worker<u64> = Worker::new();
        let s = w.stealer();
        let mut seen = 0u64;
        let mut pushed = 0u64;
        for round in 0..1000u64 {
            w.push(round);
            pushed += round;
            if round % 3 == 0 {
                if let Steal::Success(v) = s.steal() {
                    seen += v;
                }
            }
            if round % 7 == 0 {
                if let Some(v) = w.pop() {
                    seen += v;
                }
            }
        }
        while let Some(v) = w.pop() {
            seen += v;
        }
        assert_eq!(seen, pushed);
    }

    #[test]
    fn concurrent_thieves_each_item_exactly_once() {
        const ITEMS: u64 = 20_000;
        const THIEVES: usize = 3;
        let w: Worker<u64> = Worker::new();
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THIEVES {
                let s = w.stealer();
                let (sum, count) = (&sum, &count);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            if count.fetch_add(1, Ordering::Relaxed) + 1 == ITEMS {
                                return;
                            }
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if count.load(Ordering::Relaxed) == ITEMS {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for i in 0..ITEMS {
                w.push(i);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), ITEMS);
        assert_eq!(sum.load(Ordering::Relaxed), ITEMS * (ITEMS - 1) / 2);
    }

    #[test]
    fn owner_and_thieves_race_for_everything() {
        use std::sync::atomic::AtomicBool;
        const ITEMS: u64 = 30_000;
        let w: Worker<u64> = Worker::new();
        let stolen = AtomicU64::new(0);
        let stolen_n = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let mut kept = 0u64;
        let mut kept_n = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let s = w.stealer();
                let (stolen, stolen_n, done) = (&stolen, &stolen_n, &done);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            stolen.fetch_add(v, Ordering::Relaxed);
                            stolen_n.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            // Only exit once the owner has finished pushing
                            // AND the deque is drained.
                            if done.load(Ordering::Acquire) && s.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Owner: push everything, popping intermittently.
            for i in 0..ITEMS {
                w.push(i);
                if i % 2 == 0 {
                    if let Some(v) = w.pop() {
                        kept += v;
                        kept_n += 1;
                    }
                }
            }
            while let Some(v) = w.pop() {
                kept += v;
                kept_n += 1;
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(kept_n + stolen_n.load(Ordering::Relaxed), ITEMS);
        assert_eq!(kept + stolen.load(Ordering::Relaxed), ITEMS * (ITEMS - 1) / 2);
    }

    #[test]
    fn heap_payloads_are_not_leaked_or_double_freed() {
        let w: Worker<Box<u64>> = Worker::new();
        let s = w.stealer();
        for i in 0..500u64 {
            w.push(Box::new(i));
        }
        let mut total = 0u64;
        for _ in 0..250 {
            if let Steal::Success(b) = s.steal() {
                total += *b;
            }
        }
        while let Some(b) = w.pop() {
            total += *b;
        }
        assert_eq!(total, 500 * 499 / 2);
        // Dropping a non-empty deque must drop remaining elements.
        let w2: Worker<Box<u64>> = Worker::new();
        for i in 0..100u64 {
            w2.push(Box::new(i));
        }
        drop(w2);
    }
}
