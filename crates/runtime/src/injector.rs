//! The pool's front door: a locked FIFO that idle workers also sleep on.
//!
//! External submission ([`crate::ThreadPool::install`] roots and
//! [`crate::ThreadPool::spawn`] service jobs) pushes here and workers pop
//! from the front. It is touched once per external job — a service job
//! runs for ≥ 10 µs — so a `Mutex<VecDeque<T>>` costs nothing the
//! workload can see, and the same lock makes sleeping exact: a worker
//! registers in `sleepers` and re-checks the queue *under the lock*, and
//! every push notifies under the lock it pushed under, so a wake-up can
//! never fall between a sleeper's last look and its wait (DESIGN §7.3).
//!
//! A Relaxed length hint, written under the lock, lets the hot readers —
//! [`crate::WorkerCtx::thief_hungry`], the pool's load probe and the idle
//! sweep through [`Injector::steal`] — see an empty queue without locking
//! it. The hint may be stale between operations; the sleep path never
//! trusts it, because it checks the queue itself under the lock.
//!
//! The queue is unbounded, so [`InjectorMetrics::full_waits`] is zero by
//! construction, and the service benchmark asserts exactly that.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::deque::Steal;

/// Submission-path counters (exact: read under the lock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorMetrics {
    /// Times a producer waited because the queue was out of capacity.
    /// Structurally zero — the queue is unbounded — and asserted by the
    /// service benchmark's smoke run.
    pub full_waits: u64,
    /// Times the queue's buffer grew (the first push allocates it). Flat
    /// once the queue has reached its high-water mark, so steady traffic
    /// allocating nothing stays observable.
    pub segments_allocated: u64,
    /// Structurally zero: the buffer is reused in place, there are no
    /// segments to recycle. Kept so existing readers still compile.
    pub segments_recycled: u64,
}

struct Queue<T> {
    items: VecDeque<T>,
    growths: u64,
}

/// An unbounded MPMC FIFO behind one mutex, plus the condvar idle pool
/// workers park on. External threads `push` jobs, workers `steal` them.
pub struct Injector<T> {
    queue: Mutex<Queue<T>>,
    /// `queue.items.len()`, stored under the lock after every change and
    /// loaded Relaxed by readers that only want to skip an empty queue.
    len: AtomicUsize,
    /// Workers registered to wait on `wakeup`. Changed only under the
    /// lock; loaded outside it by worker-side wakes and the load probe.
    sleepers: AtomicUsize,
    wakeup: Condvar,
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Injector<T> {
    /// An empty injector (allocates nothing until the first push).
    pub fn new() -> Self {
        Injector {
            queue: Mutex::new(Queue { items: VecDeque::new(), growths: 0 }),
            len: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            wakeup: Condvar::new(),
        }
    }

    /// Counters snapshot.
    pub fn metrics(&self) -> InjectorMetrics {
        InjectorMetrics { full_waits: 0, segments_allocated: self.queue.lock().growths, segments_recycled: 0 }
    }

    /// Enqueue `value` and wake one sleeping worker, if any.
    pub fn push(&self, value: T) {
        self.push_waking(value, false);
    }

    /// Enqueue `value`; then, still under the lock, wake one sleeper (or
    /// every sleeper if `all`). A worker that re-checked the queue before
    /// this push is already waiting, so the notify reaches it.
    pub(crate) fn push_waking(&self, value: T, all: bool) {
        let mut q = self.queue.lock();
        if q.items.len() == q.items.capacity() {
            q.growths += 1;
        }
        q.items.push_back(value);
        self.len.store(q.items.len(), Ordering::Relaxed);
        self.notify(&q, all);
    }

    /// Dequeue the oldest item, or [`Steal::Empty`] when none is queued.
    /// An empty hint returns without taking the lock.
    pub fn steal(&self) -> Steal<T> {
        if self.is_empty() {
            return Steal::Empty;
        }
        let mut q = self.queue.lock();
        let item = q.items.pop_front();
        self.len.store(q.items.len(), Ordering::Relaxed);
        item.map_or(Steal::Empty, Steal::Success)
    }

    /// True when the length hint reads zero (approximate between
    /// operations).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued items, from the hint (a snapshot; may be stale
    /// immediately).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Workers currently registered as sleeping.
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Wake one sleeper (or all): takes the lock only when the unlocked
    /// count shows a sleeper, then checks again under it.
    pub(crate) fn wake(&self, all: bool) {
        if self.sleepers() > 0 {
            self.notify(&self.queue.lock(), all);
        }
    }

    /// Park the calling worker until the next notify, unless the queue
    /// holds an item or `work_elsewhere` (evaluated after registering,
    /// under the lock) finds something to do. No timeout: every push here
    /// notifies under this lock, and [`Injector::wake`] covers the rest.
    pub(crate) fn sleep(&self, work_elsewhere: impl FnOnce() -> bool) {
        let mut q = self.queue.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if q.items.is_empty() && !work_elsewhere() {
            self.wakeup.wait(&mut q);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Notify under the held lock `_q`, if anyone is waiting.
    fn notify(&self, _q: &MutexGuard<'_, Queue<T>>, all: bool) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            if all {
                self.wakeup.notify_all();
            } else {
                self.wakeup.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn fifo_roundtrip() {
        let inj: Injector<u64> = Injector::new();
        assert_eq!(inj.steal(), Steal::Empty);
        for i in 0..10 {
            inj.push(i);
        }
        assert_eq!(inj.len(), 10);
        for i in 0..10 {
            assert_eq!(inj.steal(), Steal::Success(i), "oldest first");
        }
        assert_eq!(inj.steal(), Steal::Empty);
        assert!(inj.is_empty());
    }

    #[test]
    fn steady_drain_refill_allocates_nothing() {
        let inj: Injector<u64> = Injector::new();
        for i in 0..100 {
            inj.push(i);
        }
        while let Steal::Success(_) = inj.steal() {}
        let grown = inj.metrics().segments_allocated;
        assert!(grown >= 1, "the first push allocates the buffer");
        for round in 0..8u64 {
            for i in 0..100 {
                inj.push(round * 1000 + i);
            }
            while let Steal::Success(_) = inj.steal() {}
        }
        let m = inj.metrics();
        assert_eq!(m.segments_allocated, grown, "refills below the high-water mark reuse the buffer");
        assert_eq!((m.full_waits, m.segments_recycled), (0, 0));
    }

    #[test]
    fn concurrent_producers_consumers_conserve_items() {
        const PER_PRODUCER: u64 = 20_000;
        const PRODUCERS: u64 = 4;
        let inj: Injector<u64> = Injector::new();
        let got = AtomicU64::new(0);
        let n = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let inj = &inj;
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        inj.push(p * PER_PRODUCER + i);
                    }
                });
            }
            for _ in 0..3 {
                let (inj, got, n) = (&inj, &got, &n);
                scope.spawn(move || loop {
                    match inj.steal() {
                        Steal::Success(v) => {
                            got.fetch_add(v, Ordering::Relaxed);
                            n.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            if n.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        let total = PRODUCERS * PER_PRODUCER;
        assert_eq!(n.load(Ordering::Relaxed), total);
        assert_eq!(got.load(Ordering::Relaxed), (0..total).sum::<u64>());
        assert_eq!(inj.metrics().full_waits, 0);
    }

    #[test]
    fn drop_with_pending_items_is_clean() {
        let inj: Injector<Box<u64>> = Injector::new();
        for i in 0..200 {
            inj.push(Box::new(i));
        }
        drop(inj); // must drop every box
    }

    #[test]
    fn drop_after_partial_drain_is_clean() {
        let inj: Injector<Box<u64>> = Injector::new();
        for i in 0..93 {
            inj.push(Box::new(i));
        }
        for _ in 0..73 {
            assert!(matches!(inj.steal(), Steal::Success(_)));
        }
        for i in 0..40 {
            inj.push(Box::new(i)); // wraps around the ring buffer's end
        }
        drop(inj); // 60 boxes left, split across the wrap
    }

    #[test]
    fn a_push_wakes_a_sleeper_without_a_timeout() {
        let inj: Injector<u64> = Injector::new();
        std::thread::scope(|scope| {
            let sleeper = scope.spawn(|| loop {
                if let Steal::Success(v) = inj.steal() {
                    return v;
                }
                inj.sleep(|| false);
            });
            while inj.sleepers() == 0 {
                std::thread::yield_now();
            }
            inj.push(7);
            assert_eq!(sleeper.join().unwrap(), 7);
        });
        assert_eq!(inj.sleepers(), 0);
    }
}
