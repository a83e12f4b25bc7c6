//! The worker pool: threads, deques, stealing, sleeping, and `join`.
//!
//! The per-worker job deques are the lock-free Chase–Lev deques of
//! [`crate::deque`]: every `join`, pop and steal between workers goes
//! through them without a lock. External submission ([`ThreadPool::install`]
//! roots and [`ThreadPool::spawn`] service jobs) enters through the
//! unbounded locked queue of [`crate::injector`], once per job, and idle
//! workers sleep on that same lock after 64 fruitless sweeps — with no
//! timeout, because every wake-up that could reach a sleeper is sent
//! under it (DESIGN §7.3).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_utils::CachePadded;
use tb_obs::EventKind;

use crate::deque::{Steal, Stealer, Worker};
use crate::injector::{Injector, InjectorMetrics};
use crate::job::{HeapJob, JobRef, StackJob};
use crate::latch::{SpinLatch, SyncLatch};
use crate::metrics::{PoolMetrics, WorkerSteals};

/// How many fruitless steal sweeps a worker performs (yielding in between)
/// before it sleeps on the injector.
const SPINS_BEFORE_SLEEP: u32 = 64;

/// Steal counters owned by one worker. Only that worker writes them (plain
/// load + store, no RMW), so the hot path costs a private-cache-line write;
/// [`ThreadPool::metrics`] merges the lines at observation points (a
/// scheduler reads the totals before and after each run). Other threads
/// read them with Relaxed loads — each counter is monotone, so a sum of
/// stale values is itself a valid earlier snapshot.
#[derive(Default)]
struct StealCounters {
    attempts: AtomicU64,
    steals: AtomicU64,
    injector_pops: AtomicU64,
}

impl StealCounters {
    /// Owner-only increment: load + store instead of `fetch_add`, because
    /// no other thread ever writes this line.
    #[inline]
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

pub(crate) struct Shared {
    injector: Injector<JobRef>,
    stealers: Vec<Stealer<JobRef>>,
    /// One counter pair per worker, cache-padded so a worker's bumps never
    /// bounce another worker's line.
    counters: Vec<CachePadded<StealCounters>>,
    /// Jobs ever pushed into the injector. Multi-producer (any client
    /// thread), so this one is a real `fetch_add` — but it sits on the
    /// submission path, not the worker hot path.
    injector_pushes: AtomicU64,
    /// Workers currently without a job: between a fruitless steal sweep
    /// and the next job they find (spinning, yielding or parked). Written
    /// only on those two transitions, polled every superstep by workers
    /// running split-on-demand schedulers ([`WorkerCtx::thief_hungry`]) —
    /// hence its own cache line. Advisory: it publishes no data, so every
    /// access is Relaxed.
    idle_workers: CachePadded<AtomicUsize>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pool-wide `(steal_attempts, steals)` summed straight off the
    /// per-worker counter lines — the allocation-free read the in-pool
    /// scheduler drivers take twice per job.
    fn steal_totals(&self) -> (u64, u64) {
        self.counters.iter().fold((0, 0), |(attempts, steals), c| {
            (attempts + c.attempts.load(Ordering::Relaxed), steals + c.steals.load(Ordering::Relaxed))
        })
    }

    /// Merge the per-worker counters into one snapshot. Monotone counters
    /// summed with Relaxed loads: the result is a consistent lower bound,
    /// exact at quiescent points (pool sync).
    fn merged_metrics(&self) -> PoolMetrics {
        let mut m = PoolMetrics::default();
        for c in &self.counters {
            let w = WorkerSteals {
                attempts: c.attempts.load(Ordering::Relaxed),
                steals: c.steals.load(Ordering::Relaxed),
                injector_pops: c.injector_pops.load(Ordering::Relaxed),
            };
            m.steal_attempts += w.attempts;
            m.steals += w.steals;
            m.injector_pops += w.injector_pops;
            m.per_worker.push(w);
        }
        m.injector_pushes = self.injector_pushes.load(Ordering::Relaxed);
        m
    }
}

/// A fixed-size pool of work-stealing workers.
///
/// Dropping the pool shuts the workers down and joins their threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Spawn a pool of `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        tb_obs::init_from_env();
        let threads = threads.max(1);
        let workers: Vec<Worker<JobRef>> = (0..threads).map(|_| Worker::new()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            counters: (0..threads).map(|_| CachePadded::new(StealCounters::default())).collect(),
            injector_pushes: AtomicU64::new(0),
            idle_workers: CachePadded::new(AtomicUsize::new(0)),
            shutdown: AtomicBool::new(false),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tb-worker-{index}"))
                    .spawn(move || worker_loop(&shared, index, local))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, handles, threads }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` inside the pool (on whichever worker picks it up) and block
    /// the calling thread until it completes. Panics in `f` propagate.
    ///
    /// Must be called from outside the pool (not from a worker).
    pub fn install<R, F>(&self, f: F) -> R
    where
        R: Send,
        F: FnOnce(&WorkerCtx<'_>) -> R + Send,
    {
        let job = StackJob::<SyncLatch, F, R>::new(SyncLatch::new(), f);
        // SAFETY: we block on the latch below; the job outlives execution.
        self.shared.injector.push_waking(unsafe { job.as_job_ref() }, true);
        self.shared.injector_pushes.fetch_add(1, Ordering::Relaxed);
        tb_obs::record(EventKind::InjectorPush, 0, 0);
        job.latch.wait();
        // SAFETY: latch set => result written exactly once.
        unsafe { job.take_result() }
    }

    /// Submit a fire-and-forget job: `f` runs on whichever worker picks it
    /// up, and the caller returns immediately. This is the service-layer
    /// entry point — unlike [`ThreadPool::install`] it never blocks the
    /// submitting thread (the injector is unbounded), so completion
    /// signalling is the closure's own responsibility (see `tb-service`'s
    /// job handles). A panic inside `f` is caught and reported to stderr;
    /// the worker survives.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
    {
        self.shared.injector.push(HeapJob::into_job_ref(f));
        self.shared.injector_pushes.fetch_add(1, Ordering::Relaxed);
        tb_obs::record(EventKind::InjectorPush, 0, 0);
    }

    /// Submission-path counters of the injector (capacity waits, buffer
    /// growths). `full_waits` staying at zero is the "submission never
    /// blocks on capacity" invariant the service benchmark asserts.
    pub fn injector_metrics(&self) -> InjectorMetrics {
        self.shared.injector.metrics()
    }

    /// Cumulative steal counters across the pool's lifetime, merged from
    /// the per-worker counters.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.merged_metrics()
    }

    /// Pool-wide `(steal_attempts, steals)`: the two totals of
    /// [`ThreadPool::metrics`] without building the per-worker breakdown.
    pub fn steal_totals(&self) -> (u64, u64) {
        self.shared.steal_totals()
    }

    /// A point-in-time load probe of this pool, cheap enough to call on
    /// every placement decision: the injector depth (queued, unclaimed
    /// jobs) and the number of workers currently awake. Both readings are
    /// racy snapshots — they order placement *preferences* across pools,
    /// they are not admission bounds (those live in `tb-service`'s gates).
    pub fn load(&self) -> PoolLoad {
        let sleepers = self.shared.injector.sleepers().min(self.threads);
        PoolLoad {
            injector_depth: self.shared.injector.len(),
            active_workers: self.threads - sleepers,
            threads: self.threads,
        }
    }
}

/// What [`ThreadPool::load`] reports: the per-pool load signals a
/// multi-pool placement layer ranks siblings by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolLoad {
    /// Jobs queued in the injector, not yet claimed by a worker.
    pub injector_depth: usize,
    /// Workers currently awake (running or stealing, i.e. not asleep on
    /// the injector).
    pub active_workers: usize,
    /// Total workers in the pool.
    pub threads: usize,
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.injector.wake(true);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A worker's view of the pool, passed to every job. Grants access to the
/// fork/join primitives and the demand signal splitting schedulers poll.
pub struct WorkerCtx<'a> {
    shared: &'a Shared,
    index: usize,
    local: &'a Worker<JobRef>,
    rng: Cell<u64>,
}

impl<'a> WorkerCtx<'a> {
    /// This worker's id in `0..pool.threads()`.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Is some worker idle with nothing to take? True when at least one
    /// worker is between jobs, the injector is empty (an idle worker drains
    /// it first) and this worker's own deque is empty (anything already
    /// published there is what the idle worker will find next). Three
    /// Relaxed loads; the first — a line written only when a worker runs
    /// dry or finds work again — settles the common "nobody is hungry"
    /// case.
    ///
    /// This is the demand signal for serial-by-default work that creates
    /// tasks only when a thief wants them: poll it at a point where the
    /// computation can be split, and fork (via [`WorkerCtx::join`]) only
    /// on `true`. It never fires on a one-worker pool — there is no other
    /// worker to be idle — and not while queued jobs keep the others fed.
    #[inline]
    pub fn thief_hungry(&self) -> bool {
        self.shared.idle_workers.load(Ordering::Relaxed) > 0
            && self.shared.injector.is_empty()
            && self.local.is_empty()
    }

    #[inline]
    fn next_rand(&self) -> u64 {
        // xorshift64*: cheap, good-enough victim selection.
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fire-and-forget submission from *inside* the pool: the worker-side
    /// counterpart of [`ThreadPool::spawn`]. The job goes onto this
    /// worker's own deque (stealable by the others), so a job completing
    /// on a worker can hand follow-on work to the pool without holding any
    /// reference to the `ThreadPool` itself — which is what lets the
    /// service layer's admission scheduler start queued jobs from a
    /// completion path without risking a worker owning (and joining) its
    /// own pool. Panics in `f` are caught and reported, as for
    /// [`ThreadPool::spawn`].
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&WorkerCtx<'_>) + Send + 'static,
    {
        self.push_job(HeapJob::into_job_ref(f));
    }

    /// Push onto this worker's deque and wake one sleeper if the unlocked
    /// count shows one. A sleeper that registers in the gap between the
    /// push and that load is missed until the next wake-up; that costs
    /// parallelism, not progress, because this worker is awake and pops
    /// its own deque before it can sleep (DESIGN §7.3).
    pub(crate) fn push_job(&self, job: JobRef) {
        self.local.push(job);
        tb_obs::record(EventKind::Spawn, self.index as u32, 0);
        self.shared.injector.wake(false);
    }

    pub(crate) fn pop_job(&self) -> Option<JobRef> {
        self.local.pop()
    }

    /// # Safety
    /// `job` must be executed at most once.
    pub(crate) unsafe fn execute(&self, job: JobRef) {
        unsafe { job.execute(self) };
    }

    /// One sweep over the injector and every other worker's deque.
    /// Records a steal attempt; returns a job if one was found.
    pub(crate) fn try_steal(&self) -> Option<JobRef> {
        let counters = &self.shared.counters[self.index];
        StealCounters::bump(&counters.attempts);
        tb_obs::record(EventKind::StealAttempt, self.index as u32, 0);
        // The global injector first: install()/spawn() roots land there.
        if let Steal::Success(job) = self.shared.injector.steal() {
            StealCounters::bump(&counters.steals);
            StealCounters::bump(&counters.injector_pops);
            tb_obs::record(EventKind::InjectorPop, self.index as u32, 0);
            return Some(job);
        }
        let n = self.shared.stealers.len();
        let start = (self.next_rand() as usize) % n;
        for off in 0..n {
            let victim = (start + off) % n;
            if victim == self.index {
                continue;
            }
            loop {
                match self.shared.stealers[victim].steal() {
                    Steal::Success(job) => {
                        StealCounters::bump(&counters.steals);
                        tb_obs::record(EventKind::StealHit, self.index as u32, victim as u64);
                        return Some(job);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    /// Work (pop local, then steal) until `latch` is set.
    pub(crate) fn wait_on(&self, latch: &SpinLatch) {
        let mut spins = 0u32;
        while !latch.probe() {
            let job = self.pop_job().or_else(|| self.try_steal());
            self.note_idle(spins, job.is_some());
            match job {
                Some(job) => {
                    // SAFETY: freshly popped/stolen refs are executed once.
                    unsafe { self.execute(job) };
                    spins = 0;
                }
                None => {
                    spins += 1;
                    if spins > 16 {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.note_idle(spins, true);
    }

    /// Keep [`Shared::idle_workers`] in step with this worker's search
    /// loop: `fruitless` is how many consecutive sweeps had already failed
    /// before this one, `found` whether this one ended the dry spell (a
    /// job, or the awaited latch). Only the two transitions touch the
    /// shared line.
    #[inline]
    fn note_idle(&self, fruitless: u32, found: bool) {
        match (fruitless, found) {
            (0, false) => {
                self.shared.idle_workers.fetch_add(1, Ordering::Relaxed);
            }
            (1.., true) => {
                self.shared.idle_workers.fetch_sub(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Fork `a` and `b`: run `a` inline while `b` is exposed for stealing;
    /// if nobody stole `b`, run it inline too; otherwise steal other work
    /// until the thief finishes. Returns both results; panics propagate.
    pub fn join<RA, RB, FA, FB>(&self, a: FA, b: FB) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        FA: FnOnce(&WorkerCtx<'_>) -> RA + Send,
        FB: FnOnce(&WorkerCtx<'_>) -> RB + Send,
    {
        let bjob = StackJob::<SpinLatch, FB, RB>::new(SpinLatch::new(), b);
        // SAFETY: we do not return before bjob's latch is set or the ref is
        // popped back, and bjob never moves (it stays in this frame).
        let bref = unsafe { bjob.as_job_ref() };
        let bid = bref.id();
        self.push_job(bref);

        let ra = a(self);

        loop {
            if bjob.latch.probe() {
                break;
            }
            match self.pop_job() {
                Some(job) if job.id() == bid => {
                    // Nobody stole it: run inline. `job` (the recovered ref)
                    // is intentionally forgotten; run_inline consumes the
                    // logical execution right.
                    bjob.run_inline(self);
                    break;
                }
                Some(job) => {
                    // A job pushed after ours (by `a`'s descendants that
                    // were themselves stolen-back scenarios) — execute it,
                    // it is pending work we own.
                    // SAFETY: popped refs are executed once.
                    unsafe { self.execute(job) };
                }
                None => {
                    // b was stolen: make ourselves useful until it's done.
                    self.wait_on(&bjob.latch);
                    break;
                }
            }
        }
        // SAFETY: at this point the job has run exactly once.
        let rb = unsafe { bjob.take_result() };
        (ra, rb)
    }
}

fn worker_loop(shared: &Shared, index: usize, local: Worker<JobRef>) {
    let ctx = WorkerCtx {
        shared,
        index,
        local: &local,
        rng: Cell::new(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1) | 1),
    };
    let mut idle_sweeps = 0u32;
    loop {
        let job = ctx.pop_job().or_else(|| ctx.try_steal());
        ctx.note_idle(idle_sweeps, job.is_some());
        if let Some(job) = job {
            // SAFETY: popped/stolen refs are executed once.
            unsafe { ctx.execute(job) };
            idle_sweeps = 0;
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps < SPINS_BEFORE_SLEEP {
            std::thread::yield_now();
        } else {
            // Sleep until a push or a wake: registered and re-checked under
            // the injector's lock, so an injector push or shutdown cannot
            // slip past (DESIGN §7.3).
            shared.injector.sleep(|| {
                shared.shutdown.load(Ordering::SeqCst)
                    || shared.stealers.iter().enumerate().any(|(i, s)| i != index && !s.is_empty())
            });
        }
    }
}
