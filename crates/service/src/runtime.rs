//! The long-lived, shared [`Runtime`]: one worker pool, many clients.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tb_core::{
    drive, BlockProgram, CancelToken, Outcome, PolicyKind, SchedConfig, SchedulerKind, Seam, SeqFrontier,
    SeqScheduler,
};
use tb_obs::EventKind;
use tb_runtime::{InjectorMetrics, ThreadPool, WorkerCtx};
use tb_spec::{compile, parse_spec, CompiledSpec, SpecCode, SpecTier, VectorSpec};

use crate::bulk::{chunk_len, BulkCore, BulkHandle};
use crate::handle::{JobCore, JobError, JobHandle};
use crate::sched::{
    Admission, FinishObserver, JobId, Mode, PreemptFlag, ReadyJob, TenantId, TenantSnapshot, TenantSpec,
};

/// The tenant every runtime is born with (weight 1, priority 0): what
/// tenant-unaware callers pass to [`Runtime::submit_as`] and friends, and
/// the tenant [`Runtime::submit_bulk`] chunks run as.
pub const DEFAULT_TENANT: TenantId = 0;

/// Construction parameters for a [`Runtime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads in the shared pool. Defaults to the machine's
    /// available parallelism.
    pub threads: usize,
    /// Pool-side admission bound: jobs *running* on the pool at once
    /// (scheduler jobs and bulk *chunks* count as one each). Jobs accepted
    /// under their tenant's pending bound but beyond this one wait in the
    /// scheduler's queues. Defaults to `8 × threads` — enough
    /// depth to keep every worker fed through job-boundary gaps, small
    /// enough that queueing delay stays bounded by a few job service
    /// times. It is also the default tenant's `max_pending`, so
    /// tenant-unaware workloads see exactly the old bounded-inflight
    /// behaviour: submissions beyond it block the submitting client.
    pub max_inflight: usize,
    /// Bounded park pool: preempted job frontiers held swapped-out at
    /// once. `0` disables preemption. Defaults to `2 × threads`.
    pub max_parked: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        RuntimeConfig { threads, max_inflight: threads * 8, max_parked: threads * 2 }
    }
}

/// Lifetime counters for a runtime (monotone, Relaxed; exact at quiescence).
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Jobs accepted for execution (including bulk chunks).
    pub submitted: u64,
    /// Jobs that completed with a value.
    pub completed: u64,
    /// Jobs that finished cancelled.
    pub cancelled: u64,
    /// Jobs whose program panicked (contained; see [`JobError::Panicked`]).
    pub panicked: u64,
    /// Spec submissions rejected before reaching a worker (parse/validate
    /// failures, root-arity mismatches; see [`JobError::Rejected`]).
    pub rejected: u64,
    /// Spec sources compiled ([`Runtime::submit_spec_foreach_tier_as`]
    /// cache misses).
    pub spec_compiles: u64,
    /// Spec submissions served from the compile-once cache.
    pub spec_cache_hits: u64,
    /// Jobs occupying pool slots (running or parking) at snapshot time.
    pub inflight: usize,
    /// Jobs accepted but waiting for a pool slot, at snapshot time.
    pub waiting: usize,
    /// Preempted jobs currently swapped out, at snapshot time.
    pub parked: usize,
    /// Tasks held by swapped-out frontiers, at snapshot time.
    pub parked_tasks: usize,
    /// Times any job was swapped out at a superstep boundary.
    pub preemptions: u64,
    /// Times a swapped-out job was resumed.
    pub resumes: u64,
    /// The pool-side running bound ([`RuntimeConfig::max_inflight`]).
    pub max_inflight: usize,
    /// The park-pool bound ([`RuntimeConfig::max_parked`]).
    pub max_parked: usize,
    /// Times a submitter blocked at its tenant's pending bound
    /// (backpressure).
    pub backpressure_waits: u64,
    /// Per-tenant queue depths and counters, indexed by [`TenantId`].
    pub tenants: Vec<TenantSnapshot>,
    /// Submission-path counters of the pool's segmented injector.
    /// `injector.full_waits == 0` is the "submission never spin-blocks"
    /// invariant.
    pub injector: InjectorMetrics,
    /// Trace events lost to ring overflow or torn drains, process-wide
    /// (`tb_obs`); 0 when tracing is disabled.
    pub dropped_events: u64,
    /// Bytes of trace events recorded process-wide (`tb_obs`); 0 when
    /// tracing is disabled.
    pub trace_bytes: u64,
}

/// What [`Runtime::load`] reports: the signals a placement layer ranks
/// sibling runtimes by. All readings are racy snapshots — preferences,
/// not bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeLoad {
    /// Jobs queued in the pool's injector, not yet claimed by a worker.
    pub injector_depth: usize,
    /// Pool workers currently awake.
    pub active_workers: usize,
    /// Total pool workers.
    pub threads: usize,
    /// Jobs occupying pool slots (running or preempting).
    pub running: usize,
    /// Jobs accepted but waiting for a pool slot.
    pub waiting: usize,
    /// Preempted jobs currently swapped out.
    pub parked: usize,
}

impl RuntimeLoad {
    /// The scalar a placement layer compares siblings by: queued work
    /// (injector + admission queue) plus work in flight.
    pub fn depth(&self) -> usize {
        self.injector_depth + self.waiting + self.running
    }
}

#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    rejected: AtomicU64,
    spec_compiles: AtomicU64,
    spec_cache_hits: AtomicU64,
}

impl Counters {
    fn finish<R>(&self, outcome: &Result<R, JobError>) {
        match outcome {
            Ok(_) => self.completed.fetch_add(1, Ordering::Relaxed),
            Err(JobError::Cancelled) => self.cancelled.fetch_add(1, Ordering::Relaxed),
            Err(JobError::Panicked) => self.panicked.fetch_add(1, Ordering::Relaxed),
            // Rejections never reach a worker (nothing was admitted), so
            // this arm is unreachable from `retire`; counted defensively
            // all the same.
            Err(JobError::Rejected(_)) => self.rejected.fetch_add(1, Ordering::Relaxed),
        };
    }
}

struct Inner {
    pool: ThreadPool,
    // The admission scheduler and counters are their own `Arc`s — job
    // closures capture *these*, never `Inner`, so a worker can never hold
    // the last reference to the pool it runs on (which would make
    // `ThreadPool::drop` join the worker's own thread). Follow-on jobs the
    // scheduler releases from a worker-side completion are spawned through
    // `WorkerCtx::spawn` for the same reason.
    admission: Arc<Admission>,
    counters: Arc<Counters>,
    // Compile-once cache for spec submissions: source text -> lowered
    // code. Keyed by the exact source string (no hashing shortcuts: a
    // collision would silently run the wrong program). Guarded by a plain
    // mutex — compilation is microseconds and submissions already take
    // the admission lock.
    spec_cache: parking_lot::Mutex<SpecCache>,
}

/// Bound on distinct cached sources: a client stream of trivially-varying
/// programs must not balloon a long-lived runtime's memory. At the cap the
/// least-recently-*used* entry is evicted, so a hot program survives any
/// number of cold one-shot submissions around it (the ROADMAP "spec-cache
/// eviction" item; per-client quotas remain future work).
const SPEC_CACHE_CAP: usize = 1024;

/// A true-LRU compile cache: every hit restamps its entry with a monotone
/// tick, and insertion past [`SPEC_CACHE_CAP`] evicts the entry with the
/// oldest stamp. The O(cap) eviction scan only runs on a cold-source
/// insert *at* capacity — off the hit path, and microseconds against the
/// compile that preceded it.
#[derive(Default)]
struct SpecCache {
    map: std::collections::HashMap<Box<str>, (Arc<SpecCode>, u64)>,
    tick: u64,
}

impl SpecCache {
    fn get(&mut self, source: &str) -> Option<Arc<SpecCode>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(source).map(|(code, stamp)| {
            *stamp = tick;
            Arc::clone(code)
        })
    }

    /// Insert freshly compiled `code`, returning the `Arc` submissions
    /// should run: the incumbent if another submitter raced us compiling
    /// the same source (so every handle shares one `Arc`), else `code`.
    fn insert(&mut self, source: &str, code: Arc<SpecCode>) -> Arc<SpecCode> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((cached, stamp)) = self.map.get_mut(source) {
            *stamp = tick;
            return Arc::clone(cached);
        }
        if self.map.len() >= SPEC_CACHE_CAP {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (_, stamp))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(source.into(), (Arc::clone(&code), tick));
        code
    }
}

/// A persistent, multi-tenant front-end over one work-stealing pool.
///
/// Where `ThreadPool::install` is one-program-one-caller-blocks, a
/// `Runtime` multiplexes many concurrent clients: any thread submits any
/// [`BlockProgram`] (each with its own [`SchedConfig`] and
/// [`SchedulerKind`], so basic, re-expansion and restart jobs coexist),
/// gets back a [`JobHandle`] to poll, block on, or cancel, and the
/// admission scheduler pushes overload back on the submitting *tenant*
/// instead of letting queues grow without bound or letting one tenant
/// starve the rest. Cloning is cheap and shares the pool.
///
/// Registered tenants ([`Runtime::register_tenant`]) get weighted fair
/// admission within their priority class and strict priority across
/// classes; [`Runtime::submit_preemptible`] jobs additionally park at
/// superstep boundaries when a higher-priority tenant needs their slot,
/// and resume later with bit-identical results. See the crate docs and
/// DESIGN.md §9.
#[derive(Clone)]
pub struct Runtime {
    inner: Arc<Inner>,
}

impl Runtime {
    /// A runtime with `threads` workers and the default backpressure bound.
    pub fn new(threads: usize) -> Self {
        Self::with_config(RuntimeConfig { threads, ..RuntimeConfig::default() })
    }

    /// A runtime from explicit parameters.
    pub fn with_config(cfg: RuntimeConfig) -> Self {
        let admission = Arc::new(Admission::new(cfg.max_inflight.max(1), cfg.max_parked));
        let default = admission.add_tenant(TenantSpec::new("default", cfg.max_inflight.max(1)));
        debug_assert_eq!(default, DEFAULT_TENANT);
        Runtime {
            inner: Arc::new(Inner {
                pool: ThreadPool::new(cfg.threads),
                admission,
                counters: Arc::new(Counters::default()),
                spec_cache: parking_lot::Mutex::new(SpecCache::default()),
            }),
        }
    }

    /// Register a tenant with its own weight, priority and submit-side
    /// bound. Returns the id to pass to [`Runtime::submit_as`] and
    /// friends. Tenants cannot be unregistered (ids are dense and stats
    /// are indexed by them); a long-lived service registers its client
    /// classes once at startup.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        self.inner.admission.add_tenant(spec)
    }

    /// Worker threads in the shared pool.
    pub fn threads(&self) -> usize {
        self.inner.pool.threads()
    }

    /// Jobs queued in the pool's injector, not yet claimed by a worker.
    pub fn pending_jobs(&self) -> usize {
        self.inner.pool.pending_jobs()
    }

    /// A cheap point-in-time load probe of this runtime, for placement
    /// across sibling runtimes ([`crate::shard::ShardedRuntime`]): the
    /// pool's injector depth and awake-worker count plus the admission
    /// scheduler's queue depths. Two mutex acquisitions, no allocation —
    /// orders of magnitude lighter than [`Runtime::stats`].
    pub fn load(&self) -> RuntimeLoad {
        let pool = self.inner.pool.load();
        let (running, waiting, parked, _) = self.inner.admission.queue_depths();
        RuntimeLoad {
            injector_depth: pool.injector_depth,
            active_workers: pool.active_workers,
            threads: pool.threads,
            running,
            waiting,
            parked,
        }
    }

    /// Install the per-completion observer (see
    /// [`crate::sched::FinishObserver`]); called once by the sharded
    /// front-end that owns this runtime.
    pub(crate) fn set_finish_observer(&self, f: FinishObserver) {
        self.inner.admission.set_finish_observer(f);
    }

    /// Lifetime counters snapshot. Everything the admission scheduler
    /// also counts per tenant (`submitted`, `preemptions`, `resumes`,
    /// `backpressure_waits`) is the sum over [`ServiceStats::tenants`], not
    /// a second counter.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.inner.counters;
        let adm = &self.inner.admission;
        let (inflight, waiting, parked, parked_tasks) = adm.queue_depths();
        let policy = adm.policy();
        let tenants = adm.snapshot();
        let total = |f: fn(&TenantSnapshot) -> u64| tenants.iter().map(f).sum();
        let (dropped_events, trace_bytes) = tb_obs::trace_totals();
        ServiceStats {
            submitted: total(|t| t.counters.submitted),
            completed: c.completed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            panicked: c.panicked.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            spec_compiles: c.spec_compiles.load(Ordering::Relaxed),
            spec_cache_hits: c.spec_cache_hits.load(Ordering::Relaxed),
            inflight,
            waiting,
            parked,
            parked_tasks,
            preemptions: total(|t| t.counters.preemptions),
            resumes: total(|t| t.counters.resumes),
            max_inflight: policy.max_running,
            max_parked: policy.max_parked,
            backpressure_waits: total(|t| t.backpressure_waits),
            tenants,
            injector: self.inner.pool.injector_metrics(),
            dropped_events,
            trace_bytes,
        }
    }

    /// Submit `prog` to run under `kind` with `cfg` on behalf of `tenant`
    /// ([`DEFAULT_TENANT`] for tenant-unaware callers), blocking only while
    /// that tenant is at its `max_pending` bound — saturation blocks only
    /// `tenant`'s own submitters. Returns immediately with a handle; the
    /// run happens on the pool, admitted in the tenant's weight order
    /// within its priority class and strict priority order across classes.
    ///
    /// Every job runs as one sequential engine on the worker that picks it
    /// up, under `cfg`'s policy, and stops at its next superstep once its
    /// handle is cancelled. `kind` says whether it may split:
    /// [`SchedulerKind::Seq`] never splits; [`SchedulerKind::Par`] splits
    /// half its pending work off whenever another worker is hungry;
    /// [`SchedulerKind::RestartIdeal`] is `Par` under the restart policy
    /// (the §3.4 reference scheduler's dedicated threads are a library
    /// tool, not a service path).
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn submit_as<P>(
        &self,
        tenant: TenantId,
        prog: P,
        cfg: SchedConfig,
        kind: SchedulerKind,
    ) -> JobHandle<P::Reducer>
    where
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
    {
        admitted(self.enqueue_job(tenant, Mode::Block, None, prog, cfg, kind))
    }

    /// Like [`Runtime::submit_as`], but sheds load instead of blocking:
    /// when `tenant` is at its pending bound the program is handed back
    /// unchanged.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn try_submit_as<P>(
        &self,
        tenant: TenantId,
        prog: P,
        cfg: SchedConfig,
        kind: SchedulerKind,
    ) -> Result<JobHandle<P::Reducer>, P>
    where
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
    {
        self.enqueue_job(tenant, Mode::Shed, None, prog, cfg, kind)
    }

    /// Submit a *preemptible* job for `tenant`: the program runs under
    /// `cfg`'s policy and splits on demand like a [`SchedulerKind::Par`]
    /// job, and when a higher-priority tenant needs the slot the scheduler
    /// asks it to park — every running piece stops at its next superstep
    /// boundary, the pieces merge into one frontier in the bounded park
    /// pool, the slot frees, and the job resumes later with
    /// **bit-identical results** to an uninterrupted run (the park/resume
    /// round-trip property; see `tests/preempt_equiv.rs` and
    /// `tests/split_park.rs`).
    ///
    /// This is the submission path for batch work that should yield to
    /// interactive traffic. Jobs submitted through [`Runtime::submit_as`]
    /// carry no preempt flag and occupy their slot until completion.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn submit_preemptible<P>(&self, tenant: TenantId, prog: P, cfg: SchedConfig) -> JobHandle<P::Reducer>
    where
        P: BlockProgram + Send + 'static,
        P::Store: Send + 'static,
        P::Reducer: Send + 'static,
    {
        let flag: PreemptFlag = Arc::new(AtomicBool::new(false));
        admitted(self.enqueue_job(tenant, Mode::Block, Some(flag), prog, cfg, SchedulerKind::Par))
    }

    /// Submit a spec-language program *as source text* on behalf of
    /// `tenant`: the runtime parses, validates and lowers it through
    /// [`tb_spec::compile()`] once, then schedules the compiled program
    /// under `kind` like any other job — one level-0 task per tuple of
    /// `calls` (a single root call is `vec![args]`; several are a §5.2
    /// data-parallel `foreach`, strip-mined by the scheduler). This is the
    /// "work the service has never seen before" path — a client ships a
    /// program, not a type.
    ///
    /// Compilation is cached by source text: resubmitting the same source
    /// (any args) reuses the lowered instruction stream
    /// ([`ServiceStats::spec_cache_hits`]).
    ///
    /// Errors never panic a worker: a source that fails to parse or
    /// validate, or a root tuple whose length does not match the method's
    /// parameter count, completes the returned handle immediately with
    /// [`JobError::Rejected`] carrying the located diagnostic (for parse
    /// errors, a caret line into the client's source), without counting
    /// against `tenant`'s pending bound.
    ///
    /// Execution tier: [`SpecTier::Auto`] picks the vector tier at the
    /// host's detected lane width (`tb_spec::detected_lane_width`) and the
    /// scalar tier on SIMD-less hosts — safe because the tiers are
    /// bit-identical; [`SpecTier::Scalar`] / [`SpecTier::Simd`] pin one
    /// (scalar instruction loop vs `Q`-lane masked vector execution).
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn submit_spec_foreach_tier_as(
        &self,
        tenant: TenantId,
        source: &str,
        calls: Vec<Vec<i64>>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: SpecTier,
    ) -> JobHandle<i64> {
        admitted(self.enqueue_spec(tenant, Mode::Block, source, calls, cfg, kind, tier))
    }

    /// Like [`Runtime::submit_spec_foreach_tier_as`], but sheds load
    /// instead of blocking: when `tenant` is at its pending bound the root
    /// calls are handed back unchanged. A source that fails to
    /// parse/validate still returns `Ok` with a handle completed as
    /// [`JobError::Rejected`] — `Err` means *capacity*, nothing else.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn try_submit_spec_foreach_tier_as(
        &self,
        tenant: TenantId,
        source: &str,
        calls: Vec<Vec<i64>>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: SpecTier,
    ) -> Result<JobHandle<i64>, Vec<Vec<i64>>> {
        self.enqueue_spec(tenant, Mode::Shed, source, calls, cfg, kind, tier)
    }

    /// Validate `source` against `calls` (a failure is a pre-completed
    /// [`JobError::Rejected`] handle, whatever the mode) and enqueue the
    /// compiled program at `tier`.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_spec(
        &self,
        tenant: TenantId,
        mode: Mode,
        source: &str,
        calls: Vec<Vec<i64>>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: SpecTier,
    ) -> Result<JobHandle<i64>, Vec<Vec<i64>>> {
        let code = match self.validate_spec(source, &calls) {
            Ok(code) => code,
            Err(diag) => return Ok(self.reject(tenant, diag)),
        };
        let lanes = tier.lane_width().max(1);
        let enqueued = match lanes {
            1 => self.enqueue_job(tenant, mode, None, CompiledSpec::from_code(code, &calls), cfg, kind).ok(),
            q => self
                .enqueue_job(tenant, mode, None, VectorSpec::from_code_with_width(code, &calls, q), cfg, kind)
                .ok(),
        };
        let Some(handle) = enqueued else { return Err(calls) };
        // arg0 = effective lane width (1 = scalar tier), arg = root calls.
        tb_obs::record(EventKind::SpecDispatch, lanes as u32, calls.len() as u64);
        Ok(handle)
    }

    /// Compile `source` (cached) and check every root call's arity.
    fn validate_spec(&self, source: &str, calls: &[Vec<i64>]) -> Result<Arc<SpecCode>, String> {
        let code = self.compile_cached(source)?;
        if let Some(bad) = calls.iter().find(|c| c.len() != code.params()) {
            return Err(format!(
                "root call supplies {} args, method {} has {} params",
                bad.len(),
                code.name(),
                code.params()
            ));
        }
        Ok(code)
    }

    /// Look up `source` in the compile-once LRU cache, lowering on a miss.
    /// The diagnostic string on failure is [`JobError::Rejected`] payload.
    fn compile_cached(&self, source: &str) -> Result<Arc<SpecCode>, String> {
        if let Some(code) = self.inner.spec_cache.lock().get(source) {
            self.inner.counters.spec_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(code);
        }
        // Parse/compile outside the lock: a client submitting a huge or
        // malformed source must not stall other submitters' cache hits.
        let spec = parse_spec(source).map_err(|e| e.to_string())?;
        let code = Arc::new(compile(&spec).map_err(|e| e.to_string())?);
        self.inner.counters.spec_compiles.fetch_add(1, Ordering::Relaxed);
        Ok(self.inner.spec_cache.lock().insert(source, code))
    }

    /// A handle pre-completed with [`JobError::Rejected`]; the job never
    /// existed as far as the scheduler and the pool are concerned. The
    /// finish observer still fires — a placement layer that booked this
    /// submission must see it retire.
    fn reject<R>(&self, tenant: TenantId, diagnostic: impl std::fmt::Display) -> JobHandle<R> {
        self.inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
        let core = Arc::new(JobCore::new());
        core.complete(Err(JobError::rejected(diagnostic)));
        self.inner.admission.notify_rejected(tenant);
        JobHandle::new(core)
    }

    /// Bulk data-parallel submission: cut `items` into chunks
    /// (DCAFE-style adaptive sizing — see [`BulkHandle`] — instead of one
    /// job per item), build a program for each chunk with `make`, and run
    /// every chunk as its own admitted job. The returned handle aggregates
    /// the per-chunk reductions in input order.
    ///
    /// Chunks count against the default tenant's pending bound like
    /// everything else, one job per chunk, so a huge bulk submission
    /// blocks *its own* submitter once the tenant saturates rather than
    /// starving other tenants behind an unbounded queue.
    pub fn submit_bulk<I, P, F>(
        &self,
        items: Vec<I>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        make: F,
    ) -> BulkHandle<P::Reducer>
    where
        I: Send + 'static,
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
        F: Fn(Vec<I>) -> P + Send + Sync + 'static,
    {
        let total = items.len();
        let chunk_len = chunk_len(total, self.threads(), self.pending_jobs());
        // arg0 = adaptive chunk length chosen, arg = items being cut.
        tb_obs::record(EventKind::ChunkSize, chunk_len as u32, total as u64);
        let chunks = total.div_ceil(chunk_len.max(1));
        let core = Arc::new(BulkCore::new(chunks));
        let token = core.cancel_token();
        let make = Arc::new(make);
        let mut items = items;
        for index in 0..chunks {
            let rest = items.split_off(chunk_len.min(items.len()));
            let chunk = std::mem::replace(&mut items, rest);
            let (core, make) = (Arc::clone(&core), Arc::clone(&make));
            let job = self.job(token.clone(), None, cfg, kind, move |r| core.complete_chunk(index, r));
            admitted(self.enqueue(DEFAULT_TENANT, Mode::Block, None, chunk, move |id, chunk| {
                Job { id, ..job }.start(move || make(chunk))
            }));
        }
        debug_assert!(items.is_empty(), "chunking consumed every item");
        BulkHandle::new(core, chunks)
    }

    /// The one enqueue: pass `tenant`'s pending bound in `mode` (see
    /// [`Admission::enqueue`]; `Err` hands `payload` back on a shed) and
    /// spawn whatever the scheduler released. This is a *client* path — we
    /// hold no worker context — so released jobs go through the pool
    /// handle; worker-side completions use `WorkerCtx::spawn` instead (see
    /// [`Job::retire`]).
    fn enqueue<T>(
        &self,
        tenant: TenantId,
        mode: Mode,
        flag: Option<PreemptFlag>,
        payload: T,
        make_job: impl FnOnce(JobId, T) -> ReadyJob,
    ) -> Result<(), T> {
        for job in self.inner.admission.enqueue(tenant, mode, flag, payload, make_job)? {
            self.inner.pool.spawn(job);
        }
        Ok(())
    }

    /// Enqueue a scheduler job for `tenant`; a `flag` makes it
    /// preemptible.
    fn enqueue_job<P>(
        &self,
        tenant: TenantId,
        mode: Mode,
        flag: Option<PreemptFlag>,
        prog: P,
        cfg: SchedConfig,
        kind: SchedulerKind,
    ) -> Result<JobHandle<P::Reducer>, P>
    where
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
    {
        let core = Arc::new(JobCore::new());
        let worker_core = Arc::clone(&core);
        let job = self.job(core.cancel_token(), flag.clone(), cfg, kind, move |r| worker_core.complete(r));
        self.enqueue(tenant, mode, flag, prog, move |id, prog| Job { id, ..job }.start(move || prog))?;
        Ok(JobHandle::new(core))
    }

    /// A [`Job`] publishing through `publish`; its enqueue fills in the id.
    fn job<F>(
        &self,
        token: CancelToken,
        flag: Option<PreemptFlag>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        publish: F,
    ) -> Job<F> {
        let (cfg, split) = match kind {
            SchedulerKind::Seq => (cfg, false),
            SchedulerKind::Par => (cfg, true),
            SchedulerKind::RestartIdeal => (cfg.with_policy(PolicyKind::Restart), true),
        };
        let (adm, counters) = (Arc::clone(&self.inner.admission), Arc::clone(&self.inner.counters));
        Job { id: 0, cfg, split, token, flag, adm, counters, publish }
    }
}

/// Unwrap a [`Mode::Block`] enqueue, which waits instead of shedding.
fn admitted<H, T>(enqueued: Result<H, T>) -> H {
    match enqueued {
        Ok(handle) => handle,
        Err(_) => unreachable!("a blocking enqueue never sheds"),
    }
}

/// One admitted job, whatever its program: its seam (config, split
/// permission, cancel token, preempt flag if preemptible), the books it
/// retires on, and where its result goes. The job and its program move
/// into the continuation at every park, so a job's state lives either on
/// the pool (while running) or in the park pool (while swapped out) —
/// never both.
struct Job<F> {
    id: JobId,
    cfg: SchedConfig,
    split: bool,
    token: CancelToken,
    flag: Option<PreemptFlag>,
    adm: Arc<Admission>,
    counters: Arc<Counters>,
    publish: F,
}

impl<F> Job<F> {
    /// The body the pool runs at `Start`: build the program on the worker
    /// (a panic in `make`, such as a bulk chunk-builder's, is the job's
    /// panic) and run it from the start.
    fn start<P, M>(self, make: M) -> ReadyJob
    where
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
        M: FnOnce() -> P + Send + 'static,
        F: FnOnce(Result<P::Reducer, JobError>) + Send + 'static,
    {
        Box::new(move |ctx: &WorkerCtx<'_>| match catch_unwind(AssertUnwindSafe(make)) {
            Ok(prog) => self.run(prog, None, ctx),
            Err(_) => self.retire(ctx, Err(JobError::Panicked)),
        })
    }

    /// The one job body, run from the start (`None`) or from a parked
    /// frontier: [`drive`] the engine through the superstep seam, then
    /// retire a finished, cancelled or panicked run, or hand a parked one
    /// to the admission scheduler as its own continuation (which
    /// `Action::Resume` spawns after clearing the preempt flag).
    fn run<P>(self, prog: P, frontier: Option<SeqFrontier<P::Store, P::Reducer>>, ctx: &WorkerCtx<'_>)
    where
        P: BlockProgram + Send + 'static,
        P::Reducer: Send + 'static,
        F: FnOnce(Result<P::Reducer, JobError>) + Send + 'static,
    {
        let seam = Seam { cancel: Some(&self.token), preempt: self.flag.as_deref(), split: self.split };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let engine = match frontier {
                Some(frontier) => SeqScheduler::resume(&prog, frontier),
                None => SeqScheduler::new(&prog, self.cfg),
            };
            drive(engine, seam, ctx)
        }));
        match outcome {
            Ok(Outcome::Done(out)) => self.retire(ctx, Ok(out.reducer)),
            Ok(Outcome::Cancelled(_)) => self.retire(ctx, Err(JobError::Cancelled)),
            Ok(Outcome::Parked(frontier)) => {
                let (adm, id, tasks) = (Arc::clone(&self.adm), self.id, frontier.tasks());
                // arg = job id so the exporter can pair this with the
                // scheduler's Resume event into one cross-worker async span.
                // Recorded *before* `adm.parked` — the matching Resume
                // action cannot fire until the core learns of the park.
                tb_obs::record(EventKind::Park, tasks as u32, id);
                let cont: ReadyJob = Box::new(move |ctx: &WorkerCtx<'_>| self.run(prog, Some(frontier), ctx));
                for job in adm.parked(id, tasks, cont) {
                    ctx.spawn(job);
                }
            }
            Err(_) => self.retire(ctx, Err(JobError::Panicked)),
        }
    }

    /// The one job epilogue, run by the worker that finished the job: take
    /// it off the admission scheduler's books, spawn the follow-on jobs that
    /// released (through the worker, never a pool handle — see `Inner`),
    /// count the outcome, and publish `result`. The outcome counter moves
    /// after the books and publishing comes last, so whichever of the two a
    /// client waits on — a dropped handle leaves only [`Runtime::stats`] to
    /// poll — it finds the queues settled.
    fn retire<R>(self, ctx: &WorkerCtx<'_>, result: Result<R, JobError>)
    where
        F: FnOnce(Result<R, JobError>),
    {
        for job in self.adm.finished(self.id) {
            ctx.spawn(job);
        }
        self.counters.finish(&result);
        (self.publish)(result);
    }
}
