//! The admission scheduler: multi-tenant, weighted, preemptible.
//!
//! The runtime's original admission mechanism was a single global
//! bounded-inflight `Gate`: FIFO and tenant-blind, so one saturating
//! client delayed everyone behind it. This module replaces it with a
//! vLLM-style job scheduler in two layers:
//!
//! * [`SchedCore`] — a **pure, thread-free state machine** over three
//!   queues (`waiting` per tenant, `running`, `parked`). Every decision —
//!   which waiting job to admit, which running job to preempt, when to
//!   resume a swapped-out frontier — is a deterministic function of the
//!   core's state, driven by three events (`submit`, `complete`,
//!   `parked`) and read back as a list of [`Action`]s from
//!   [`SchedCore::schedule`]. A monotone event counter is the core's
//!   *virtual clock* (wait times are measured in events, not seconds), so
//!   the deterministic test rig in `tests/sched_core.rs` scripts
//!   arrivals/completions and asserts quota accounting, queue transitions
//!   and preemption-victim choice without spawning a single thread.
//!
//! * `Admission` — the thin threaded shell: a mutex around the core, a
//!   condvar on that mutex where a submitter of a tenant at its
//!   `max_pending` bound waits (a flooding tenant blocks *itself*, never
//!   its neighbours), the stored job closures, and the preempt flags the
//!   running pieces of preemptible jobs load at superstep boundaries (the
//!   shell sets a flag at `Preempt` and clears it at `Resume`). The bound
//!   itself is the core's own live count ([`SchedCore::has_room`]) — the
//!   struct that owns waiting/running/parked also owns the limit; there
//!   is no semaphore beside it.
//!
//! # The scheduling discipline
//!
//! **Priorities are strict.** A tenant's `priority` defines its preemption
//! class: a waiting job of a higher-priority tenant is always admitted
//! before any lower-priority candidate, and — when the pool is saturated
//! and the bounded park pool has room — triggers preemption of a running
//! *preemptible* job from a strictly lower-priority tenant.
//!
//! **Weights share within a priority class.** Among tenants of equal
//! priority, admissions are split by `weight` using stride-style deficit
//! accounting: each tenant carries a `pass` value advanced by
//! `STRIDE_ONE / weight` per admission, and the next admission goes to the
//! waiting tenant with the smallest pass — i.e. the tenant that has
//! received the least weighted service. A tenant going idle does not bank
//! unbounded credit: on re-activation its pass is clamped up to the
//! scheduler's virtual service time, so a light tenant is *ahead*, never
//! infinitely ahead. This is what bounds a light tenant's wait under a
//! flooding heavy tenant to O(1) admissions instead of O(queue length).
//!
//! **Preemption is cooperative and exact.** A victim is asked to park via
//! its preempt flag; every running piece of it checks the flag before its
//! next superstep, the pieces merge into one
//! [`SeqFrontier`](tb_core::SeqFrontier) in the bounded park pool
//! (`max_parked` jobs), and the freed slot admits the high-priority
//! waiter. The parked frontier resumes later with bit-identical results —
//! the round-trip property `tests/preempt_equiv.rs` holds across layouts.
//!
//! **Victim choice** is deterministic: among running preemptible jobs not
//! already asked to park, pick the lowest tenant priority; break ties
//! toward the *youngest* job (highest [`JobId`]), preserving the progress
//! of long-running work, and preempt only while there is unmet demand
//! from strictly-higher-priority candidates.
//!
//! The legacy behaviour survives as [`AdmissionPolicy::fifo`]: tenant- and
//! priority-blind global FIFO with no preemption — exactly the old global
//! gate. It is core-level only (no [`RuntimeConfig`](crate::RuntimeConfig)
//! selects it), kept as the failing baseline of the `sched_core` rig's
//! starvation pair.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use tb_obs::{EventKind, LogHistogram};
use tb_runtime::WorkerCtx;

/// Identifies a registered tenant (dense, starting at 0 for the default
/// tenant every runtime is born with).
pub type TenantId = u32;

/// Identifies one submitted job for the scheduler's lifetime (monotone:
/// smaller id ⇒ submitted earlier).
pub type JobId = u64;

/// One admission-stride unit: a weight-1 tenant's pass advances by this
/// much per admitted job, a weight-w tenant's by `STRIDE_ONE / w`.
const STRIDE_ONE: u64 = 1 << 20;

/// Per-tenant admission parameters.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (stats, benchmark output).
    pub name: String,
    /// Weighted share of admissions within this tenant's priority class
    /// (clamped to ≥ 1).
    pub weight: u32,
    /// Strict preemption class: higher-priority tenants are admitted first
    /// and may preempt running preemptible jobs of lower-priority tenants.
    pub priority: u8,
    /// Submit-side bound on the tenant's live jobs (waiting + running +
    /// parked). `submit_*` blocks and `try_submit_*` sheds when the tenant
    /// is at this bound (clamped to ≥ 1).
    pub max_pending: usize,
}

impl TenantSpec {
    /// A spec with `name`, weight 1, priority 0 and `max_pending` slots.
    pub fn new(name: impl Into<String>, max_pending: usize) -> Self {
        TenantSpec { name: name.into(), weight: 1, priority: 0, max_pending }
    }

    /// Set the weighted share (≥ 1).
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Set the strict priority class.
    #[must_use]
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Pool-side admission parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// Jobs allowed on the pool at once (the old `max_inflight`).
    pub max_running: usize,
    /// Bounded park pool: swapped-out frontiers held at once. 0 disables
    /// preemption entirely.
    pub max_parked: usize,
    /// Legacy mode: tenant-blind global FIFO, no weights, no priorities,
    /// no preemption — the old global gate's discipline, kept as the
    /// failing baseline of the `sched_core` rig's starvation pair.
    pub fifo: bool,
}

/// What the scheduler wants done after a state change; returned by
/// [`SchedCore::schedule`] and executed by the shell (`Admission`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Admit this waiting job: spawn its closure on the pool.
    Start(JobId),
    /// Re-spawn this parked job's continuation on the pool.
    Resume(JobId),
    /// Ask this running preemptible job to park at its next superstep
    /// boundary (set its preempt flag).
    Preempt(JobId),
}

/// Where a job currently is, in queue terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// In its tenant's waiting queue.
    Waiting,
    /// Admitted; occupying one of the `max_running` pool slots.
    Running,
    /// Running, but asked to park (preempt flag set); still occupies its
    /// slot until it reaches a superstep boundary and parks.
    Preempting,
    /// Swapped out: frontier held in the bounded park pool, slot freed.
    Parked,
}

/// Lifetime counters for one tenant (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs accepted into the scheduler.
    pub submitted: u64,
    /// Jobs finished (completed, cancelled or panicked).
    pub completed: u64,
    /// Admissions (Start actions; a preempted-and-resumed job still counts
    /// once).
    pub admissions: u64,
    /// Times one of this tenant's jobs was actually swapped out (reached a
    /// boundary and parked).
    pub preemptions: u64,
    /// Times one of this tenant's parked jobs was resumed.
    pub resumes: u64,
    /// Sum over admissions of (admission tick − submission tick), in
    /// virtual-clock events; `/ admissions` is the mean queueing delay.
    pub wait_ticks: u64,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    tenant: TenantId,
    preemptible: bool,
    phase: JobPhase,
    submitted_tick: u64,
}

#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    waiting: VecDeque<JobId>,
    /// Jobs in `Running` or `Preempting` phase.
    running: usize,
    /// Live jobs in any phase (waiting + running + parked): the count
    /// `spec.max_pending` bounds.
    pending: usize,
    /// Stride accounting: weighted service received so far.
    pass: u64,
    counters: TenantCounters,
}

/// A point-in-time view of one tenant, for [`ServiceStats`].
///
/// [`ServiceStats`]: crate::ServiceStats
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// The tenant's id.
    pub id: TenantId,
    /// Display name.
    pub name: String,
    /// Weighted share within the priority class.
    pub weight: u32,
    /// Strict priority class.
    pub priority: u8,
    /// Jobs currently queued.
    pub waiting: usize,
    /// Jobs currently on the pool (running or preempting).
    pub running: usize,
    /// Jobs currently swapped out.
    pub parked: usize,
    /// Lifetime counters.
    pub counters: TenantCounters,
    /// Live jobs (waiting + running + parked) — what `max_pending` bounds.
    pub pending: usize,
    /// The tenant's submit-side bound ([`TenantSpec::max_pending`]).
    pub max_pending: usize,
    /// Times a submitter blocked because this tenant was at its bound
    /// (filled in by the shell; always 0 in a bare core).
    pub backpressure_waits: u64,
    /// Median wall-clock admission latency (submit → `Start` action) in
    /// microseconds, from the shell's log-bucketed histogram (0 in a bare
    /// core, or before the first admission).
    pub admit_p50_us: u64,
    /// 99th-percentile wall-clock admission latency in microseconds.
    pub admit_p99_us: u64,
    /// Admission-latency samples recorded (= wall-clock admissions seen by
    /// the shell).
    pub admit_samples: u64,
}

/// The pure admission state machine. See the module docs for the
/// discipline; see `tests/sched_core.rs` for the deterministic rig.
#[derive(Debug)]
pub struct SchedCore {
    policy: AdmissionPolicy,
    tenants: Vec<Tenant>,
    jobs: BTreeMap<JobId, Job>,
    /// Swapped-out jobs in park order, with their frontier task counts.
    parked: VecDeque<(JobId, usize)>,
    /// Jobs in `Running` + `Preempting` phase (pool slots occupied).
    running: usize,
    /// Jobs in `Preempting` phase (slots that will free at a boundary).
    preempting: usize,
    /// Tasks held by parked frontiers (a gauge, not a bound).
    parked_tasks: usize,
    next_job: JobId,
    /// The virtual clock: advances by one on every event.
    tick: u64,
    /// Virtual service time: the pass of the most recently admitted job.
    vnow: u64,
}

impl SchedCore {
    /// An empty core under `policy`; register tenants before submitting.
    pub fn new(policy: AdmissionPolicy) -> Self {
        SchedCore {
            policy: AdmissionPolicy { max_running: policy.max_running.max(1), ..policy },
            tenants: Vec::new(),
            jobs: BTreeMap::new(),
            parked: VecDeque::new(),
            running: 0,
            preempting: 0,
            parked_tasks: 0,
            next_job: 0,
            tick: 0,
            vnow: 0,
        }
    }

    /// Register a tenant; ids are dense and start at 0.
    pub fn add_tenant(&mut self, spec: TenantSpec) -> TenantId {
        let id = self.tenants.len() as TenantId;
        let spec = TenantSpec { weight: spec.weight.max(1), max_pending: spec.max_pending.max(1), ..spec };
        // A tenant born mid-run starts at the current virtual service
        // time, not at 0 — it must not owe the incumbents a catch-up.
        self.tenants.push(Tenant {
            spec,
            waiting: VecDeque::new(),
            running: 0,
            pending: 0,
            pass: self.vnow,
            counters: TenantCounters::default(),
        });
        id
    }

    /// Event: a new job arrives for `tenant`. Returns its id; follow with
    /// [`SchedCore::schedule`] to learn whether it starts immediately. The
    /// core accepts unconditionally — a caller that enforces the tenant's
    /// `max_pending` asks [`SchedCore::has_room`] first.
    pub fn submit(&mut self, tenant: TenantId, preemptible: bool) -> JobId {
        self.tick += 1;
        let id = self.next_job;
        self.next_job += 1;
        let t = &mut self.tenants[tenant as usize];
        // Re-activation clamp: an idle tenant resumes at the current
        // virtual time instead of spending banked credit from its idle
        // past (which would let it monopolize admissions to "catch up").
        if t.waiting.is_empty() && t.running == 0 {
            t.pass = t.pass.max(self.vnow);
        }
        t.waiting.push_back(id);
        t.pending += 1;
        t.counters.submitted += 1;
        self.jobs
            .insert(id, Job { tenant, preemptible, phase: JobPhase::Waiting, submitted_tick: self.tick });
        id
    }

    /// Event: job `id` finished (completed, cancelled or panicked) —
    /// called for running, preempting, and (defensively) waiting or parked
    /// jobs. Frees the job's pool slot; follow with
    /// [`SchedCore::schedule`].
    pub fn complete(&mut self, id: JobId) {
        self.tick += 1;
        let Some(job) = self.jobs.remove(&id) else { return };
        let t = &mut self.tenants[job.tenant as usize];
        t.pending -= 1;
        t.counters.completed += 1;
        match job.phase {
            JobPhase::Running => {
                self.running -= 1;
                t.running -= 1;
            }
            JobPhase::Preempting => {
                self.running -= 1;
                self.preempting -= 1;
                t.running -= 1;
            }
            JobPhase::Waiting => {
                t.waiting.retain(|&w| w != id);
            }
            JobPhase::Parked => {
                if let Some(pos) = self.parked.iter().position(|&(p, _)| p == id) {
                    let (_, tasks) = self.parked.remove(pos).expect("position just found");
                    self.parked_tasks -= tasks;
                }
            }
        }
    }

    /// Event: job `id` (previously asked to park via [`Action::Preempt`])
    /// reached a superstep boundary and swapped out a frontier holding
    /// `tasks` tasks. Frees its pool slot; follow with
    /// [`SchedCore::schedule`].
    pub fn parked(&mut self, id: JobId, tasks: usize) {
        self.tick += 1;
        let job = self.jobs.get_mut(&id).expect("parked() on unknown job");
        debug_assert_eq!(job.phase, JobPhase::Preempting, "parked() without a Preempt action");
        job.phase = JobPhase::Parked;
        self.running -= 1;
        self.preempting -= 1;
        let t = &mut self.tenants[job.tenant as usize];
        t.running -= 1;
        t.counters.preemptions += 1;
        self.parked.push_back((id, tasks));
        self.parked_tasks += tasks;
    }

    /// Decide: fill free pool slots (resuming parked jobs and admitting
    /// waiting ones by priority, then weighted stride order), then — if
    /// still saturated with higher-priority demand waiting — ask running
    /// lower-priority preemptible jobs to park. Deterministic in the
    /// core's state; idempotent once its actions are applied.
    pub fn schedule(&mut self) -> Vec<Action> {
        let mut acts = Vec::new();
        while self.running < self.policy.max_running {
            match self.pick_candidate() {
                Some(Candidate::Parked(id)) => {
                    let pos = self
                        .parked
                        .iter()
                        .position(|&(p, _)| p == id)
                        .expect("candidate came from the parked queue");
                    let (_, tasks) = self.parked.remove(pos).expect("position just found");
                    self.parked_tasks -= tasks;
                    let job = self.jobs.get_mut(&id).expect("parked job exists");
                    job.phase = JobPhase::Running;
                    self.running += 1;
                    let t = &mut self.tenants[job.tenant as usize];
                    t.running += 1;
                    t.counters.resumes += 1;
                    acts.push(Action::Resume(id));
                }
                Some(Candidate::Waiting(tenant)) => {
                    let t = &mut self.tenants[tenant as usize];
                    let id = t.waiting.pop_front().expect("candidate tenant has a waiting head");
                    t.running += 1;
                    t.counters.admissions += 1;
                    // Stride charge: the admitted tenant's pass advances by
                    // its stride; virtual time follows the admission.
                    self.vnow = t.pass;
                    t.pass += STRIDE_ONE / u64::from(t.spec.weight);
                    let job = self.jobs.get_mut(&id).expect("waiting job exists");
                    job.phase = JobPhase::Running;
                    t.counters.wait_ticks += self.tick - job.submitted_tick;
                    self.running += 1;
                    acts.push(Action::Start(id));
                }
                None => break,
            }
        }
        if !self.policy.fifo && self.running >= self.policy.max_running {
            self.preempt_for_priority(&mut acts);
        }
        acts
    }

    /// While a strictly-higher-priority candidate lacks a slot and the
    /// park pool has room, ask the lowest-priority running preemptible job
    /// to park (youngest first among equals).
    fn preempt_for_priority(&mut self, acts: &mut Vec<Action>) {
        loop {
            if self.parked.len() + self.preempting >= self.policy.max_parked {
                return;
            }
            let Some(best) = self.best_candidate_priority() else { return };
            let Some((vid, vprio)) = self.pick_victim() else { return };
            if vprio >= best {
                return;
            }
            // Preempt only while demand from strictly-higher-priority
            // candidates outruns the slots already being vacated.
            if self.candidates_above(vprio) <= self.preempting {
                return;
            }
            let job = self.jobs.get_mut(&vid).expect("victim exists");
            job.phase = JobPhase::Preempting;
            self.preempting += 1;
            acts.push(Action::Preempt(vid));
        }
    }

    /// The next job to give a free slot to, or `None` when nothing waits.
    fn pick_candidate(&self) -> Option<Candidate> {
        if self.policy.fifo {
            // Tenant-blind arrival order, parked jobs resumed first (they
            // were admitted before anything still waiting).
            if let Some(&(id, _)) = self.parked.front() {
                return Some(Candidate::Parked(id));
            }
            return self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.waiting.front().map(|&id| (id, i as TenantId)))
                .min_by_key(|&(id, _)| id)
                .map(|(_, tenant)| Candidate::Waiting(tenant));
        }
        // Highest priority wins; at equal priority a parked job resumes
        // before a waiting one starts (its admission is already paid for
        // and its frontier holds park-pool memory); among waiting tenants
        // the smallest pass (least weighted service) goes first, ties to
        // the lowest tenant id.
        let parked = self
            .parked
            .iter()
            .map(|&(id, _)| (id, self.priority_of(id)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        let waiting = self
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.waiting.is_empty())
            .map(|(i, t)| (i as TenantId, t.spec.priority, t.pass))
            .min_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)).then(a.0.cmp(&b.0)));
        match (parked, waiting) {
            (Some((id, pp)), Some((_, wp, _))) if pp >= wp => Some(Candidate::Parked(id)),
            (_, Some((tenant, _, _))) => Some(Candidate::Waiting(tenant)),
            (Some((id, _)), None) => Some(Candidate::Parked(id)),
            (None, None) => None,
        }
    }

    /// Highest priority among jobs wanting a slot (waiting or parked).
    fn best_candidate_priority(&self) -> Option<u8> {
        let w = self.tenants.iter().filter(|t| !t.waiting.is_empty()).map(|t| t.spec.priority).max();
        let p = self.parked.iter().map(|&(id, _)| self.priority_of(id)).max();
        w.max(p)
    }

    /// Candidates (waiting or parked) with priority strictly above `prio`.
    fn candidates_above(&self, prio: u8) -> usize {
        let w: usize = self.tenants.iter().filter(|t| t.spec.priority > prio).map(|t| t.waiting.len()).sum();
        let p = self.parked.iter().filter(|&&(id, _)| self.priority_of(id) > prio).count();
        w + p
    }

    /// The preemption victim: a running (not already preempting)
    /// preemptible job of the lowest tenant priority; ties to the youngest
    /// (highest id), preserving older jobs' progress.
    fn pick_victim(&self) -> Option<(JobId, u8)> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.phase == JobPhase::Running && j.preemptible)
            .map(|(&id, j)| (id, self.tenants[j.tenant as usize].spec.priority))
            .min_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }

    fn priority_of(&self, id: JobId) -> u8 {
        self.tenants[self.jobs[&id].tenant as usize].spec.priority
    }

    /// The tenant that owns `id` (while the job is live).
    pub fn tenant_of(&self, id: JobId) -> Option<TenantId> {
        self.jobs.get(&id).map(|j| j.tenant)
    }

    /// Where `id` currently is, or `None` once it completed.
    pub fn job_phase(&self, id: JobId) -> Option<JobPhase> {
        self.jobs.get(&id).map(|j| j.phase)
    }

    /// `tenant`'s live jobs: waiting + running + parked.
    pub fn tenant_pending(&self, tenant: TenantId) -> usize {
        self.tenants[tenant as usize].pending
    }

    /// Is `tenant` below its `max_pending` bound?
    pub fn has_room(&self, tenant: TenantId) -> bool {
        let t = &self.tenants[tenant as usize];
        t.pending < t.spec.max_pending
    }

    /// Jobs occupying pool slots (running + preempting).
    pub fn running(&self) -> usize {
        self.running
    }

    /// Jobs queued across all tenants.
    pub fn waiting(&self) -> usize {
        self.tenants.iter().map(|t| t.waiting.len()).sum()
    }

    /// Swapped-out jobs in the park pool.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Tasks held by swapped-out frontiers.
    pub fn parked_tasks(&self) -> usize {
        self.parked_tasks
    }

    /// The policy this core runs.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// The virtual clock (events processed so far).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// One tenant's lifetime counters.
    pub fn tenant_counters(&self, tenant: TenantId) -> &TenantCounters {
        &self.tenants[tenant as usize].counters
    }

    /// Point-in-time view of every tenant.
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| TenantSnapshot {
                id: i as TenantId,
                name: t.spec.name.clone(),
                weight: t.spec.weight,
                priority: t.spec.priority,
                waiting: t.waiting.len(),
                running: t.running,
                parked: t.pending - t.waiting.len() - t.running,
                counters: t.counters,
                pending: t.pending,
                max_pending: t.spec.max_pending,
                backpressure_waits: 0,
                admit_p50_us: 0,
                admit_p99_us: 0,
                admit_samples: 0,
            })
            .collect()
    }

    /// The registered tenant specs (index = [`TenantId`]).
    pub fn tenant_spec(&self, tenant: TenantId) -> &TenantSpec {
        &self.tenants[tenant as usize].spec
    }
}

enum Candidate {
    Waiting(TenantId),
    Parked(JobId),
}

// ---------------------------------------------------------------------------
// The threaded shell.
// ---------------------------------------------------------------------------

/// A stored job body: what the pool runs when the scheduler admits it.
pub(crate) type ReadyJob = Box<dyn FnOnce(&WorkerCtx<'_>) + Send>;

/// Installed by a multi-pool front-end ([`crate::shard::ShardedRuntime`])
/// to observe every job completion on this runtime (the tenant whose job
/// just finished). Called *outside* the scheduler's state lock and after
/// the job has left the tenant's pending count, so the observer may take
/// its own locks (the placement core's) without ordering hazards.
pub(crate) type FinishObserver = Box<dyn Fn(TenantId) + Send + Sync>;

/// The flag a running preemptible job loads at superstep boundaries; set
/// by `Preempt`, cleared by `Resume`.
pub(crate) type PreemptFlag = Arc<AtomicBool>;

/// What a submission does when its tenant is at `max_pending`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Wait for one of the tenant's jobs to finish (backpressure lands on
    /// the submitting client).
    Block,
    /// Hand the payload back to the caller.
    Shed,
}

/// Shell-side record of a live job; which queue it is in is the core's
/// knowledge ([`JobPhase`]), not repeated here.
struct Slot {
    /// The body to spawn at the next `Start`/`Resume`: present while the
    /// job waits or is parked, `None` while it is on the pool.
    job: Option<ReadyJob>,
    /// Present iff the job is preemptible.
    flag: Option<PreemptFlag>,
    /// Wall-clock enqueue time, for the admission-latency histograms (the
    /// core's `wait_ticks` measure the same delay in virtual-clock events).
    since: Instant,
}

struct Shared {
    core: SchedCore,
    slots: BTreeMap<JobId, Slot>,
    /// Per-tenant log-bucketed admission-latency histograms (nanoseconds),
    /// indexed by [`TenantId`].
    admit_hists: Vec<LogHistogram>,
    /// Per-tenant count of submissions that had to block, indexed by
    /// [`TenantId`].
    backpressure_waits: Vec<u64>,
    /// Submitters parked on `Admission::room` right now; `finished` skips
    /// the wake-up (a syscall) while this is 0.
    blocked: usize,
}

/// The threaded admission scheduler: [`SchedCore`] and the job-closure
/// store under one mutex, plus the condvar saturated submitters wait on.
/// Spawning is deliberately *not* done here — every mutating call returns
/// the [`ReadyJob`]s the caller must dispatch (clients via
/// `ThreadPool::spawn`, completing workers via `WorkerCtx::spawn`), so
/// the shell never holds a pool reference a worker could drop last.
pub(crate) struct Admission {
    state: Mutex<Shared>,
    /// Where a [`Mode::Block`] submitter waits for its tenant to regain
    /// room; tied to `state`, notified by `finished`. One condvar for all
    /// tenants: a wake-up re-checks the waiter's own tenant.
    room: Condvar,
    /// Completion hook for a multi-pool front-end; set at most once, at
    /// construction time of the owning `ShardedRuntime`.
    finish_observer: std::sync::OnceLock<FinishObserver>,
}

impl Admission {
    /// A shell over a weighted-fair core (the legacy
    /// [`AdmissionPolicy::fifo`] discipline is not reachable from here).
    pub(crate) fn new(max_running: usize, max_parked: usize) -> Self {
        Admission {
            state: Mutex::new(Shared {
                core: SchedCore::new(AdmissionPolicy { max_running, max_parked, fifo: false }),
                slots: BTreeMap::new(),
                admit_hists: Vec::new(),
                backpressure_waits: Vec::new(),
                blocked: 0,
            }),
            room: Condvar::new(),
            finish_observer: std::sync::OnceLock::new(),
        }
    }

    /// Install the completion observer. Panics if one is already set —
    /// two placement layers bookkeeping one runtime is a construction bug.
    pub(crate) fn set_finish_observer(&self, f: FinishObserver) {
        assert!(self.finish_observer.set(f).is_ok(), "finish observer already installed");
    }

    pub(crate) fn add_tenant(&self, spec: TenantSpec) -> TenantId {
        let mut state = self.state.lock();
        state.admit_hists.push(LogHistogram::new());
        state.backpressure_waits.push(0);
        state.core.add_tenant(spec)
    }

    /// The one admission path. If `tenant` is at its `max_pending` bound,
    /// wait for room ([`Mode::Block`]) or hand `payload` back
    /// ([`Mode::Shed`]); otherwise accept the job, building its body with
    /// `make_job` from the assigned id (so the body can report completion)
    /// and the payload. A `flag` marks the job preemptible. Returns the
    /// jobs the caller must spawn.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub(crate) fn enqueue<T>(
        &self,
        tenant: TenantId,
        mode: Mode,
        flag: Option<PreemptFlag>,
        payload: T,
        make_job: impl FnOnce(JobId, T) -> ReadyJob,
    ) -> Result<Vec<ReadyJob>, T> {
        let mut state = self.state.lock();
        if !state.core.has_room(tenant) {
            if mode == Mode::Shed {
                return Err(payload);
            }
            state.backpressure_waits[tenant as usize] += 1;
            state.blocked += 1;
            while !state.core.has_room(tenant) {
                self.room.wait(&mut state);
            }
            state.blocked -= 1;
        }
        let id = state.core.submit(tenant, flag.is_some());
        state.slots.insert(id, Slot { job: Some(make_job(id, payload)), flag, since: Instant::now() });
        Ok(Self::apply(&mut state))
    }

    /// Job `id` finished; free its slot (which may give a blocked
    /// submitter of its tenant room) and return the follow-on jobs to
    /// spawn. A second call for the same id changes no count.
    pub(crate) fn finished(&self, id: JobId) -> Vec<ReadyJob> {
        let (ready, tenant, wake) = {
            let mut state = self.state.lock();
            let tenant = state.core.tenant_of(id);
            if let Some(tenant) = tenant {
                tb_obs::record(EventKind::JobDone, tenant, id);
            }
            state.core.complete(id);
            state.slots.remove(&id);
            (Self::apply(&mut state), tenant, state.blocked > 0)
        };
        // After the unlock, so a woken submitter does not collide with our
        // own guard. No wake-up is lost: a submitter that locks `state`
        // after this point sees the room itself.
        if wake {
            self.room.notify_all();
        }
        if let (Some(tenant), Some(observe)) = (tenant, self.finish_observer.get()) {
            observe(tenant);
        }
        ready
    }

    /// Run the finish observer for a job that never entered the scheduler
    /// (a spec submission rejected before it was enqueued): the placement
    /// layer booked the submission and must still see it retire.
    pub(crate) fn notify_rejected(&self, tenant: TenantId) {
        if let Some(observe) = self.finish_observer.get() {
            observe(tenant);
        }
    }

    /// Job `id` honoured its preempt flag: its frontier (holding `tasks`
    /// tasks) is parked as `continuation`. Returns follow-on jobs — in
    /// particular the higher-priority job the park freed a slot for.
    pub(crate) fn parked(&self, id: JobId, tasks: usize, continuation: ReadyJob) -> Vec<ReadyJob> {
        let mut state = self.state.lock();
        state.core.parked(id, tasks);
        let slot = state.slots.get_mut(&id).expect("parked job has a slot");
        debug_assert!(slot.job.is_none() && slot.flag.is_some(), "only a running preemptible job parks");
        slot.job = Some(continuation);
        Self::apply(&mut state)
    }

    /// Run the core's scheduler and apply its actions to the slot store,
    /// collecting the closures the caller must spawn.
    fn apply(state: &mut Shared) -> Vec<ReadyJob> {
        let mut ready = Vec::new();
        for act in state.core.schedule() {
            match act {
                Action::Start(id) | Action::Resume(id) => {
                    let tenant = state.core.tenant_of(id).expect("scheduled job is live");
                    let slot = state.slots.get_mut(&id).expect("scheduled job has a slot");
                    if let Action::Start(_) = act {
                        state.admit_hists[tenant as usize].record(slot.since.elapsed().as_nanos() as u64);
                        tb_obs::record(EventKind::Admit, tenant, id);
                    } else {
                        // Running pieces only load the flag; it is cleared
                        // here, under the state lock, so a Preempt applied
                        // after this resume is never lost.
                        if let Some(flag) = &slot.flag {
                            flag.store(false, Ordering::Release);
                        }
                        tb_obs::record(EventKind::Resume, tenant, id);
                    }
                    ready.push(slot.job.take().expect("core scheduled a job that is already on the pool"));
                }
                Action::Preempt(id) => {
                    let tenant = state.core.tenant_of(id).expect("preempted job is live");
                    tb_obs::record(EventKind::Preempt, tenant, id);
                    let flag = state.slots[&id].flag.as_ref().expect("core preempted a job without a flag");
                    flag.store(true, Ordering::Release);
                }
            }
        }
        ready
    }

    /// Point-in-time tenant views with the shell's backpressure counts and
    /// admission-latency quantiles merged in.
    pub(crate) fn snapshot(&self) -> Vec<TenantSnapshot> {
        let state = self.state.lock();
        let mut snaps = state.core.snapshot();
        for (s, (hist, &waits)) in
            snaps.iter_mut().zip(state.admit_hists.iter().zip(&state.backpressure_waits))
        {
            s.backpressure_waits = waits;
            s.admit_p50_us = hist.quantile(0.5) / 1_000;
            s.admit_p99_us = hist.quantile(0.99) / 1_000;
            s.admit_samples = hist.count();
        }
        snaps
    }

    /// (running, waiting, parked jobs, parked tasks) right now.
    pub(crate) fn queue_depths(&self) -> (usize, usize, usize, usize) {
        let state = self.state.lock();
        (state.core.running(), state.core.waiting(), state.core.parked_count(), state.core.parked_tasks())
    }

    /// Pool-side policy.
    pub(crate) fn policy(&self) -> AdmissionPolicy {
        *self.state.lock().core.policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(max_running: usize, max_parked: usize, fifo: bool) -> AdmissionPolicy {
        AdmissionPolicy { max_running, max_parked, fifo }
    }

    #[test]
    fn single_tenant_fills_slots_then_queues() {
        let mut c = SchedCore::new(policy(2, 0, false));
        let t = c.add_tenant(TenantSpec::new("only", 8));
        let a = c.submit(t, false);
        let b = c.submit(t, false);
        let q = c.submit(t, false);
        assert_eq!(c.schedule(), vec![Action::Start(a), Action::Start(b)]);
        assert_eq!(c.job_phase(q), Some(JobPhase::Waiting));
        assert_eq!(c.schedule(), vec![], "saturated: idempotent");
        c.complete(a);
        assert_eq!(c.schedule(), vec![Action::Start(q)]);
        c.complete(b);
        c.complete(q);
        assert_eq!(c.running(), 0);
        assert_eq!(c.tenant_counters(t).completed, 3);
    }

    /// Enqueue a do-nothing job, returning the id the core assigned (or
    /// `None` when the tenant was at its bound and `mode` sheds).
    fn enqueue_noop(adm: &Admission, tenant: TenantId, mode: Mode) -> Option<JobId> {
        let mut assigned = None;
        adm.enqueue(tenant, mode, None, (), |id, ()| {
            assigned = Some(id);
            Box::new(|_| {})
        })
        .ok()?;
        assigned
    }

    fn tenant_pending(adm: &Admission, tenant: TenantId) -> usize {
        adm.state.lock().core.tenant_pending(tenant)
    }

    #[test]
    fn preempt_flag_reaches_the_running_job() {
        // Shell-level: a Preempt action must set the registered flag.
        let adm = Admission::new(1, 4);
        let low = adm.add_tenant(TenantSpec::new("low", 8));
        let high = adm.add_tenant(TenantSpec::new("high", 8).priority(1));
        let flag: PreemptFlag = Arc::new(AtomicBool::new(false));
        let ready = adm.enqueue(low, Mode::Block, Some(Arc::clone(&flag)), (), |_, ()| Box::new(|_| {}));
        assert_eq!(ready.map(|r| r.len()), Ok(1), "empty pool admits immediately");
        let ready = adm.enqueue(high, Mode::Block, None, (), |_, ()| Box::new(|_| {}));
        assert_eq!(ready.map(|r| r.len()), Ok(0), "saturated: high-priority job must wait for the park");
        assert!(flag.load(Ordering::Acquire), "victim's preempt flag must be set");
    }

    #[test]
    fn resume_clears_the_preempt_flag() {
        let adm = Admission::new(1, 4);
        let low = adm.add_tenant(TenantSpec::new("low", 8));
        let high = adm.add_tenant(TenantSpec::new("high", 8).priority(1));
        let flag: PreemptFlag = Arc::new(AtomicBool::new(false));
        let mut victim = None;
        let started = adm.enqueue(low, Mode::Block, Some(Arc::clone(&flag)), (), |id, ()| {
            victim = Some(id);
            Box::new(|_| {})
        });
        assert_eq!(started.map(|r| r.len()), Ok(1));
        let urgent = enqueue_noop(&adm, high, Mode::Block).expect("room for the urgent job");
        assert!(flag.load(Ordering::Acquire), "the urgent job asked the victim to park");
        let victim = victim.expect("the victim was enqueued");
        assert_eq!(adm.parked(victim, 3, Box::new(|_| {})).len(), 1, "the park admits the urgent job");
        assert!(flag.load(Ordering::Acquire), "a parked job's flag stays set while it is swapped out");
        assert_eq!(adm.finished(urgent).len(), 1, "the freed slot resumes the parked job");
        assert!(!flag.load(Ordering::Acquire), "Resume cleared the flag before the continuation runs");
    }

    #[test]
    fn shed_refuses_exactly_at_max_pending_and_reopens_on_completion() {
        // One pool slot, so the second job waits: the bound counts waiting
        // and running jobs alike.
        let adm = Admission::new(1, 0);
        let t = adm.add_tenant(TenantSpec::new("t", 2));
        let other = adm.add_tenant(TenantSpec::new("other", 2));
        let a = enqueue_noop(&adm, t, Mode::Shed).expect("0 of 2 pending");
        let b = enqueue_noop(&adm, t, Mode::Shed).expect("1 of 2 pending");
        assert_eq!(tenant_pending(&adm, t), 2);
        assert_eq!(
            adm.enqueue(t, Mode::Shed, None, 7u8, |_, _| Box::new(|_| {})).err(),
            Some(7),
            "payload back"
        );
        assert_eq!(tenant_pending(&adm, t), 2, "a shed submission never entered the books");
        assert!(enqueue_noop(&adm, other, Mode::Shed).is_some(), "the bound is per tenant");
        adm.finished(a);
        assert!(enqueue_noop(&adm, t, Mode::Shed).is_some(), "completion reopened one slot");
        assert!(enqueue_noop(&adm, t, Mode::Shed).is_none(), "and only one");
        adm.finished(b);
        assert_eq!(adm.snapshot()[t as usize].backpressure_waits, 0, "shedding is not waiting");
    }

    #[test]
    fn saturated_blocking_enqueue_parks_until_a_finished() {
        let adm = Arc::new(Admission::new(1, 0));
        let t = adm.add_tenant(TenantSpec::new("t", 1));
        let first = enqueue_noop(&adm, t, Mode::Block).expect("room for one");
        let (adm2, entered) = (Arc::clone(&adm), Arc::new(AtomicBool::new(false)));
        let entered2 = Arc::clone(&entered);
        let blocked = std::thread::spawn(move || {
            let id = enqueue_noop(&adm2, t, Mode::Block).expect("blocking mode never sheds");
            entered2.store(true, Ordering::Release);
            id
        });
        // The submitter registers as blocked under the state lock before
        // it parks; once we see that, it cannot get in without `finished`.
        while adm.state.lock().blocked == 0 {
            std::thread::yield_now();
        }
        assert!(!entered.load(Ordering::Acquire), "at the bound: the submitter must be parked");
        assert_eq!(tenant_pending(&adm, t), 1);
        adm.finished(first);
        let second = blocked.join().expect("blocked submitter");
        assert_eq!(tenant_pending(&adm, t), 1, "the woken submitter took the freed slot");
        assert_eq!(adm.snapshot()[t as usize].backpressure_waits, 1);
        adm.finished(second);
        assert_eq!(tenant_pending(&adm, t), 0);
    }

    #[test]
    fn double_finished_leaves_the_pending_count_unchanged() {
        // The fault the old gate's release assert guarded — capacity
        // widened by an unbalanced release — has no counter to underflow
        // here: the count is the set of live jobs.
        let adm = Admission::new(4, 0);
        let t = adm.add_tenant(TenantSpec::new("t", 2));
        let a = enqueue_noop(&adm, t, Mode::Shed).expect("room");
        let _b = enqueue_noop(&adm, t, Mode::Shed).expect("room");
        adm.finished(a);
        assert_eq!(tenant_pending(&adm, t), 1);
        adm.finished(a);
        assert_eq!(tenant_pending(&adm, t), 1, "a second finished(id) is a no-op on the books");
        assert!(enqueue_noop(&adm, t, Mode::Shed).is_some());
        assert!(enqueue_noop(&adm, t, Mode::Shed).is_none(), "capacity is still exactly 2");
    }
}
