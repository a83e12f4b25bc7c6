//! Sharded multi-pool runtime: N independent [`Runtime`]s behind one
//! placement layer.
//!
//! One `Runtime` = one pool = one injector = one admission mutex. Under
//! many concurrent clients those single points serialize the submission
//! path long before the workers run out of cycles. This module is the
//! production answer: a [`ShardedRuntime`] owns N fully independent
//! runtimes (own pool, own admission scheduler, own spec cache) and routes
//! every submission through a placement layer, so clients contend only on
//! the one shard they land on.
//!
//! The layer mirrors the admission scheduler's two-layer design
//! ([`crate::sched`]):
//!
//! * [`PlacementCore`] — a **pure, thread-free state machine**. Three
//!   events drive it: [`PlacementCore::submit`] (or the blocking-path
//!   [`PlacementCore::route`]), [`PlacementCore::complete`], and
//!   [`PlacementCore::load_report`]. Every decision — which shard a
//!   tenant's job prefers, when overflow sheds to a sibling, when it is
//!   rejected outright — is a deterministic function of the core's state,
//!   so the rig in `tests/placement_core.rs` scripts event sequences and
//!   asserts placements without spawning a thread.
//! * [`ShardedRuntime`] — the thin threaded shell: the core under a
//!   mutex, the shard runtimes, and a completion observer installed on
//!   every shard's admission scheduler so each finished (or rejected)
//!   job flows back into the core as a `complete` event.
//!
//! # Placement discipline
//!
//! **Policies.** [`PlacementPolicy::Affinity`] hashes the tenant id to a
//! home shard — every job of a tenant lands on the same shard (warm
//! caches, and per-tenant order stays within one admission scheduler).
//! [`PlacementPolicy::LeastLoaded`] sends each job to the shard with the
//! smallest load, ties to the lowest shard id.
//!
//! **Load.** A shard's load is the core's own *exact* pending count
//! (placements minus completions — the core is the sole bookkeeper, so
//! this never drifts) plus the shard's last *reported* depth (injector
//! depth + running jobs, from [`Runtime::load`]). Reports age on the
//! core's virtual clock and expire after [`STALE_AFTER`] events: a stale
//! report biases nothing (the "load-report staleness" rule — a shard that
//! stopped reporting is judged by what the core knows first-hand, not by
//! its last word).
//!
//! **Shedding.** The try-submission path is where overflow policy lives:
//! if the preferred shard is at capacity (shard-wide, or the tenant's own
//! `max_pending` slice of it), the job re-routes to the least-loaded
//! *sibling* with room — counted as shed, not placed — and only when every
//! shard is full is it rejected. Every submit event therefore retires as
//! exactly one of **placed / shed / rejected**: the conservation invariant
//! `submitted == placed + shed + rejected` holds at every step, by
//! construction, and the stress suite re-derives it from rolled-up
//! [`ShardSnapshot`]s across threads.
//!
//! The blocking path ([`PlacementCore::route`]) never rejects: affinity
//! tenants wait at their pending bound on their home shard (backpressure,
//! as for a single runtime), least-loaded picks the emptiest shard and
//! may overbook it — pending demand is still demand.
//!
//! **Books.** In-flight jobs are counted once per level — per shard by
//! its [`SchedCore`](crate::SchedCore), across shards by this core's
//! bookings — and audited against each other at quiescence
//! ([`ShardSnapshot::gate_slots_held`] and `abandoned` both 0).
//!
//! See DESIGN.md §12 for the full design, including the wire front-end
//! ([`crate::wire`]) that serves this over TCP.

use std::sync::Arc;

use parking_lot::Mutex;
use tb_core::{BlockProgram, SchedConfig, SchedulerKind};
use tb_spec::SpecTier;

use crate::handle::JobHandle;
use crate::runtime::{Runtime, RuntimeConfig, ServiceStats, DEFAULT_TENANT};
use crate::sched::{TenantId, TenantSpec};

/// Identifies one shard (dense, `0..ShardConfig::shards.len()`).
pub type ShardId = u32;

/// A load report older than this many core events is ignored by the
/// ranking: the core falls back to its own exact pending counts.
pub const STALE_AFTER: u64 = 64;

/// The shell refreshes a shard's report once its age reaches this many
/// events — fresh enough to matter, amortized enough that placement does
/// not serialize on every sibling's admission mutex per submission.
const REFRESH_AFTER: u64 = 16;

/// How one try-path submission retired. Exactly one of these per
/// [`PlacementCore::submit`] call — the conservation invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Landed on the policy's preferred shard.
    Placed(ShardId),
    /// The preferred shard was full; re-routed to the least-loaded
    /// sibling with room.
    Shed {
        /// The preferred shard that had no room.
        from: ShardId,
        /// The sibling that took the job.
        to: ShardId,
    },
    /// Every shard was at capacity for this tenant.
    Rejected,
}

impl Placement {
    /// The shard the job landed on, if it landed.
    pub fn shard(&self) -> Option<ShardId> {
        match *self {
            Placement::Placed(s) => Some(s),
            Placement::Shed { to, .. } => Some(to),
            Placement::Rejected => None,
        }
    }
}

/// How the core picks a tenant's preferred shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Hash the tenant id to a stable home shard.
    #[default]
    Affinity,
    /// Send every job to the shard with the smallest load; ties to the
    /// lowest shard id.
    LeastLoaded,
}

/// The stable affinity hash: tenant `t`'s home among `shards` pools.
/// Public so tests and benchmarks can pick tenants that land on a known
/// shard. (splitmix64's finalizer — consecutive tenant ids scatter.)
pub fn affinity_shard(tenant: TenantId, shards: usize) -> ShardId {
    let mut z = u64::from(tenant).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as ShardId
}

/// Lifetime counters of one placement core (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementCounters {
    /// Try-path submit events ([`PlacementCore::submit`] calls) plus
    /// blocking routes ([`PlacementCore::route`] calls).
    pub submitted: u64,
    /// Jobs that landed on their preferred shard.
    pub placed: u64,
    /// Jobs re-routed to a sibling (work-shedding).
    pub shed: u64,
    /// Jobs turned away with every shard full.
    pub rejected: u64,
    /// Jobs retired via [`PlacementCore::complete`].
    pub completed: u64,
    /// Booked placements withdrawn by the shell because the shard's
    /// admission scheduler refused after all (never under the shell's own
    /// invariants; counted so a future divergence is visible, not silent).
    pub abandoned: u64,
    /// Load reports accepted.
    pub reports: u64,
    /// Reports that expired unused (aged past [`STALE_AFTER`]).
    pub stale_reports: u64,
}

#[derive(Debug, Clone, Copy)]
struct LoadReport {
    /// Reported depth: injector depth + running jobs.
    depth: usize,
    /// Core tick at acceptance.
    tick: u64,
}

#[derive(Debug)]
struct ShardState {
    /// Shard-wide placement bound (mirrors the shard's `max_inflight`).
    capacity: usize,
    /// Exact outstanding placements: booked − completed.
    pending: usize,
    /// Outstanding placements per tenant (an upper bound on the shard
    /// scheduler's own per-tenant count).
    tenant_pending: Vec<usize>,
    report: Option<LoadReport>,
}

#[derive(Debug)]
struct TenantState {
    /// Per-shard pending bound (the tenant's `max_pending`).
    max_pending: usize,
}

/// A point-in-time view of one shard as the core sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoadView {
    /// Exact outstanding placements.
    pub pending: usize,
    /// The shard-wide placement bound.
    pub capacity: usize,
    /// The load the ranking currently uses (pending + fresh report).
    pub load: usize,
    /// Age of the last report in core events, if one is held.
    pub report_age: Option<u64>,
}

/// The pure placement state machine. See the module docs for the
/// discipline; see `tests/placement_core.rs` for the deterministic rig.
#[derive(Debug)]
pub struct PlacementCore {
    policy: PlacementPolicy,
    shards: Vec<ShardState>,
    tenants: Vec<TenantState>,
    /// The virtual clock: advances by one on every event.
    tick: u64,
    counters: PlacementCounters,
}

impl PlacementCore {
    /// An empty core under `policy`; add shards and tenants before
    /// submitting.
    pub fn new(policy: PlacementPolicy) -> Self {
        PlacementCore {
            policy,
            shards: Vec::new(),
            tenants: Vec::new(),
            tick: 0,
            counters: PlacementCounters::default(),
        }
    }

    /// Register a shard with a shard-wide placement bound (clamped ≥ 1).
    /// Ids are dense and start at 0.
    pub fn add_shard(&mut self, capacity: usize) -> ShardId {
        let id = self.shards.len() as ShardId;
        self.shards.push(ShardState {
            capacity: capacity.max(1),
            pending: 0,
            tenant_pending: vec![0; self.tenants.len()],
            report: None,
        });
        id
    }

    /// Register a tenant with its per-shard pending bound (clamped ≥ 1);
    /// ids are dense and must be registered in the same order on every
    /// shard runtime so the two id spaces coincide.
    pub fn add_tenant(&mut self, max_pending: usize) -> TenantId {
        let id = self.tenants.len() as TenantId;
        self.tenants.push(TenantState { max_pending: max_pending.max(1) });
        for s in &mut self.shards {
            s.tenant_pending.push(0);
        }
        id
    }

    /// Event: shard `shard` reports its observed depth (injector depth +
    /// running jobs). Replaces any previous report; fresh for
    /// [`STALE_AFTER`] events.
    pub fn load_report(&mut self, shard: ShardId, injector_depth: usize, running: usize) {
        self.advance();
        self.counters.reports += 1;
        self.shards[shard as usize].report =
            Some(LoadReport { depth: injector_depth + running, tick: self.tick });
    }

    /// Event: a try-path job arrives for `tenant`. Decides placed / shed /
    /// rejected, books the placement, and returns the outcome.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn submit(&mut self, tenant: TenantId) -> Placement {
        self.advance();
        self.counters.submitted += 1;
        let preferred = self.preferred(tenant);
        if self.fits(preferred, tenant) {
            self.book(preferred, tenant);
            self.counters.placed += 1;
            return Placement::Placed(preferred);
        }
        // Work-shedding: the least-loaded sibling with room, before reject.
        let sibling = (0..self.shards.len() as ShardId)
            .filter(|&s| s != preferred && self.fits(s, tenant))
            .min_by_key(|&s| (self.load(s), s));
        match sibling {
            Some(to) => {
                self.book(to, tenant);
                self.counters.shed += 1;
                Placement::Shed { from: preferred, to }
            }
            None => {
                self.counters.rejected += 1;
                Placement::Rejected
            }
        }
    }

    /// Event: a blocking-path job arrives for `tenant`. Never rejects:
    /// books the policy's preferred shard (which may overbook — the
    /// shard's admission scheduler supplies the backpressure) and returns
    /// it.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn route(&mut self, tenant: TenantId) -> ShardId {
        self.advance();
        self.counters.submitted += 1;
        let shard = self.preferred(tenant);
        self.book(shard, tenant);
        self.counters.placed += 1;
        shard
    }

    /// Event: a booked job on `shard` retired (completed, cancelled,
    /// panicked, or rejected by the shard's spec validation).
    ///
    /// # Panics
    /// If no booking is outstanding for (`shard`, `tenant`) — the shell
    /// pairs events exactly; an unbalanced complete is an accounting bug.
    pub fn complete(&mut self, shard: ShardId, tenant: TenantId) {
        self.advance();
        self.counters.completed += 1;
        let s = &mut self.shards[shard as usize];
        assert!(s.pending > 0, "PlacementCore::complete without a booking on shard {shard}");
        let tp = &mut s.tenant_pending[tenant as usize];
        assert!(*tp > 0, "PlacementCore::complete without a booking for tenant {tenant} on shard {shard}");
        s.pending -= 1;
        *tp -= 1;
    }

    /// Event: the shell withdraws a booking it could not honour (the
    /// shard's admission scheduler shed a job the core had approved).
    /// Counted separately from completions so conservation stays auditable.
    pub fn abandon(&mut self, shard: ShardId, tenant: TenantId) {
        self.advance();
        self.counters.abandoned += 1;
        let s = &mut self.shards[shard as usize];
        assert!(s.pending > 0, "PlacementCore::abandon without a booking on shard {shard}");
        s.pending -= 1;
        s.tenant_pending[tenant as usize] -= 1;
    }

    /// Advance the virtual clock and expire aged-out reports.
    fn advance(&mut self) {
        self.tick += 1;
        for s in &mut self.shards {
            if let Some(r) = s.report {
                if self.tick - r.tick >= STALE_AFTER {
                    s.report = None;
                    self.counters.stale_reports += 1;
                }
            }
        }
    }

    fn preferred(&self, tenant: TenantId) -> ShardId {
        assert!((tenant as usize) < self.tenants.len(), "unregistered tenant {tenant}");
        match self.policy {
            PlacementPolicy::Affinity => affinity_shard(tenant, self.shards.len()),
            PlacementPolicy::LeastLoaded => (0..self.shards.len() as ShardId)
                .min_by_key(|&s| (self.load(s), s))
                .expect("placement core has at least one shard"),
        }
    }

    /// Room for one more job of `tenant` on `shard`, by the core's exact
    /// bookkeeping (never by reports — reports bias preference, capacity
    /// is bounded by facts).
    fn fits(&self, shard: ShardId, tenant: TenantId) -> bool {
        let s = &self.shards[shard as usize];
        s.pending < s.capacity
            && s.tenant_pending[tenant as usize] < self.tenants[tenant as usize].max_pending
    }

    fn book(&mut self, shard: ShardId, tenant: TenantId) {
        let s = &mut self.shards[shard as usize];
        s.pending += 1;
        s.tenant_pending[tenant as usize] += 1;
    }

    /// The ranking load of `shard`: exact pending plus the fresh report's
    /// depth (expired reports contribute nothing).
    pub fn load(&self, shard: ShardId) -> usize {
        let s = &self.shards[shard as usize];
        let reported = match s.report {
            Some(r) if self.tick - r.tick < STALE_AFTER => r.depth,
            _ => 0,
        };
        s.pending + reported
    }

    /// Does the shell owe this shard a fresh report before the next
    /// decision? True when no report is held or the held one has aged
    /// past the refresh threshold.
    pub fn wants_report(&self, shard: ShardId) -> bool {
        match self.shards[shard as usize].report {
            Some(r) => self.tick - r.tick >= REFRESH_AFTER,
            None => true,
        }
    }

    /// Outstanding bookings for `tenant` on `shard`.
    pub fn tenant_pending(&self, shard: ShardId, tenant: TenantId) -> usize {
        self.shards[shard as usize].tenant_pending[tenant as usize]
    }

    /// Outstanding bookings on `shard`.
    pub fn pending(&self, shard: ShardId) -> usize {
        self.shards[shard as usize].pending
    }

    /// Outstanding bookings across every shard.
    pub fn pending_total(&self) -> usize {
        self.shards.iter().map(|s| s.pending).sum()
    }

    /// Registered shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The policy this core routes by.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// The virtual clock (events processed so far).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Lifetime counters.
    pub fn counters(&self) -> PlacementCounters {
        self.counters
    }

    /// Point-in-time per-shard views.
    pub fn shard_views(&self) -> Vec<ShardLoadView> {
        (0..self.shards.len() as ShardId)
            .map(|id| {
                let s = &self.shards[id as usize];
                ShardLoadView {
                    pending: s.pending,
                    capacity: s.capacity,
                    load: self.load(id),
                    report_age: s.report.map(|r| self.tick - r.tick),
                }
            })
            .collect()
    }
}

/// Construction parameters for a [`ShardedRuntime`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// One entry per shard: that shard's pool and admission parameters.
    pub shards: Vec<RuntimeConfig>,
    /// How submissions pick their shard.
    pub policy: PlacementPolicy,
}

impl ShardConfig {
    /// `shards` identical shards of `threads_per_shard` workers each,
    /// default policy (affinity).
    pub fn uniform(shards: usize, threads_per_shard: usize) -> Self {
        let cfg = RuntimeConfig { threads: threads_per_shard.max(1), ..RuntimeConfig::default() };
        ShardConfig { shards: vec![cfg; shards.max(1)], policy: PlacementPolicy::default() }
    }

    /// Set the placement policy.
    #[must_use]
    pub fn policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Rolled-up view of a [`ShardedRuntime`]: every shard's [`ServiceStats`]
/// plus the placement layer's own counters and per-shard views.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// Per-shard service stats, indexed by [`ShardId`].
    pub shards: Vec<ServiceStats>,
    /// Placement lifetime counters.
    pub placement: PlacementCounters,
    /// The core's per-shard load views at snapshot time.
    pub loads: Vec<ShardLoadView>,
}

impl ShardSnapshot {
    /// Sum of `f` over every shard's stats.
    fn sum(&self, f: impl Fn(&ServiceStats) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Jobs accepted for execution across all shards.
    pub fn submitted(&self) -> u64 {
        self.sum(|s| s.submitted)
    }

    /// Jobs completed with a value across all shards.
    pub fn completed(&self) -> u64 {
        self.sum(|s| s.completed)
    }

    /// Jobs retired without a value across all shards (cancelled +
    /// panicked + spec-rejected).
    pub fn failed(&self) -> u64 {
        self.sum(|s| s.cancelled + s.panicked + s.rejected)
    }

    /// Jobs currently occupying pool slots across all shards.
    pub fn inflight(&self) -> usize {
        self.shards.iter().map(|s| s.inflight).sum()
    }

    /// Jobs the shards' admission schedulers still count against a
    /// tenant's pending bound, across all shards and tenants — 0 at
    /// quiescence; anything else after a drain is a leaked job.
    pub fn gate_slots_held(&self) -> usize {
        self.shards.iter().flat_map(|s| s.tenants.iter()).map(|t| t.pending).sum()
    }
}

struct ShardedInner {
    shards: Vec<Runtime>,
    core: Mutex<PlacementCore>,
}

/// N independent [`Runtime`]s behind one placement layer. Cloning is
/// cheap and shares the shards.
///
/// Every submission entry point routes through the [`PlacementCore`]
/// first; the chosen shard's own admission scheduler then applies the
/// tenant's weight/priority exactly as a standalone runtime would. All
/// tenants must be registered through [`ShardedRuntime::register_tenant`]
/// (which registers them identically on every shard, keeping the dense id
/// spaces aligned).
#[derive(Clone)]
pub struct ShardedRuntime {
    inner: Arc<ShardedInner>,
}

impl ShardedRuntime {
    /// `shards` identical shards of `threads_per_shard` workers each.
    pub fn new(shards: usize, threads_per_shard: usize) -> Self {
        Self::with_config(ShardConfig::uniform(shards, threads_per_shard))
    }

    /// A sharded runtime from explicit parameters.
    pub fn with_config(cfg: ShardConfig) -> Self {
        assert!(!cfg.shards.is_empty(), "ShardConfig needs at least one shard");
        let mut core = PlacementCore::new(cfg.policy);
        let shards: Vec<Runtime> = cfg.shards.iter().map(|c| Runtime::with_config(*c)).collect();
        for c in &cfg.shards {
            core.add_shard(c.max_inflight.max(1));
        }
        // The default tenant exists on every shard already; mirror it in
        // the core. Its per-shard pending bound is that shard's
        // max_inflight — with non-uniform shards the core uses the
        // smallest, staying conservative (never approving what a shard
        // would refuse).
        let default_cap = cfg.shards.iter().map(|c| c.max_inflight.max(1)).min().expect("≥ 1 shard");
        let t = core.add_tenant(default_cap);
        debug_assert_eq!(t, DEFAULT_TENANT);
        let inner = Arc::new(ShardedInner { shards, core: Mutex::new(core) });
        for (id, shard) in inner.shards.iter().enumerate() {
            let weak = Arc::downgrade(&inner);
            let shard_id = id as ShardId;
            // Weak: the observer is owned by the shard's admission
            // scheduler, which the inner owns — a strong Arc would be a
            // cycle that never drops the pools.
            shard.set_finish_observer(Box::new(move |tenant| {
                if let Some(inner) = weak.upgrade() {
                    inner.core.lock().complete(shard_id, tenant);
                }
            }));
        }
        ShardedRuntime { inner }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Total worker threads across all shards.
    pub fn threads(&self) -> usize {
        self.inner.shards.iter().map(Runtime::threads).sum()
    }

    /// Register a tenant on **every** shard (same spec, same dense id) and
    /// in the placement core. Returns the shared id.
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        let mut core = self.inner.core.lock();
        let id = core.add_tenant(spec.max_pending);
        for shard in &self.inner.shards {
            let sid = shard.register_tenant(spec.clone());
            debug_assert_eq!(sid, id, "shard tenant ids stay aligned");
        }
        id
    }

    /// The shard `tenant`'s jobs prefer under the affinity policy (their
    /// stable home). Meaningful for tests and capacity planning; under
    /// [`PlacementPolicy::LeastLoaded`] preference is load-dependent.
    pub fn home_shard(&self, tenant: TenantId) -> ShardId {
        affinity_shard(tenant, self.inner.shards.len())
    }

    /// Blocking submission for `tenant` ([`DEFAULT_TENANT`] for
    /// tenant-unaware callers): the placement core routes to the policy's
    /// preferred shard, and saturation blocks at the tenant's pending
    /// bound on that shard (backpressure, exactly as on a standalone
    /// runtime).
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
        let shard = self.place_blocking(tenant);
        self.inner.shards[shard as usize].submit_as(tenant, prog, cfg, kind)
    }

    /// Shedding submission for `tenant`: overflow on the preferred shard
    /// re-routes to the least-loaded sibling with room; with every shard
    /// full the program is handed back unchanged.
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
        self.try_place(tenant, prog, |shard, prog| shard.try_submit_as(tenant, prog, cfg, kind))
    }

    /// Blocking spec submission for `tenant` at `tier` ([`SpecTier::Auto`]
    /// unless the caller pins one), routed like
    /// [`ShardedRuntime::submit_as`]. Parse/validate failures
    /// complete the handle with [`crate::JobError::Rejected`] (the shard's
    /// caret diagnostic) and retire the booking — they never wedge the
    /// placement accounting.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn submit_spec_tier_as(
        &self,
        tenant: TenantId,
        source: &str,
        args: Vec<i64>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: SpecTier,
    ) -> JobHandle<i64> {
        let shard = self.place_blocking(tenant);
        self.inner.shards[shard as usize].submit_spec_foreach_tier_as(
            tenant,
            source,
            vec![args],
            cfg,
            kind,
            tier,
        )
    }

    /// Shedding spec submission for `tenant` at `tier`, routed like
    /// [`ShardedRuntime::try_submit_as`]: `Err` hands the root args
    /// back and means *capacity* (every shard full) — a malformed source
    /// still returns `Ok` with a [`crate::JobError::Rejected`] handle.
    ///
    /// # Panics
    /// If `tenant` was never registered.
    pub fn try_submit_spec_tier_as(
        &self,
        tenant: TenantId,
        source: &str,
        args: Vec<i64>,
        cfg: SchedConfig,
        kind: SchedulerKind,
        tier: SpecTier,
    ) -> Result<JobHandle<i64>, Vec<i64>> {
        self.try_place(tenant, args, |shard, args| {
            shard
                .try_submit_spec_foreach_tier_as(tenant, source, vec![args], cfg, kind, tier)
                .map_err(|mut calls| calls.pop().expect("one root call was passed"))
        })
    }

    /// Rolled-up stats: every shard's [`ServiceStats`] plus the placement
    /// core's counters and load views.
    pub fn snapshot(&self) -> ShardSnapshot {
        let shards = self.inner.shards.iter().map(Runtime::stats).collect();
        let core = self.inner.core.lock();
        ShardSnapshot { shards, placement: core.counters(), loads: core.shard_views() }
    }

    /// Route a blocking submission: refresh due reports, then ask the core.
    fn place_blocking(&self, tenant: TenantId) -> ShardId {
        let mut core = self.inner.core.lock();
        self.refresh_reports(&mut core);
        core.route(tenant)
    }

    /// The shedding path: book a shard for `tenant` (handing `payload`
    /// back when every shard is full) and run `submit` on it.
    fn try_place<T, H>(
        &self,
        tenant: TenantId,
        payload: T,
        submit: impl FnOnce(&Runtime, T) -> Result<H, T>,
    ) -> Result<H, T> {
        let placed = {
            let mut core = self.inner.core.lock();
            self.refresh_reports(&mut core);
            core.submit(tenant).shard()
        };
        let Some(shard) = placed else { return Err(payload) };
        submit(&self.inner.shards[shard as usize], payload).inspect_err(|_| {
            // The core books before the shard's scheduler counts a job and
            // retires after it, so its per-tenant bookings never run below
            // the shard's own count and this refusal should be unreachable;
            // withdraw the booking and shed to the caller rather than
            // trusting it silently.
            self.inner.core.lock().abandon(shard, tenant);
        })
    }

    /// Feed the core a fresh [`Runtime::load`] for every shard whose
    /// report has aged out. Holding the core lock across the probes is
    /// safe: probes take only pool/admission internals, which never wait
    /// on the placement core.
    fn refresh_reports(&self, core: &mut PlacementCore) {
        for (id, shard) in self.inner.shards.iter().enumerate() {
            let sid = id as ShardId;
            if core.wants_report(sid) {
                let load = shard.load();
                core.load_report(sid, load.injector_depth, load.running);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_hash_is_stable_and_in_range() {
        for shards in 1..8usize {
            for t in 0..64 {
                let s = affinity_shard(t, shards);
                assert_eq!(s, affinity_shard(t, shards));
                assert!((s as usize) < shards);
            }
        }
    }

    #[test]
    fn submit_place_complete_roundtrip() {
        let mut core = PlacementCore::new(PlacementPolicy::LeastLoaded);
        core.add_shard(2);
        core.add_shard(2);
        let t = core.add_tenant(4);
        assert_eq!(core.submit(t), Placement::Placed(0), "empty core: ties break to shard 0");
        assert_eq!(core.submit(t), Placement::Placed(1), "shard 0 now loaded");
        core.complete(0, t);
        core.complete(1, t);
        assert_eq!(core.pending_total(), 0);
        let c = core.counters();
        assert_eq!(c.submitted, c.placed + c.shed + c.rejected);
    }

    #[test]
    #[should_panic(expected = "without a booking")]
    fn unbalanced_complete_is_a_hard_error() {
        let mut core = PlacementCore::new(PlacementPolicy::Affinity);
        core.add_shard(2);
        let t = core.add_tenant(2);
        core.complete(0, t);
    }
}
