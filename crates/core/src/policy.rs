//! Scheduler policy configuration: which mechanisms to combine, and the
//! thresholds (§3.5) that drive the mode decisions.

/// The scheduler families of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// §3.1/§4.1 baseline: breadth-first expansion until the block reaches
    /// `t_dfe`, then depth-first execution forever. Needs very large blocks
    /// for speedup (Theorem 1's `2^ε` term).
    Basic,
    /// Ren et al. PLDI'15 (§3.2): like `Basic`, but switches back to BFE
    /// whenever the current block falls below `t_bfe` — "re-expansion".
    /// Linear dependence on tree unbalance ε (Theorem 2).
    ReExpansion,
    /// New in PPoPP'17 (§3.3): underfull blocks (below `t_restart`) are
    /// parked and the deque is scanned bottom-up, merging same-level blocks,
    /// to assemble a full block anywhere in the tree. Θ(n/Q + h), i.e.
    /// asymptotically optimal (Theorem 3).
    Restart,
    /// Steal-driven grain control replacing the hand-tuned cutoffs: each
    /// worker advances depth-first with a block budget that starts at `Q`
    /// and grows geometrically while its deque's steal epoch stays quiet,
    /// and resets (forcing an eager re-expansion that republishes work)
    /// when a thief is observed — the rayon-adaptive idiom, blended with
    /// the DCAFE injector-depth signal. Subsumes the fixed
    /// `t_dfe`/`t_bfe`/`t_restart` triple; see [`GrainController`].
    Adaptive,
}

impl PolicyKind {
    /// Short lowercase name, matching the paper's figures (`reexp`, `restart`).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Basic => "basic",
            PolicyKind::ReExpansion => "reexp",
            PolicyKind::Restart => "restart",
            PolicyKind::Adaptive => "adaptive",
        }
    }
}

/// Scheduler configuration: policy plus the thresholds of §3.5 and the SIMD
/// width `Q` used for step accounting.
///
/// Threshold semantics (all in tasks, not bytes):
///
/// * `t_dfe` — upper block-size trigger: a scheduler in its breadth-first
///   phase switches to DFE when a block reaches `t_dfe` tasks. The paper
///   writes `t_dfe = kQ`; a block can transiently hold up to
///   `arity × t_dfe` tasks right after the triggering BFE.
/// * `t_bfe` — re-expansion trigger (`ReExpansion` only): a block smaller
///   than this is executed with BFE to regrow parallelism. The theory wants
///   `t_bfe ≈ t_dfe` (§4.1), which is the default.
/// * `t_restart` — restart trigger (`Restart` only): a block smaller than
///   this is parked and the deque scanned. `Q ≤ t_restart ≤ t_dfe`.
///
/// # Examples
///
/// The three builders encode the §3.5 threshold relationships; invalid
/// combinations panic at construction rather than misbehaving later:
///
/// ```
/// use tb_core::prelude::*;
///
/// // Basic (§3.1): BFE until blocks reach t_dfe = 1024, then DFE forever.
/// let basic = SchedConfig::basic(8, 1024);
/// assert_eq!(basic.k(), 128.0); // the paper's k = t_dfe / Q
///
/// // Re-expansion (§3.2): switch back to BFE below t_bfe. The theory
/// // recommends t_bfe ≈ t_dfe (§4.1), which the 2-argument form picks.
/// let reexp = SchedConfig::reexpansion(8, 1024);
/// assert_eq!(reexp.t_bfe, 1024);
/// let custom = SchedConfig::reexpansion_with(8, 1024, 256);
/// assert_eq!(custom.t_bfe, 256);
///
/// // Restart (§3.3): park blocks below t_restart and scan; §3.5 wants
/// // Q ≤ t_restart ≤ t_dfe.
/// let restart = SchedConfig::restart(8, 1024, 64);
/// assert_eq!(restart.t_restart, 64);
///
/// // Constraint violations are construction-time panics:
/// assert!(std::panic::catch_unwind(|| SchedConfig::restart(8, 64, 128)).is_err());
/// ```
///
/// A config is inert until handed to a scheduler — see
/// [`run_policy`](crate::scheduler::run_policy) for driving a program
/// under each policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Which scheduler family.
    pub policy: PolicyKind,
    /// SIMD lanes per core for step accounting (the paper's `Q`).
    pub q: usize,
    /// Switch-to-DFE threshold (the paper's `t_dfe = kQ`).
    pub t_dfe: usize,
    /// Switch-back-to-BFE threshold (`ReExpansion`; `1 ≤ t_bfe ≤ t_dfe`).
    pub t_bfe: usize,
    /// Restart threshold (`Restart`; `Q ≤ t_restart ≤ t_dfe` recommended).
    pub t_restart: usize,
    /// Number of consecutive BFE actions a restart scheduler performs on a
    /// too-small top block before rescanning ("a constant number of BFE
    /// actions", §3.4). Sequentially this bounds a BFE burst; 0 means
    /// "until `t_restart` is reached".
    pub restart_bfe_burst: usize,
    /// Record scheduler-seam events (superstep boundaries, restart
    /// triggers, park/resume) into `tb-obs` rings. Default off; even when
    /// on, events only flow if tracing is also enabled globally
    /// (`tb_obs::set_enabled` / `TB_TRACE=1`). The per-config knob exists
    /// so a traced run can be reproduced cell-by-cell without flooding the
    /// rings from every other scheduler sharing the process.
    pub trace: bool,
}

impl SchedConfig {
    /// Basic scheduler: BFE until `t_dfe`, then DFE only.
    pub fn basic(q: usize, t_dfe: usize) -> Self {
        SchedConfig {
            policy: PolicyKind::Basic,
            q,
            t_dfe,
            t_bfe: t_dfe,
            t_restart: 0,
            restart_bfe_burst: 0,
            trace: false,
        }
        .validated()
    }

    /// Re-expansion scheduler with `t_bfe = t_dfe` (the theory-recommended
    /// setting, §4.1).
    pub fn reexpansion(q: usize, t_dfe: usize) -> Self {
        Self::reexpansion_with(q, t_dfe, t_dfe)
    }

    /// Re-expansion scheduler with an explicit `t_bfe ≤ t_dfe`.
    pub fn reexpansion_with(q: usize, t_dfe: usize, t_bfe: usize) -> Self {
        SchedConfig {
            policy: PolicyKind::ReExpansion,
            q,
            t_dfe,
            t_bfe,
            t_restart: 0,
            restart_bfe_burst: 0,
            trace: false,
        }
        .validated()
    }

    /// Adaptive scheduler: no hand-tuned cutoffs. The only parameter is
    /// `Q` — the grain floor the per-worker [`GrainController`] resets to
    /// when stolen from and grows geometrically from while quiet. `t_dfe`
    /// is set to the controller's grain *cap* (`Q × 2^10`), which doubles
    /// as the root strip size; `t_bfe`/`t_restart` are unused.
    ///
    /// ```
    /// use tb_core::prelude::*;
    ///
    /// // One knob: the SIMD/step width Q. Everything else self-tunes.
    /// let cfg = SchedConfig::adaptive(8);
    /// assert_eq!(cfg.policy, PolicyKind::Adaptive);
    /// assert_eq!(cfg.t_dfe, 8 << 10); // the grain cap, not a cutoff
    ///
    /// // Drives through the same entry points as the fixed policies and
    /// // produces bit-identical reductions (commutative reducers):
    /// struct Count(u32);
    /// impl BlockProgram for Count {
    ///     type Store = Vec<u32>;
    ///     type Reducer = u64;
    ///     fn arity(&self) -> usize { 2 }
    ///     fn make_root(&self) -> Vec<u32> { vec![self.0] }
    ///     fn make_reducer(&self) -> u64 { 0 }
    ///     fn merge_reducers(&self, a: &mut u64, b: u64) { *a += b; }
    ///     fn expand(&self, b: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
    ///         for n in b.drain(..) {
    ///             if n < 2 { *red += u64::from(n); }
    ///             else { out.bucket(0).push(n - 1); out.bucket(1).push(n - 2); }
    ///         }
    ///     }
    /// }
    /// let adaptive = run_policy(&Count(15), SchedConfig::adaptive(4), None);
    /// let fixed = run_policy(&Count(15), SchedConfig::basic(4, 64), None);
    /// assert_eq!(adaptive.reducer, fixed.reducer);
    /// ```
    pub fn adaptive(q: usize) -> Self {
        let cap = q.max(1) << GrainController::CAP_SHIFT;
        SchedConfig {
            policy: PolicyKind::Adaptive,
            q,
            t_dfe: cap,
            t_bfe: cap,
            t_restart: 0,
            restart_bfe_burst: 0,
            trace: false,
        }
        .validated()
    }

    /// Restart scheduler with restart threshold `t_restart` (the paper's
    /// "RB size").
    pub fn restart(q: usize, t_dfe: usize, t_restart: usize) -> Self {
        SchedConfig {
            policy: PolicyKind::Restart,
            q,
            t_dfe,
            t_bfe: t_dfe,
            t_restart,
            restart_bfe_burst: 0,
            trace: false,
        }
        .validated()
    }

    /// The same config with scheduler-seam event tracing switched on.
    pub fn with_trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// A config with the same thresholds but a different policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        if self.policy == PolicyKind::Restart && self.t_restart == 0 {
            self.t_restart = self.q.max(1);
        }
        self.validated()
    }

    /// Check invariants; panics on nonsensical settings.
    fn validated(self) -> Self {
        assert!(self.q >= 1, "Q must be at least one lane");
        assert!(self.t_dfe >= 1, "t_dfe must be at least one task");
        assert!(
            self.t_bfe >= 1 && self.t_bfe <= self.t_dfe,
            "need 1 <= t_bfe ({}) <= t_dfe ({})",
            self.t_bfe,
            self.t_dfe
        );
        if self.policy == PolicyKind::Restart {
            assert!(
                self.t_restart >= 1 && self.t_restart <= self.t_dfe,
                "need 1 <= t_restart ({}) <= t_dfe ({})",
                self.t_restart,
                self.t_dfe
            );
        }
        self
    }

    /// The paper's `k = t_dfe / Q` (block size in units of SIMD width).
    pub fn k(&self) -> f64 {
        self.t_dfe as f64 / self.q as f64
    }
}

/// The per-worker grain state machine behind [`PolicyKind::Adaptive`]: a
/// pure function of two observations, deliberately free of threads, clocks
/// and randomness so its transitions are unit-testable.
///
/// * **Steal epoch** ([`GrainController::observe`]): each worker deque
///   counts successful thief claims. While the worker's epoch is quiet the
///   worker owns all the parallelism it has published, so executing bigger
///   depth-first blocks only saves scheduling actions; the grain grows
///   geometrically. The moment the epoch advances, someone is hungry —
///   the grain resets to `Q` so the next blocks are small, re-expand
///   breadth-first, and republish stealable work fast (the rayon-adaptive
///   "split only when stolen" idiom, in blocked form).
/// * **Injector depth** ([`GrainController::grow`]): a deep pool injector
///   means parallelism is already over-published; growing faster sheds
///   scheduling overhead (the DCAFE queue-depth signal, shared with the
///   service layer's bulk chunking via [`GrainController::chunk_len`]).
///
/// ```
/// use tb_core::GrainController;
///
/// let mut g = GrainController::new(4);
/// assert_eq!(g.grain(), 4);
/// g.observe(0); // first call primes the snapshot
/// assert!(g.grow(0, 4)); // quiet: ×2
/// assert!(g.grow(0, 4));
/// assert_eq!(g.grain(), 16);
/// assert_eq!(g.observe(3), 3); // 3 steals since last check → reset
/// assert_eq!(g.grain(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GrainController {
    /// The grain floor (and reset value): the config's `Q`.
    q: usize,
    /// Current block budget in tasks.
    grain: usize,
    /// Growth ceiling.
    cap: usize,
    /// Last steal epoch seen; `None` until the first `observe` primes it
    /// (a pre-existing epoch must not read as a fresh steal).
    epoch: Option<u64>,
}

impl GrainController {
    /// Grain cap as a shift over `Q`: `cap = Q × 2^10`, the same `k`
    /// magnitude Table 1's hand-tuned block sizes sit at.
    pub const CAP_SHIFT: usize = 10;

    /// A controller with grain floor `q` and the default cap.
    pub fn new(q: usize) -> Self {
        let q = q.max(1);
        GrainController { q, grain: q, cap: q << Self::CAP_SHIFT, epoch: None }
    }

    /// A controller for `cfg`: floor `cfg.q`, cap `cfg.t_dfe`. For configs
    /// built by [`SchedConfig::adaptive`] the cap is the default one; a
    /// fixed-cutoff config coerced via
    /// [`SchedConfig::with_policy`]`(PolicyKind::Adaptive)` keeps its own
    /// `t_dfe` as the ceiling, so block sizes never exceed what the caller
    /// already accepted.
    pub fn for_config(cfg: &SchedConfig) -> Self {
        let q = cfg.q.max(1);
        GrainController { q, grain: q, cap: cfg.t_dfe.max(q), epoch: None }
    }

    /// The current block budget, in tasks.
    #[inline]
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// Feed the worker's current steal epoch. Returns how many epochs
    /// advanced since the last check (0 = quiet); any advance resets the
    /// grain to `Q`. The first call only primes the snapshot.
    #[inline]
    pub fn observe(&mut self, epoch: u64) -> u64 {
        let advanced = match self.epoch {
            Some(prev) => epoch.wrapping_sub(prev),
            None => 0,
        };
        self.epoch = Some(epoch);
        if advanced > 0 {
            self.grain = self.q;
        }
        advanced
    }

    /// One quiet interval passed: grow the grain geometrically — ×2, or ×4
    /// when the pool injector is at least `workers` deep (parallelism is
    /// over-published; coarsen faster). Returns whether the grain changed
    /// (false once at the cap).
    #[inline]
    pub fn grow(&mut self, injector_depth: usize, workers: usize) -> bool {
        let factor = if injector_depth > 0 && injector_depth >= workers.max(1) { 4 } else { 2 };
        let next = self.grain.saturating_mul(factor).min(self.cap);
        let changed = next != self.grain;
        self.grain = next;
        changed
    }

    /// DCAFE-style bulk chunk sizing (shared with `tb-service`'s bulk
    /// submission): start from a few chunks per worker and coarsen with
    /// the observed queue depth — when plenty of jobs are already pending,
    /// fine-grained chunking only adds overhead. Always in `1..=items`
    /// for nonzero `items`.
    pub fn chunk_len(items: usize, workers: usize, queue_depth: usize) -> usize {
        /// Idle-queue target: enough chunks per worker to balance, few
        /// enough to keep per-chunk overhead negligible.
        const CHUNKS_PER_WORKER: usize = 4;
        if items == 0 {
            return 1;
        }
        let workers = workers.max(1);
        let base = items.div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        // Each `workers` jobs already queued double the chunk: depth 0 →
        // ×1, depth = workers → ×2, etc., capped so a chunk is never
        // larger than the whole bulk.
        let factor = (queue_depth / workers).saturating_add(1);
        base.saturating_mul(factor).min(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_configs() {
        let b = SchedConfig::basic(8, 1024);
        assert_eq!(b.policy, PolicyKind::Basic);
        let r = SchedConfig::reexpansion(8, 1024);
        assert_eq!(r.t_bfe, 1024);
        let s = SchedConfig::restart(8, 1024, 64);
        assert_eq!(s.t_restart, 64);
        assert_eq!(s.k(), 128.0);
    }

    #[test]
    #[should_panic]
    fn t_bfe_above_t_dfe_rejected() {
        SchedConfig::reexpansion_with(8, 64, 128);
    }

    #[test]
    #[should_panic]
    fn t_restart_above_t_dfe_rejected() {
        SchedConfig::restart(8, 64, 128);
    }

    #[test]
    fn with_policy_fills_restart_threshold() {
        let cfg = SchedConfig::reexpansion(4, 256).with_policy(PolicyKind::Restart);
        assert_eq!(cfg.policy, PolicyKind::Restart);
        assert_eq!(cfg.t_restart, 4);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PolicyKind::ReExpansion.name(), "reexp");
        assert_eq!(PolicyKind::Restart.name(), "restart");
        assert_eq!(PolicyKind::Adaptive.name(), "adaptive");
    }

    #[test]
    fn adaptive_config_has_no_tuning_knobs() {
        let cfg = SchedConfig::adaptive(8);
        assert_eq!(cfg.policy, PolicyKind::Adaptive);
        assert_eq!(cfg.t_dfe, 8 << GrainController::CAP_SHIFT);
        assert_eq!(cfg.t_restart, 0);
        // Coercion to the fixed policies still validates (the doctest in
        // `scheduler` drives one config through every kind).
        let r = cfg.with_policy(PolicyKind::Restart);
        assert_eq!(r.t_restart, 8);
    }

    // The deterministic unit rig for the grain state machine: grow, reset
    // and cap transitions as a pure function — no threads, no clocks.

    #[test]
    fn grain_grows_geometrically_and_caps() {
        let mut g = GrainController::new(4);
        assert_eq!(g.grain(), 4);
        let mut sizes = vec![g.grain()];
        while g.grow(0, 4) {
            sizes.push(g.grain());
        }
        // 4 → 8 → … → 4096: pure doubling up to q << CAP_SHIFT.
        assert_eq!(sizes.last(), Some(&(4 << GrainController::CAP_SHIFT)));
        assert!(sizes.windows(2).all(|w| w[1] == w[0] * 2));
        // At the cap further growth reports no change.
        assert!(!g.grow(0, 4));
        assert_eq!(g.grain(), 4 << GrainController::CAP_SHIFT);
    }

    #[test]
    fn deep_injector_quadruples_empty_injector_doubles() {
        let mut fast = GrainController::new(4);
        let mut slow = GrainController::new(4);
        assert!(fast.grow(8, 4)); // depth ≥ workers: ×4
        assert!(slow.grow(0, 4)); // idle: ×2
        assert_eq!(fast.grain(), 16);
        assert_eq!(slow.grain(), 8);
        // Depth below the worker count is not "deep".
        let mut g = GrainController::new(4);
        g.grow(3, 4);
        assert_eq!(g.grain(), 8);
    }

    #[test]
    fn observe_primes_then_resets_on_any_advance() {
        let mut g = GrainController::new(2);
        // Priming against a nonzero pre-existing epoch is not a steal.
        assert_eq!(g.observe(41), 0);
        g.grow(0, 1);
        g.grow(0, 1);
        assert_eq!(g.grain(), 8);
        // Quiet check: grain untouched.
        assert_eq!(g.observe(41), 0);
        assert_eq!(g.grain(), 8);
        // Any advance resets to Q and reports the consumed epochs.
        assert_eq!(g.observe(44), 3);
        assert_eq!(g.grain(), 2);
        // The snapshot moved: the same epochs are not consumed twice.
        assert_eq!(g.observe(44), 0);
    }

    #[test]
    fn for_config_caps_at_the_configs_t_dfe() {
        let cfg = SchedConfig::restart(4, 64, 16).with_policy(PolicyKind::Adaptive);
        let mut g = GrainController::for_config(&cfg);
        while g.grow(0, 4) {}
        assert_eq!(g.grain(), 64, "a coerced config keeps its own t_dfe as the ceiling");
        let native = SchedConfig::adaptive(4);
        let mut g = GrainController::for_config(&native);
        while g.grow(0, 4) {}
        assert_eq!(g.grain(), 4 << GrainController::CAP_SHIFT);
    }

    #[test]
    fn chunk_len_matches_the_bulk_contract() {
        // Idle queue: a few chunks per worker.
        assert_eq!(GrainController::chunk_len(1024, 4, 0), 64);
        // Deep queue coarsens: depth = 2×workers → ×3.
        assert_eq!(GrainController::chunk_len(1024, 4, 8), 192);
        // Degenerate inputs stay sane.
        assert_eq!(GrainController::chunk_len(0, 4, 0), 1);
        assert_eq!(GrainController::chunk_len(5, 128, 0), 1);
        assert!(GrainController::chunk_len(10, 1, usize::MAX) <= 10);
    }
}
