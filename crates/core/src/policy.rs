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
    /// Grain control replacing the hand-tuned cutoffs: the engine ramps
    /// breadth-first with a block budget that starts at `Q` and doubles
    /// per BFE until a block reaches it, then runs depth-first (basic's
    /// ramp-up with no hand-set `t_dfe`). On the pool, parallelism comes
    /// from splitting the engine's frontier when a thief is hungry, the
    /// rayon-adaptive idiom. Subsumes the fixed `t_dfe`/`t_bfe`/`t_restart`
    /// triple; see [`GrainController`].
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
///   `arity × t_dfe` tasks right after the triggering BFE. It is a mode
///   threshold, not a block cap: the engine strip-mines the root, and
///   cuts any block of `2·S` tasks or more, at `S = max(t_dfe, 1024)`
///   tasks.
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
        SchedConfig { policy: PolicyKind::Basic, q, t_dfe, t_bfe: t_dfe, t_restart: 0, trace: false }
            .validated()
    }

    /// Re-expansion scheduler with `t_bfe = t_dfe` (the theory-recommended
    /// setting, §4.1).
    pub fn reexpansion(q: usize, t_dfe: usize) -> Self {
        Self::reexpansion_with(q, t_dfe, t_dfe)
    }

    /// Re-expansion scheduler with an explicit `t_bfe ≤ t_dfe`.
    pub fn reexpansion_with(q: usize, t_dfe: usize, t_bfe: usize) -> Self {
        SchedConfig { policy: PolicyKind::ReExpansion, q, t_dfe, t_bfe, t_restart: 0, trace: false }
            .validated()
    }

    /// Adaptive scheduler: no hand-tuned cutoffs. The only parameter is
    /// `Q` — the grain floor the engine's [`GrainController`] starts from
    /// and grows geometrically. `t_dfe` is set to the controller's grain
    /// *cap* (`Q × 2^10`), which doubles as the root strip size;
    /// `t_bfe`/`t_restart` are unused.
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
        SchedConfig { policy: PolicyKind::Adaptive, q, t_dfe: cap, t_bfe: cap, t_restart: 0, trace: false }
            .validated()
    }

    /// Restart scheduler with restart threshold `t_restart` (the paper's
    /// "RB size").
    pub fn restart(q: usize, t_dfe: usize, t_restart: usize) -> Self {
        SchedConfig { policy: PolicyKind::Restart, q, t_dfe, t_bfe: t_dfe, t_restart, trace: false }
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

/// The grain ramp behind [`PolicyKind::Adaptive`]: a block budget that
/// starts at `Q` and doubles once per breadth-first step up to a cap, a
/// pure state machine free of threads, clocks and randomness. The engine
/// goes depth-first once a block reaches the current grain, so the ramp
/// stops exactly when blocks are as large as it has grown — basic's
/// warm-up without a hand-set `t_dfe`. The grain is part of the parked
/// frontier, so the ramp is park/resume-exact.
///
/// ```
/// use tb_core::GrainController;
///
/// let mut g = GrainController::new(4);
/// assert_eq!(g.grain(), 4);
/// assert!(g.grow()); // ×2
/// assert!(g.grow());
/// assert_eq!(g.grain(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct GrainController {
    /// Current block budget in tasks.
    grain: usize,
    /// Growth ceiling.
    cap: usize,
}

impl GrainController {
    /// Grain cap as a shift over `Q`: `cap = Q × 2^10`, the same `k`
    /// magnitude Table 1's hand-tuned block sizes sit at.
    pub const CAP_SHIFT: usize = 10;

    /// A controller with grain floor `q` and the default cap.
    pub fn new(q: usize) -> Self {
        let q = q.max(1);
        GrainController { grain: q, cap: q << Self::CAP_SHIFT }
    }

    /// A controller for `cfg`: floor `cfg.q`, cap `cfg.t_dfe`. For configs
    /// built by [`SchedConfig::adaptive`] the cap is the default one; a
    /// fixed-cutoff config switched via
    /// [`SchedConfig::with_policy`]`(PolicyKind::Adaptive)` keeps its own
    /// `t_dfe` as the ceiling, so block sizes never exceed what the caller
    /// already accepted.
    pub fn for_config(cfg: &SchedConfig) -> Self {
        let q = cfg.q.max(1);
        GrainController { grain: q, cap: cfg.t_dfe.max(q) }
    }

    /// The current block budget, in tasks.
    #[inline]
    pub fn grain(&self) -> usize {
        self.grain
    }

    /// One breadth-first step passed: double the grain, up to the cap.
    /// Returns whether the grain changed (false once at the cap).
    #[inline]
    pub fn grow(&mut self) -> bool {
        let next = self.grain.saturating_mul(2).min(self.cap);
        let changed = next != self.grain;
        self.grain = next;
        changed
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
        // Switching to a fixed policy still validates.
        let r = cfg.with_policy(PolicyKind::Restart);
        assert_eq!(r.t_restart, 8);
    }

    // The deterministic unit rig for the grain state machine: grow and
    // cap transitions as a pure function — no threads, no clocks.

    #[test]
    fn grain_grows_geometrically_and_caps() {
        let mut g = GrainController::new(4);
        assert_eq!(g.grain(), 4);
        let mut sizes = vec![g.grain()];
        while g.grow() {
            sizes.push(g.grain());
        }
        // 4 → 8 → … → 4096: pure doubling up to q << CAP_SHIFT.
        assert_eq!(sizes.last(), Some(&(4 << GrainController::CAP_SHIFT)));
        assert!(sizes.windows(2).all(|w| w[1] == w[0] * 2));
        // At the cap further growth reports no change.
        assert!(!g.grow());
        assert_eq!(g.grain(), 4 << GrainController::CAP_SHIFT);
    }

    #[test]
    fn for_config_caps_at_the_configs_t_dfe() {
        let cfg = SchedConfig::restart(4, 64, 16).with_policy(PolicyKind::Adaptive);
        let mut g = GrainController::for_config(&cfg);
        while g.grow() {}
        assert_eq!(g.grain(), 64, "a switched config keeps its own t_dfe as the ceiling");
        let native = SchedConfig::adaptive(4);
        let mut g = GrainController::for_config(&native);
        while g.grow() {}
        assert_eq!(g.grain(), 4 << GrainController::CAP_SHIFT);
    }
}
