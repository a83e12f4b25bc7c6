//! The sequential scheduling engine (§3.1–§3.3 of the paper).
//!
//! One engine implements all four policy families; the policy only changes
//! (a) which action is chosen for the current block ([`SeqScheduler::decide`])
//! and (b) how the next block is acquired when the current one dies out
//! ([`SeqScheduler::acquire`]).
//!
//! The engine is written as an observable state machine: [`SeqScheduler::step`]
//! performs exactly one scheduling action and reports what happened, which is
//! what the invariant property tests and the trace-driven unit tests hook
//! into. [`SeqScheduler::run`] just loops `step` to completion.

use std::time::Instant;

use tb_obs::EventKind;

use crate::block::{TaskBlock, TaskStore};
use crate::deque::{LeveledDeque, RestartFind};
use crate::policy::{GrainController, PolicyKind, SchedConfig};
use crate::program::{BlockProgram, BucketSet, RunOutput};
use crate::stats::ExecStats;

/// What a single [`SeqScheduler::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Executed a block with breadth-first expansion.
    Bfe {
        /// Level of the executed block.
        level: usize,
        /// Tasks executed.
        tasks: usize,
    },
    /// Executed a block with depth-first execution.
    Dfe {
        /// Level of the executed block.
        level: usize,
        /// Tasks executed.
        tasks: usize,
    },
    /// Parked the current (underfull) block and will rescan.
    Restart {
        /// Level of the parked block.
        level: usize,
        /// Tasks parked.
        tasks: usize,
    },
    /// Acquired a block from the deque (basic/reexp bottom pop, or a
    /// restart scan that found a full block).
    Acquired,
    /// A restart scan came up short; acquired the top block for forced BFE.
    AcquiredTop,
    /// Pulled the next strip of an oversized root block (§5.3 strip mining).
    AcquiredStrip,
    /// Nothing left to do.
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Bfe,
    Dfe,
}

/// A parked sequential run: the complete frontier of a [`SeqScheduler`]
/// between two supersteps, detached from the program it was executing.
///
/// Every field is owned data (parked blocks, the current block, the strip
/// remainder, the partial reducer, statistics, and the policy latches), so
/// a frontier is `Send` whenever the store and reducer are — it can be
/// parked on one thread and resumed on another. This is the preemption
/// seam the service layer's admission scheduler swaps jobs out on: the
/// pool driver ([`drive`](crate::par::drive)) parks a preempted run at
/// its next superstep boundary via [`SeqScheduler::park`], split pieces
/// absorbed first, and the run is later reconstructed with
/// [`SeqScheduler::resume`], producing bit-identical results to an
/// uninterrupted run (the engine's decision function depends only on
/// this state).
///
/// The spawn buckets are deliberately *not* part of the frontier: between
/// `step` calls they are always empty (every action drains them), so
/// `resume` rebuilds them fresh from the program's arity.
pub struct SeqFrontier<S, R> {
    cfg: SchedConfig,
    deque: LeveledDeque<S>,
    current: Option<TaskBlock<S>>,
    mode: Mode,
    warmed: bool,
    bfe_forced: bool,
    bfe_burst: usize,
    ctrl: GrainController,
    root_rest: Option<S>,
    red: R,
    stats: ExecStats,
    done: bool,
}

impl<S: TaskStore, R> SeqFrontier<S, R> {
    /// The configuration the parked run was (and must keep) executing with.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Tasks held by the parked frontier (deque + current block + the
    /// unstripped root remainder). The admission scheduler's bounded park
    /// pool accounts swapped-out jobs in these units.
    pub fn tasks(&self) -> usize {
        self.deque.task_count()
            + self.current.as_ref().map_or(0, TaskBlock::len)
            + self.root_rest.as_ref().map_or(0, TaskStore::len)
    }

    /// True when the parked run had already finished (parking raced a
    /// completion); resuming it returns `Done` on the first step.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// Single-core scheduler over a [`BlockProgram`], parameterised by
/// [`SchedConfig`] (policy + thresholds + SIMD width for accounting).
pub struct SeqScheduler<'p, P: BlockProgram> {
    prog: &'p P,
    cfg: SchedConfig,
    deque: LeveledDeque<P::Store>,
    current: Option<TaskBlock<P::Store>>,
    /// Re-expansion hysteresis / basic latch state.
    mode: Mode,
    /// Basic & restart: has the initial BFE ramp-up reached `t_dfe` yet?
    warmed: bool,
    /// Restart: executing the top block in (forced) BFE mode after a scan
    /// found no `t_restart`-sized work.
    bfe_forced: bool,
    /// Consecutive forced-BFE actions taken in the current burst.
    bfe_burst: usize,
    /// Adaptive: the live grain. It only ever grows — `Q, 2Q, …` up to the
    /// cap — which makes the policy fully deterministic (and therefore
    /// park/resume-exact).
    ctrl: GrainController,
    /// Remainder of an oversized root block, fed strip by strip.
    root_rest: Option<P::Store>,
    out: BucketSet<P::Store>,
    red: P::Reducer,
    stats: ExecStats,
    done: bool,
}

impl<'p, P: BlockProgram> SeqScheduler<'p, P> {
    /// Set up a scheduler for `prog`; the root block is strip-mined to
    /// `cfg.t_dfe` tasks per strip if the program's data-parallel outer
    /// loop makes it larger (§5.3).
    pub fn new(prog: &'p P, cfg: SchedConfig) -> Self {
        let mut root = prog.make_root();
        let strip = Self::take_strip(&mut root, cfg.t_dfe);
        SeqScheduler {
            prog,
            cfg,
            deque: LeveledDeque::new(),
            current: Some(TaskBlock::new(0, strip)),
            mode: Mode::Bfe,
            warmed: false,
            bfe_forced: false,
            bfe_burst: 0,
            ctrl: GrainController::for_config(&cfg),
            root_rest: if root.is_empty() { None } else { Some(root) },
            out: BucketSet::new(prog.arity()),
            red: prog.make_reducer(),
            stats: ExecStats::new(cfg.q),
            done: false,
        }
    }

    /// Park this run: consume the engine and return its frontier, to be
    /// [`resume`](SeqScheduler::resume)d later (possibly on another thread;
    /// the frontier is `Send` with the store/reducer). Call only between
    /// [`SeqScheduler::step`]s — i.e. anywhere the engine is externally
    /// observable, which is the superstep-boundary seam of the paper.
    pub fn park(self) -> SeqFrontier<P::Store, P::Reducer> {
        debug_assert!(self.out.is_empty(), "spawn buckets drain every step; park found them non-empty");
        let frontier = SeqFrontier {
            cfg: self.cfg,
            deque: self.deque,
            current: self.current,
            mode: self.mode,
            warmed: self.warmed,
            bfe_forced: self.bfe_forced,
            bfe_burst: self.bfe_burst,
            ctrl: self.ctrl,
            root_rest: self.root_rest,
            red: self.red,
            stats: self.stats,
            done: self.done,
        };
        if frontier.cfg.trace {
            tb_obs::record(EventKind::Park, 0, frontier.tasks() as u64);
        }
        frontier
    }

    /// Reconstruct an engine from a parked frontier. `prog` must be the
    /// same program the frontier was parked from (same expansion function
    /// and arity) — the frontier carries its own [`SchedConfig`], so the
    /// resumed run cannot diverge from the parked one's policy. The
    /// resumed engine continues exactly where [`SeqScheduler::park`]
    /// stopped: same decisions, same reductions, same task counts.
    pub fn resume(prog: &'p P, frontier: SeqFrontier<P::Store, P::Reducer>) -> Self {
        if frontier.cfg.trace {
            tb_obs::record(EventKind::Resume, 0, frontier.tasks() as u64);
        }
        SeqScheduler {
            prog,
            cfg: frontier.cfg,
            deque: frontier.deque,
            current: frontier.current,
            mode: frontier.mode,
            warmed: frontier.warmed,
            bfe_forced: frontier.bfe_forced,
            bfe_burst: frontier.bfe_burst,
            ctrl: frontier.ctrl,
            root_rest: frontier.root_rest,
            out: BucketSet::new(prog.arity()),
            red: frontier.red,
            stats: frontier.stats,
            done: frontier.done,
        }
    }

    /// Split part of this run off as a frontier of its own, leaving the
    /// engine running on the rest — a *partial* [`park`](SeqScheduler::park),
    /// legal at the same seam (between [`SeqScheduler::step`]s, where the
    /// spawn buckets are empty and no block is half-expanded). The caller
    /// [`resume`](SeqScheduler::resume)s the frontier as a second engine,
    /// typically on another worker, and merges the two reducers and
    /// [`ExecStats`] when both finish: together they execute exactly the
    /// tasks the unsplit run would have.
    ///
    /// What goes is the largest pending work: half of the unstripped root
    /// remainder when there is one (each root task is a whole computation),
    /// otherwise the shallowest half of the deque's levels
    /// ([`LeveledDeque::split_shallowest_half`]), otherwise — only the
    /// current block is pending, as during a breadth-first ramp — the back
    /// half of the current block. A block is a set of independent
    /// same-level tasks, so either half runs on its own; it is halved only
    /// while each half still fills two SIMD steps (`2Q` tasks). The split
    /// frontier starts with a fresh reducer and zeroed statistics and
    /// inherits the policy latches, so it continues in the regime the run
    /// was in (a warmed-up restart engine scans its new deque instead of
    /// ramping up again). Returns `None` when nothing is left to hand over.
    pub fn split_off(&mut self) -> Option<SeqFrontier<P::Store, P::Reducer>> {
        debug_assert!(self.out.is_empty(), "spawn buckets drain every step; split found them non-empty");
        let (deque, current, root_rest) = match &mut self.root_rest {
            Some(rest) => {
                let keep = rest.len() / 2;
                let theirs = rest.split_off(keep);
                if keep == 0 {
                    self.root_rest = None;
                }
                (LeveledDeque::new(), None, Some(theirs))
            }
            None => match self.deque.split_shallowest_half() {
                Some(deque) => (deque, None, None),
                None => {
                    let cur = self.current.as_mut().filter(|b| b.len() >= 4 * self.cfg.q)?;
                    (LeveledDeque::new(), Some(cur.split_off(cur.len() / 2)), None)
                }
            },
        };
        let frontier = SeqFrontier {
            cfg: self.cfg,
            deque,
            current,
            mode: self.mode,
            warmed: self.warmed,
            bfe_forced: false,
            bfe_burst: 0,
            ctrl: self.ctrl.clone(),
            root_rest,
            red: self.prog.make_reducer(),
            stats: ExecStats::new(self.cfg.q),
            done: false,
        };
        self.stats.splits += 1;
        if self.cfg.trace {
            tb_obs::record(EventKind::Park, 0, frontier.tasks() as u64);
        }
        Some(frontier)
    }

    /// Take a split piece back in, at the seam where
    /// [`split_off`](SeqScheduler::split_off) made it: merge its reducer
    /// and statistics, append its root remainder, and push its deque blocks
    /// and current block at their levels through
    /// [`LeveledDeque::push_dfe`], so no level exceeds two blocks. This
    /// engine keeps its own current block and policy latches; a finished
    /// piece adds only its reduction. Records no trace event.
    pub(crate) fn absorb(&mut self, piece: SeqScheduler<'p, P>) {
        debug_assert!(self.out.is_empty() && piece.out.is_empty(), "absorb runs between steps");
        self.prog.merge_reducers(&mut self.red, piece.red);
        self.stats.absorb(&piece.stats);
        self.stats.merges += self.deque.absorb(piece.deque);
        if let Some(block) = piece.current {
            self.stats.merges += u64::from(self.deque.push_dfe(block));
        }
        match (&mut self.root_rest, piece.root_rest) {
            (Some(rest), Some(mut more)) => rest.append(&mut more),
            (rest, more) => *rest = rest.take().or(more),
        }
        self.done &= self.current.is_none() && self.deque.is_empty() && self.root_rest.is_none();
    }

    /// The program this engine runs.
    pub(crate) fn program(&self) -> &'p P {
        self.prog
    }

    /// Has [`SeqScheduler::step`] reported `Done`?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Consume a finished (or externally stopped) engine, yielding the
    /// reduction folded so far plus statistics. For a [`is_done`] engine
    /// this is the same output [`SeqScheduler::run`] returns; for an
    /// unfinished one it is the partial reduction (the cancellation path).
    ///
    /// [`is_done`]: SeqScheduler::is_done
    pub fn into_output(self) -> RunOutput<P::Reducer> {
        RunOutput { reducer: self.red, stats: self.stats }
    }

    fn take_strip(root: &mut P::Store, strip: usize) -> P::Store {
        if root.len() > strip {
            // Keep the first `strip` tasks, leave the rest for later.
            let rest = root.split_off(strip);
            std::mem::replace(root, rest)
        } else {
            root.take()
        }
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The deque, for invariant inspection in tests.
    pub fn deque(&self) -> &LeveledDeque<P::Store> {
        &self.deque
    }

    /// The block about to be scheduled, if any.
    pub fn current(&self) -> Option<&TaskBlock<P::Store>> {
        self.current.as_ref()
    }

    fn partial_below(&self) -> usize {
        match self.cfg.policy {
            PolicyKind::Restart => self.cfg.t_restart,
            _ => self.cfg.t_bfe,
        }
    }

    /// Choose the action for a block of `len` tasks (§3.2/§3.3 policy
    /// tables). Mutates the mode state that implements hysteresis.
    fn decide(&mut self, len: usize) -> Action {
        match self.cfg.policy {
            PolicyKind::Basic => {
                if !self.warmed {
                    if len >= self.cfg.t_dfe {
                        self.warmed = true;
                        Action::Dfe
                    } else {
                        Action::Bfe
                    }
                } else {
                    Action::Dfe
                }
            }
            PolicyKind::ReExpansion => match self.mode {
                Mode::Bfe => {
                    if len >= self.cfg.t_dfe {
                        self.mode = Mode::Dfe;
                        Action::Dfe
                    } else {
                        Action::Bfe
                    }
                }
                Mode::Dfe => {
                    if len < self.cfg.t_bfe {
                        self.mode = Mode::Bfe;
                        Action::Bfe
                    } else {
                        Action::Dfe
                    }
                }
            },
            PolicyKind::Restart => {
                if !self.warmed {
                    if len >= self.cfg.t_dfe {
                        self.warmed = true;
                        Action::Dfe
                    } else {
                        Action::Bfe
                    }
                } else if self.bfe_forced {
                    if len >= self.cfg.t_restart
                        || (self.cfg.restart_bfe_burst > 0 && self.bfe_burst >= self.cfg.restart_bfe_burst)
                    {
                        self.bfe_forced = false;
                        self.bfe_burst = 0;
                        if len >= self.cfg.t_restart {
                            Action::Dfe
                        } else {
                            Action::Restart
                        }
                    } else {
                        self.bfe_burst += 1;
                        Action::Bfe
                    }
                } else if len >= self.cfg.t_restart {
                    Action::Dfe
                } else {
                    Action::Restart
                }
            }
            PolicyKind::Adaptive => {
                // The grain ratchets up — one doubling per BFE step —
                // until blocks reach it and the engine goes depth-first,
                // mirroring basic's ramp-up without a hand-set `t_dfe`.
                if len >= self.ctrl.grain() {
                    Action::Dfe
                } else {
                    self.ctrl.grow();
                    Action::Bfe
                }
            }
        }
    }

    /// Run the program's `expand` over `block` and account the superstep.
    fn execute(&mut self, block: &mut TaskBlock<P::Store>) {
        debug_assert!(self.out.is_empty(), "spawn buckets must start empty");
        let partial_below = self.partial_below();
        self.stats.account_block(block.len(), partial_below);
        self.stats.observe_level(block.level);
        self.prog.expand(&mut block.store, &mut self.out, &mut self.red);
        debug_assert!(block.store.is_empty(), "expand must drain its input block");
    }

    /// Perform one scheduling action. Returns what happened; `Done` means
    /// the computation has finished and `step` will keep returning `Done`.
    pub fn step(&mut self) -> StepEvent {
        let event = self.step_inner();
        // The superstep-boundary seam: every executed block is one event,
        // so summing `tasks` over superstep events reconstructs
        // `stats.tasks_executed` exactly (the trace-conservation test).
        if self.cfg.trace {
            match event {
                StepEvent::Bfe { level, tasks } | StepEvent::Dfe { level, tasks } => {
                    tb_obs::record(EventKind::Superstep, level as u32, tasks as u64);
                }
                StepEvent::Restart { level, tasks } => {
                    tb_obs::record(EventKind::Restart, level as u32, tasks as u64);
                }
                _ => {}
            }
        }
        event
    }

    fn step_inner(&mut self) -> StepEvent {
        if self.done {
            return StepEvent::Done;
        }
        let Some(mut cur) = self.current.take() else {
            return self.acquire();
        };
        if cur.is_empty() {
            return self.acquire();
        }
        let level = cur.level;
        // No block runs at two strips' size or more. With three or more
        // spawn sites the sibling buckets merged into one DFE leftover
        // hand back `(arity - 1) x` the block that made them, and running
        // that whole multiplies the next level's leftover again — the
        // deque then grows geometrically with depth. Strip-mine such a
        // block like an oversized root (§5.3): run its last `t_dfe` tasks
        // (taking the tail copies only the strip), park the rest here.
        // Below `2 x t_dfe` a block runs whole, so no strip leaves a
        // sliver behind.
        if cur.len() >= 2 * self.cfg.t_dfe {
            let strip = cur.store.split_off(cur.len() - self.cfg.t_dfe);
            if self.deque.push_dfe(std::mem::replace(&mut cur, TaskBlock::new(level, strip))) {
                self.stats.merges += 1;
            }
        }
        let tasks = cur.len();
        let event = match self.decide(tasks) {
            Action::Bfe => {
                self.stats.bfe_actions += 1;
                self.execute(&mut cur);
                let mut next = TaskBlock::new(level + 1, self.out.drain_merged());
                // A restart scheduler descending in BFE mode re-absorbs any
                // same-level leftovers it passes: this is the merge the next
                // scan would otherwise have to do.
                if self.cfg.policy == PolicyKind::Restart {
                    if let Some(mut parked) = self.deque.take_level(next.level) {
                        next.merge(&mut parked);
                        self.stats.merges += 1;
                    }
                }
                if !next.is_empty() {
                    self.current = Some(next);
                }
                StepEvent::Bfe { level, tasks }
            }
            Action::Dfe => {
                self.stats.dfe_actions += 1;
                self.execute(&mut cur);
                let child_level = level + 1;
                // Descend into the first non-empty spawn-site bucket; park
                // the rest (merging same-level leftovers into one block).
                let mut next: Option<TaskBlock<P::Store>> = None;
                for i in 0..self.out.arity() {
                    let s = self.out.take_bucket(i);
                    if s.is_empty() {
                        continue;
                    }
                    let b = TaskBlock::new(child_level, s);
                    if next.is_none() {
                        next = Some(b);
                    } else if self.deque.push_dfe(b) {
                        self.stats.merges += 1;
                    }
                }
                self.current = next;
                StepEvent::Dfe { level, tasks }
            }
            Action::Restart => {
                self.stats.restart_actions += 1;
                if self.deque.push_restart(cur) {
                    self.stats.merges += 1;
                }
                let acquired = self.acquire();
                debug_assert!(
                    !matches!(acquired, StepEvent::Done) || self.done,
                    "restart acquire must make progress or finish"
                );
                return StepEvent::Restart { level, tasks };
            }
        };
        self.stats.observe_deque(self.deque.block_count(), self.deque.task_count());
        event
    }

    /// Pull the next block to schedule when the current one has died out.
    fn acquire(&mut self) -> StepEvent {
        debug_assert!(self.current.is_none());
        match self.cfg.policy {
            PolicyKind::Basic | PolicyKind::ReExpansion | PolicyKind::Adaptive => {
                if let Some(b) = self.deque.pop_deepest_dfe() {
                    self.current = Some(b);
                    return StepEvent::Acquired;
                }
            }
            PolicyKind::Restart => {
                let mut merges = 0;
                let found = self.deque.find_restart(self.cfg.t_restart, &mut merges);
                self.stats.merges += merges;
                match found {
                    RestartFind::Dfe(b) => {
                        self.current = Some(b);
                        return StepEvent::Acquired;
                    }
                    RestartFind::Top(b) => {
                        self.bfe_forced = true;
                        self.bfe_burst = 0;
                        self.current = Some(b);
                        return StepEvent::AcquiredTop;
                    }
                    RestartFind::Empty => {}
                }
            }
        }
        if let Some(mut rest) = self.root_rest.take() {
            let strip = Self::take_strip(&mut rest, self.cfg.t_dfe);
            if !rest.is_empty() {
                self.root_rest = Some(rest);
            }
            debug_assert!(!strip.is_empty());
            self.current = Some(TaskBlock::new(0, strip));
            // Each strip restarts the BFE ramp-up of a fresh computation.
            self.warmed = false;
            self.mode = Mode::Bfe;
            self.bfe_forced = false;
            self.ctrl = GrainController::for_config(&self.cfg);
            return StepEvent::AcquiredStrip;
        }
        self.done = true;
        StepEvent::Done
    }

    /// Run to completion and return the reduction plus statistics. Wall
    /// time *accumulates* (`+=`), so a parked-and-resumed run reports the
    /// sum of its execution segments, excluding time spent swapped out.
    pub fn run(mut self) -> RunOutput<P::Reducer> {
        let start = Instant::now();
        while self.step() != StepEvent::Done {}
        self.stats.wall += start.elapsed();
        RunOutput { reducer: self.red, stats: self.stats }
    }
}

impl<P: BlockProgram> crate::scheduler::Scheduler<P> for SeqScheduler<'_, P> {
    fn name(&self) -> &'static str {
        crate::scheduler::SchedulerKind::Seq.name()
    }

    fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Always single-core; `pool` is ignored. Runs a fresh engine so the
    /// borrowed state machine (which `step` may have partially advanced)
    /// is left untouched.
    fn run_with(&self, _pool: Option<&tb_runtime::ThreadPool>) -> RunOutput<P::Reducer> {
        SeqScheduler::new(self.prog, self.cfg).run()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Bfe,
    Dfe,
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fib as a blocked program; also used by many other test modules.
    pub(crate) struct Fib(pub u32);

    impl BlockProgram for Fib {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            vec![self.0]
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            for n in block.drain(..) {
                if n < 2 {
                    *red += u64::from(n);
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 2);
                }
            }
        }
    }

    fn fib_ref(n: u32) -> u64 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..n {
            let c = a + b;
            a = b;
            b = c;
        }
        a
    }

    #[test]
    fn basic_computes_fib() {
        for n in [0, 1, 2, 10, 20] {
            let out = SeqScheduler::new(&Fib(n), SchedConfig::basic(4, 64)).run();
            assert_eq!(out.reducer, fib_ref(n), "fib({n})");
        }
    }

    #[test]
    fn reexpansion_computes_fib() {
        for n in [0, 1, 5, 18, 22] {
            let out = SeqScheduler::new(&Fib(n), SchedConfig::reexpansion(4, 64)).run();
            assert_eq!(out.reducer, fib_ref(n), "fib({n})");
        }
    }

    #[test]
    fn restart_computes_fib() {
        for n in [0, 1, 5, 18, 22] {
            let out = SeqScheduler::new(&Fib(n), SchedConfig::restart(4, 64, 16)).run();
            assert_eq!(out.reducer, fib_ref(n), "fib({n})");
        }
    }

    #[test]
    fn adaptive_computes_fib() {
        for n in [0, 1, 5, 18, 22] {
            let out = SeqScheduler::new(&Fib(n), SchedConfig::adaptive(4)).run();
            assert_eq!(out.reducer, fib_ref(n), "fib({n})");
        }
    }

    #[test]
    fn adaptive_is_park_resume_exact() {
        // The grain is part of the frontier: parking mid-ramp and resuming
        // must reproduce the uninterrupted run's superstep count exactly.
        let cfg = SchedConfig::adaptive(4);
        let straight = SeqScheduler::new(&Fib(16), cfg).run();
        let prog = Fib(16);
        let mut eng = SeqScheduler::new(&prog, cfg);
        let out = loop {
            let mut finished = false;
            for _ in 0..3 {
                if eng.step() == StepEvent::Done {
                    finished = true;
                    break;
                }
            }
            if finished {
                break eng.into_output();
            }
            eng = SeqScheduler::resume(&prog, eng.park());
        };
        assert_eq!(out.reducer, straight.reducer);
        assert_eq!(out.stats.supersteps, straight.stats.supersteps);
    }

    #[test]
    fn all_policies_execute_every_task_once() {
        // fib(n) executes exactly T(n) tasks where T(n) = 1 + T(n-1) + T(n-2),
        // T(0) = T(1) = 1  =>  T(n) = 2*fib(n+1) - 1.
        let n = 18;
        let expected_tasks = 2 * fib_ref(n + 1) - 1;
        for cfg in [
            SchedConfig::basic(8, 128),
            SchedConfig::reexpansion(8, 128),
            SchedConfig::restart(8, 128, 32),
            SchedConfig::adaptive(8),
        ] {
            let out = SeqScheduler::new(&Fib(n), cfg).run();
            assert_eq!(out.stats.tasks_executed, expected_tasks, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn step_counts_respect_model_bounds() {
        // Ts < n, Ts >= n/Q, Ts >= h (§4 preliminaries).
        let n = 20;
        let q = 8;
        for cfg in
            [SchedConfig::basic(q, 256), SchedConfig::reexpansion(q, 256), SchedConfig::restart(q, 256, 64)]
        {
            let out = SeqScheduler::new(&Fib(n), cfg).run();
            let tasks = out.stats.tasks_executed;
            let steps = out.stats.simd_steps;
            assert!(steps < tasks, "steps {steps} >= tasks {tasks}");
            assert!(steps >= tasks.div_ceil(q as u64));
            assert!(steps >= u64::from(n) - 1, "steps {steps} below height");
        }
    }

    #[test]
    fn restart_beats_reexpansion_utilization_at_small_blocks() {
        // The headline claim of §4.2/Figure 4 at a small block size.
        let n = 22;
        let q = 8;
        let reexp = SeqScheduler::new(&Fib(n), SchedConfig::reexpansion(q, 32)).run();
        let restart = SeqScheduler::new(&Fib(n), SchedConfig::restart(q, 32, 32)).run();
        assert!(
            restart.stats.simd_utilization() >= reexp.stats.simd_utilization() - 1e-9,
            "restart {:.3} < reexp {:.3}",
            restart.stats.simd_utilization(),
            reexp.stats.simd_utilization()
        );
    }

    #[test]
    fn restart_takes_restart_actions_on_unbalanced_work() {
        let out = SeqScheduler::new(&Fib(20), SchedConfig::restart(8, 64, 64)).run();
        assert!(out.stats.restart_actions > 0, "expected restarts on fib's unbalanced tree");
    }

    #[test]
    fn events_trace_is_coherent() {
        let mut s = SeqScheduler::new(&Fib(12), SchedConfig::restart(4, 32, 8));
        let mut executed = 0u64;
        loop {
            match s.step() {
                StepEvent::Bfe { tasks, .. } | StepEvent::Dfe { tasks, .. } => executed += tasks as u64,
                StepEvent::Restart { .. }
                | StepEvent::Acquired
                | StepEvent::AcquiredTop
                | StepEvent::AcquiredStrip => {}
                StepEvent::Done => break,
            }
        }
        assert_eq!(executed, 2 * fib_ref(13) - 1);
    }

    /// A data-parallel outer loop: many root tasks (strip-mining path).
    struct ManyRoots(usize);

    impl BlockProgram for ManyRoots {
        type Store = Vec<u32>;
        type Reducer = u64;

        fn arity(&self) -> usize {
            2
        }

        fn make_root(&self) -> Vec<u32> {
            vec![6; self.0]
        }

        fn make_reducer(&self) -> u64 {
            0
        }

        fn merge_reducers(&self, a: &mut u64, b: u64) {
            *a += b;
        }

        fn expand(&self, block: &mut Vec<u32>, out: &mut BucketSet<Vec<u32>>, red: &mut u64) {
            for n in block.drain(..) {
                if n < 2 {
                    *red += u64::from(n);
                } else {
                    out.bucket(0).push(n - 1);
                    out.bucket(1).push(n - 2);
                }
            }
        }
    }

    #[test]
    fn oversized_roots_are_strip_mined() {
        // 1000 roots of fib(6)=8 with t_dfe=64: needs 16 strips.
        let prog = ManyRoots(1000);
        for cfg in
            [SchedConfig::basic(4, 64), SchedConfig::reexpansion(4, 64), SchedConfig::restart(4, 64, 16)]
        {
            let out = SeqScheduler::new(&prog, cfg).run();
            assert_eq!(out.reducer, 8 * 1000, "{:?}", cfg.policy);
        }
    }

    #[test]
    fn basic_never_returns_to_bfe() {
        let mut s = SeqScheduler::new(&Fib(18), SchedConfig::basic(4, 32));
        let mut seen_dfe = false;
        loop {
            match s.step() {
                StepEvent::Dfe { .. } => seen_dfe = true,
                StepEvent::Bfe { .. } => {
                    assert!(!seen_dfe, "basic switched back to BFE after warming up");
                }
                StepEvent::Done => break,
                _ => {}
            }
        }
        assert!(seen_dfe, "basic must eventually warm up at t_dfe=32");
    }

    #[test]
    fn reexpansion_hysteresis_respects_t_bfe() {
        // With t_bfe << t_dfe the scheduler stays in DFE mode for blocks in
        // [t_bfe, t_dfe), so BFE events never fire for blocks >= t_bfe
        // once DFE mode is entered.
        let cfg = SchedConfig::reexpansion_with(4, 256, 8);
        let mut s = SeqScheduler::new(&Fib(18), cfg);
        let mut in_dfe_mode = false;
        loop {
            match s.step() {
                StepEvent::Dfe { .. } => in_dfe_mode = true,
                StepEvent::Bfe { tasks, .. } if in_dfe_mode => {
                    assert!(tasks < 8, "re-expanded a block of {tasks} >= t_bfe");
                    in_dfe_mode = false;
                }
                StepEvent::Done => break,
                _ => {}
            }
        }
    }

    #[test]
    fn restart_invariants_hold_after_every_scan() {
        let mut s = SeqScheduler::new(&Fib(16), SchedConfig::restart(4, 64, 16));
        loop {
            match s.step() {
                StepEvent::AcquiredTop => {
                    // A full failed scan just completed: every parked
                    // restart block must be underfull (§3.3 invariant ii).
                    s.deque().assert_restart_invariants(16);
                }
                StepEvent::Done => break,
                _ => {}
            }
        }
    }

    #[test]
    fn restart_bfe_burst_limits_forced_expansion() {
        let mut cfg = SchedConfig::restart(4, 64, 64);
        cfg.restart_bfe_burst = 2;
        let out = SeqScheduler::new(&Fib(18), cfg).run();
        assert_eq!(out.reducer, fib_ref(18), "bounded bursts still complete");
    }

    #[test]
    fn single_task_tree_runs_under_all_policies() {
        for cfg in [SchedConfig::basic(4, 8), SchedConfig::reexpansion(4, 8), SchedConfig::restart(4, 8, 4)] {
            let out = SeqScheduler::new(&Fib(0), cfg).run();
            assert_eq!(out.reducer, 0);
            assert_eq!(out.stats.tasks_executed, 1);
        }
    }

    #[test]
    fn park_resume_roundtrip_is_exact() {
        // Park/resume at every possible boundary cadence: identical
        // reduction AND identical task count to the uninterrupted run.
        let cfg = SchedConfig::restart(4, 32, 8);
        let straight = SeqScheduler::new(&Fib(16), cfg).run();
        for burst in [1usize, 2, 3, 7, 50] {
            let prog = Fib(16);
            let mut eng = SeqScheduler::new(&prog, cfg);
            let out = loop {
                let mut finished = false;
                for _ in 0..burst {
                    if eng.step() == StepEvent::Done {
                        finished = true;
                        break;
                    }
                }
                if finished {
                    break eng.into_output();
                }
                let frontier = eng.park();
                eng = SeqScheduler::resume(&prog, frontier);
            };
            assert_eq!(out.reducer, straight.reducer, "burst={burst}");
            assert_eq!(out.stats.tasks_executed, straight.stats.tasks_executed, "burst={burst}");
            assert_eq!(out.stats.supersteps, straight.stats.supersteps, "burst={burst}");
        }
    }

    #[test]
    fn frontier_is_send_and_crosses_threads() {
        fn assert_send<T: Send>(t: T) -> T {
            t
        }
        let prog = Fib(18);
        let mut eng = SeqScheduler::new(&prog, SchedConfig::restart(4, 32, 8));
        for _ in 0..5 {
            assert_ne!(eng.step(), StepEvent::Done, "fib(18) lasts longer than 5 steps");
        }
        let frontier = assert_send(eng.park());
        assert!(frontier.tasks() > 0, "a mid-run frontier holds live tasks");
        assert!(!frontier.is_done());
        assert_eq!(frontier.config().t_dfe, 32);
        // Round-trip through another thread (what the service's park pool
        // does), then finish on this one.
        let frontier = std::thread::spawn(move || frontier).join().unwrap();
        let out = SeqScheduler::resume(&prog, frontier).run();
        assert_eq!(out.reducer, fib_ref(18));
    }

    #[test]
    fn parking_a_finished_engine_resumes_to_done() {
        let prog = Fib(6);
        let mut eng = SeqScheduler::new(&prog, SchedConfig::basic(4, 16));
        while eng.step() != StepEvent::Done {}
        assert!(eng.is_done());
        let frontier = eng.park();
        assert!(frontier.is_done());
        assert_eq!(frontier.tasks(), 0);
        let mut eng = SeqScheduler::resume(&prog, frontier);
        assert_eq!(eng.step(), StepEvent::Done);
        assert_eq!(eng.into_output().reducer, fib_ref(6));
    }

    #[test]
    fn strip_mined_roots_survive_parking() {
        // The root remainder is part of the frontier: park after the first
        // strip and the remaining 900+ roots must still be executed.
        let cfg = SchedConfig::restart(4, 64, 16);
        let prog = ManyRoots(1000);
        let mut eng = SeqScheduler::new(&prog, cfg);
        for _ in 0..3 {
            assert_ne!(eng.step(), StepEvent::Done);
        }
        let frontier = eng.park();
        assert!(frontier.tasks() >= 900, "root remainder must be counted in the frontier");
        let out = SeqScheduler::resume(&prog, frontier).run();
        assert_eq!(out.reducer, 8 * 1000);
    }

    #[test]
    fn q_larger_than_any_block_is_fine() {
        let out = SeqScheduler::new(&Fib(12), SchedConfig::restart(1024, 2048, 512)).run();
        assert_eq!(out.reducer, fib_ref(12));
        assert_eq!(out.stats.complete_steps, 0, "no block can fill 1024 lanes");
    }

    #[test]
    fn deque_space_is_bounded_by_levels_times_block() {
        // Lemma 8: space <= h * k * Q (per worker); our deque counter must
        // respect it within the transient arity factor.
        let out = SeqScheduler::new(&Fib(20), SchedConfig::restart(4, 64, 16)).run();
        let h = out.stats.max_level + 1;
        let bound = h * 2 * 64; // h levels * 2 blocks * t_dfe tasks
        assert!(
            out.stats.max_deque_tasks <= bound,
            "deque tasks {} exceed bound {bound}",
            out.stats.max_deque_tasks
        );
    }
}
