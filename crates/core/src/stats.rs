//! Execution accounting in the paper's machine model.
//!
//! §4 of the paper analyses schedulers on an abstract machine with `P` cores
//! of `Q` SIMD lanes each, counting *steps* (one SIMD instruction worth of
//! work: between 1 and Q tasks) and *supersteps* (the full execution of one
//! task block, `ceil(t/Q)` steps). A step is *complete* when all Q lanes are
//! busy. These counters are exactly what [`ExecStats`] records, so measured
//! executions can be compared directly against the Theorem 1–4 bounds, and
//! Figure 4's "SIMD utilization" can be recomputed from real runs.

use std::time::Duration;

/// Counters for one execution, in the units of the paper's model.
///
/// All schedulers in this crate fill this in; parallel schedulers merge the
/// per-worker copies with [`ExecStats::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// SIMD width `Q` the accounting was done with.
    pub q: u64,
    /// Total tasks (computation-tree nodes) executed.
    pub tasks_executed: u64,
    /// Block executions (supersteps): each BFE/DFE action that ran a block.
    pub supersteps: u64,
    /// Supersteps whose block was smaller than the policy's refill
    /// threshold (`t_restart` for restart schedulers, `t_bfe` otherwise) —
    /// the "partial supersteps" of Lemma 1/2.
    pub partial_supersteps: u64,
    /// SIMD steps: `sum(ceil(t/Q))` over executed blocks. This is the `Ts`
    /// of the theory when every task costs unit time.
    pub simd_steps: u64,
    /// Steps in which all `Q` lanes were busy.
    pub complete_steps: u64,
    /// Steps in which fewer than `Q` lanes were busy (at most one per
    /// superstep — Claim 1).
    pub incomplete_steps: u64,
    /// Tasks that were executed inside complete steps. Figure 4's y-axis
    /// ("%age of tasks that can be vectorized") is this over `tasks_executed`.
    pub tasks_in_complete_steps: u64,
    /// Breadth-first expansion actions taken.
    pub bfe_actions: u64,
    /// Depth-first execution actions taken.
    pub dfe_actions: u64,
    /// Restart actions taken (block parked + deque scan).
    pub restart_actions: u64,
    /// Same-level block merges performed (restart scans, steal installs).
    pub merges: u64,
    /// Steal attempts (parallel schedulers only).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// Frontiers split off to hungry thieves (one per `split_off`).
    pub splits: u64,
    /// High-water mark of blocks parked on the deque(s).
    pub max_deque_blocks: u64,
    /// High-water mark of tasks parked on the deque(s) — the space bound of
    /// Lemma 8 is `h·k·Q` per worker in these units.
    pub max_deque_tasks: u64,
    /// Deepest computation-tree level reached.
    pub max_level: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl ExecStats {
    /// Fresh counters for accounting with SIMD width `q`.
    pub fn new(q: usize) -> Self {
        ExecStats { q: q as u64, ..Self::default() }
    }

    /// Account the execution of a block of `t` tasks (one superstep).
    ///
    /// `partial_below` is the policy's refill threshold; blocks smaller than
    /// it count as partial supersteps.
    #[inline]
    pub fn account_block(&mut self, t: usize, partial_below: usize) {
        debug_assert!(t > 0, "empty blocks are never executed");
        let t = t as u64;
        let q = self.q.max(1);
        let complete = t / q;
        let rem = t % q;
        self.tasks_executed += t;
        self.supersteps += 1;
        if t < partial_below as u64 {
            self.partial_supersteps += 1;
        }
        self.simd_steps += complete + u64::from(rem != 0);
        self.complete_steps += complete;
        self.incomplete_steps += u64::from(rem != 0);
        self.tasks_in_complete_steps += complete * q;
    }

    /// Track deque occupancy high-water marks.
    #[inline]
    pub fn observe_deque(&mut self, blocks: usize, tasks: usize) {
        self.max_deque_blocks = self.max_deque_blocks.max(blocks as u64);
        self.max_deque_tasks = self.max_deque_tasks.max(tasks as u64);
    }

    /// Track the deepest level reached.
    #[inline]
    pub fn observe_level(&mut self, level: usize) {
        self.max_level = self.max_level.max(level as u64);
    }

    /// Figure 4's metric: the fraction of tasks executed in complete SIMD
    /// steps (i.e. with every lane busy). In `[0, 1]`; 0 when nothing ran.
    pub fn simd_utilization(&self) -> f64 {
        if self.tasks_executed == 0 {
            0.0
        } else {
            self.tasks_in_complete_steps as f64 / self.tasks_executed as f64
        }
    }

    /// Fraction of SIMD steps that were complete.
    pub fn step_utilization(&self) -> f64 {
        if self.simd_steps == 0 {
            0.0
        } else {
            self.complete_steps as f64 / self.simd_steps as f64
        }
    }

    /// Average busy lanes per step, normalised by `Q` (lane occupancy).
    pub fn lane_occupancy(&self) -> f64 {
        if self.simd_steps == 0 || self.q == 0 {
            0.0
        } else {
            self.tasks_executed as f64 / (self.simd_steps * self.q) as f64
        }
    }

    /// Merge counters from another worker / phase into `self`.
    ///
    /// Sums the additive counters, maxes the high-water marks, keeps the
    /// larger wall time (workers run concurrently).
    pub fn absorb(&mut self, o: &ExecStats) {
        debug_assert!(self.q == 0 || o.q == 0 || self.q == o.q, "mixing Q widths");
        if self.q == 0 {
            self.q = o.q;
        }
        self.tasks_executed += o.tasks_executed;
        self.supersteps += o.supersteps;
        self.partial_supersteps += o.partial_supersteps;
        self.simd_steps += o.simd_steps;
        self.complete_steps += o.complete_steps;
        self.incomplete_steps += o.incomplete_steps;
        self.tasks_in_complete_steps += o.tasks_in_complete_steps;
        self.bfe_actions += o.bfe_actions;
        self.dfe_actions += o.dfe_actions;
        self.restart_actions += o.restart_actions;
        self.merges += o.merges;
        self.steal_attempts += o.steal_attempts;
        self.steals += o.steals;
        self.splits += o.splits;
        self.max_deque_blocks = self.max_deque_blocks.max(o.max_deque_blocks);
        self.max_deque_tasks = self.max_deque_tasks.max(o.max_deque_tasks);
        self.max_level = self.max_level.max(o.max_level);
        self.wall = self.wall.max(o.wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_block_is_all_complete_steps() {
        let mut s = ExecStats::new(8);
        s.account_block(32, 4);
        assert_eq!(s.supersteps, 1);
        assert_eq!(s.simd_steps, 4);
        assert_eq!(s.complete_steps, 4);
        assert_eq!(s.incomplete_steps, 0);
        assert_eq!(s.partial_supersteps, 0);
        assert!((s.simd_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_block_has_one_incomplete_step() {
        let mut s = ExecStats::new(8);
        s.account_block(21, 4);
        // 2 complete steps of 8 + 1 incomplete step of 5 (Claim 1).
        assert_eq!(s.simd_steps, 3);
        assert_eq!(s.complete_steps, 2);
        assert_eq!(s.incomplete_steps, 1);
        assert_eq!(s.tasks_in_complete_steps, 16);
        assert!((s.simd_utilization() - 16.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_block_counts_partial_superstep() {
        let mut s = ExecStats::new(8);
        s.account_block(3, 4);
        assert_eq!(s.partial_supersteps, 1);
        assert_eq!(s.complete_steps, 0);
        assert_eq!(s.simd_utilization(), 0.0);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = ExecStats::new(4);
        a.account_block(8, 2);
        a.observe_deque(3, 100);
        let mut b = ExecStats::new(4);
        b.account_block(5, 2);
        b.observe_deque(7, 50);
        b.steal_attempts = 9;
        b.splits = 2;
        a.absorb(&b);
        assert_eq!(a.tasks_executed, 13);
        assert_eq!(a.supersteps, 2);
        assert_eq!(a.max_deque_blocks, 7);
        assert_eq!(a.max_deque_tasks, 100);
        assert_eq!(a.steal_attempts, 9);
        assert_eq!(a.splits, 2);
    }

    #[test]
    fn q_one_is_scalar_and_always_complete() {
        let mut s = ExecStats::new(1);
        s.account_block(5, 1);
        assert_eq!(s.simd_steps, 5);
        assert_eq!(s.complete_steps, 5);
        assert!((s.simd_utilization() - 1.0).abs() < 1e-12);
    }
}
