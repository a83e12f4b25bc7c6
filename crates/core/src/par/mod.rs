//! The multicore scheduler.
//!
//! [`ParSplit`] runs every policy on the pool: each running piece is one
//! sequential engine over a private leveled deque, under the config's own
//! policy, and a piece splits half of its pending work off (a `join`) only
//! when an idle worker has nothing to take. With nobody hungry it runs at
//! sequential-engine cost. Its loop, [`drive`], is the one superstep seam:
//! it also stops a run whose cancel token fired and parks a run whose
//! preempt flag is set. (It replaced the paper's fork-per-block Cilk
//! embeddings, Fig. 3(a) and 3(c), and the §3.4 restart scheduler on
//! dedicated threads; see DESIGN.md §2.1 and §13.)

#[cfg(test)]
mod restart_ideal;
mod split;

pub use split::{drive, Outcome, ParSplit, Seam};
