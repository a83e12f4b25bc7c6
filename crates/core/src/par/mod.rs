//! Multicore schedulers (§3.4 and §6 of the paper).
//!
//! Two parallel instantiations of the framework:
//!
//! * [`ParSplit`] — every policy on the pool: each running piece is one
//!   sequential engine over a private leveled deque, under the config's
//!   own policy, and a piece splits half of its pending work off (a
//!   `join`) only when an idle worker has nothing to take. With nobody
//!   hungry it runs at sequential-engine cost. Its loop, [`drive`], is
//!   the one superstep seam: it also stops a run whose cancel token fired
//!   and parks a run whose preempt flag is set. (It replaced the paper's
//!   fork-per-block Cilk embeddings, Fig. 3(a) and 3(c); see DESIGN.md
//!   §2.1.)
//! * [`ParRestartIdeal`] — the §3.4 formulation the theory analyses:
//!   dedicated workers, per-worker leveled deques, steals take the top block
//!   of a random victim (possibly yourself), with a bounded BFE burst on
//!   undersized loot.

mod restart_ideal;
mod split;

pub use restart_ideal::ParRestartIdeal;
pub use split::{drive, Outcome, ParSplit, Seam};
