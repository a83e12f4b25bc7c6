//! Multicore schedulers (§3.4 and §6 of the paper).
//!
//! Four parallel instantiations of the framework:
//!
//! * [`ParReExpansion`] — blocked re-expansion as a Cilk program
//!   (Fig. 3(a)): child blocks are forked with `join`, so idle workers steal
//!   whole right-hand blocks.
//! * [`ParRestart`] — restart on the pool: each running piece is one
//!   sequential restart engine over a private leveled deque, and a piece
//!   splits the shallowest half of that deque off (a `join`) only when an
//!   idle worker has nothing to take. With nobody hungry it runs at
//!   sequential-engine cost. (It replaced the paper's Fig. 3(c) embedding,
//!   which forked per block; see DESIGN.md §2.1.)
//! * [`ParRestartIdeal`] — the §3.4 formulation the theory analyses:
//!   dedicated workers, per-worker leveled deques, steals take the top block
//!   of a random victim (possibly yourself), with a bounded BFE burst on
//!   undersized loot.
//! * [`ParAdaptive`] — steal-driven per-worker grain control: the
//!   re-expansion loop with its threshold replaced by a live grain that
//!   grows while the worker's deque stays unstolen and resets when a
//!   thief strikes. No hand-tuned cutoffs.

mod adaptive;
mod common;
mod reexp;
mod restart;
mod restart_ideal;

pub use adaptive::ParAdaptive;
pub use reexp::ParReExpansion;
pub use restart::ParRestart;
pub use restart_ideal::ParRestartIdeal;
