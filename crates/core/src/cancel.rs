//! Cooperative cancellation for in-flight scheduler runs.
//!
//! A run stops at the superstep seam, the one place the pool driver
//! ([`drive`](crate::par::drive)) already checks between blocks: before
//! each superstep of each running piece it loads the run's
//! [`CancelToken`], and once the token has fired the piece ends
//! [`Outcome::Cancelled`](crate::par::Outcome::Cancelled) without
//! expanding another block. A split run stops piece by piece and the
//! joins fold what the pieces did, so the reported statistics count
//! exactly the blocks `expand` saw. Nothing is drained: the frontier left
//! behind is dropped.
//!
//! The latency is one superstep per running piece, and strip-mining keeps
//! every superstep below `2 × t_dfe` tasks (§3.5, §5.3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared one-way cancellation flag. Cloning is cheap (an `Arc` bump);
/// all clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }
}
