//! Unbalanced Tree Search under work stealing: the stress test for dynamic
//! load balancing. Prints the tree's shape and how much stealing each
//! scheduler needed to keep the workers busy.
//!
//! ```sh
//! cargo run --release --example uts_explorer
//! ```

use taskblocks::prelude::*;
use taskblocks::suite::uts::Uts;
use taskblocks::suite::{Benchmark, Scale, SchedulerKind, Tier};

fn main() {
    let u = Uts::new(Scale::Small);
    println!("UTS binomial tree: b0={} m={} q={}\n", u.b0, u.m, u.q);

    let serial = u.serial();
    let run = u.blocked_seq(SchedConfig::restart(4, 1 << 11, 1 << 8), Tier::Block);
    println!(
        "tree: {} nodes, {} levels (log2(n) = {:.1} — {}x deeper than balanced)",
        run.stats.tasks_executed,
        run.stats.max_level + 1,
        (run.stats.tasks_executed as f64).log2(),
        ((run.stats.max_level + 1) as f64 / (run.stats.tasks_executed as f64).log2()) as u64
    );
    println!("serial walk: {:?}\n", serial.stats.wall);

    let workers = std::thread::available_parallelism().map_or(2, usize::from);
    let pool = ThreadPool::new(workers);
    println!("{:<30} {:>10} {:>10} {:>9} {:>8}", "scheduler", "wall", "util%", "restarts", "steals");
    for (name, cfg) in [
        ("par re-expansion", SchedConfig::reexpansion(4, 1 << 11)),
        ("par restart (split on demand)", SchedConfig::restart(4, 1 << 11, 1 << 8)),
    ] {
        let out = u.blocked_par(&pool, cfg, SchedulerKind::Par, Tier::Block);
        assert_eq!(out.outcome, serial.outcome, "{name}");
        println!(
            "{:<30} {:>10} {:>10.1} {:>9} {:>8}",
            name,
            format!("{:?}", out.stats.wall),
            out.stats.simd_utilization() * 100.0,
            out.stats.restart_actions,
            out.stats.steals
        );
    }
    println!("\n({workers} workers; every scheduler returns the identical node count.)");
}
