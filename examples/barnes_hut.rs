//! An end-to-end Barnes-Hut force pass: the paper's flagship example of
//! *task parallelism nested inside data parallelism* (Fig. 2).
//!
//! Generates a Plummer galaxy, builds the octree substrate, then computes
//! all forces four ways — serial, per-task Cilk, blocked re-expansion, and
//! blocked restart with SIMD kernels — verifying they agree.
//!
//! ```sh
//! cargo run --release --example barnes_hut -- [n_bodies]
//! ```

use taskblocks::prelude::*;
use taskblocks::suite::barneshut::BarnesHut;
use taskblocks::suite::geom::points::plummer_cloud;
use taskblocks::suite::{Benchmark, SchedulerKind, Tier};

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(10_000);
    println!("Barnes-Hut: {n} Plummer-distributed bodies, theta = 0.6");

    let bodies = plummer_cloud(n, 42);
    let bh = BarnesHut::with_bodies(bodies, 0.6);
    println!("octree: {} nodes, depth {}\n", bh.tree().nodes.len(), bh.tree().depth());

    let serial = bh.serial();
    println!(
        "serial:           |F|sum = {}   tasks = {}   {:?}",
        serial.outcome.display(),
        serial.stats.tasks_executed,
        serial.stats.wall
    );

    let workers = std::thread::available_parallelism().map_or(2, usize::from);
    let pool = ThreadPool::new(workers);
    let cilk = bh.cilk(&pool);
    println!(
        "cilk ({workers}w):        |F|sum = {}   steals = {}   {:?}",
        cilk.outcome.display(),
        cilk.stats.steals,
        cilk.stats.wall
    );

    let (block, rb) = (1 << 9, 256);
    let reexp = bh.blocked_par(&pool, SchedConfig::reexpansion(4, block), SchedulerKind::Par, Tier::Simd);
    println!(
        "reexp+SIMD ({workers}w):  |F|sum = {}   util = {:.1}%   {:?}",
        reexp.outcome.display(),
        reexp.stats.simd_utilization() * 100.0,
        reexp.stats.wall
    );

    let restart = bh.blocked_par(&pool, SchedConfig::restart(4, block, rb), SchedulerKind::Par, Tier::Simd);
    println!(
        "restart+SIMD ({workers}w): |F|sum = {}   util = {:.1}%   restarts = {}   {:?}",
        restart.outcome.display(),
        restart.stats.simd_utilization() * 100.0,
        restart.stats.restart_actions,
        restart.stats.wall
    );

    for (name, run) in [("cilk", &cilk), ("reexp", &reexp), ("restart", &restart)] {
        assert!(
            run.outcome.matches(&serial.outcome, 1e-6),
            "{name} disagrees with serial: {:?} vs {:?}",
            run.outcome,
            serial.outcome
        );
    }
    println!("\nall variants agree to 1e-6 relative.");
}
