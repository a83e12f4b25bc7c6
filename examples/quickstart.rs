//! Quickstart: define a recursive task-parallel program against the public
//! API and run it under every scheduler the paper defines, printing the
//! machine-model statistics each one produces.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use taskblocks::prelude::*;

/// fib(n), the Fig. 1(a) example: every recursive call is a task; base
/// cases fold into a sum.
struct Fib(u32);

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

fn main() {
    let n = 30;
    let prog = Fib(n);
    let q = 16; // a 128-bit vector of u8-sized tasks
    let block = 1 << 10;

    println!("fib({n}) under every scheduler (Q={q}, t_dfe={block}):\n");
    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>8} {:>9} {:>8}",
        "scheduler", "result", "tasks", "steps", "util%", "restarts", "steals"
    );

    let show = |name: &str, out: RunOutput<u64>| {
        println!(
            "{:<22} {:>12} {:>10} {:>10} {:>8.1} {:>9} {:>8}",
            name,
            out.reducer,
            out.stats.tasks_executed,
            out.stats.simd_steps,
            out.stats.simd_utilization() * 100.0,
            out.stats.restart_actions,
            out.stats.steals,
        );
    };

    show("serial (depth-first)", run_depth_first(&prog));
    // Sequential: run_policy without a pool honours cfg.policy exactly.
    show("basic", run_policy(&prog, SchedConfig::basic(q, block), None));
    show("re-expansion", run_policy(&prog, SchedConfig::reexpansion(q, block), None));
    show("restart", run_policy(&prog, SchedConfig::restart(q, block, 64), None));

    // Parallel: the same entry point with a pool runs the same policy on
    // the pool, split across workers whenever one is hungry.
    let workers = std::thread::available_parallelism().map_or(2, usize::from);
    let pool = ThreadPool::new(workers);
    show(
        &format!("par re-expansion ({workers}w)"),
        run_policy(&prog, SchedConfig::reexpansion(q, block), Some(&pool)),
    );
    show(
        &format!("par restart ({workers}w)"),
        run_policy(&prog, SchedConfig::restart(q, block, 64), Some(&pool)),
    );

    println!(
        "\nNote how restart matches re-expansion's result with equal-or-higher SIMD\n\
         utilization — the paper's Figure 4 effect. Try shrinking `block` to 32."
    );
}
