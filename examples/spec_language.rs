//! The §5 specification language end to end: write a recursive program as
//! *text*, parse it, interpret it for reference semantics, then compile it
//! (the generic blocking transformation) and schedule it on every engine —
//! including a data-parallel outer loop that gets strip-mined.
//!
//! ```sh
//! cargo run --release --example spec_language
//! ```

use taskblocks::prelude::*;
use taskblocks::spec::{compile, interpret, parse_spec, CompiledSpec, SpecTier};

fn main() {
    let source = "spec paren(open, close) {
        base (open == 11 && close == 11) { reduce 1; }
        else {
            if (open < 11)     { spawn paren(open + 1, close); }
            if (close < open)  { spawn paren(open, close + 1); }
        }
    }";
    println!("source:\n{source}\n");

    let spec = parse_spec(source).expect("valid spec");
    let reference = interpret(&spec, &[0, 0]);
    println!("interpreter (reference semantics): {reference}  (Catalan(11))");

    // The generic Fig. 1(a) -> Fig. 1(b,c) transformation: any spec is
    // lowered once to a flat register-based instruction stream and becomes
    // one BlockProgram, executed over columnar task stores.
    let code = compile(&spec).expect("valid spec");
    println!("compiled to {} instructions over {} registers:", code.instrs().len(), code.reg_count());
    print!("{}", code.disassemble());
    let prog = CompiledSpec::new(&spec, vec![0, 0]).expect("valid spec");
    for cfg in [
        SchedConfig::basic(16, 1 << 10),
        SchedConfig::reexpansion(16, 1 << 10),
        SchedConfig::restart(16, 1 << 10, 128),
    ] {
        let out = run_policy(&prog, cfg, None);
        println!(
            "compiled {:<8} -> {}   ({} tasks, util {:.1}%)",
            format!("{:?}", cfg.policy),
            out.reducer,
            out.stats.tasks_executed,
            out.stats.simd_utilization() * 100.0
        );
        assert_eq!(out.reducer, reference);
    }

    // §5.2: a data-parallel foreach over initial calls, one task per
    // iteration, strip-mined by the scheduler.
    let calls: Vec<Vec<i64>> = (0..2000).map(|i| vec![i % 8, 0]).collect();
    // 250 copies of each of 8 distinct prefixes: interpret each once.
    let want = 250 * (0..8).map(|open| interpret(&spec, &[open, 0])).sum::<i64>();
    let dp = CompiledSpec::with_data_parallel(&spec, calls).expect("valid spec");
    let pool = ThreadPool::new(std::thread::available_parallelism().map_or(2, usize::from));
    let out = run_policy(&dp, SchedConfig::restart(16, 1 << 9, 64), Some(&pool));
    println!("\nforeach over 2000 partial prefixes, work-stealing restart: {}", out.reducer);
    assert_eq!(out.reducer, want);

    // The service loop: ship *source text* to a shared runtime — parsed,
    // validated, compiled once (cached), scheduled; bad programs come back
    // as located diagnostics instead of worker panics.
    let rt = Runtime::new(2);
    let h = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        source,
        vec![vec![0, 0]],
        SchedConfig::restart(16, 1 << 10, 128),
        SchedulerKind::Par,
        SpecTier::Auto,
    );
    println!("\ntb-service submit_spec_foreach_tier_as -> {:?}", h.wait());
    let bad = rt.submit_spec_foreach_tier_as(
        DEFAULT_TENANT,
        "spec f(n) { base (n < 2) { reduce m; } else { spawn f(n - 1); } }",
        vec![vec![5]],
        SchedConfig::basic(4, 64),
        SchedulerKind::Seq,
        SpecTier::Auto,
    );
    println!(
        "and a rejected source:\n{}",
        match bad.wait() {
            Err(taskblocks::service::JobError::Rejected(msg)) => msg.to_string(),
            other => format!("unexpected: {other:?}"),
        }
    );
}
