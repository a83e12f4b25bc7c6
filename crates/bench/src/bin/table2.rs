//! Regenerates **Table 2** of the paper: the geometric-mean speedup of
//! each implementation tier — input Cilk program (`scalar`), blocked
//! (`Block`), layout-transformed (`SOA`), vectorized (`SIMD`) — under both
//! the re-expansion and restart schedulers, on 1 worker and on P workers,
//! plus the scalability row (P-worker over 1-worker for the same tier).

use tb_bench::{geomean, paper_block_sizes, HarnessArgs, TableSink};
use tb_core::prelude::SchedConfig;
use tb_runtime::ThreadPool;
use tb_suite::{all_benchmarks, SchedulerKind, Tier};

struct Columns {
    scalar: Vec<f64>,
    tiers: [[Vec<f64>; 3]; 2], // [policy][tier] -> speedups
}

impl Columns {
    fn new() -> Self {
        Columns { scalar: Vec::new(), tiers: Default::default() }
    }
}

fn main() {
    let args = HarnessArgs::parse();
    println!(
        "Table 2 reproduction | scale={} workers={} physical_cores={}\n",
        args.scale_name(),
        args.workers,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let pool1 = ThreadPool::new(1);
    let poolp = ThreadPool::new(args.workers);
    let tiers = [Tier::Block, Tier::Soa, Tier::Simd];
    let mut one = Columns::new();
    let mut par = Columns::new();

    for b in all_benchmarks(args.scale) {
        if !args.selected(b.name()) {
            continue;
        }
        let (block, rb) = paper_block_sizes(b.name());
        let cfgs = [
            SchedConfig::reexpansion(args.bench_q(b.q()), block),
            SchedConfig::restart(args.bench_q(b.q()), block, rb),
        ];
        let ts = b.serial().stats.wall.as_secs_f64();

        one.scalar.push(ts / b.cilk(&pool1).stats.wall.as_secs_f64());
        par.scalar.push(ts / b.cilk(&poolp).stats.wall.as_secs_f64());
        for (p, cfg) in cfgs.iter().enumerate() {
            for (t, tier) in tiers.iter().enumerate() {
                let s1 = b.blocked_seq(*cfg, *tier).stats.wall.as_secs_f64();
                let sp = b.blocked_par(&poolp, *cfg, SchedulerKind::Par, *tier).stats.wall.as_secs_f64();
                one.tiers[p][t].push(ts / s1);
                par.tiers[p][t].push(ts / sp);
            }
        }
        eprintln!("[table2] {} done", b.name());
    }

    let mut sink = TableSink::new(
        &args.out_dir,
        &format!("table2_{}", args.scale_name()),
        &[
            "row",
            "scalar",
            "reexp:Block",
            "reexp:SOA",
            "reexp:SIMD",
            "restart:Block",
            "restart:SOA",
            "restart:SIMD",
        ],
    );
    let fmt = |c: &Columns| -> Vec<String> {
        let mut cells = vec![format!("{:.1}", geomean(&c.scalar))];
        for p in 0..2 {
            for t in 0..3 {
                cells.push(format!("{:.1}", geomean(&c.tiers[p][t])));
            }
        }
        cells
    };
    let one_cells = fmt(&one);
    let par_cells = fmt(&par);
    let scal: Vec<String> = one_cells
        .iter()
        .zip(&par_cells)
        .map(|(a, b)| {
            let (a, b): (f64, f64) = (a.parse().unwrap_or(0.0), b.parse().unwrap_or(0.0));
            if a > 0.0 {
                format!("{:.1}", b / a)
            } else {
                "-".into()
            }
        })
        .collect();
    sink.row([vec!["1-worker".to_string()], one_cells].concat());
    sink.row([vec![format!("{}-worker", args.workers)], par_cells].concat());
    sink.row([vec!["scalability".to_string()], scal].concat());
    sink.finish();
    println!(
        "\npaper (16 workers, paper scale): 1-worker scalar 0.3 | reexp 0.5/0.6/1.9 | restart 0.5/0.6/1.9\n\
         16-worker scalar 4.2 | reexp 6.4/9.5/26.7 | restart 8.2/9.3/26.0"
    );
}
