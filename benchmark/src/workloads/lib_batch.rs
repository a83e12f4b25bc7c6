//! `lib_batch`: the library path, no service. A seeded shuffle of native
//! suite programs run through `Benchmark::blocked_par` on one pool of
//! `nproc` workers, alternating the `Adaptive` and `RestartSimplified`
//! schedulers — all the work is in `tb-core` schedulers, `tb-runtime`
//! deques and steals, and `tb-suite` / `tb-simd` kernels.

use std::time::Instant;

use tb_core::{SchedConfig, SchedulerKind};
use tb_runtime::{PoolMetrics, ThreadPool};
use tb_suite::binomial::Binomial;
use tb_suite::fib::Fib;
use tb_suite::knn::Knn;
use tb_suite::nqueens::NQueens;
use tb_suite::uts::Uts;
use tb_suite::{Benchmark, Outcome, RunSummary, Scale, Tier};

use super::Workload;
use crate::gen::{lib_stream, LibOp};
use crate::ladder::{fill_steals, ExecCounts, Tally, NO_REQUEST};
use crate::metrics::{Layers, Sample, Window};
use crate::sizing::*;
use crate::stats::{geomean, median, ratio};
use crate::sys::process_cpu_s;
use crate::trace::Tracer;

struct Program {
    bench: Box<dyn Benchmark>,
    /// The plain serial recursion's answer (the paper's `Ts` program).
    expected: Outcome,
    /// Tasks the blocked program executes, from two single-thread runs
    /// that agreed exactly.
    tasks: u64,
}

impl Program {
    fn cfg(&self, adaptive: bool) -> (SchedConfig, SchedulerKind) {
        let q = self.bench.q();
        if adaptive {
            (SchedConfig::adaptive(q), SchedulerKind::Adaptive)
        } else {
            (SchedConfig::restart(q, LIB_T_DFE, LIB_T_RESTART), SchedulerKind::RestartSimplified)
        }
    }

    fn verify(&self, got: &Outcome) -> bool {
        got.matches(&self.expected, self.bench.tolerance())
    }
}

pub struct LibBatch {
    pool: ThreadPool,
    programs: Vec<Program>,
    ops: Vec<LibOp>,
    next: usize,
    last_steals: PoolMetrics,
    ladder_next: usize,
    tally: Tally,
}

impl LibBatch {
    pub fn set_up(seed: u64, sizing: Sizing) -> Result<Self, String> {
        let (b0, m, q, uts_seed) = LIB_UTS;
        let benches: Vec<Box<dyn Benchmark>> = vec![
            Box::new(Fib { n: LIB_FIB_N }),
            Box::new(Binomial { n: LIB_BINOMIAL.0, k: LIB_BINOMIAL.1 }),
            Box::new(NQueens { n: LIB_NQUEENS_N }),
            Box::new(Uts { b0, m, q, seed: uts_seed }),
            Box::new(Knn::new(Scale::Small)),
        ];
        let programs = benches
            .into_iter()
            .map(|bench| {
                let expected = bench.serial().outcome;
                let cfg = SchedConfig::restart(bench.q(), LIB_T_DFE, LIB_T_RESTART);
                let (a, b) = (bench.blocked_seq(cfg, Tier::Simd), bench.blocked_seq(cfg, Tier::Simd));
                if (a.stats.tasks_executed, a.stats.supersteps)
                    != (b.stats.tasks_executed, b.stats.supersteps)
                {
                    return Err(format!("{}: single-thread tasks/supersteps do not repeat", bench.name()));
                }
                if !a.outcome.matches(&expected, bench.tolerance()) {
                    return Err(format!("{}: blocked run disagrees with the serial recursion", bench.name()));
                }
                Ok(Program { tasks: a.stats.tasks_executed, bench, expected })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut lib = LibBatch {
            pool: ThreadPool::new(sizing.pool_workers),
            ops: lib_stream(seed, programs.len()),
            programs,
            next: 0,
            last_steals: PoolMetrics::default(),
            ladder_next: 0,
            tally: Tally::default(),
        };
        let warm = lib.drive(|done, _| done >= LIB_WARMUP_OPS);
        if warm.failed > 0 {
            return Err(format!("{} of {} warm-up ops failed", warm.failed, warm.attempted));
        }
        Ok(lib)
    }

    /// Run ops one after another (each fans out over the pool) until
    /// `stop(ops done, seconds elapsed)`.
    fn drive(&mut self, stop: impl Fn(usize, f64) -> bool) -> Window {
        let mut window = Window::default();
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        while !stop(window.attempted as usize, start.elapsed().as_secs_f64()) {
            let op = self.ops[self.next];
            self.next = (self.next + 1) % self.ops.len();
            let program = &self.programs[op.prog];
            let (cfg, kind) = program.cfg(op.adaptive);
            let began = Instant::now();
            let summary = program.bench.blocked_par(&self.pool, cfg, kind, Tier::Simd);
            let done = Instant::now();
            window.attempted += 1;
            if program.verify(&summary.outcome) {
                window.samples.push(Sample::new(done - start, done - began, program.tasks, 0));
            } else {
                window.failed += 1;
            }
        }
        window.wall_s = start.elapsed().as_secs_f64();
        window.cpu_s = process_cpu_s() - cpu0;
        window
    }
}

impl Workload for LibBatch {
    fn window(&mut self, seconds: f64) -> Result<Window, String> {
        let before = self.pool.metrics();
        let window = self.drive(|_, elapsed| elapsed >= seconds);
        self.last_steals = self.pool.metrics().since(&before);
        let injector = self.pool.injector_metrics();
        if injector.full_waits != 0 {
            return Err(format!("conservation breach: injector.full_waits == {}", injector.full_waits));
        }
        Ok(window)
    }

    fn counters(&mut self, layers: &mut Layers) -> Result<(), String> {
        fill_steals(&self.last_steals, layers);
        let injector = self.pool.injector_metrics();
        layers.set("runtime.injector.full_waits", injector.full_waits as f64);
        layers.set("runtime.injector.segments_allocated", injector.segments_allocated as f64);
        layers.set("runtime.injector.segments_recycled", injector.segments_recycled as f64);
        Ok(())
    }

    /// The ladder: the same ops as the plain recursion, the single-thread
    /// blocked engine and the multicore scheduler, with the per-task
    /// Cilk-style program beside them. Rung by rung, so the pool is asleep
    /// while the single-thread rungs run.
    fn ladder(&mut self, tracer: &mut Tracer, ladder_ops: usize, layers: &mut Layers) -> Result<f64, String> {
        let ops: Vec<LibOp> =
            (self.ladder_next..self.ladder_next + ladder_ops).map(|i| self.ops[i % self.ops.len()]).collect();
        self.ladder_next += ladder_ops;
        let (programs, pool) = (&self.programs, &self.pool);
        let mut tally = Tally::default();
        let mut counts = ExecCounts::default();
        // One pass: per op a span named `rung` around `run`, whose outcome
        // is verified; returns each call's nanoseconds.
        let mut pass = |rung: &'static str, run: &mut dyn FnMut(&Program, LibOp) -> RunSummary| -> Vec<f64> {
            tracer
                .span("ladder.pass", NO_REQUEST, |t| {
                    ops.iter()
                        .enumerate()
                        .map(|(i, &op)| {
                            let program = &programs[op.prog];
                            let (summary, ns) = t.span(rung, i as u64 + 1, |_| run(program, op));
                            tally.check(program.verify(&summary.outcome));
                            ns as f64
                        })
                        .collect()
                })
                .0
        };
        let began = Instant::now();
        let serial = pass("suite.serial", &mut |p, _| p.bench.serial());
        let seq = pass("core.seq", &mut |p, op| {
            let summary = p.bench.blocked_seq(p.cfg(op.adaptive).0, Tier::Simd);
            counts.add(&summary.stats);
            summary
        });
        let par = pass("core.par", &mut |p, op| {
            let (cfg, kind) = p.cfg(op.adaptive);
            p.bench.blocked_par(pool, cfg, kind, Tier::Simd)
        });
        let cilk = pass("suite.cilk", &mut |p, _| p.bench.cilk(pool));
        let replay_s = began.elapsed().as_secs_f64();
        self.tally.add(tally);

        let tasks: Vec<f64> = ops.iter().map(|op| programs[op.prog].tasks as f64).collect();
        let per_task = |ns: &[f64]| ratio(ns.iter().sum(), tasks.iter().sum());
        layers.set("suite.serial_ns_per_task", per_task(&serial));
        layers.set("core.sched.seq_ns_per_task", per_task(&seq));
        layers.set("core.sched.par_ns_per_task", per_task(&par));
        layers.set("core.sched.par_gain", ratio(seq.iter().sum(), par.iter().sum()));
        layers.set("suite.cilk_ns_per_task", per_task(&cilk));
        // ns per task of the multicore rung under one scheduler.
        let under = |adaptive: bool| {
            let picked = || ops.iter().enumerate().filter(move |(_, op)| op.adaptive == adaptive);
            ratio(picked().map(|(i, _)| par[i]).sum(), picked().map(|(i, _)| tasks[i]).sum())
        };
        layers.set("core.sched.adaptive_over_restart", ratio(under(false), under(true)));
        // The paper's headline: Ts / TP per program, geometric mean.
        let speedups: Vec<f64> = (0..programs.len())
            .filter_map(|prog| {
                let of = |ns: &[f64]| -> Vec<f64> {
                    ops.iter().zip(ns).filter(|(op, _)| op.prog == prog).map(|(_, &ns)| ns).collect()
                };
                let (ts, tp) = (of(&serial), of(&par));
                (!ts.is_empty()).then(|| ratio(median(&ts), median(&tp)))
            })
            .collect();
        layers.set("suite.speedup_vs_serial", geomean(&speedups));
        counts.fill(layers);
        Ok(replay_s)
    }

    fn ladder_tally(&self) -> Tally {
        self.tally
    }
}
