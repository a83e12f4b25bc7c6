//! Layer-alone microbenches: each times calls into one layer's public
//! functions directly, in a batch long enough for a nanosecond figure.
//! They run in every traced pass (they do not depend on the workload), one
//! span per bench.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tb_core::{SharedLeveledDeque, TaskBlock};
use tb_runtime::deque::Worker;
use tb_runtime::injector::Injector;
use tb_runtime::ThreadPool;
use tb_simd::{compact_append_i64, Lanes, Mask};

use crate::ladder::NO_REQUEST;
use crate::metrics::Layers;
use crate::stats::median;
use crate::trace::Tracer;

/// Round trips timed one by one (their median is reported).
const ROUND_TRIPS: usize = 2000;
/// Operations per batch-timed loop.
const BATCH: usize = 200_000;

/// Run every microbench on a pool of `workers` workers.
pub fn run(tracer: &mut Tracer, workers: usize, layers: &mut Layers) {
    tracer.span("micro", NO_REQUEST, |t| {
        let pool = ThreadPool::new(workers);

        // ThreadPool::spawn of an empty job → its completion flag: injector
        // push + worker wake-up, the hand-off every service job pays.
        let ((), _) = t.span("pool.spawn_rtt", NO_REQUEST, |_| {
            let rtts: Vec<f64> = (0..ROUND_TRIPS)
                .map(|_| {
                    let done = Arc::new(AtomicBool::new(false));
                    let flag = Arc::clone(&done);
                    let began = Instant::now();
                    // Release/Acquire: the flag publishes nothing else, but the
                    // pair keeps the wait loop from being hoisted.
                    pool.spawn(move |_| flag.store(true, Ordering::Release));
                    while !done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    began.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            layers.set("runtime.pool.spawn_rtt_us", median(&rtts));
        });

        let ((), _) = t.span("pool.install_rtt", NO_REQUEST, |_| {
            let rtts: Vec<f64> = (0..ROUND_TRIPS)
                .map(|_| {
                    let began = Instant::now();
                    pool.install(|_| black_box(()));
                    began.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            layers.set("runtime.pool.install_rtt_us", median(&rtts));
        });

        let ((), _) = t.span("pool.join", NO_REQUEST, |_| {
            let ns = pool.install(|ctx| {
                let began = Instant::now();
                for _ in 0..BATCH {
                    black_box(ctx.join(|_| black_box(()), |_| black_box(())));
                }
                began.elapsed().as_nanos() as f64
            });
            layers.set("runtime.pool.join_ns", ns / BATCH as f64);
        });

        let ((), ns) = t.span("injector.push_steal", NO_REQUEST, |_| {
            let injector: Injector<usize> = Injector::new();
            for i in 0..BATCH {
                injector.push(black_box(i));
                black_box(injector.steal().success());
            }
        });
        layers.set("runtime.injector.push_steal_ns", ns as f64 / BATCH as f64);

        let deque: Worker<usize> = Worker::new();
        let ((), ns) = t.span("deque.push_pop", NO_REQUEST, |_| {
            for i in 0..BATCH {
                deque.push(black_box(i));
                black_box(deque.pop());
            }
        });
        layers.set("runtime.deque.push_pop_ns", ns as f64 / BATCH as f64);
        let stealer = deque.stealer();
        for i in 0..BATCH {
            deque.push(i);
        }
        let ((), ns) = t.span("deque.steal", NO_REQUEST, |_| {
            for _ in 0..BATCH {
                black_box(stealer.steal().success());
            }
        });
        layers.set("runtime.deque.steal_ns", ns as f64 / BATCH as f64);

        // SharedLeveledDeque: the owner parks a block at a level and takes it
        // back; a thief takes a parked level whole.
        let leveled: SharedLeveledDeque<Vec<u32>> = SharedLeveledDeque::new();
        let block_at = |level: usize| TaskBlock::new(level, vec![level as u32; 8]);
        let ((), ns) = t.span("leveled.push_pop", NO_REQUEST, |_| {
            for i in 0..BATCH {
                leveled.push_dfe(block_at(i % 32));
                black_box(leveled.take_level(i % 32));
            }
        });
        layers.set("core.deque.leveled_push_pop_ns", ns as f64 / BATCH as f64);
        // Steals are timed in rounds over LEVELS pre-parked levels, so the
        // owner's pushes stay outside the clock.
        const LEVELS: usize = 256;
        let ((), _) = t.span("leveled.steal_half", NO_REQUEST, |_| {
            let mut stealing = std::time::Duration::ZERO;
            for _ in 0..BATCH / LEVELS {
                for level in 0..LEVELS {
                    leveled.push_dfe(block_at(level));
                }
                let began = Instant::now();
                for _ in 0..LEVELS {
                    black_box(leveled.steal_half(1));
                }
                stealing += began.elapsed();
            }
            let steals = (BATCH / LEVELS * LEVELS) as f64;
            layers.set("core.deque.leveled_steal_half_ns", stealing.as_nanos() as f64 / steals);
        });

        // Streaming compaction of i64 lanes (the spec vector tier's spawn
        // path): half the lanes kept.
        let src = Lanes::<i64, 8>([1, 2, 3, 4, 5, 6, 7, 8]);
        let mask = Mask::<8>([true, false, true, false, true, false, true, false]);
        let mut out: Vec<i64> = Vec::with_capacity(4 * 1024);
        let ((), ns) = t.span("simd.compact", NO_REQUEST, |_| {
            for i in 0..BATCH {
                if i % 1024 == 0 {
                    out.clear();
                }
                black_box(compact_append_i64(&mut out, black_box(&src), black_box(&mask)));
            }
        });
        layers.set("simd.compact_ns_per_elem", ns as f64 / (BATCH * 8) as f64);
        layers.set("simd.detected_q", tb_simd::detected_q::<i64>() as f64);
        layers.set("spec.lane_width", tb_spec::detected_lane_width() as f64);
    });
}
