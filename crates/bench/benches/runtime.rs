//! Criterion benches for the work-stealing runtime substrate: fork/join
//! overhead at per-task granularity (the paper's `T1/Ts` overhead column).

use criterion::{criterion_group, criterion_main, Criterion};
use tb_runtime::{ThreadPool, WorkerCtx};

fn fib(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = ctx.join(move |c| fib(c, n - 1), move |c| fib(c, n - 2));
    a + b
}

fn fib_plain(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        fib_plain(n - 1) + fib_plain(n - 2)
    }
}

fn join_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_overhead_fib22");
    g.bench_function("plain_recursion", |b| b.iter(|| fib_plain(22)));
    for workers in [1usize, 2] {
        let pool = ThreadPool::new(workers);
        g.bench_function(format!("per_task_join_w{workers}"), |b| {
            b.iter(|| pool.install(|ctx| fib(ctx, 22)))
        });
    }
    g.finish();
}

criterion_group!(benches, join_overhead);
criterion_main!(benches);
