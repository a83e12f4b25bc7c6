//! Unit tests of the harness itself: generation is a pure function of the
//! seed, the estimators match hand-computed cases, malformed lines always
//! draw an `ERR`, recorded spans nest, and the code's metric and workload
//! catalogue is the one `BENCHMARK.json` declares.
//!
//! Run with `cargo test --manifest-path benchmark/Cargo.toml`.

use tb_e2e::gen::{
    burst_schedule, lib_stream, malformed_line, variant_source, wire_stream, Args, ErrClass, Rng, Template,
};
use tb_e2e::json;
use tb_e2e::metrics::{Sample, Window, END_TO_END, PER_LAYER};
use tb_e2e::oracle::{response_ok, single_thread_counts, Expect};
use tb_e2e::sizing::{Sizing, BURST_INTER_EVERY, BURST_JOBS, CHURN_HOT_SOURCES, WORKLOADS};
use tb_e2e::stats::{iqr_share, median, percentile_sorted, quartiles};
use tb_e2e::trace::{check_nesting, Span, Tracer};
use tb_service::wire::{parse_request, Request};
use tb_spec::{interpret, parse_spec};

use std::time::Duration;

/// The first `n` requests of a stream as the bytes a client would send.
fn stream_bytes(workload: &str, seed: u64, n: usize) -> Vec<u8> {
    let stream = wire_stream(workload, seed);
    let mut bytes = Vec::new();
    for op in &stream.ops[..n] {
        stream.render(op, &mut bytes);
    }
    bytes
}

#[test]
fn same_seed_gives_byte_identical_request_streams() {
    for workload in ["wire_small", "wire_heavy", "wire_churn"] {
        assert_eq!(stream_bytes(workload, 7, 2000), stream_bytes(workload, 7, 2000), "{workload}");
    }
    assert_ne!(stream_bytes("wire_churn", 7, 2000), stream_bytes("wire_churn", 8, 2000));
    assert_ne!(stream_bytes("wire_small", 7, 2000), stream_bytes("wire_small", 8, 2000));
}

#[test]
fn same_seed_gives_the_same_burst_schedule_and_library_stream() {
    assert_eq!(burst_schedule(3), burst_schedule(3));
    assert_ne!(burst_schedule(3), burst_schedule(4));
    assert_eq!(lib_stream(3, 5), lib_stream(3, 5));
    assert_ne!(lib_stream(3, 5), lib_stream(4, 5));
    for burst in burst_schedule(3) {
        assert_eq!(burst.len(), BURST_JOBS);
        assert_eq!(burst.iter().filter(|j| j.inter).count(), BURST_JOBS.div_ceil(BURST_INTER_EVERY));
    }
    // Every (program, scheduler) pair appears once per round of ten.
    let ops = lib_stream(3, 5);
    for round in ops.chunks_exact(10) {
        let mut seen: Vec<(usize, bool)> = round.iter().map(|op| (op.prog, op.adaptive)).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 10);
    }
}

#[test]
fn churn_stream_has_the_designed_mix() {
    let stream = wire_stream("wire_churn", 1);
    let n = stream.ops.len() as f64;
    let malformed =
        stream.ops.iter().filter(|op| matches!(op.kind, tb_e2e::gen::OpKind::Malformed { .. })).count();
    let cold = stream
        .ops
        .iter()
        .filter(|op| matches!(op.kind, tb_e2e::gen::OpKind::Submit { source, .. } if source as usize >= CHURN_HOT_SOURCES))
        .count();
    assert!((malformed as f64 / n - 0.03).abs() < 0.005, "malformed share {}", malformed as f64 / n);
    assert!((cold as f64 / n - 0.388).abs() < 0.02, "cold share {}", cold as f64 / n);
    // Sources are distinct cache keys within the designed size range, and
    // every one is a single line.
    let mut texts: Vec<&str> = stream.sources.iter().map(|s| s.text.as_str()).collect();
    assert!(texts.iter().all(|t| (300..=3100).contains(&t.len()) && !t.contains('\n')));
    texts.sort_unstable();
    texts.dedup();
    assert_eq!(texts.len(), stream.sources.len());
}

#[test]
fn variants_keep_the_templates_meaning() {
    let mut rng = Rng::new(11, 1);
    for i in 0..40 {
        let fib = parse_spec(&variant_source(Template::Fib, i, 400, &mut rng)).expect("variant parses");
        assert_eq!(interpret(&fib, &[12]), 144);
        let binomial =
            parse_spec(&variant_source(Template::Binomial, i, 900, &mut rng)).expect("variant parses");
        assert_eq!(interpret(&binomial, &[10, 4]), 210);
        let paren =
            parse_spec(&variant_source(Template::Paren(5), i, 300, &mut rng)).expect("variant parses");
        assert_eq!(interpret(&paren, &[0, 0]), 42);
        let treesum =
            parse_spec(&variant_source(Template::Treesum, i, 300, &mut rng)).expect("variant parses");
        assert_eq!(interpret(&treesum, &[1, 0]), 6);
    }
}

#[test]
fn malformed_lines_always_draw_the_expected_err() {
    let stream = wire_stream("wire_churn", 5);
    let mut classes = Vec::new();
    for bad in &stream.malformed {
        assert!(!bad.line.contains('\n'));
        match (parse_request(&bad.line), bad.class) {
            // Refused by the wire layer with a message of the right class.
            (Err(message), class) if class != ErrClass::SpecParse => {
                assert!(class.matches(&message), "{class:?} vs {message:?}");
                assert!(bad.job.is_none());
            }
            // Well framed, but the source it carries does not parse; the
            // runtime's diagnostic is of the class.
            (Ok(Request::Submit { source, args, .. }), ErrClass::SpecParse) => {
                let (damaged, job_args) = bad.job.as_ref().expect("a spec error carries its job");
                assert_eq!(&source, damaged);
                assert_eq!(args, job_args.as_slice());
                let diagnostic = parse_spec(&source).expect_err("damaged source must not parse").to_string();
                assert!(ErrClass::SpecParse.matches(&diagnostic), "{diagnostic:?}");
            }
            (other, class) => panic!("{class:?} line parsed as {other:?}: {:?}", bad.line),
        }
        classes.push(bad.class);
    }
    for class in [ErrClass::UnknownVerb, ErrClass::BadTier, ErrClass::BadArgs, ErrClass::SpecParse] {
        assert!(classes.contains(&class), "{class:?} never generated");
    }
    // A direct draw of every kind, on another seed.
    let mut rng = Rng::new(9, 2);
    let source = "spec fib(n) { base (n < 2) { reduce n; } else { spawn fib(n - 1); spawn fib(n - 2); } }";
    for which in 0..16 {
        let bad = malformed_line(which, "tenant3", Args::one(9), source, &mut rng);
        let refused = match parse_request(&bad.line) {
            Err(message) => bad.class.matches(&message),
            Ok(Request::Submit { source, .. }) => parse_spec(&source).is_err(),
            Ok(_) => false,
        };
        assert!(refused, "{:?}", bad.line);
    }
}

#[test]
fn responses_are_judged_against_the_oracle() {
    assert!(response_ok("OK 17 55", Expect::Value(55)));
    assert!(!response_ok("OK 17 56", Expect::Value(55)));
    assert!(!response_ok("ERR overloaded: every shard at capacity, resubmit later", Expect::Value(55)));
    assert!(!response_ok("OK 17 draining", Expect::Value(55)));
    assert!(response_ok(
        "ERR bad tier \"warp\" (expected auto, scalar or simd)",
        Expect::Err(ErrClass::BadTier)
    ));
    assert!(!response_ok("ERR bad tier \"warp\"", Expect::Err(ErrClass::BadArgs)));
    assert!(!response_ok("OK 3 21", Expect::Err(ErrClass::UnknownVerb)));
}

#[test]
fn single_thread_counts_repeat_and_match_the_recursion() {
    let stats = single_thread_counts(Template::Fib, Args::one(16)).expect("counts repeat");
    assert_eq!(stats.tasks_executed, 3193); // calls made by fib(16)
    let stats = single_thread_counts(Template::Binomial, Args::two(10, 4)).expect("counts repeat");
    assert_eq!(stats.tasks_executed, 2 * 210 - 1);
}

#[test]
fn percentiles_match_hand_computed_cases() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&xs, 50.0), 50.0);
    assert_eq!(percentile_sorted(&xs, 99.0), 99.0);
    assert_eq!(percentile_sorted(&xs, 100.0), 100.0);
    assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
    assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 51.0), 3.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), (2.75, 8.25));
    assert!((iqr_share(&xs) - 1.0).abs() < 1e-12);
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
}

#[test]
fn window_latency_is_the_median_slice_percentile() {
    // Five one-second slices of 2000 samples at 100 µs; the third also
    // holds a stall (100 samples at 10 ms) that must not set the p99.
    let mut samples = Vec::new();
    for slice in 0..5u64 {
        for i in 0..2000u64 {
            samples.push(Sample::new(
                Duration::from_nanos(slice * 1_000_000_000 + i * 400_000),
                Duration::from_micros(100),
                1,
                0,
            ));
        }
    }
    for i in 0..100u64 {
        samples.push(Sample::new(Duration::from_nanos(2_000_000_000 + i), Duration::from_millis(10), 1, 1));
    }
    let window = Window { samples, attempted: 10_100, failed: 0, wall_s: 5.0, cpu_s: 1.0 };
    assert_eq!(window.latency_us(99.0, None), 100.0);
    assert_eq!(window.latency_us(50.0, None), 100.0);
    assert_eq!(window.latency_us(50.0, Some(1)), 10_000.0);
    let e2e = window.end_to_end();
    let get = |name: &str| e2e.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!(get("ops_per_s"), 2020.0);
    assert_eq!(get("tasks_per_s"), 2020.0);
    assert!((get("cpu_us_per_op") - 1e6 / 10_100.0).abs() < 1e-9);
}

#[test]
fn recorded_spans_nest_inside_their_parents() {
    let mut tracer = Tracer::new(true);
    tracer.span("pass", 0, |t| {
        for req in 1..=3u64 {
            t.span("rung", req, |t| {
                t.span("inner", req, |_| std::hint::black_box(req));
            });
        }
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 7);
    check_nesting(spans).expect("recorded spans nest");
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[2].req, 1);
    // The writer emits one complete event per span, parent kept.
    let doc = json::parse(&tracer.chrome_json("test").compact()).expect("trace file parses");
    let events = doc.get("traceEvents").and_then(json::Json::as_arr).expect("traceEvents");
    assert_eq!(events.len(), 7);
    assert_eq!(events[2].get("args").and_then(|a| a.get("parent")).and_then(json::Json::as_f64), Some(1.0));
    assert_eq!(events[2].get("ph").and_then(json::Json::as_str), Some("X"));

    // With recording off nothing is kept, but durations still come back.
    let mut off = Tracer::new(false);
    let ((), ns) = off.span("rung", 1, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
    assert!(ns >= 2_000_000);
    assert!(off.spans().is_empty());
}

#[test]
fn nesting_check_rejects_broken_traces() {
    let span = |start_ns, end_ns, req, parent| Span { name: "s", start_ns, end_ns, req, parent };
    assert!(check_nesting(&[span(0, 10, 1, None), span(2, 8, 1, Some(0))]).is_ok());
    assert!(
        check_nesting(&[span(0, 10, 1, None), span(2, 12, 1, Some(0))]).is_err(),
        "child outlives parent"
    );
    assert!(check_nesting(&[span(0, 10, 1, None), span(2, 8, 2, Some(0))]).is_err(), "other request");
    assert!(
        check_nesting(&[span(0, 10, 0, None), span(2, 8, 2, Some(0))]).is_ok(),
        "pass spans hold any request"
    );
    assert!(
        check_nesting(&[span(2, 8, 1, Some(1)), span(0, 10, 1, None)]).is_err(),
        "parent must come first"
    );
    assert!(check_nesting(&[span(5, 4, 1, None)]).is_err(), "ends before it starts");
}

#[test]
fn json_round_trips() {
    let doc = json::Json::obj([
        ("text", json::Json::str("a \"quoted\" line\nwith \\ and \t")),
        ("value", json::Json::Num(1234.56789012345)),
        ("list", json::Json::Arr(vec![json::Json::Num(1.0), json::Json::Null, json::Json::Bool(true)])),
    ]);
    assert_eq!(json::parse(&doc.compact()).unwrap(), doc);
    assert_eq!(json::parse(&doc.pretty()).unwrap(), doc);
    assert!(json::parse("{\"a\": 1,}").is_err());
    assert!(json::parse("[1, 2").is_err());
}

#[test]
fn pool_workers_never_exceed_the_cores_they_are_given() {
    for nproc in 2..=16 {
        let sizing = Sizing::derive(nproc);
        assert!(!sizing.oversubscribed(), "nproc {nproc}");
        assert!(sizing.shards * sizing.threads_per_shard <= nproc);
        assert_eq!(sizing.pool_workers, nproc);
        // Enough closed-loop callers to keep every core busy, within the
        // server's 64-connection cap with room for the ladder's own.
        assert!(sizing.conns >= 4 * nproc.min(8) && sizing.conns <= 32);
    }
    // One core cannot hold the two-shard production shape.
    assert!(Sizing::derive(1).oversubscribed());
}

#[test]
fn benchmark_json_declares_what_the_code_measures() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc =
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap();
    let names = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(json::Json::as_arr)
            .expect("a list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let own = |defs: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        defs.iter().map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(name, _, _)| name).collect();
    assert_eq!(workloads, WORKLOADS);
    for m in doc.get("end_to_end").and_then(json::Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(json::Json::as_f64).expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
}
