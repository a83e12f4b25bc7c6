//! Wire-protocol property and hostility tests.
//!
//! Two layers, matching the module's own split:
//!
//! * **Pure framing** — proptest round-trips over `render_submit` /
//!   `parse_request` / `escape_line`, driven by the shared spec generator
//!   (`tests/common/mod.rs`) so the fuzzed payloads are real programs,
//!   not just token soup.
//! * **A live server** — generated requests over real TCP come back with
//!   the value `tb_spec::interpret` computes for the same program, and
//!   hostile traffic (oversized lines, split frames, interleaved partial
//!   writes, garbage bytes, mid-request disconnects) is answered with
//!   `ERR` or a dropped connection — never a worker panic, and never a
//!   leaked gate slot or placement booking, which the quiescence check at
//!   the end of every server test proves from rolled-up snapshots.

use std::io::Write;
use std::net::TcpStream;

use proptest::prelude::*;
use tb_service::wire::{
    client_roundtrip, escape_line, parse_request, read_final_response, render_submit, unescape_line, Request,
    ServerHandle, WireServer, MAX_LINE_BYTES,
};
use tb_service::{PlacementPolicy, ShardConfig, ShardSnapshot, ShardedRuntime};
use tb_spec::{interpret, parse_spec, SpecTier};

#[path = "../../../tests/common/mod.rs"]
mod common;

fn arb_tier() -> impl Strategy<Value = SpecTier> {
    (0u8..3).prop_map(|t| match t {
        0 => SpecTier::Auto,
        1 => SpecTier::Scalar,
        _ => SpecTier::Simd,
    })
}

fn arb_tenant() -> impl Strategy<Value = String> {
    (0u32..6, any::<bool>()).prop_map(|(i, dash)| if dash { format!("client-{i}") } else { format!("t_{i}") })
}

/// A generated (source, root-args, expected-value) triple: a real,
/// terminating spec program rendered back to surface syntax.
fn arb_program() -> impl Strategy<Value = (String, Vec<i64>, i64)> {
    any::<u64>().prop_map(|seed| {
        let (spec, root) = common::gen_spec(seed);
        let source = common::spec_source(&spec);
        let expected = interpret(&spec, &root);
        (source, root, expected)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render → parse is the identity on every generated request.
    #[test]
    fn submit_round_trips_through_the_framing(
        tenant in arb_tenant(),
        tier in arb_tier(),
        program in arb_program(),
    ) {
        let (source, args, _expected) = program;
        let line = render_submit(&tenant, tier, &args, &source);
        prop_assert!(line.len() <= MAX_LINE_BYTES, "generated programs fit one frame");
        let parsed = parse_request(&line);
        prop_assert_eq!(
            parsed,
            Ok(Request::Submit { tenant, tier, args, source })
        );
    }

    /// The rendered source itself still parses as the same program — the
    /// renderer and the spec parser agree on the grammar.
    #[test]
    fn rendered_source_reparses_to_the_same_semantics(program in arb_program()) {
        let (source, args, expected) = program;
        let spec = parse_spec(&source).expect("rendered source is grammatical");
        prop_assert_eq!(interpret(&spec, &args), expected);
    }

    /// Escaping is injective onto one line and inverts exactly.
    #[test]
    fn escape_round_trips_and_stays_single_line(msg in arb_hostile_text()) {
        let escaped = escape_line(&msg);
        prop_assert!(!escaped.contains('\n') && !escaped.contains('\r'));
        prop_assert_eq!(unescape_line(&escaped), msg);
    }

    /// Arbitrary mutations of a valid line never panic the parser: every
    /// input is either accepted or answered with an error string.
    #[test]
    fn parser_never_panics_on_mutated_lines(
        program in arb_program(),
        cut in any::<u16>(),
        junk in arb_hostile_text(),
    ) {
        let (source, args, _expected) = program;
        let line = render_submit("t", SpecTier::Auto, &args, &source);
        let cut = (cut as usize) % (line.len() + 1);
        // Truncations, splices and pure junk all go through the total
        // function parse_request; the property is simply "it returns".
        let _ = parse_request(&line[..floor_char(&line, cut)]);
        let _ = parse_request(&format!("{}{junk}", &line[..floor_char(&line, cut)]));
        let _ = parse_request(&junk);
    }
}

/// Printable-ish text with embedded newlines, backslashes and wide chars —
/// the shapes that break naive escaping.
fn arb_hostile_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u8..7, any::<u8>()), 0..40).prop_map(|picks| {
        let mut s = String::new();
        for (kind, b) in picks {
            match kind {
                0 => s.push('\n'),
                1 => s.push('\\'),
                2 => s.push('\r'),
                3 => s.push('§'),
                4 => s.push(' '),
                _ => s.push((b'a' + (b % 26)) as char),
            }
        }
        s
    })
}

/// Largest char boundary ≤ `i` (mutation offsets may land mid-codepoint).
fn floor_char(s: &str, mut i: usize) -> usize {
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

// ---------------------------------------------------------------------------
// Live-server tests.
// ---------------------------------------------------------------------------

fn start_server() -> (std::net::SocketAddr, ServerHandle, ShardedRuntime) {
    let rt = ShardedRuntime::with_config(ShardConfig::uniform(2, 1).policy(PlacementPolicy::LeastLoaded));
    let server = WireServer::bind("127.0.0.1:0", rt.clone()).expect("bind loopback");
    let addr = server.local_addr();
    (addr, server.spawn(), rt)
}

/// Drain the server and assert nothing leaked: no gate slot held, no
/// placement booking outstanding, and placement conservation intact.
fn shutdown_and_audit(handle: ServerHandle, rt: &ShardedRuntime) {
    handle.shutdown();
    let snap: ShardSnapshot = rt.snapshot();
    assert_eq!(snap.gate_slots_held(), 0, "drained server holds a gate slot: {snap:?}");
    assert_eq!(snap.inflight(), 0, "drained server still runs a job: {snap:?}");
    let p = snap.placement;
    assert_eq!(p.submitted, p.placed + p.shed + p.rejected, "conservation broke: {p:?}");
    assert_eq!(p.placed + p.shed, p.completed + p.abandoned, "a placement booking leaked: {p:?}");
    assert_eq!(p.abandoned, 0, "the core approved a submission some gate then refused: {p:?}");
}

#[test]
fn generated_programs_round_trip_through_a_live_server() {
    let (addr, handle, rt) = start_server();
    // Deterministic seeds; a failure names the seed in the assert.
    for seed in 0..24u64 {
        let (spec, root) = common::gen_spec(seed);
        let source = common::spec_source(&spec);
        let expected = interpret(&spec, &root);
        let tier = match seed % 3 {
            0 => SpecTier::Auto,
            1 => SpecTier::Scalar,
            _ => SpecTier::Simd,
        };
        let line = render_submit(&format!("fuzz-{}", seed % 5), tier, &root, &source);
        let responses = client_roundtrip(addr, &[line.as_str()]).expect("round trip");
        let response = &responses[0];
        let value = response
            .strip_prefix("OK ")
            .and_then(|r| r.split(' ').nth(1))
            .unwrap_or_else(|| panic!("seed {seed}: expected OK, got {response:?}"));
        assert_eq!(value.parse::<i64>().ok(), Some(expected), "seed {seed} on {source}");
    }
    shutdown_and_audit(handle, &rt);
}

#[test]
fn oversized_line_is_refused_without_harm() {
    let (addr, handle, rt) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A line past MAX_LINE_BYTES with no newline: the server must answer
    // ERR (or reset the connection — ERR-or-drop), not buffer forever.
    // The write itself may fail with a broken pipe once the server slams
    // the door mid-stream; that is the drop outcome, not a test failure.
    let junk = vec![b'x'; MAX_LINE_BYTES + 8 * 1024];
    let wrote = stream.write_all(&junk);
    let final_response = read_final_response(&mut stream).unwrap_or_default();
    assert!(
        final_response.starts_with("ERR ") || final_response.is_empty() || wrote.is_err(),
        "got {final_response:?}"
    );
    drop(stream);

    // The server is still healthy for the next client.
    let ok = client_roundtrip(
        addr,
        &["SUBMIT default auto [3] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); } }"],
    )
    .expect("post-attack round trip");
    assert!(ok[0].starts_with("OK "), "got {:?}", ok[0]);
    shutdown_and_audit(handle, &rt);
}

#[test]
fn garbage_bytes_get_err_or_drop_never_a_panic() {
    let (addr, handle, rt) = start_server();
    let attacks: &[&[u8]] = &[
        b"\xff\xfe\xfd garbage that is not utf8\n",
        b"\x00\x00\x00\x00\n",
        b"SUBMIT \xc3\x28 auto [1] spec\n", // invalid continuation byte
    ];
    for attack in attacks {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(attack).expect("write attack");
        // Half-close: some attacks are valid UTF-8 lines, which get an ERR
        // on a connection the server keeps open — signal end-of-requests
        // so reading to EOF below terminates.
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let response = read_final_response(&mut stream).unwrap_or_default();
        // ERR-or-drop: an empty read means the server just closed, which
        // is also acceptable; a panic would poison the accept loop and
        // fail the healthy-afterwards check below.
        assert!(response.is_empty() || response.starts_with("ERR "), "got {response:?} for {attack:?}");
    }
    let ok = client_roundtrip(addr, &["STATS"]).expect("server alive");
    assert!(ok[0].starts_with("OK "), "got {:?}", ok[0]);
    shutdown_and_audit(handle, &rt);
}

#[test]
fn split_frames_reassemble_into_one_request() {
    let (addr, handle, rt) = start_server();
    let line = "SUBMIT default auto [10] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); spawn f(n - 2); } }\n";
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Dribble the request one fragment at a time, flushing between
    // fragments so each arrives as its own TCP segment.
    for chunk in line.as_bytes().chunks(7) {
        stream.write_all(chunk).expect("write fragment");
        stream.flush().expect("flush fragment");
    }
    let response = read_one_line(&mut stream);
    assert_eq!(response, "OK 1 55", "fib(10) over split frames");
    shutdown_and_audit(handle, &rt);
}

#[test]
fn interleaved_partial_writers_each_get_their_own_answer() {
    let (addr, handle, rt) = start_server();
    let a_line = "SUBMIT alice auto [8] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); spawn f(n - 2); } }\n";
    let b_line = "SUBMIT bob auto [9] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); spawn f(n - 2); } }\n";
    let mut a = TcpStream::connect(addr).expect("connect a");
    let mut b = TcpStream::connect(addr).expect("connect b");
    // Alternate partial writes between the two connections: per-connection
    // framing must keep the interleaved fragments apart.
    let (abytes, bbytes) = (a_line.as_bytes(), b_line.as_bytes());
    let step = 11;
    let mut i = 0;
    while i < abytes.len().max(bbytes.len()) {
        if i < abytes.len() {
            a.write_all(&abytes[i..(i + step).min(abytes.len())]).expect("write a");
        }
        if i < bbytes.len() {
            b.write_all(&bbytes[i..(i + step).min(bbytes.len())]).expect("write b");
        }
        i += step;
    }
    let ra = read_one_line(&mut a);
    let rb = read_one_line(&mut b);
    assert!(ra.starts_with("OK ") && ra.ends_with(" 21"), "fib(8) on a, got {ra:?}");
    assert!(rb.starts_with("OK ") && rb.ends_with(" 34"), "fib(9) on b, got {rb:?}");
    shutdown_and_audit(handle, &rt);
}

#[test]
fn mid_request_disconnect_leaves_the_server_healthy() {
    let (addr, handle, rt) = start_server();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Half a request, then vanish. The torn line must be dropped.
        stream.write_all(b"SUBMIT default auto [20] spec f(n) { base").expect("partial write");
        drop(stream);
    }
    // Also: a *complete* request whose client vanishes before reading the
    // answer — the write fails, the job still completes and retires.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"SUBMIT default auto [5] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); } }\n",
        )
        .expect("full write");
    drop(stream);

    let ok = client_roundtrip(addr, &["SUBMIT default scalar [12] spec f(n) { base (n < 2) { reduce n; } else { spawn f(n - 1); spawn f(n - 2); } }"])
        .expect("server alive after disconnects");
    assert!(ok[0].ends_with(" 144"), "fib(12), got {:?}", ok[0]);
    shutdown_and_audit(handle, &rt);
}

/// `shutdown_and_audit` on its own thread, so a drain that hangs fails the
/// test with a message instead of hanging the suite.
fn shutdown_within(handle: ServerHandle, rt: &ShardedRuntime, limit: std::time::Duration) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let rt = rt.clone();
    let drain = std::thread::spawn(move || {
        shutdown_and_audit(handle, &rt);
        let _ = done_tx.send(());
    });
    done_rx.recv_timeout(limit).unwrap_or_else(|_| panic!("drain did not finish within {limit:?}"));
    drain.join().expect("drain thread");
}

/// A peer that sends half a line and then stalls must not hold the drain
/// hostage: the half-received line is dropped, not waited for.
#[test]
fn stalled_partial_line_does_not_block_shutdown() {
    let (addr, handle, rt) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"SUBMIT t auto [5] spec fib(n)").expect("partial write"); // no newline
    stream.flush().expect("flush");
    // Long enough for the connection thread to have buffered the bytes
    // and gone back to polling; the assertion below does not depend on it.
    std::thread::sleep(std::time::Duration::from_millis(150));
    shutdown_within(handle, &rt, std::time::Duration::from_secs(3));
    drop(stream);
}

/// Without a drain, a partial line that stops making progress is closed
/// after the server's fixed stall limit (2 s) — the peer sees EOF, the
/// slot frees, and the server keeps serving.
#[test]
fn stalled_partial_line_is_closed_and_frees_its_slot() {
    let (addr, handle, rt) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"SUBMIT t auto [5] spec fib(n)").expect("partial write");
    stream.flush().expect("flush");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("set timeout");
    let closed = read_final_response(&mut stream).expect("server closes the stalled connection");
    assert_eq!(closed, "", "a torn request is dropped, not answered");
    let ok = client_roundtrip(addr, &["STATS"]).expect("server alive");
    assert!(ok[0].starts_with("OK "), "got {:?}", ok[0]);
    shutdown_and_audit(handle, &rt);
}

#[test]
fn bad_specs_come_back_as_escaped_caret_diagnostics() {
    let (addr, handle, rt) = start_server();
    let responses = client_roundtrip(
        addr,
        &[
            "SUBMIT default auto [3] spec f(n) { base (n < 2) { reduce n; } else { oops; } }",
            "SUBMIT default auto [3] spec f(n) { base (n < 2) { spawn f(n - 1); } else { reduce n; } }",
        ],
    )
    .expect("round trip");
    for response in &responses {
        assert!(response.starts_with("ERR "), "got {response:?}");
        assert!(!response.contains('\n'), "ERR payload must be one line");
    }
    // The first is a parse error: unescaping restores the multi-line caret
    // rendering with the offending source line and a caret.
    let diag = unescape_line(responses[0].strip_prefix("ERR ").unwrap());
    assert!(diag.contains('\n') && diag.contains('^'), "caret diagnostic survived: {diag:?}");
    shutdown_and_audit(handle, &rt);
}

fn read_one_line(stream: &mut TcpStream) -> String {
    use std::io::{BufRead, BufReader};
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}
