//! The line-delimited TCP front-end over a [`ShardedRuntime`].
//!
//! Spec source text is already the service's serializable, validated,
//! hostile-input-hardened payload (every parse/validate failure is a caret
//! diagnostic, never a worker panic — see DESIGN.md §8), so the wire
//! protocol is deliberately thin: one request per line, one response line
//! per request, UTF-8, `\n`-terminated (`\r\n` tolerated).
//!
//! # Grammar
//!
//! ```text
//! request  := "SUBMIT" SP tenant SP tier SP args SP source
//!           | "STATS"
//!           | "SHUTDOWN"
//! tenant   := 1*64 of [A-Za-z0-9_-]          ; "default" = the built-in tenant
//! tier     := "auto" | "scalar" | "simd"     ; SpecTier
//! args     := "[" [ INT *( "," INT ) ] "]"   ; root call, e.g. [20] or []
//! source   := rest of line                   ; spec-language source text
//!
//! response := "OK" SP job-id SP value        ; value = the spec's reduction
//!           | "OK" SP job-id SP info         ; STATS / SHUTDOWN payloads
//!           | "ERR" SP message               ; message \-escaped onto one line
//! ```
//!
//! Framing limits (hard, enforced before any parsing): a request line
//! longer than [`MAX_LINE_BYTES`] is answered with `ERR` and the
//! connection is closed (no resync scan — an oversized line is either an
//! attack or a broken client); at most [`MAX_TENANTS`] distinct tenant
//! names auto-register (tenants cannot be unregistered, so an unbounded
//! name stream would be a memory leak by protocol); at most
//! [`MAX_CONNECTIONS`] concurrent connections (the next one is refused
//! with `ERR` and closed); a partial line that receives no byte for 2 s
//! closes its connection unanswered (an idle connection *between*
//! requests may wait indefinitely).
//!
//! # Backpressure and shedding
//!
//! Each connection is served **serially**: one in-flight job per
//! connection, response written before the next request is read. A client
//! that wants pipelining opens more connections — up to the cap — so the
//! server's total exposure is bounded by `MAX_CONNECTIONS` jobs plus the
//! per-tenant pending bounds behind them. Submissions take the *shedding* path
//! ([`ShardedRuntime::try_submit_spec_tier_as`]): overflow re-routes to a
//! sibling shard, and only with every shard at capacity does the client
//! get `ERR overloaded` — the server never queues unboundedly on a
//! client's behalf.
//!
//! # Shutdown
//!
//! `SHUTDOWN` answers `OK`, then drains gracefully: the accept loop stops,
//! every connection finishes the request it is currently serving (none of
//! them are abandoned mid-job), and the server joins its threads. A
//! half-received line at drain time is dropped, not answered.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use tb_core::{SchedConfig, SchedulerKind};
use tb_spec::SpecTier;

use crate::handle::JobError;
use crate::sched::TenantId;
use crate::shard::ShardedRuntime;
use crate::DEFAULT_TENANT;

/// Hard cap on one request line, terminator included. Far above the spec
/// parser's own resource caps (1000 nodes ≪ 64 KiB of source), so every
/// legitimate program fits with room to spare.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Distinct tenant names the wire layer will auto-register.
pub const MAX_TENANTS: usize = 64;

/// Concurrent connections served; the next is refused with `ERR`.
pub const MAX_CONNECTIONS: usize = 64;

/// `max_pending` given to auto-registered wire tenants (per shard).
const WIRE_TENANT_PENDING: usize = 64;

/// How often an idle connection wakes to check for server drain.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Consecutive [`IDLE_POLL`]s (2 s) a partial line may go without a new
/// byte before its connection is closed: a peer that sends half a line
/// and stalls must not pin a thread and one of [`MAX_CONNECTIONS`] slots.
const STALL_POLLS: u32 = 80;

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run spec `source` for `tenant` at `tier` with root call `args`.
    Submit {
        /// Tenant name (auto-registered on first use; `"default"` is the
        /// built-in tenant).
        tenant: String,
        /// Execution tier.
        tier: SpecTier,
        /// The root argument tuple.
        args: Vec<i64>,
        /// Spec-language source text.
        source: String,
    },
    /// Report rolled-up shard/placement counters.
    Stats,
    /// Begin graceful drain.
    Shutdown,
}

/// Escape `msg` onto one response line: `\` → `\\`, newline → `\n`,
/// carriage return → `\r`. The caret diagnostics stay multi-line on the
/// client after [`unescape_line`].
pub fn escape_line(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    for c in msg.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape_line`]. A trailing lone backslash is kept literally.
pub fn unescape_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Render a `SUBMIT` line (without the terminating newline). The inverse
/// of [`parse_request`] for valid single-line sources — the round-trip
/// property `tests/wire_proto.rs` fuzzes.
pub fn render_submit(tenant: &str, tier: SpecTier, args: &[i64], source: &str) -> String {
    let tier = match tier {
        SpecTier::Auto => "auto",
        SpecTier::Scalar => "scalar",
        SpecTier::Simd => "simd",
    };
    let args = args.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    format!("SUBMIT {tenant} {tier} [{args}] {source}")
}

fn valid_tenant(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Parse one request line (terminator already stripped; a trailing `\r`
/// is tolerated). Errors are client-facing `ERR` payloads.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut parts = line.splitn(2, ' ');
    let verb = parts.next().unwrap_or("");
    let rest = parts.next();
    match (verb, rest) {
        ("STATS", None) => Ok(Request::Stats),
        ("SHUTDOWN", None) => Ok(Request::Shutdown),
        ("STATS" | "SHUTDOWN", Some(_)) => Err(format!("{verb} takes no operands")),
        ("SUBMIT", Some(rest)) => parse_submit(rest),
        ("SUBMIT", None) => Err("SUBMIT needs: <tenant> <tier> <args> <source>".into()),
        ("", _) => Err("empty request".into()),
        (other, _) => Err(format!("unknown verb {other:?} (expected SUBMIT, STATS or SHUTDOWN)")),
    }
}

fn parse_submit(rest: &str) -> Result<Request, String> {
    let mut parts = rest.splitn(4, ' ');
    let (tenant, tier, args, source) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(t), Some(tier), Some(args), Some(src)) => (t, tier, args, src),
        _ => return Err("SUBMIT needs: <tenant> <tier> <args> <source>".into()),
    };
    if !valid_tenant(tenant) {
        return Err(format!("bad tenant name {tenant:?} (1-64 chars of [A-Za-z0-9_-])"));
    }
    let tier = match tier {
        "auto" => SpecTier::Auto,
        "scalar" => SpecTier::Scalar,
        "simd" => SpecTier::Simd,
        other => return Err(format!("bad tier {other:?} (expected auto, scalar or simd)")),
    };
    let inner = args
        .strip_prefix('[')
        .and_then(|a| a.strip_suffix(']'))
        .ok_or_else(|| format!("bad args {args:?} (expected e.g. [20] or [])"))?;
    let args = if inner.is_empty() {
        Vec::new()
    } else {
        inner
            .split(',')
            .map(|a| a.parse::<i64>().map_err(|_| format!("bad root argument {a:?} (expected i64)")))
            .collect::<Result<Vec<i64>, String>>()?
    };
    if source.trim().is_empty() {
        return Err("empty spec source".into());
    }
    Ok(Request::Submit { tenant: tenant.to_string(), tier, args, source: source.to_string() })
}

struct ServerInner {
    rt: ShardedRuntime,
    listener: TcpListener,
    local_addr: SocketAddr,
    draining: AtomicBool,
    next_job: AtomicU64,
    active_conns: AtomicUsize,
    tenants: Mutex<HashMap<String, TenantId>>,
}

impl ServerInner {
    /// Resolve a wire tenant name to a runtime tenant, auto-registering
    /// up to [`MAX_TENANTS`] names.
    fn resolve_tenant(&self, name: &str) -> Result<TenantId, String> {
        if name == "default" {
            return Ok(DEFAULT_TENANT);
        }
        let mut tenants = self.tenants.lock();
        if let Some(&id) = tenants.get(name) {
            return Ok(id);
        }
        if tenants.len() >= MAX_TENANTS {
            return Err(format!("tenant limit reached ({MAX_TENANTS} names)"));
        }
        let id = self.rt.register_tenant(crate::TenantSpec::new(name, WIRE_TENANT_PENDING));
        tenants.insert(name.to_string(), id);
        Ok(id)
    }

    /// Serve one parsed request, returning the response line (no
    /// terminator).
    fn respond(&self, req: Request) -> String {
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Submit { tenant, tier, args, source } => {
                let tenant = match self.resolve_tenant(&tenant) {
                    Ok(t) => t,
                    Err(e) => return format!("ERR {}", escape_line(&e)),
                };
                let cfg = SchedConfig::restart(8, 1 << 10, 64);
                let handle = match self.rt.try_submit_spec_tier_as(
                    tenant,
                    &source,
                    args,
                    cfg,
                    SchedulerKind::RestartSimplified,
                    tier,
                ) {
                    Ok(h) => h,
                    Err(_) => return "ERR overloaded: every shard at capacity, resubmit later".into(),
                };
                match handle.wait() {
                    Ok(value) => format!("OK {id} {value}"),
                    Err(JobError::Rejected(diag)) => format!("ERR {}", escape_line(&diag)),
                    Err(JobError::Cancelled) => "ERR job cancelled".into(),
                    Err(JobError::Panicked) => "ERR job panicked".into(),
                }
            }
            Request::Stats => {
                let snap = self.rt.snapshot();
                let p = snap.placement;
                format!(
                    "OK {id} shards={} submitted={} placed={} shed={} rejected={} completed={} inflight={}",
                    snap.shards.len(),
                    p.submitted,
                    p.placed,
                    p.shed,
                    p.rejected,
                    snap.completed(),
                    snap.inflight(),
                )
            }
            Request::Shutdown => {
                self.draining.store(true, Ordering::Release);
                format!("OK {id} draining")
            }
        }
    }
}

/// How one framed line read ended.
enum Frame {
    Line(String),
    /// Peer closed or stalled mid-line for [`STALL_POLLS`]: a torn request
    /// is dropped.
    Closed,
    /// Line exceeded [`MAX_LINE_BYTES`].
    TooLong,
    /// The line was not UTF-8.
    NotUtf8,
    /// Server drain began before a whole line arrived.
    Draining,
}

/// Read one `\n`-terminated line with a hard length cap, polling the
/// drain flag while no byte arrives. The reader carries a read timeout
/// (set at connection setup) so a blocking read wakes every [`IDLE_POLL`].
fn read_frame(r: &mut BufReader<TcpStream>, draining: &AtomicBool) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    let mut stalled = 0;
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if draining.load(Ordering::Acquire) {
                    return Ok(Frame::Draining);
                }
                // An empty buffer is an idle keep-alive connection, which
                // may wait indefinitely; a partial line may not.
                if !buf.is_empty() {
                    stalled += 1;
                    if stalled >= STALL_POLLS {
                        return Ok(Frame::Closed);
                    }
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(Frame::Closed);
        }
        stalled = 0;
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (available.len(), false),
        };
        buf.extend_from_slice(&available[..chunk]);
        r.consume(chunk);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(Frame::TooLong);
        }
        if done {
            while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return match String::from_utf8(buf) {
                Ok(line) => Ok(Frame::Line(line)),
                Err(_) => Ok(Frame::NotUtf8),
            };
        }
    }
}

/// Serve one connection until the peer closes, a framing violation
/// closes it, or the server drains.
fn serve_conn(inner: &ServerInner, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        if inner.draining.load(Ordering::Acquire) {
            return;
        }
        let line = match read_frame(&mut reader, &inner.draining) {
            Ok(Frame::Line(line)) => line,
            Ok(Frame::TooLong) => {
                let _ = writeln!(writer, "ERR line exceeds {MAX_LINE_BYTES} bytes");
                return;
            }
            Ok(Frame::NotUtf8) => {
                let _ = writeln!(writer, "ERR request is not UTF-8");
                return;
            }
            Ok(Frame::Closed | Frame::Draining) | Err(_) => return,
        };
        if line.is_empty() {
            continue; // tolerate keep-alive blank lines
        }
        let response = match parse_request(&line) {
            Ok(req) => inner.respond(req),
            Err(e) => format!("ERR {}", escape_line(&e)),
        };
        if writeln!(writer, "{response}").is_err() {
            return;
        }
    }
}

/// A bound, not-yet-serving wire server. [`WireServer::spawn`] starts the
/// accept loop and returns the handle to drain/join it.
pub struct WireServer {
    inner: Arc<ServerInner>,
}

impl WireServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over
    /// `rt`. The runtime may be shared: clones submitted elsewhere keep
    /// working, and its stats include wire traffic.
    pub fn bind(addr: impl ToSocketAddrs, rt: ShardedRuntime) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(WireServer {
            inner: Arc::new(ServerInner {
                rt,
                listener,
                local_addr,
                draining: AtomicBool::new(false),
                next_job: AtomicU64::new(1),
                active_conns: AtomicUsize::new(0),
                tenants: Mutex::new(HashMap::new()),
            }),
        })
    }

    /// The bound address (the resolved port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Start the accept loop on its own thread.
    pub fn spawn(self) -> ServerHandle {
        let inner = Arc::clone(&self.inner);
        let accept = std::thread::Builder::new()
            .name("tb-server-accept".into())
            .spawn(move || accept_loop(&inner))
            .expect("failed to spawn accept thread");
        ServerHandle { inner: self.inner, accept }
    }
}

fn accept_loop(inner: &Arc<ServerInner>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !inner.draining.load(Ordering::Acquire) {
        match inner.listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|h| !h.is_finished());
                if inner.active_conns.load(Ordering::Acquire) >= MAX_CONNECTIONS {
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = writeln!(s, "ERR connection limit reached ({MAX_CONNECTIONS})");
                    continue;
                }
                let _ = stream.set_nonblocking(false);
                inner.active_conns.fetch_add(1, Ordering::AcqRel);
                let inner = Arc::clone(inner);
                let conn = std::thread::Builder::new()
                    .name("tb-server-conn".into())
                    .spawn(move || {
                        serve_conn(&inner, stream);
                        inner.active_conns.fetch_sub(1, Ordering::AcqRel);
                    })
                    .expect("failed to spawn connection thread");
                conns.push(conn);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Graceful drain: every connection finishes its in-flight request.
    for conn in conns {
        let _ = conn.join();
    }
}

/// A running wire server. Dropping the handle detaches (the server keeps
/// serving); call [`ServerHandle::shutdown`] to drain and join.
pub struct ServerHandle {
    inner: Arc<ServerInner>,
    accept: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Has a `SHUTDOWN` request (or [`ServerHandle::shutdown`]) begun the
    /// drain?
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Begin the drain and block until the accept loop and every
    /// connection thread have exited. Panics if the accept thread
    /// panicked — a wire server must never die of a request.
    pub fn shutdown(self) {
        self.inner.draining.store(true, Ordering::Release);
        self.accept.join().expect("accept loop panicked");
    }

    /// Block until a wire `SHUTDOWN` request drains the server.
    pub fn join(self) {
        self.accept.join().expect("accept loop panicked");
    }
}

/// Minimal test/CLI client: connect, send each line, read one response
/// line per request. Used by `tb-server client`, the CI smoke step, and
/// the protocol tests.
pub fn client_roundtrip(addr: impl ToSocketAddrs, lines: &[&str]) -> io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    let mut responses = Vec::with_capacity(lines.len());
    let mut reader = BufReader::new(stream.try_clone()?);
    for line in lines {
        writeln!(stream, "{line}")?;
        stream.flush()?;
        let mut response = String::new();
        if reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection"));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        responses.push(response);
    }
    Ok(responses)
}

/// Read whatever single response the server sends before closing — for
/// clients that expect an `ERR`-then-close (oversized line, bad UTF-8).
pub fn read_final_response(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    Ok(buf.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let line = render_submit(
            "alice",
            SpecTier::Scalar,
            &[20, -3],
            "spec f(n,m) { base (n < 2) { reduce n; } else { spawn f(n - 1, m); } }",
        );
        let req = parse_request(&line).unwrap();
        assert_eq!(
            req,
            Request::Submit {
                tenant: "alice".into(),
                tier: SpecTier::Scalar,
                args: vec![20, -3],
                source: "spec f(n,m) { base (n < 2) { reduce n; } else { spawn f(n - 1, m); } }".into(),
            }
        );
    }

    #[test]
    fn hostile_lines_parse_to_errors() {
        for bad in [
            "",
            "NOPE",
            "SUBMIT",
            "SUBMIT t auto [20]",          // no source
            "SUBMIT t warp [20] spec ...", // bad tier
            "SUBMIT t auto 20 spec ...",   // unbracketed args
            "SUBMIT t auto [a] spec ...",  // non-integer arg
            "SUBMIT bad!name auto [] spec ...",
            "STATS now",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escaping_round_trips() {
        let diag = "parse error at line 2\n  | spawn fib(n - 1)\r\n  | back\\slash ^";
        assert_eq!(unescape_line(&escape_line(diag)), diag);
        assert!(!escape_line(diag).contains('\n'));
    }
}
