//! `wire_small`, `wire_heavy`, `wire_churn`: closed-loop clients over
//! loopback TCP against the real `WireServer` in front of a
//! `ShardedRuntime` of the production shape — the exact path
//! `tb-server serve` takes. The wire protocol is serial per connection, so
//! a connection *is* a closed-loop caller.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tb_service::wire::{ServerHandle, WireServer};
use tb_service::{ShardConfig, ShardedRuntime, TenantId};

use super::{ServiceDelta, Workload};
use crate::gen::{canonical_source, wire_stream, OpKind, Template, WireStream};
use crate::ladder::{service_ladder, LadderEnv, LadderOp, Tally};
use crate::metrics::{Layers, Sample, Window};
use crate::oracle::{response_ok, Expect, SpecOracle};
use crate::sizing::*;
use crate::stats::median;
use crate::sys::process_cpu_s;
use crate::trace::Tracer;

/// Sample slots reserved per connection and second of window; beyond it
/// the vector simply grows.
const MAX_OPS_PER_CONN_PER_S: f64 = 10_000.0;

/// A client that waits longer than this for a reply counts the op as
/// failed and gives the connection up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
    /// Next index into the stream's ops; advances by the connection count.
    next: usize,
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    w.set_nodelay(true).map_err(|e| e.to_string())?;
    w.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
    Ok((w, r))
}

/// Send `line`, read one reply line into `response`.
fn round_trip(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    line: &[u8],
    response: &mut String,
) -> std::io::Result<()> {
    w.write_all(line)?;
    response.clear();
    if r.read_line(response)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// What each op of the stream must come back as, and what it is worth.
struct Verdicts {
    expect: Vec<Expect>,
    tasks: Vec<u64>,
}

/// When a closed-loop drive stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many ops per connection (warm-up).
    Ops(usize),
    /// At the first op boundary past this many seconds (the window).
    Seconds(f64),
}

/// Per-connection outcome of a drive.
#[derive(Default)]
struct Driven {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Verified ops that returned a value / drew the runtime's spec
    /// diagnostic — what the conservation laws are checked against.
    values: u64,
    spec_errors: u64,
}

pub struct Wire {
    sizing: Sizing,
    rt: ShardedRuntime,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    stream: WireStream,
    verdicts: Verdicts,
    /// Runtime tenant id of `stream.tenants[i]`.
    tenant_ids: Vec<TenantId>,
    conns: Vec<Conn>,
    last_delta: ServiceDelta,
    ladder_next: usize,
    tally: Tally,
}

impl Wire {
    pub fn set_up(name: &str, seed: u64, sizing: Sizing) -> Result<Self, String> {
        let stream = wire_stream(name, seed);
        let submits = stream.ops.iter().filter_map(|op| match op.kind {
            OpKind::Submit { source, args } => Some((source, args)),
            OpKind::Malformed { .. } => None,
        });
        let oracle = SpecOracle::build(&stream.sources, submits)?;
        let (expect, tasks) = stream
            .ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Submit { source, args } => {
                    let facts = oracle.facts(source, args);
                    (Expect::Value(facts.value), facts.tasks)
                }
                OpKind::Malformed { index } => (Expect::Err(stream.malformed[index as usize].class), 0),
            })
            .unzip();

        let rt = ShardedRuntime::with_config(ShardConfig::uniform(sizing.shards, sizing.threads_per_shard));
        let server = WireServer::bind("127.0.0.1:0", rt.clone()).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let server = server.spawn();

        // Wire tenants auto-register on first use; touching them in a fixed
        // order from one connection fixes their ids, and with them the
        // shard each one's jobs land on (affinity placement).
        let (mut w, mut r) = connect(addr)?;
        let mut response = String::new();
        let hello = canonical_source(Template::Fib);
        for tenant in &stream.tenants {
            let line = format!("SUBMIT {tenant} auto [1] {hello}\n");
            round_trip(&mut w, &mut r, line.as_bytes(), &mut response)
                .map_err(|e| format!("registering {tenant}: {e}"))?;
            if !response_ok(response.trim_end(), Expect::Value(1)) {
                return Err(format!("registering {tenant}: {response:?}"));
            }
        }
        let tenant_ids: Vec<TenantId> = (1..=stream.tenants.len() as TenantId).collect();
        let registered = rt.snapshot();
        for (name, &id) in stream.tenants.iter().zip(&tenant_ids) {
            if registered.shards[0].tenants.get(id as usize).map(|t| t.name.as_str()) != Some(name) {
                return Err(format!("tenant {name} did not register as id {id}"));
            }
        }

        let mut conns = vec![Conn { w, r, next: 0 }];
        for c in 1..sizing.conns {
            let (w, r) = connect(addr)?;
            conns.push(Conn { w, r, next: c });
        }
        let mut wire = Wire {
            sizing,
            rt,
            server: Some(server),
            addr,
            stream,
            verdicts: Verdicts { expect, tasks },
            tenant_ids,
            conns,
            last_delta: ServiceDelta::default(),
            ladder_next: 0,
            tally: Tally::default(),
        };
        let warm_ops = match name {
            "wire_small" => SMALL_WARMUP_OPS,
            "wire_heavy" => HEAVY_WARMUP_OPS,
            _ => CHURN_WARMUP_OPS,
        };
        let (warm, _, _) = wire.drive(Stop::Ops(warm_ops.div_ceil(sizing.conns)));
        if warm.failed > 0 {
            return Err(format!("{} of {} warm-up ops failed", warm.failed, warm.attempted));
        }
        Ok(wire)
    }

    /// Drive every connection closed-loop until `stop`; all connections
    /// start together. Returns the merged window and how many verified ops
    /// returned a value / drew the runtime's spec diagnostic.
    fn drive(&mut self, stop: Stop) -> (Window, u64, u64) {
        let conns = self.conns.len();
        let barrier = Barrier::new(conns + 1);
        let (stream, verdicts) = (&self.stream, &self.verdicts);
        let cpu0 = process_cpu_s();
        let mut start = Instant::now();
        let driven: Vec<Driven> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drive_conn(conn, conns, stream, verdicts, stop)
                    })
                })
                .collect();
            barrier.wait();
            start = Instant::now();
            handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let mut window = Window { wall_s, cpu_s, ..Window::default() };
        let (mut values, mut spec_errors) = (0, 0);
        for d in driven {
            window.samples.extend(d.samples);
            window.attempted += d.attempted;
            window.failed += d.failed;
            values += d.values;
            spec_errors += d.spec_errors;
        }
        (window, values, spec_errors)
    }

    /// `n` ops of the stream from op `first` on, as ladder requests.
    fn ladder_ops(&self, first: usize, n: usize) -> Vec<LadderOp<'_>> {
        (first..first + n)
            .map(|i| {
                let index = i % self.stream.ops.len();
                let op = &self.stream.ops[index];
                let mut line = Vec::new();
                self.stream.render(op, &mut line);
                let expect = self.verdicts.expect[index];
                let tenant = self.tenant_ids[op.tenant as usize];
                match op.kind {
                    OpKind::Submit { source, args } => LadderOp {
                        line: Some(line),
                        tenant,
                        source: Some((source, self.stream.sources[source as usize].text.as_str())),
                        hot: (source as usize) < self.stream.hot,
                        args: args.as_slice().to_vec(),
                        expect,
                    },
                    OpKind::Malformed { index } => {
                        // A spec-error line still reaches the runtime: the
                        // in-process rungs submit its damaged source.
                        let job = self.stream.malformed[index as usize].job.as_ref();
                        LadderOp {
                            line: Some(line),
                            tenant,
                            source: job.map(|(text, _)| (u32::MAX, text.as_str())),
                            hot: false,
                            args: job.map_or(Vec::new(), |(_, args)| args.as_slice().to_vec()),
                            expect,
                        }
                    }
                }
            })
            .collect()
    }
}

/// One connection's closed loop: render, write, read, verify, record.
fn drive_conn(
    conn: &mut Conn,
    stride: usize,
    stream: &WireStream,
    verdicts: &Verdicts,
    stop: Stop,
) -> Driven {
    let mut out = Driven::default();
    // Reserved up front (untouched pages cost nothing): a vector that grows
    // by doubling would make peak RSS jump with the op count.
    out.samples.reserve(match stop {
        Stop::Ops(n) => n,
        Stop::Seconds(s) => (s * MAX_OPS_PER_CONN_PER_S) as usize,
    });
    let mut line = Vec::with_capacity(4096);
    let mut response = String::with_capacity(256);
    let start = Instant::now();
    loop {
        match stop {
            Stop::Ops(n) if out.attempted as usize >= n => break,
            Stop::Seconds(s) if start.elapsed().as_secs_f64() >= s => break,
            _ => {}
        }
        let index = conn.next;
        conn.next = (conn.next + stride) % stream.ops.len();
        line.clear();
        stream.render(&stream.ops[index], &mut line);
        let sent = Instant::now();
        let io = round_trip(&mut conn.w, &mut conn.r, &line, &mut response);
        let done = Instant::now();
        out.attempted += 1;
        let expect = verdicts.expect[index];
        if io.is_ok() && response_ok(response.trim_end(), expect) {
            out.samples.push(Sample::new(done - start, done - sent, verdicts.tasks[index], 0));
            match expect {
                Expect::Value(_) => out.values += 1,
                Expect::Err(class) => out.spec_errors += u64::from(class.reaches_runtime()),
            }
        } else {
            out.failed += 1;
            if io.is_err() {
                break; // timed out or closed: the connection is unusable
            }
        }
    }
    out
}

impl Workload for Wire {
    fn window(&mut self, seconds: f64) -> Result<Window, String> {
        let before = self.rt.snapshot();
        let (window, values, spec_errors) = self.drive(Stop::Seconds(seconds));
        self.last_delta = ServiceDelta::between(&before, &self.rt.snapshot());
        self.last_delta.check(values, spec_errors)?;
        Ok(window)
    }

    fn counters(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.last_delta.fill(layers);
        layers.set("service.wire.req_bytes_mean", self.stream.mean_request_bytes());

        // Connection set-up: connect + first STATS reply, which includes the
        // server spawning the connection's thread.
        let mut response = String::new();
        let setups: Result<Vec<f64>, String> = (0..20)
            .map(|_| {
                let t = Instant::now();
                let (mut w, mut r) = connect(self.addr)?;
                round_trip(&mut w, &mut r, b"STATS\n", &mut response).map_err(|e| format!("STATS: {e}"))?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        layers.set("service.wire.conn_setup_us", median(&setups?));
        Ok(())
    }

    fn ladder(&mut self, tracer: &mut Tracer, ladder_ops: usize, layers: &mut Layers) -> Result<f64, String> {
        let ops = self.ladder_ops(self.ladder_next, ladder_ops);
        let mut env = LadderEnv { rt: &self.rt, conn: Some(connect(self.addr)?), sizing: self.sizing };
        let (tally, replay_s) = service_ladder(&mut env, &ops, tracer, layers);
        self.ladder_next += ladder_ops;
        self.tally.add(tally);
        Ok(replay_s)
    }

    fn ladder_tally(&self) -> Tally {
        self.tally
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        // Close the clients first so the server's connection threads see
        // EOF, then drain and join the server.
        self.conns.clear();
        if let Some(server) = self.server.take() {
            // `shutdown` panics if the accept loop did; a destructor must
            // not, and the run has already failed in that case.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.shutdown()));
        }
    }
}
