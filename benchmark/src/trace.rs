//! In-memory span recording for the traced pass, written out as a Chrome
//! trace-event file (loadable in Perfetto / `chrome://tracing`) when the
//! run ends.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around the call into a layer's public entry point. The ladder replays
//! its requests rung by rung: a pass's span is the parent, each call a
//! child carrying its request's id, so the spans of one request across
//! the rungs share an identifier.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request this span belongs to; every span of one request shares
    /// it.
    pub req: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records spans while `recording`; always returns durations, so the same
/// code path runs (and is timed) with tracing off.
pub struct Tracer {
    t0: Instant,
    recording: bool,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer { t0: Instant::now(), recording, spans: Vec::new(), stack: Vec::new() }
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`, as a child of
    /// the innermost open span. Returns `f`'s value and the span's
    /// duration in nanoseconds.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start_ns = self.now_ns();
        let index = if self.recording {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                req,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let value = f(self);
        let end_ns = self.now_ns();
        if let Some(index) = index {
            self.spans[index].end_ns = end_ns;
            self.stack.pop();
        }
        (value, end_ns - start_ns)
    }

    /// The Chrome trace-event document: one complete (`"X"`) event per
    /// span, microsecond timestamps, the request id and parent index in
    /// `args`.
    pub fn chrome_json(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(i as f64)),
                            ("req", Json::Num(s.req as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("displayTimeUnit", Json::str("ns")), ("traceEvents", Json::Arr(events))])
    }
}

/// Check the structure the self-time rule relies on: every span ends no
/// earlier than it starts, names an earlier span as parent, lies inside
/// that parent, and — when the parent belongs to a request (id ≠ 0) —
/// shares its request id.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else { continue };
        let Some(parent) = spans.get(p).filter(|_| p < i) else {
            return Err(format!("span {i} ({}) names a later or missing parent {p}", s.name));
        };
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!("span {i} ({}) is not inside its parent {p} ({})", s.name, parent.name));
        }
        if parent.req != 0 && s.req != parent.req {
            return Err(format!("span {i} ({}) has another request id than its parent", s.name));
        }
    }
    Ok(())
}
