//! Chrome trace-event JSON export (loads in Perfetto / `chrome://tracing`).
//!
//! Each ring becomes one track (`tid`) inside a single `taskblocks`
//! process. Tier-execution events become duration (`B`/`E`) pairs,
//! park/resume become async (`b`/`e`) spans keyed by job id — a job that
//! crosses park/resume shows up as one horizontal span across supersteps —
//! and everything else becomes thread-scoped instant events. The exporter
//! guarantees what the schema checker demands: per-track timestamps are
//! non-decreasing and every duration/async begin has a matching end
//! (spans still open when the trace stops are closed at the track's last
//! timestamp; ends whose begin was overwritten in the ring are dropped).

use crate::event::{Event, EventKind, Track};

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, as Chrome expects.
fn us(ts_ns: u64) -> String {
    format!("{}.{:03}", ts_ns / 1000, ts_ns % 1000)
}

const PID: u32 = 1;

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Writer {
        Writer { out: String::from("{\"traceEvents\":[\n"), first: true }
    }

    fn push(&mut self, line: String) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(&line);
    }

    fn meta(&mut self, name: &str, tid: u32, value: &str) {
        self.push(format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"{name}\",\"args\":{{\"name\":\"{}\"}}}}",
            escape(value)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.out
    }
}

fn instant(w: &mut Writer, tid: u32, e: &Event) {
    w.push(format!(
        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"sched\",\"args\":{{\"arg0\":{},\"arg\":{}}}}}",
        us(e.ts_ns),
        e.kind.name(),
        e.arg0,
        e.arg
    ));
}

fn duration(w: &mut Writer, tid: u32, ph: char, ts_ns: u64, name: &str, arg0: u32, arg: u64) {
    w.push(format!(
        "{{\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\"cat\":\"spec\",\"args\":{{\"arg0\":{arg0},\"arg\":{arg}}}}}",
        us(ts_ns),
        escape(name)
    ));
}

fn async_ev(w: &mut Writer, tid: u32, ph: char, ts_ns: u64, id: u64) {
    w.push(format!(
        "{{\"ph\":\"{ph}\",\"pid\":{PID},\"tid\":{tid},\"ts\":{},\"name\":\"parked\",\"cat\":\"job\",\"id\":\"0x{id:x}\"}}",
        us(ts_ns)
    ));
}

/// Render drained tracks as a Chrome trace-event JSON document.
pub fn chrome_trace_json(tracks: &[Track]) -> String {
    let mut w = Writer::new();
    w.meta("process_name", 0, "taskblocks");
    for (i, t) in tracks.iter().enumerate() {
        w.meta("thread_name", i as u32 + 1, &t.name);
    }

    // Async park spans are matched by id across all tracks: a job may park
    // on one worker and resume on another. Engine-level ids are task counts
    // (split frontiers), so one id can be open several times at once.
    let mut open_parks: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    let mut trace_last_ts = 0u64;

    for (i, t) in tracks.iter().enumerate() {
        let tid = i as u32 + 1;
        let mut events = t.events.clone();
        events.sort_by_key(|e| (e.ts_ns, e.seq));
        let last_ts = events.last().map(|e| e.ts_ns).unwrap_or(0);
        trace_last_ts = trace_last_ts.max(last_ts);
        // Open B stack for this track (tier spans never cross threads).
        let mut open: Vec<(u64, String, u32)> = Vec::new();
        for e in &events {
            match e.kind {
                EventKind::TierBegin => {
                    let name = format!("expand q={}", e.arg0.max(1));
                    duration(&mut w, tid, 'B', e.ts_ns, &name, e.arg0, e.arg);
                    open.push((e.ts_ns, name, e.arg0));
                }
                EventKind::TierEnd => {
                    // An end whose begin was overwritten in the ring has
                    // nothing to close; drop it to keep pairs balanced.
                    if open.pop().is_some() {
                        duration(&mut w, tid, 'E', e.ts_ns, "", e.arg0, e.arg);
                    }
                }
                EventKind::Park => {
                    async_ev(&mut w, tid, 'b', e.ts_ns, e.arg);
                    open_parks.entry(e.arg).or_default().push(tid);
                    instant(&mut w, tid, e);
                }
                EventKind::Resume => {
                    if open_parks.get_mut(&e.arg).and_then(Vec::pop).is_some() {
                        async_ev(&mut w, tid, 'e', e.ts_ns, e.arg);
                    }
                    instant(&mut w, tid, e);
                }
                _ => instant(&mut w, tid, e),
            }
        }
        // Close spans still open when the trace stopped.
        while open.pop().is_some() {
            duration(&mut w, tid, 'E', last_ts, "", 0, 0);
        }
    }
    for (id, tids) in open_parks {
        for tid in tids {
            async_ev(&mut w, tid, 'e', trace_last_ts, id);
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, ts_ns: u64, kind: EventKind, arg0: u32, arg: u64) -> Event {
        Event { seq, ts_ns, kind, arg0, arg }
    }

    #[test]
    fn emits_valid_shape_and_balances_spans() {
        let tracks = vec![Track {
            name: "tb-worker-0".into(),
            events: vec![
                ev(0, 100, EventKind::StealAttempt, 0, 0),
                ev(1, 200, EventKind::TierBegin, 4, 0),
                ev(2, 900, EventKind::TierEnd, 4, 64),
                ev(3, 1000, EventKind::Park, 0, 7),
                ev(4, 1500, EventKind::Resume, 0, 7),
                // Unclosed tier span: exporter must close it.
                ev(5, 1600, EventKind::TierBegin, 8, 0),
            ],
        }];
        let json = chrome_trace_json(&tracks);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, 2);
        assert_eq!(b, e, "unbalanced duration events:\n{json}");
        let ab = json.matches("\"ph\":\"b\"").count();
        let ae = json.matches("\"ph\":\"e\"").count();
        assert_eq!(ab, ae, "unbalanced async events:\n{json}");
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("tb-worker-0"));
    }

    #[test]
    fn orphan_end_and_orphan_park_are_repaired() {
        let tracks = vec![
            Track {
                name: "w".into(),
                // End without begin (begin overwritten), park without resume.
                events: vec![ev(0, 10, EventKind::TierEnd, 4, 0), ev(1, 20, EventKind::Park, 0, 3)],
            },
            Track {
                name: "v".into(),
                // The same id parked again elsewhere (two split frontiers
                // of equal size) and resumed once: both spans stay closed.
                events: vec![ev(0, 30, EventKind::Park, 0, 3), ev(1, 40, EventKind::Resume, 0, 3)],
            },
        ];
        let json = chrome_trace_json(&tracks);
        assert_eq!(json.matches("\"ph\":\"B\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"E\"").count(), 0);
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 2);
    }
}
