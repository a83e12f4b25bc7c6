//! Schema checker for exported Chrome trace-event JSON — the enforcement
//! half of the `tb-obs` exporter's guarantees. The `trace` binary runs it
//! on every file it writes, and CI's "Trace smoke" step runs that binary on
//! a fresh traced run, so a regression in the exporter (torn pairs, time travel
//! within a track, malformed JSON) fails the build instead of silently
//! producing traces Perfetto renders wrong.
//!
//! Checks, in order:
//!
//! 1. the document parses as JSON and carries a `"traceEvents"` array;
//! 2. every event is an object with a string `"ph"` and numeric
//!    `"pid"`/`"tid"`, and every non-metadata event has a numeric `"ts"`;
//! 3. per `(pid, tid)` track, non-metadata timestamps are non-decreasing
//!    in document order (Perfetto tolerates disorder by re-sorting; we do
//!    not, because our exporter promises sorted tracks);
//! 4. duration events balance per track: every `E` closes an open `B`,
//!    and no `B` is left open at end of document;
//! 5. async events balance per `(cat, id)`: every `e` closes an open `b`,
//!    none left open.

/// What a valid trace contained (for smoke-test assertions and logging).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks that carried at least one event.
    pub tracks: usize,
    /// Complete duration (`B`/`E`) pairs.
    pub duration_pairs: usize,
    /// Complete async (`b`/`e`) pairs.
    pub async_pairs: usize,
    /// Instant (`i`) events.
    pub instants: usize,
}

/// Validate a Chrome trace-event JSON document; `Err` carries the first
/// violation found.
pub fn check_chrome_trace(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("document has no \"traceEvents\" array")?;
    let mut summary = TraceSummary { events: events.len(), ..TraceSummary::default() };
    // (pid, tid) -> (last ts seen, open-B depth)
    let mut tracks: Vec<((u64, u64), f64, usize)> = Vec::new();
    // (cat, id) -> open-b depth
    let mut asyncs: Vec<((String, String), usize)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event {i} has no string \"ph\""))?;
        let pid =
            e.get("pid").and_then(Json::as_f64).ok_or_else(|| format!("event {i} has no numeric \"pid\""))?
                as u64;
        let tid =
            e.get("tid").and_then(Json::as_f64).ok_or_else(|| format!("event {i} has no numeric \"tid\""))?
                as u64;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("event {i} (ph {ph:?}) has no numeric \"ts\""))?;
        let key = (pid, tid);
        let track = match tracks.iter_mut().find(|(k, _, _)| *k == key) {
            Some(t) => t,
            None => {
                tracks.push((key, f64::NEG_INFINITY, 0));
                tracks.last_mut().unwrap()
            }
        };
        if ts < track.1 {
            return Err(format!(
                "event {i}: ts {ts} goes backwards on track pid={pid} tid={tid} (last {})",
                track.1
            ));
        }
        track.1 = ts;
        match ph {
            "B" => track.2 += 1,
            "E" => {
                if track.2 == 0 {
                    return Err(format!("event {i}: \"E\" with no open \"B\" on tid={tid}"));
                }
                track.2 -= 1;
                summary.duration_pairs += 1;
            }
            "b" | "e" => {
                let cat = e.get("cat").and_then(Json::as_str).unwrap_or("").to_string();
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("event {i}: async event without string \"id\""))?
                    .to_string();
                let akey = (cat, id);
                let slot = match asyncs.iter_mut().find(|(k, _)| *k == akey) {
                    Some(s) => s,
                    None => {
                        asyncs.push((akey, 0));
                        asyncs.last_mut().unwrap()
                    }
                };
                if ph == "b" {
                    slot.1 += 1;
                } else {
                    if slot.1 == 0 {
                        return Err(format!(
                            "event {i}: async \"e\" with no open \"b\" for id {:?}",
                            slot.0 .1
                        ));
                    }
                    slot.1 -= 1;
                    summary.async_pairs += 1;
                }
            }
            "i" => summary.instants += 1,
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    if let Some(((pid, tid), _, depth)) = tracks.iter().find(|(_, _, d)| *d != 0) {
        return Err(format!("{depth} \"B\" span(s) left open on track pid={pid} tid={tid}"));
    }
    if let Some(((_, id), depth)) = asyncs.iter().find(|(_, d)| *d != 0) {
        return Err(format!("{depth} async span(s) left open for id {id:?}"));
    }
    summary.tracks = tracks.len();
    Ok(summary)
}

// ---------------------------------------------------------------------------
// A minimal JSON reader (the workspace is offline; serde is not available).
// Covers the full value grammar our own emitters produce: objects, arrays,
// strings with simple escapes, f64 numbers, booleans, null.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 carries our timings and counters losslessly enough).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document.
fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", byte as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    other => return Err(format!("unsupported escape {other:?} at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance over one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrap(events: &str) -> String {
        format!("{{\"traceEvents\":[{events}],\"displayTimeUnit\":\"ms\"}}")
    }

    #[test]
    fn accepts_a_balanced_document() {
        let doc = wrap(
            r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"tb"}},
               {"ph":"B","pid":1,"tid":1,"ts":1.000,"name":"expand q=4","cat":"spec"},
               {"ph":"i","s":"t","pid":1,"tid":1,"ts":1.500,"name":"spawn","cat":"sched"},
               {"ph":"E","pid":1,"tid":1,"ts":2.000,"name":"","cat":"spec"},
               {"ph":"b","pid":1,"tid":1,"ts":3.000,"name":"parked","cat":"job","id":"0x7"},
               {"ph":"e","pid":1,"tid":2,"ts":4.000,"name":"parked","cat":"job","id":"0x7"}"#,
        );
        let s = check_chrome_trace(&doc).expect("valid trace");
        assert_eq!((s.duration_pairs, s.async_pairs, s.instants), (1, 1, 1));
        assert_eq!(s.tracks, 2);
    }

    #[test]
    fn rejects_time_travel_within_a_track() {
        let doc = wrap(
            r#"{"ph":"i","s":"t","pid":1,"tid":1,"ts":5.0,"name":"a","cat":"sched"},
               {"ph":"i","s":"t","pid":1,"tid":1,"ts":4.0,"name":"b","cat":"sched"}"#,
        );
        let err = check_chrome_trace(&doc).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn other_tracks_clocks_are_independent() {
        let doc = wrap(
            r#"{"ph":"i","s":"t","pid":1,"tid":1,"ts":5.0,"name":"a","cat":"sched"},
               {"ph":"i","s":"t","pid":1,"tid":2,"ts":1.0,"name":"b","cat":"sched"}"#,
        );
        check_chrome_trace(&doc).expect("separate tracks never compare timestamps");
    }

    #[test]
    fn rejects_unbalanced_duration_events() {
        let open = wrap(r#"{"ph":"B","pid":1,"tid":1,"ts":1.0,"name":"x","cat":"spec"}"#);
        assert!(check_chrome_trace(&open).unwrap_err().contains("left open"));
        let orphan = wrap(r#"{"ph":"E","pid":1,"tid":1,"ts":1.0,"name":"","cat":"spec"}"#);
        assert!(check_chrome_trace(&orphan).unwrap_err().contains("no open"));
    }

    #[test]
    fn rejects_unbalanced_async_events() {
        let orphan = wrap(r#"{"ph":"e","pid":1,"tid":1,"ts":1.0,"name":"p","cat":"job","id":"0x1"}"#);
        assert!(check_chrome_trace(&orphan).unwrap_err().contains("no open"));
        let open = wrap(r#"{"ph":"b","pid":1,"tid":1,"ts":1.0,"name":"p","cat":"job","id":"0x1"}"#);
        assert!(check_chrome_trace(&open).unwrap_err().contains("left open"));
    }

    #[test]
    fn json_reader_covers_the_value_grammar() {
        let doc = r#"{ "reps": 3, "ok": true, "nothing": null,
            "note": "a \"quoted\" string", "runs": [ { "wall_s": 0.0381 } ] }"#;
        let v = parse_json(doc).expect("parses");
        assert_eq!(v.get("reps").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("nothing"), Some(&Json::Null));
        assert_eq!(v.get("note").unwrap().as_str(), Some("a \"quoted\" string"));
        let runs = v.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs[0].get("wall_s").unwrap().as_f64(), Some(0.0381));
    }

    #[test]
    fn json_reader_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(check_chrome_trace("{").is_err());
        assert!(check_chrome_trace("{}").is_err());
        assert!(check_chrome_trace("{\"traceEvents\":[{\"pid\":1}]}").is_err());
    }
}
