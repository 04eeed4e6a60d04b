//! The structured event log.
//!
//! Events are span edges (`B`egin / `E`nd) or instantaneous `P`oints,
//! stamped by the coordinator thread with the active [`crate::Clock`].
//! The log serializes to JSON-lines — one event per line — and is
//! written through the simulated DFS like any other Graft artifact, so
//! it survives datanode failures with the same guarantees as traces.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Span-edge marker for a begin event.
pub const EDGE_BEGIN: &str = "B";
/// Span-edge marker for an end event (carries `dur`).
pub const EDGE_END: &str = "E";
/// Marker for an instantaneous event.
pub const EDGE_POINT: &str = "P";

/// One entry in the event log.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Timestamp in nanoseconds since the job clock's epoch.
    pub ts: u64,
    /// Event kind, e.g. `superstep`, `phase.compute`, `checkpoint.restore`.
    pub kind: String,
    /// `"B"`, `"E"`, or `"P"` — see the `EDGE_*` constants.
    pub edge: String,
    /// Superstep the event belongs to, if any.
    pub superstep: Option<u64>,
    /// Worker the event belongs to, if any.
    pub worker: Option<u64>,
    /// Span duration in nanoseconds (end events only).
    pub dur: Option<u64>,
    /// Free-form string attributes, sorted by key.
    pub attrs: BTreeMap<String, String>,
}

impl Event {
    /// True for a span end of the given kind.
    pub fn is_end(&self, kind: &str) -> bool {
        self.edge == EDGE_END && self.kind == kind
    }

    /// True for a point event of the given kind.
    pub fn is_point(&self, kind: &str) -> bool {
        self.edge == EDGE_POINT && self.kind == kind
    }

    /// True once per recovery: a full restart's `recovery` point or a
    /// confined recovery's `recovery.confined` span end.
    pub fn is_recovery(&self) -> bool {
        self.is_point("recovery") || self.is_end("recovery.confined")
    }
}

/// An append-only, shareable event log.
#[derive(Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<Event>>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn append(&self, event: Event) {
        self.events.lock().push(event);
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded events, in append order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().clone()
    }
}

/// Serializes events as JSON-lines into `out`, reusing its allocation —
/// the live flush path calls this once per superstep with the same
/// buffer, so steady-state flushes allocate nothing.
pub fn write_jsonl_into(events: &[Event], out: &mut Vec<u8>) {
    for event in events {
        serde_json::to_vec_into(event, out).expect("event serialization is infallible");
        out.push(b'\n');
    }
}

/// Serializes events to JSON-lines (one JSON object per line, trailing
/// newline). Field order is fixed by the struct declaration and `attrs`
/// is a sorted map, so the output is deterministic.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = Vec::new();
    write_jsonl_into(events, &mut out);
    String::from_utf8(out).expect("serde_json emits UTF-8")
}

/// Parses a JSON-lines event log. Blank lines are ignored; any malformed
/// line fails the whole parse with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Event =
            serde_json::from_str(line).map_err(|e| format!("event log line {}: {e:?}", idx + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// Like [`parse_jsonl`], but tolerant of a log caught mid-append: when
/// the *final* line is malformed and the text does not end in a newline
/// (a torn write), that line is skipped and returned as a warning
/// instead of failing the parse. A malformed line anywhere else — or a
/// complete, newline-terminated malformed final line — still fails.
pub fn parse_jsonl_lenient(text: &str) -> Result<(Vec<Event>, Option<String>), String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut events = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Event>(line) {
            Ok(event) => events.push(event),
            Err(e) => {
                let is_final = lines[idx + 1..].iter().all(|l| l.trim().is_empty());
                if is_final && !text.ends_with('\n') {
                    return Ok((
                        events,
                        Some(format!(
                            "event log line {}: skipped torn final line ({} bytes, log still \
                             being written?)",
                            idx + 1,
                            line.len()
                        )),
                    ));
                }
                return Err(format!("event log line {}: {e:?}", idx + 1));
            }
        }
    }
    Ok((events, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ts: u64, kind: &str, edge: &str) -> Event {
        let mut attrs = BTreeMap::new();
        attrs.insert("k".to_string(), "v".to_string());
        Event {
            ts,
            kind: kind.to_string(),
            edge: edge.to_string(),
            superstep: Some(2),
            worker: None,
            dur: if edge == EDGE_END { Some(41) } else { None },
            attrs,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let events = vec![sample(1, "superstep", EDGE_BEGIN), sample(42, "superstep", EDGE_END)];
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let parsed = parse_jsonl(&text).expect("round trip parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_reports_bad_line_number() {
        let mut text = to_jsonl(&[sample(1, "job", EDGE_BEGIN)]);
        text.push_str("{not json\n");
        let err = parse_jsonl(&text).expect_err("malformed line must fail");
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n", to_jsonl(&[sample(1, "job", EDGE_POINT)]));
        assert_eq!(parse_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn write_into_reuses_buffer_and_matches_to_jsonl() {
        let events = vec![sample(1, "superstep", EDGE_BEGIN), sample(9, "superstep", EDGE_END)];
        let mut buf = Vec::with_capacity(1024);
        write_jsonl_into(&events, &mut buf);
        assert_eq!(String::from_utf8(buf.clone()).unwrap(), to_jsonl(&events));
        let cap = buf.capacity();
        buf.clear();
        write_jsonl_into(&events[..1], &mut buf);
        assert_eq!(buf.capacity(), cap, "reuse must not reallocate for smaller batches");
    }

    #[test]
    fn lenient_parse_skips_torn_final_line_only() {
        let good = to_jsonl(&[sample(1, "job", EDGE_BEGIN)]);
        // Torn final line without a trailing newline: skipped + warned.
        let torn = format!("{good}{{\"ts\":2,\"kind\":\"hal");
        let (events, warning) = parse_jsonl_lenient(&torn).expect("lenient parse");
        assert_eq!(events.len(), 1);
        assert!(warning.expect("warning emitted").contains("line 2"));
        // The same garbage newline-terminated is a complete bad line.
        let complete_garbage = format!("{good}{{not json}}\n");
        assert!(parse_jsonl_lenient(&complete_garbage).is_err());
        // Mid-file garbage still fails even without a trailing newline.
        let mid = format!("{{bad}}\n{}", to_jsonl(&[sample(3, "job", EDGE_END)]).trim_end());
        assert!(parse_jsonl_lenient(&mid).is_err());
        // A clean log parses with no warning.
        let (events, warning) = parse_jsonl_lenient(&good).unwrap();
        assert_eq!(events.len(), 1);
        assert!(warning.is_none());
    }
}
