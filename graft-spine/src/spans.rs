//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from outside the product: around each pipeline
//! stage and around each call into a layer's public functions. Nothing
//! here reaches into a product crate. Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{Map, Number, Value};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The round of the measuring loop the span belongs to (0 = outside).
    pub rep: u32,
}

/// Token returned by [`Recorder::enter`]; hand it back to
/// [`Recorder::exit`].
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Records spans while enabled; always measures.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off; timing is returned either way, so
    /// the measured code path is identical in both modes.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle the recorder between top-level spans only");
        self.enabled = enabled;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span that may have children.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start_ns = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans must close innermost first");
            self.spans[index].end_ns = self.spans[index].start_ns + elapsed.as_nanos() as u64;
        }
        elapsed.as_secs_f64()
    }

    /// Times one call as a leaf span; returns its result and seconds.
    pub fn time<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = work();
        (out, self.exit(open))
    }

    /// Records a finished top-level span that began at `start_ns` (from
    /// [`Recorder::now_ns`]) and ends now.
    pub fn record(&mut self, name: &'static str, start_ns: u64) {
        assert!(self.enabled && self.stack.is_empty(), "record() is for top-level spans");
        let end_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns, parent: None, rep: self.rep });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Total length of the union of `intervals` (each `(start, end)`).
fn cover(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps counted
/// once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            children[parent].push((span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| (span.end_ns - span.start_ns).saturating_sub(cover(kids)))
        .collect()
}

/// Share of `[0, wall_ns]` covered by top-level spans, in percent.
pub fn top_level_coverage_pct(spans: &[Span], wall_ns: u64) -> f64 {
    let tops = spans.iter().filter(|s| s.parent.is_none()).map(|s| (s.start_ns, s.end_ns));
    100.0 * cover(tops.collect()) as f64 / wall_ns.max(1) as f64
}

/// The `*.trace.json` document: every span, plus count / total / self
/// time per span name.
pub fn trace_document(spans: &[Span], wall_ns: u64) -> Value {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += self_ns;
    }
    let num = |v: u64| Value::Number(Number::U64(v));
    let layers: Map = by_name
        .into_iter()
        .map(|(name, (count, total, self_ns))| {
            let mut entry = Map::new();
            entry.insert("count".into(), num(count));
            entry.insert("total_ns".into(), num(total));
            entry.insert("self_ns".into(), num(self_ns));
            (name.to_string(), Value::Object(entry))
        })
        .collect();
    let rows: Vec<Value> = spans
        .iter()
        .zip(&selfs)
        .map(|(span, self_ns)| {
            let mut row = Map::new();
            row.insert("name".into(), Value::String(span.name.to_string()));
            row.insert("start_ns".into(), num(span.start_ns));
            row.insert("end_ns".into(), num(span.end_ns));
            row.insert("self_ns".into(), num(*self_ns));
            row.insert("parent".into(), span.parent.map_or(Value::Null, |p| num(p as u64)));
            row.insert("rep".into(), num(u64::from(span.rep)));
            Value::Object(row)
        })
        .collect();
    let mut doc = Map::new();
    doc.insert("wall_ns".into(), num(wall_ns));
    doc.insert(
        "top_level_coverage_pct".into(),
        Value::Number(Number::F64(top_level_coverage_pct(spans, wall_ns))),
    );
    doc.insert("by_name".into(), Value::Object(layers));
    doc.insert("spans".into(), Value::Array(rows));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, rep: 1 }
    }

    #[test]
    fn self_time_subtracts_child_cover_once() {
        let spans = vec![
            span("stage", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10: the union of the two is [10, 60).
            span("b", 30, 60, Some(0)),
            span("leaf", 35, 45, Some(2)),
            // A child that outlives its parent is clipped to it.
            span("late", 90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 20, 10, 40]);
    }

    #[test]
    fn coverage_counts_top_level_spans_only() {
        let spans =
            vec![span("s0", 0, 40, None), span("inner", 5, 10, Some(0)), span("s1", 50, 100, None)];
        assert!((top_level_coverage_pct(&spans, 100) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_disabled() {
        let mut rec = Recorder::new();
        let (value, secs) = rec.time("off", || 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty(), "disabled recorder keeps nothing");

        rec.set_enabled(true);
        rec.set_rep(3);
        let outer = rec.enter("outer");
        rec.time("inner", || ());
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].rep), ("outer", None, 3));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
