//! End-to-end observability for Graft: a metrics registry, a structured
//! event log, and the superstep profiler.
//!
//! The central handle is [`Obs`]. The engine, the Graft runner, the DFS
//! and the trace sink all record into one shared `Obs`; after the job it
//! exports three artifacts — `events.jsonl` (the span log),
//! `metrics.prom` (Prometheus text exposition) and `metrics.json` —
//! through any [`FileSystem`], including the simulated cluster DFS.
//!
//! Determinism is a design constraint: with [`Obs::deterministic`] the
//! clock is logical (see [`TickClock`]), histograms use fixed bucket
//! boundaries, all storage is ordered, and events are stamped only from
//! the coordinator thread — so two identical seeded runs export
//! byte-identical artifacts, which makes perf regressions diffable.
//!
//! An `Obs` is never optional: [`Obs::off`] is the handle of a job that
//! records nothing. Off, every recording call is one branch — no clock
//! read, no lock, no allocation — and a timer stops at 0.
//!
//! A span is one value: [`Obs::span`] emits its begin event and
//! [`Span::end`] its end event, returning the duration. A span dropped
//! without `end` leaves its begin event unclosed, as a failed phase does.
//!
//! ```
//! use graft_obs::{Obs, Scope};
//!
//! let obs = Obs::deterministic(1_000);
//! let span = obs.span("superstep", Some(0), None);
//! obs.registry().inc("pregel_messages_sent", Scope::superstep(0), 42);
//! assert_eq!(span.end(|| vec![("messages_sent", "42".to_string())]), 1_000);
//! let events = obs.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].dur, Some(1_000));
//! ```

mod clock;
mod dfs;
mod events;
mod export;
mod histogram;
mod live;
mod profile;
mod registry;

pub use clock::{Clock, TickClock, Timer, WallClock};
pub use dfs::DfsMetrics;
pub use events::{
    parse_jsonl, parse_jsonl_lenient, to_jsonl, write_jsonl_into, Event, EventLog, EDGE_BEGIN,
    EDGE_END, EDGE_POINT,
};
pub use export::{escape_label_value, from_json, to_json, to_prometheus};
pub use histogram::{Histogram, HistogramData, BYTE_BUCKETS, TIME_BUCKETS_NANOS};
pub use live::{
    latest_snapshot, snapshot_files, worker_progress, LiveLogReader, LiveSnapshot, LiveWriter,
    StragglerRecord, WorkerProgress, FLUSHES_COUNTER, FLUSH_BYTES_COUNTER, LIVE_DIR,
    SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX, STATUS_FAILED, STATUS_FINISHED, STATUS_RUNNING,
    STRAGGLERS_COUNTER, STRAGGLER_EVENT, TMP_SUFFIX, WATERMARK_EVENT, WATERMARK_GAUGE,
};
pub use profile::{fmt_nanos, PhaseTotal, Profile, RestoreSpan, SuperstepProfile};
pub use registry::{
    CounterEntry, GaugeEntry, HistogramEntry, MetricsRegistry, MetricsSnapshot, Scope, VertexCost,
    TOP_VERTICES_EXPORTED,
};

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use graft_dfs::{FileSystem, FsResult};

/// File name of the JSON-lines event log artifact.
pub const EVENTS_FILE: &str = "events.jsonl";
/// File name of the Prometheus text exposition artifact.
pub const METRICS_PROM_FILE: &str = "metrics.prom";
/// File name of the JSON metrics artifact.
pub const METRICS_JSON_FILE: &str = "metrics.json";

/// The shared observability handle: one clock, one registry, one event
/// log — or, in the off state, none of them.
pub struct Obs {
    /// `None` is the off state.
    clock: Option<Arc<dyn Clock>>,
    registry: MetricsRegistry,
    events: EventLog,
}

impl Obs {
    /// An `Obs` over real wall-clock time.
    pub fn wall() -> Arc<Obs> {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// An `Obs` over a logical clock advancing `step_nanos` per reading:
    /// identical runs export identical bytes.
    pub fn deterministic(step_nanos: u64) -> Arc<Obs> {
        Self::with_clock(Arc::new(TickClock::new(step_nanos)))
    }

    /// An `Obs` over an arbitrary clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Arc<Obs> {
        Arc::new(Obs {
            clock: Some(clock),
            registry: MetricsRegistry::new(),
            events: EventLog::new(),
        })
    }

    /// The handle that records nothing (one shared instance).
    pub fn off() -> Arc<Obs> {
        static OFF: OnceLock<Arc<Obs>> = OnceLock::new();
        Arc::clone(OFF.get_or_init(|| {
            Arc::new(Obs { clock: None, registry: MetricsRegistry::off(), events: EventLog::new() })
        }))
    }

    /// False for [`Obs::off`].
    #[inline]
    pub fn is_on(&self) -> bool {
        self.clock.is_some()
    }

    /// The metrics registry (cheap to clone for worker-side recording).
    #[inline]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Starts a duration measurement safe on any thread.
    #[inline]
    pub fn timer(&self) -> Timer {
        self.clock.as_ref().map_or(Timer::Off, |clock| clock.timer())
    }

    /// Opens a span: emits its begin event now. Coordinator thread only.
    pub fn span<'a>(
        &'a self,
        kind: &'a str,
        superstep: Option<u64>,
        worker: Option<u64>,
    ) -> Span<'a> {
        let begin = self.emit(EDGE_BEGIN, kind, superstep, worker, 0, Vec::new);
        Span { obs: self, kind, superstep, worker, begin }
    }

    /// Emits an instantaneous event. Coordinator thread only.
    pub fn point<'k>(
        &self,
        kind: &str,
        superstep: Option<u64>,
        worker: Option<u64>,
        attrs: impl FnOnce() -> Vec<(&'k str, String)>,
    ) {
        self.emit(EDGE_POINT, kind, superstep, worker, 0, attrs);
    }

    /// Appends one event stamped now and returns the stamp; off, returns
    /// 0 and does nothing else. `attrs` runs only when on, before the
    /// clock is read. An end event's `dur` runs from `begin`.
    fn emit<'k>(
        &self,
        edge: &str,
        kind: &str,
        superstep: Option<u64>,
        worker: Option<u64>,
        begin: u64,
        attrs: impl FnOnce() -> Vec<(&'k str, String)>,
    ) -> u64 {
        let Some(clock) = &self.clock else { return 0 };
        let attrs = attr_map(attrs());
        let ts = clock.now_nanos();
        let dur = (edge == EDGE_END).then(|| ts.saturating_sub(begin));
        let (kind, edge) = (kind.to_string(), edge.to_string());
        self.events.append(Event { ts, kind, edge, superstep, worker, dur, attrs });
        ts
    }

    /// A copy of the recorded events, in append order.
    pub fn events(&self) -> Vec<Event> {
        self.events.snapshot()
    }

    /// A sorted snapshot of the metrics recorded so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Writes the three artifacts (`events.jsonl`, `metrics.prom`,
    /// `metrics.json`) under `dir` on `fs`.
    pub fn write_artifacts(&self, fs: &dyn FileSystem, dir: &str) -> FsResult<()> {
        fs.mkdirs(dir)?;
        fs.write_all(&join(dir, EVENTS_FILE), to_jsonl(&self.events.snapshot()).as_bytes())?;
        write_metrics(fs, dir, &self.registry.snapshot())
    }
}

/// An open span; see [`Obs::span`]. Dropped without [`Span::end`], it
/// emits nothing more.
#[must_use = "a span records its end only through `end`"]
pub struct Span<'a> {
    obs: &'a Obs,
    kind: &'a str,
    superstep: Option<u64>,
    worker: Option<u64>,
    begin: u64,
}

impl Span<'_> {
    /// Emits the end event and returns the span's duration in
    /// nanoseconds (0 when off); `attrs` runs only when on. Coordinator
    /// thread only.
    pub fn end<'k>(self, attrs: impl FnOnce() -> Vec<(&'k str, String)>) -> u64 {
        let Span { obs, kind, superstep, worker, begin } = self;
        obs.emit(EDGE_END, kind, superstep, worker, begin, attrs).saturating_sub(begin)
    }
}

/// Not generic, unlike its callers: one copy of the map's sort code.
fn attr_map(attrs: Vec<(&str, String)>) -> BTreeMap<String, String> {
    attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Writes `metrics.prom` and `metrics.json` for `snapshot` under `dir`.
fn write_metrics(fs: &dyn FileSystem, dir: &str, snapshot: &MetricsSnapshot) -> FsResult<()> {
    fs.write_all(&join(dir, METRICS_PROM_FILE), to_prometheus(snapshot).as_bytes())?;
    fs.write_all(&join(dir, METRICS_JSON_FILE), to_json(snapshot).as_bytes())
}

/// `dir/file`, whether or not `dir` ends in a slash.
fn join(dir: &str, file: &str) -> String {
    if dir.ends_with('/') {
        format!("{dir}{file}")
    } else {
        format!("{dir}/{file}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_dfs::InMemoryFs;

    #[test]
    fn spans_record_begin_end_with_duration() {
        let obs = Obs::deterministic(100);
        let span = obs.span("phase.compute", Some(3), None);
        let dur = span.end(|| vec![("calls", "5".to_string())]);
        assert_eq!(dur, 100);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].edge, EDGE_BEGIN);
        assert_eq!(events[1].dur, Some(100));
        assert_eq!(events[1].attrs["calls"], "5");
    }

    #[test]
    fn a_dropped_span_leaves_its_begin_unclosed() {
        let obs = Obs::deterministic(100);
        drop(obs.span("phase.compute", Some(3), None));
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].edge, EDGE_BEGIN);
    }

    #[test]
    fn the_off_handle_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.is_on());
        let span = obs.span("superstep", Some(0), None);
        assert_eq!(span.end(|| unreachable!("attributes are built only when on")), 0);
        drop(obs.span("phase.compute", Some(0), Some(1)));
        obs.point("recovery", None, None, || unreachable!("attributes are built only when on"));
        assert_eq!(obs.timer().stop(), 0);
        let reg = obs.registry();
        reg.inc("pregel_messages_sent", Scope::superstep(0), 9);
        reg.set_gauge("live_watermark", Scope::GLOBAL, 3);
        reg.max_gauge("pregel_peak_active_vertices", Scope::GLOBAL, 4);
        reg.observe_time("superstep_wall_nanos", Scope::GLOBAL, 50);
        reg.observe_bytes("checkpoint_write_bytes", Scope::GLOBAL, 50);
        reg.record_vertex_compute("7", 50);
        assert!(obs.events().is_empty());
        assert_eq!(obs.metrics(), MetricsSnapshot::default());
        assert_eq!(reg.counter_total("pregel_messages_sent"), 0);
        assert_eq!(reg.gauge_value("live_watermark", Scope::GLOBAL), None);
        // Every `off()` is the same handle, and it stays empty.
        assert!(Arc::ptr_eq(&obs, &Obs::off()));
    }

    #[test]
    fn artifacts_round_trip_through_a_filesystem() {
        let fs = InMemoryFs::new();
        let obs = Obs::deterministic(10);
        let span = obs.span("superstep", Some(0), None);
        obs.registry().inc("pregel_messages_sent", Scope::superstep(0), 9);
        span.end(Vec::new);
        obs.point("recovery", None, None, || vec![("attempt", "1".to_string())]);
        obs.write_artifacts(&fs, "/obs").expect("artifacts write");

        let events_text = String::from_utf8(fs.read_all("/obs/events.jsonl").unwrap()).unwrap();
        let parsed = parse_jsonl(&events_text).expect("event log parses");
        assert_eq!(parsed, obs.events());

        let json_text = String::from_utf8(fs.read_all("/obs/metrics.json").unwrap()).unwrap();
        let snapshot = from_json(&json_text).expect("metrics parse");
        assert_eq!(snapshot, obs.metrics());

        let prom = String::from_utf8(fs.read_all("/obs/metrics.prom").unwrap()).unwrap();
        assert!(prom.contains("graft_pregel_messages_sent{superstep=\"0\"} 9"));
    }

    #[test]
    fn identical_recordings_export_identical_bytes() {
        let record = || {
            let fs = InMemoryFs::new();
            let obs = Obs::deterministic(50);
            for ss in 0..3u64 {
                let span = obs.span("superstep", Some(ss), None);
                obs.registry().inc("pregel_compute_calls", Scope::superstep(ss), 4 + ss);
                obs.registry().observe_time("superstep_wall_nanos", Scope::GLOBAL, 50);
                span.end(|| vec![("messages_sent", ss.to_string())]);
            }
            obs.write_artifacts(&fs, "/obs").unwrap();
            (
                fs.read_all("/obs/events.jsonl").unwrap(),
                fs.read_all("/obs/metrics.prom").unwrap(),
                fs.read_all("/obs/metrics.json").unwrap(),
            )
        };
        assert_eq!(record(), record());
    }
}
