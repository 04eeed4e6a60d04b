//! The metrics registry: counters, gauges, and fixed-bucket histograms,
//! each optionally scoped to a worker and/or a superstep.
//!
//! Storage is ordered (`BTreeMap`, by name and then by scope) and the
//! snapshot is fully sorted, so exports are deterministic byte-for-byte
//! given identical recordings. A metric that already exists is found by
//! its borrowed name, so recording it allocates nothing.
//! All mutation paths are commutative (additions and max/last-write
//! gauges), so concurrent recording from worker threads cannot perturb
//! the exported bytes.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};

use crate::histogram::{Histogram, HistogramData};

/// How many vertices [`MetricsRegistry::snapshot`] keeps in
/// [`MetricsSnapshot::top_vertices`].
pub const TOP_VERTICES_EXPORTED: usize = 64;

/// The (worker, superstep) scope of a metric sample. `None` on both axes
/// is the job-global scope.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Scope {
    /// Worker the sample belongs to, if worker-scoped.
    pub worker: Option<u64>,
    /// Superstep the sample belongs to, if superstep-scoped.
    pub superstep: Option<u64>,
}

impl Scope {
    /// The job-global scope.
    pub const GLOBAL: Scope = Scope { worker: None, superstep: None };

    /// A worker-scoped sample.
    pub fn worker(worker: u64) -> Scope {
        Scope { worker: Some(worker), superstep: None }
    }

    /// A superstep-scoped sample.
    pub fn superstep(superstep: u64) -> Scope {
        Scope { worker: None, superstep: Some(superstep) }
    }

    /// A worker × superstep scoped sample.
    pub fn at(worker: u64, superstep: u64) -> Scope {
        Scope { worker: Some(worker), superstep: Some(superstep) }
    }
}

/// One kind of metric: per name, per scope.
type Metrics<T> = BTreeMap<String, BTreeMap<Scope, T>>;

/// The `(name, scope)` slot of `metrics`, made with `init` if absent: the
/// name is copied only the first time it is recorded.
fn slot<'a, T>(
    metrics: &'a mut Metrics<T>,
    name: &str,
    scope: Scope,
    init: impl FnOnce() -> T,
) -> &'a mut T {
    if !metrics.contains_key(name) {
        metrics.insert(name.to_string(), BTreeMap::new());
    }
    let scopes = metrics.get_mut(name).expect("inserted above");
    scopes.entry(scope).or_insert_with(init)
}

/// Every `(name, scope, value)` of `metrics`, sorted by name, then scope.
fn entries<T>(metrics: &Metrics<T>) -> impl Iterator<Item = (&String, &Scope, &T)> {
    metrics.iter().flat_map(|(name, scopes)| scopes.iter().map(move |(s, v)| (name, s, v)))
}

#[derive(Default)]
struct Inner {
    counters: Metrics<u64>,
    gauges: Metrics<i64>,
    histograms: Metrics<Histogram>,
    /// Per-vertex accumulated compute cost, keyed by the vertex's
    /// `Display` form.
    vertex_nanos: BTreeMap<String, VertexCost>,
}

/// Cheap-to-clone handle to a shared metrics store — or to none, in an
/// off `Obs`, where every call returns after one branch.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { inner: Some(Arc::default()) }
    }

    /// The registry of an off `Obs`: records nothing, reads empty.
    pub(crate) fn off() -> Self {
        Self { inner: None }
    }

    /// The store, locked; `None` when off.
    fn lock(&self) -> Option<MutexGuard<'_, Inner>> {
        self.inner.as_deref().map(Mutex::lock)
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn inc(&self, name: &str, scope: Scope, delta: u64) {
        let Some(mut inner) = self.lock() else { return };
        *slot(&mut inner.counters, name, scope, || 0) += delta;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, scope: Scope, value: i64) {
        let Some(mut inner) = self.lock() else { return };
        *slot(&mut inner.gauges, name, scope, || value) = value;
    }

    /// Raises a gauge to `value` if it is below it (or absent).
    pub fn max_gauge(&self, name: &str, scope: Scope, value: i64) {
        let Some(mut inner) = self.lock() else { return };
        let gauge = slot(&mut inner.gauges, name, scope, || i64::MIN);
        *gauge = (*gauge).max(value);
    }

    /// Records a duration into a time histogram.
    pub fn observe_time(&self, name: &str, scope: Scope, nanos: u64) {
        let Some(mut inner) = self.lock() else { return };
        slot(&mut inner.histograms, name, scope, Histogram::time).observe(nanos);
    }

    /// Records a size into a byte histogram.
    pub fn observe_bytes(&self, name: &str, scope: Scope, bytes: u64) {
        let Some(mut inner) = self.lock() else { return };
        slot(&mut inner.histograms, name, scope, Histogram::bytes).observe(bytes);
    }

    /// Accumulates one `compute()` call's cost against a vertex. Safe to
    /// call concurrently from worker threads: accumulation commutes. A
    /// vertex already recorded costs no allocation.
    pub fn record_vertex_compute(&self, vertex: &str, nanos: u64) {
        let Some(mut inner) = self.lock() else { return };
        if !inner.vertex_nanos.contains_key(vertex) {
            let cost = VertexCost { vertex: vertex.to_string(), nanos: 0, calls: 0 };
            inner.vertex_nanos.insert(vertex.to_string(), cost);
        }
        let cost = inner.vertex_nanos.get_mut(vertex).expect("inserted above");
        cost.nanos += nanos;
        cost.calls += 1;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter_value(&self, name: &str, scope: Scope) -> u64 {
        self.lock().and_then(|inner| inner.counters.get(name)?.get(&scope).copied()).unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge_value(&self, name: &str, scope: Scope) -> Option<i64> {
        self.lock().and_then(|inner| inner.gauges.get(name)?.get(&scope).copied())
    }

    /// Sum of a counter across all scopes carrying `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        let Some(inner) = self.lock() else { return 0 };
        inner.counters.get(name).map_or(0, |scopes| scopes.values().sum())
    }

    /// A sorted, serializable copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = self.lock() else { return MetricsSnapshot::default() };
        let counters = entries(&inner.counters)
            .map(|(name, scope, &value)| CounterEntry {
                name: name.clone(),
                worker: scope.worker,
                superstep: scope.superstep,
                value,
            })
            .collect();
        let gauges = entries(&inner.gauges)
            .map(|(name, scope, &value)| GaugeEntry {
                name: name.clone(),
                worker: scope.worker,
                superstep: scope.superstep,
                value,
            })
            .collect();
        let histograms = entries(&inner.histograms)
            .map(|(name, scope, histogram)| HistogramEntry {
                name: name.clone(),
                worker: scope.worker,
                superstep: scope.superstep,
                data: histogram.snapshot(),
            })
            .collect();
        let mut top_vertices: Vec<VertexCost> = inner.vertex_nanos.values().cloned().collect();
        // Costliest first; the vertex id breaks ties so the cut is stable.
        top_vertices.sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.vertex.cmp(&b.vertex)));
        top_vertices.truncate(TOP_VERTICES_EXPORTED);
        MetricsSnapshot { counters, gauges, histograms, top_vertices }
    }
}

/// One counter sample in a snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name (snake_case, includes the unit suffix).
    pub name: String,
    /// Worker scope, if any.
    pub worker: Option<u64>,
    /// Superstep scope, if any.
    pub superstep: Option<u64>,
    /// Accumulated value.
    pub value: u64,
}

/// One gauge sample in a snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Worker scope, if any.
    pub worker: Option<u64>,
    /// Superstep scope, if any.
    pub superstep: Option<u64>,
    /// Last (or max, for max-gauges) recorded value.
    pub value: i64,
}

/// One histogram in a snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramEntry {
    /// Metric name.
    pub name: String,
    /// Worker scope, if any.
    pub worker: Option<u64>,
    /// Superstep scope, if any.
    pub superstep: Option<u64>,
    /// Buckets, sum and count.
    pub data: HistogramData,
}

/// Accumulated compute cost of one vertex.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VertexCost {
    /// The vertex id's `Display` form.
    pub vertex: String,
    /// Total nanoseconds spent in `compute()` for this vertex.
    pub nanos: u64,
    /// Number of `compute()` calls.
    pub calls: u64,
}

/// Everything a registry recorded, sorted and ready for export.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by (name, worker, superstep).
    pub counters: Vec<CounterEntry>,
    /// All gauges, sorted by (name, worker, superstep).
    pub gauges: Vec<GaugeEntry>,
    /// All histograms, sorted by (name, worker, superstep).
    pub histograms: Vec<HistogramEntry>,
    /// Costliest vertices by accumulated compute time (capped at
    /// [`TOP_VERTICES_EXPORTED`]).
    pub top_vertices: Vec<VertexCost>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_scope() {
        let reg = MetricsRegistry::new();
        reg.inc("messages_total", Scope::superstep(0), 5);
        reg.inc("messages_total", Scope::superstep(0), 2);
        reg.inc("messages_total", Scope::superstep(1), 1);
        assert_eq!(reg.counter_value("messages_total", Scope::superstep(0)), 7);
        assert_eq!(reg.counter_value("messages_total", Scope::superstep(1)), 1);
        assert_eq!(reg.counter_total("messages_total"), 8);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.inc("z_metric", Scope::GLOBAL, 1);
        reg.inc("a_metric", Scope::at(1, 3), 1);
        reg.inc("a_metric", Scope::at(0, 3), 1);
        let snap = reg.snapshot();
        let names: Vec<(&str, Option<u64>)> =
            snap.counters.iter().map(|c| (c.name.as_str(), c.worker)).collect();
        assert_eq!(names, vec![("a_metric", Some(0)), ("a_metric", Some(1)), ("z_metric", None)]);
    }

    #[test]
    fn top_vertices_sorted_by_cost_then_id() {
        let reg = MetricsRegistry::new();
        reg.record_vertex_compute("7", 10);
        reg.record_vertex_compute("3", 10);
        reg.record_vertex_compute("5", 25);
        reg.record_vertex_compute("7", 5);
        let snap = reg.snapshot();
        let order: Vec<&str> = snap.top_vertices.iter().map(|v| v.vertex.as_str()).collect();
        assert_eq!(order, vec!["5", "7", "3"]);
        assert_eq!(snap.top_vertices[1].calls, 2);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let reg = MetricsRegistry::new();
        reg.max_gauge("peak_active", Scope::GLOBAL, 4);
        reg.max_gauge("peak_active", Scope::GLOBAL, 9);
        reg.max_gauge("peak_active", Scope::GLOBAL, 2);
        assert_eq!(reg.gauge_value("peak_active", Scope::GLOBAL), Some(9));
    }
}
