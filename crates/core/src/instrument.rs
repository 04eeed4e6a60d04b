//! The Graft instrumenter: wraps a user computation the way the paper's
//! Javassist instrumenter wraps `vertex.compute()`.
//!
//! [`Instrumented<C>`] implements [`Computation`] with the same
//! associated types as `C`, so the engine runs it unchanged. Each call:
//!
//! 1. decides whether this vertex may need capturing (pre-selected set,
//!    or any post-hoc category is active) and snapshots its pre-compute
//!    state if so,
//! 2. invokes the user's `compute()` under a panic guard,
//! 3. checks message and vertex-value constraints on what the vertex did,
//! 4. hands the sink a [`VertexCapture`] — the context, borrowed — if any
//!    capture reason applies, and
//! 5. re-raises or suppresses the panic per the exception policy.

use std::sync::Arc;

use graft_obs::{Obs, Scope};
use graft_pregel::hash::FxHashSet;
use graft_pregel::{
    AggregatorRegistry, Computation, ContextOf, JobEnd, JobObserver, SuperstepStats, VertexHandleOf,
};

use crate::config::{CaptureReason, DebugConfig, ExceptionPolicy};
use crate::panic_capture;
use crate::sink::TraceSink;
use crate::trace::{ExceptionInfo, MasterTrace, VertexCapture, ViolationKind, ViolationRecord};

/// The sets of vertices selected for capture before the job starts.
pub struct CaptureSets<I> {
    /// Vertices listed by id in the config.
    pub specified: FxHashSet<I>,
    /// Vertices chosen by random sampling.
    pub random: FxHashSet<I>,
    /// Out-neighbors of specified/random vertices (when enabled).
    pub neighbors: FxHashSet<I>,
}

impl<I: std::hash::Hash + Eq> CaptureSets<I> {
    /// Total number of pre-selected vertices.
    pub fn len(&self) -> usize {
        self.specified.len() + self.random.len() + self.neighbors.len()
    }

    /// Whether no vertex is pre-selected.
    pub fn is_empty(&self) -> bool {
        self.specified.is_empty() && self.random.is_empty() && self.neighbors.is_empty()
    }
}

/// Why one `compute()` call is captured, held inline: a call has at most
/// five reasons — a preselection, all-active, the two constraints and an
/// exception — so no capture allocates for them.
struct Reasons {
    list: [CaptureReason; 5],
    len: usize,
}

impl Default for Reasons {
    fn default() -> Self {
        Self { list: [CaptureReason::AllActive; 5], len: 0 }
    }
}

impl Reasons {
    fn push(&mut self, reason: CaptureReason) {
        self.list[self.len] = reason;
        self.len += 1;
    }

    fn as_slice(&self) -> &[CaptureReason] {
        &self.list[..self.len]
    }
}

/// A user computation wrapped with Graft's capture logic.
pub struct Instrumented<C: Computation> {
    inner: Arc<C>,
    config: DebugConfig<C>,
    sets: CaptureSets<C::Id>,
    sink: Arc<TraceSink>,
    obs: Arc<Obs>,
}

impl<C: Computation> Instrumented<C> {
    /// Wraps `inner` with the given config, pre-selected sets, and sink.
    pub fn new(
        inner: Arc<C>,
        config: DebugConfig<C>,
        sets: CaptureSets<C::Id>,
        sink: Arc<TraceSink>,
    ) -> Self {
        Self { inner, config, sets, sink, obs: Obs::off() }
    }

    /// Times every `compute()` call into `obs`, feeding the profiler's
    /// per-vertex skew table.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// The wrapped computation.
    pub fn inner(&self) -> &Arc<C> {
        &self.inner
    }

    /// The capture sets resolved for this run.
    pub fn capture_sets(&self) -> &CaptureSets<C::Id> {
        &self.sets
    }

    /// The capture pipeline for one `compute()` call (steps 1–5 of the
    /// module docs). Kept separate from the trait method so the optional
    /// per-vertex timing wraps it without touching its early returns.
    fn compute_traced(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[C::Message],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let superstep = ctx.superstep();
        let in_filter = self.config.superstep_filter.matches(superstep);
        if !in_filter {
            // Outside the superstep selection Graft is a pure pass-through.
            self.inner.compute(vertex, messages, ctx);
            return;
        }

        let id = vertex.id();
        let preselected = self.preselect_reason(&id);
        let may_capture = preselected.is_some() || self.config.has_posthoc_captures();
        if !may_capture {
            self.inner.compute(vertex, messages, ctx);
            return;
        }

        // Snapshot the context as it is at compute entry — this is what a
        // generated reproduction test must recreate. The vertex value is
        // cloned up front; the edge list — which can be large on hub
        // vertices — is *not*: `VertexHandle` snapshots it lazily on the
        // first local mutation, so `edges_at_entry()` recovers the exact
        // entry adjacency after compute for free on the (overwhelmingly
        // common) non-mutating vertices. This keeps the constraint-check
        // configs (DC-msg, DC-vv) from paying an O(degree) clone on every
        // vertex of every superstep.
        let value_before = vertex.value().clone();
        let version_before = vertex.value_version();

        let outcome = panic_capture::guarded(std::panic::AssertUnwindSafe(|| {
            self.inner.compute(vertex, messages, ctx)
        }));

        let mut reasons = Reasons::default();
        if let Some(reason) = preselected {
            reasons.push(reason);
        }
        if self.config.capture_all_active {
            reasons.push(CaptureReason::AllActive);
        }

        let mut violations = Vec::new();
        if let Some(constraint) = &self.config.message_constraint {
            for (target, message) in ctx.staged_sends() {
                if !constraint(message, &id, target, superstep) {
                    violations.push(ViolationRecord {
                        kind: ViolationKind::Message,
                        detail: format!("{message:?}"),
                        target: Some(target.to_string()),
                    });
                }
            }
            if violations.iter().any(|v| v.kind == ViolationKind::Message) {
                reasons.push(CaptureReason::MessageViolation);
            }
        }
        if let Some(constraint) = &self.config.vertex_value_constraint {
            if !constraint(vertex.value(), &id, superstep) {
                violations.push(ViolationRecord {
                    kind: ViolationKind::VertexValue,
                    detail: format!("{:?}", vertex.value()),
                    target: None,
                });
                reasons.push(CaptureReason::VertexValueViolation);
            }
        }
        if !violations.is_empty() {
            self.sink.count_violations(ctx.worker_id(), violations.len() as u64);
        }

        let exception = match &outcome {
            Ok(()) => None,
            Err((message, site)) => {
                self.sink.count_exception(ctx.worker_id());
                if self.config.catch_exceptions {
                    reasons.push(CaptureReason::Exception);
                }
                Some(ExceptionInfo {
                    message: match site.as_ref().and_then(|s| s.location.clone()) {
                        Some(location) => format!("{message} (at {location})"),
                        None => message.clone(),
                    },
                    backtrace: site.as_ref().map(|s| s.backtrace.clone()),
                })
            }
        };

        if reasons.len > 0 {
            // Everything but the entry value is still where the engine
            // keeps it, so the record borrows it and the sink encodes
            // straight from there.
            let record = VertexCapture {
                superstep,
                vertex: &id,
                value_before: &value_before,
                value_after: vertex.value(),
                edges: vertex.edges_at_entry().iter().map(|e| (&e.target, &e.value)),
                edges_version: vertex.entry_version(),
                value_versions: version_before.zip(vertex.value_version()),
                incoming: messages,
                outgoing: ctx.staged_sends(),
                outgoing_broadcast: ctx.staged_broadcast(),
                aggregators: ctx.visible_aggregators(),
                global: ctx.global(),
                context_version: ctx.context_version(),
                halted_after: vertex.has_voted_halt(),
                reasons: reasons.as_slice(),
                violations: &violations,
                exception: exception.as_ref(),
            };
            self.sink.record_vertex(ctx.worker_id(), &record);
        }

        if let Err((message, _)) = outcome {
            match self.config.exception_policy {
                ExceptionPolicy::Abort => {
                    // Flush what we have, then let the job fail as Giraph
                    // jobs do on uncaught exceptions.
                    self.sink.flush();
                    std::panic::resume_unwind(Box::new(message));
                }
                ExceptionPolicy::SuppressAndHalt => {
                    vertex.vote_to_halt();
                }
            }
        }
    }

    fn preselect_reason(&self, id: &C::Id) -> Option<CaptureReason> {
        if self.sets.specified.contains(id) {
            Some(CaptureReason::SpecifiedId)
        } else if self.sets.random.contains(id) {
            Some(CaptureReason::RandomSample)
        } else if self.sets.neighbors.contains(id) {
            Some(CaptureReason::NeighborOfCaptured)
        } else {
            None
        }
    }
}

impl<C: Computation> Computation for Instrumented<C> {
    type Id = C::Id;
    type VValue = C::VValue;
    type EValue = C::EValue;
    type Message = C::Message;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[Self::Message],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        // The hottest path: off, one branch and nothing else.
        if !self.obs.is_on() {
            return self.compute_traced(vertex, messages, ctx);
        }
        // Per-vertex skew timing: timers are worker-thread safe, and the
        // registry's accumulation commutes, so this cannot perturb the
        // deterministic exports. A panicking compute loses its sample —
        // the exception path is profiled through the event log instead.
        let id = vertex.id().to_string();
        let timer = self.obs.timer();
        self.compute_traced(vertex, messages, ctx);
        self.obs.registry().record_vertex_compute(&id, timer.stop());
    }

    fn use_combiner(&self) -> bool {
        self.inner.use_combiner()
    }

    fn combine(&self, a: &Self::Message, b: &Self::Message) -> Self::Message {
        self.inner.combine(a, b)
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        self.inner.register_aggregators(registry);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The engine observer through which Graft flushes trace buffers at
/// superstep boundaries, captures master contexts, and writes the final
/// `result.json` — on success *and* on job failure.
pub struct GraftObserver {
    sink: Arc<TraceSink>,
    capture_master: bool,
    obs: Arc<Obs>,
    /// Sink bytes that were durable after the previous flush, for the
    /// per-flush byte delta in `trace.flush` spans.
    flushed_bytes: std::sync::atomic::AtomicU64,
    live: Option<Arc<parking_lot::Mutex<graft_obs::LiveWriter>>>,
    pace: Option<std::time::Duration>,
}

impl GraftObserver {
    /// Creates the observer for a run.
    pub fn new(sink: Arc<TraceSink>, capture_master: bool) -> Self {
        Self {
            sink,
            capture_master,
            obs: Obs::off(),
            flushed_bytes: std::sync::atomic::AtomicU64::new(0),
            live: None,
            pace: None,
        }
    }

    /// Emits `trace.flush` spans (with byte counts) into `obs` around the
    /// per-superstep trace flushes.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Streams live snapshots through `live` at every superstep boundary:
    /// the watermark advances to the completed superstep *after* the
    /// trace flush, so everything a committed snapshot covers is durable
    /// by the time a monitoring client can see its sequence number.
    pub fn with_live(mut self, live: Arc<parking_lot::Mutex<graft_obs::LiveWriter>>) -> Self {
        self.live = Some(live);
        self
    }

    /// Sleeps this long after each superstep's flush — a demo/test knob
    /// that slows the job down enough for live tailing to observe
    /// intermediate states.
    pub fn with_pace(mut self, pace: std::time::Duration) -> Self {
        self.pace = Some(pace);
        self
    }

    /// Best-effort live flush: a failing trace DFS must not take the job
    /// down with it — monitoring is strictly weaker than the run.
    fn live_flush(&self, advance_to: Option<u64>) {
        if let Some(live) = &self.live {
            let mut live = live.lock();
            if let Some(superstep) = advance_to {
                live.advance_watermark(superstep);
            }
            if let Err(e) = live.flush(graft_obs::STATUS_RUNNING) {
                eprintln!("graft: live flush failed: {e}");
            }
        }
    }
}

impl<C: Computation> JobObserver<C> for GraftObserver {
    fn on_job_start(&self, _global: &graft_pregel::GlobalData, _num_workers: usize) {
        // Commit a seq-1 snapshot before superstep 0 so a monitoring
        // client sees the job as `running` (with no watermark yet) as
        // soon as it exists.
        self.live_flush(None);
    }

    fn on_master_computed(
        &self,
        superstep: u64,
        global: &graft_pregel::GlobalData,
        aggregators: &[(String, graft_pregel::AggValue)],
        halted: bool,
    ) {
        if self.capture_master {
            self.sink.record_master(&MasterTrace {
                superstep,
                global: *global,
                aggregators: aggregators.to_vec(),
                halted,
            });
        }
    }

    fn on_superstep_end(&self, stats: &SuperstepStats) {
        let span = self.obs.span("trace.flush", Some(stats.superstep), None);
        self.sink.flush();
        let total = self.sink.bytes_written();
        let total_before = self.flushed_bytes.swap(total, std::sync::atomic::Ordering::Relaxed);
        let bytes = total - total_before.min(total);
        let dur =
            span.end(|| vec![("bytes", bytes.to_string()), ("total_bytes", total.to_string())]);
        let reg = self.obs.registry();
        reg.inc("trace_flush_bytes_total", Scope::GLOBAL, bytes);
        reg.observe_bytes("trace_flush_bytes", Scope::GLOBAL, bytes);
        reg.observe_time("trace_flush_nanos", Scope::GLOBAL, dur);
        reg.set_gauge("trace_bytes_written", Scope::GLOBAL, total as i64);
        // The superstep's traces are durable now, so it may enter the
        // immutable frontier and be announced to live readers.
        self.live_flush(Some(stats.superstep));
        if let Some(pace) = self.pace {
            std::thread::sleep(pace);
        }
    }

    fn on_checkpoint(&self, superstep: u64) {
        // Snapshot the trace state in lock-step with the engine's
        // checkpoint, so a restore can rewind the traces to the same
        // boundary.
        self.sink.snapshot(superstep);
    }

    fn on_restore(&self, superstep: u64) {
        // Discard everything recorded by the aborted execution: the
        // replayed supersteps will rewrite those records identically.
        self.sink.rollback(superstep);
    }

    fn on_confined_restore(&self, superstep: u64, workers: &[usize]) {
        // Confined recovery replays only the failed partitions, so only
        // their trace channels are rewound; survivors' records stand.
        self.sink.rollback_workers(superstep, workers);
    }

    fn on_job_end(&self, end: &JobEnd) {
        self.sink.finalize(end.supersteps_executed, end.error.clone());
    }
}
