//! The compute-time context: message sending, aggregators, global data,
//! and graph-mutation requests.

use crate::aggregators::{AggValue, AggregatorRegistry, WorkerAggregators};
use crate::computation::VertexHandle;
use crate::types::{Edge, GlobalData, Value, VertexId};

/// A requested topology mutation, applied at the superstep barrier
/// (remote mutations in Pregel terminology; local edge mutations go
/// through [`VertexHandle`] directly).
#[derive(Clone, Debug)]
pub enum Mutation<I, V, E> {
    /// Add a vertex with an initial value (ignored if it already exists).
    AddVertex(I, V),
    /// Remove a vertex and all its outgoing edges.
    RemoveVertex(I),
    /// Add an edge from an existing vertex (dropped if the source is
    /// missing; the drop is counted in the superstep stats).
    AddEdge(I, Edge<I, E>),
    /// Remove all edges from the first id to the second.
    RemoveEdge(I, I),
}

/// Per-worker, per-superstep context handed to `compute()`.
///
/// Messages sent by the current vertex are staged here; the engine
/// drains them into per-partition outboxes after each `compute()`
/// returns. The staging buffer is also what Graft's instrumenter
/// inspects to intercept outgoing messages.
pub struct ComputeContext<'a, I, V, E, M> {
    global: GlobalData,
    version: Option<u64>,
    worker_id: usize,
    staged: Vec<(I, M)>,
    aggregators: &'a AggregatorRegistry,
    worker_aggs: &'a mut WorkerAggregators,
    mutations: &'a mut Vec<Mutation<I, V, E>>,
}

impl<'a, I: VertexId, V: Value, E: Value, M: Value> ComputeContext<'a, I, V, E, M> {
    /// Creates a context over borrowed engine state. Exposed for the
    /// engine and for test harnesses that replay a single `compute()`.
    pub fn new(
        global: GlobalData,
        worker_id: usize,
        aggregators: &'a AggregatorRegistry,
        worker_aggs: &'a mut WorkerAggregators,
        mutations: &'a mut Vec<Mutation<I, V, E>>,
    ) -> Self {
        Self::with_buffer(global, worker_id, aggregators, worker_aggs, mutations, Vec::new())
    }

    /// Like [`ComputeContext::new`], but stages sends into a recycled
    /// buffer instead of a fresh allocation. The engine's worker threads
    /// thread the same buffer through every superstep (reclaiming it
    /// with [`ComputeContext::into_buffer`]); the buffer is cleared here,
    /// so only its capacity is reused.
    pub fn with_buffer(
        global: GlobalData,
        worker_id: usize,
        aggregators: &'a AggregatorRegistry,
        worker_aggs: &'a mut WorkerAggregators,
        mutations: &'a mut Vec<Mutation<I, V, E>>,
        mut staged: Vec<(I, M)>,
    ) -> Self {
        staged.clear();
        Self { global, version: None, worker_id, staged, aggregators, worker_aggs, mutations }
    }

    /// The context with [`ComputeContext::context_version`] `version`.
    pub(crate) fn versioned(self, version: u64) -> Self {
        Self { version: Some(version), ..self }
    }

    /// Consumes the context, returning the staged-send buffer so its
    /// capacity can be reused by the next superstep's context.
    pub fn into_buffer(self) -> Vec<(I, M)> {
        self.staged
    }

    /// The current superstep number (0-based).
    pub fn superstep(&self) -> u64 {
        self.global.superstep
    }

    /// Total vertices in the graph at the start of this superstep.
    pub fn num_vertices(&self) -> u64 {
        self.global.num_vertices
    }

    /// Total directed edges in the graph at the start of this superstep.
    pub fn num_edges(&self) -> u64 {
        self.global.num_edges
    }

    /// The full default-global-data record.
    pub fn global(&self) -> GlobalData {
        self.global
    }

    /// The version of what this context shows every vertex alike: the
    /// superstep, [`ComputeContext::global`] and
    /// [`ComputeContext::visible_aggregators`]. Two contexts with equal
    /// versions showed the same, so a capture may skip encoding a context
    /// it already wrote under the same version. The engine hands out a
    /// fresh one for each worker's run of each superstep, a replay
    /// included; a context built by a caller ([`ComputeContext::new`]) has
    /// none.
    pub fn context_version(&self) -> Option<u64> {
        self.version
    }

    /// The id of the worker executing this vertex — useful for logging;
    /// algorithms should not branch on it.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// Sends `message` to `target`, delivered at the start of the next
    /// superstep.
    pub fn send_message(&mut self, target: I, message: M) {
        self.staged.push((target, message));
    }

    /// Sends `message` along every outgoing edge of `vertex`.
    pub fn send_message_to_all_edges(&mut self, vertex: &VertexHandle<'_, I, V, E>, message: M) {
        for edge in vertex.edges() {
            self.staged.push((edge.target, message.clone()));
        }
    }

    /// Folds `value` into the named aggregator. The merged result becomes
    /// visible in the next superstep.
    pub fn aggregate(&mut self, name: &str, value: AggValue) {
        self.worker_aggs.aggregate(name, value);
    }

    /// Reads the aggregator value merged at the end of the previous
    /// superstep (or set by the master before this one).
    pub fn get_aggregated(&self, name: &str) -> Option<&AggValue> {
        self.aggregators.get(name)
    }

    /// A deterministic snapshot of every aggregator visible this
    /// superstep. Used by the Graft instrumenter when capturing contexts.
    pub fn aggregator_snapshot(&self) -> Vec<(String, AggValue)> {
        self.aggregators.snapshot()
    }

    /// What [`ComputeContext::aggregator_snapshot`] clones, borrowed: the
    /// capture path serializes aggregators straight from the registry.
    pub fn visible_aggregators(
        &self,
    ) -> impl ExactSizeIterator<Item = (&'a str, &'a AggValue)> + Clone {
        self.aggregators.visible()
    }

    /// Requests creation of a vertex at the superstep barrier.
    pub fn add_vertex_request(&mut self, id: I, value: V) {
        self.mutations.push(Mutation::AddVertex(id, value));
    }

    /// Requests removal of a vertex at the superstep barrier.
    pub fn remove_vertex_request(&mut self, id: I) {
        self.mutations.push(Mutation::RemoveVertex(id));
    }

    /// Requests addition of an edge at the superstep barrier.
    pub fn add_edge_request(&mut self, source: I, target: I, value: E) {
        self.mutations.push(Mutation::AddEdge(source, Edge::new(target, value)));
    }

    /// Requests removal of all `source -> target` edges at the superstep
    /// barrier.
    pub fn remove_edge_request(&mut self, source: I, target: I) {
        self.mutations.push(Mutation::RemoveEdge(source, target));
    }

    /// The messages the *current vertex* has sent so far in this
    /// `compute()` call, in send order. This is Graft's message
    /// interception point.
    pub fn staged_sends(&self) -> &[(I, M)] {
        &self.staged
    }

    /// Number of messages staged so far (cheap interception mark).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Drains the staged messages of the current vertex. Used by the
    /// engine after each `compute()` and by single-vertex test harnesses.
    pub fn drain_staged(&mut self) -> std::vec::Drain<'_, (I, M)> {
        self.staged.drain(..)
    }
}
