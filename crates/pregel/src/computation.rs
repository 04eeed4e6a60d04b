//! The vertex-centric programming interface: the `Computation` trait and
//! the per-vertex handle passed to `compute()`.

use crate::aggregators::AggregatorRegistry;
use crate::context::ComputeContext;
use crate::types::{Edge, Value, VertexId};

/// The vertex handle type a computation `C` receives.
pub type VertexHandleOf<'a, C> = VertexHandle<
    'a,
    <C as Computation>::Id,
    <C as Computation>::VValue,
    <C as Computation>::EValue,
>;

/// The compute context type a computation `C` receives.
pub type ContextOf<'a, C> = ComputeContext<
    'a,
    <C as Computation>::Id,
    <C as Computation>::VValue,
    <C as Computation>::EValue,
    <C as Computation>::Message,
>;

/// A vertex-centric program, the analogue of Giraph's `Computation`
/// class.
///
/// `compute()` is called once per *active* vertex in every superstep. A
/// vertex is active until it calls [`VertexHandle::vote_to_halt`], and is
/// reactivated when a message arrives for it.
///
/// Implementations must be stateless with respect to individual vertices:
/// the same instance is shared by all worker threads (`&self` receiver).
/// Per-vertex state belongs in the vertex value; cross-vertex state
/// belongs in aggregators. (This is the same discipline the Graft paper's
/// Section 7 asks of Giraph programs — "external" state cannot be
/// captured or replayed.)
///
/// The handle and context are generic over the id/value/message *types*
/// rather than the computation type, so a wrapper computation with the
/// same associated types — like Graft's instrumenter — can hand them
/// straight through to the computation it wraps.
pub trait Computation: Send + Sync + Sized + 'static {
    /// Vertex identifier type.
    type Id: VertexId;
    /// Vertex value type.
    type VValue: Value;
    /// Edge value type (use `()` for unweighted graphs).
    type EValue: Value;
    /// Message type.
    type Message: Value;

    /// The per-vertex kernel. Inside it, the vertex has access to exactly
    /// the five pieces of data the Giraph API exposes: its id and edges
    /// (via `vertex`), its incoming `messages`, the aggregators, and the
    /// default global data (via `ctx`).
    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[Self::Message],
        ctx: &mut ContextOf<'_, Self>,
    );

    /// Whether the engine should fold messages headed to the same vertex
    /// with [`Computation::combine`]. Defaults to `false`.
    fn use_combiner(&self) -> bool {
        false
    }

    /// Combines two messages addressed to the same vertex. Must be
    /// associative and commutative — the engine folds messages in arrival
    /// order, so a non-commutative combiner makes results depend on
    /// delivery order (`graft-analyzer` checks this empirically as
    /// GA0001/GA0002). Only called when [`Computation::use_combiner`]
    /// returns `true`.
    fn combine(&self, _a: &Self::Message, _b: &Self::Message) -> Self::Message {
        unimplemented!("combine() called but use_combiner() is false")
    }

    /// Folds a message slice with [`Computation::combine`] the way the
    /// engine folds one sender's stream (left fold in slice order).
    /// `None` for an empty slice. The engine groups messages by sending
    /// worker, folds each group in send order, and merges the per-worker
    /// partials in worker order — so the engine's overall fold over a
    /// delivery is `combine_all` applied to the worker partials of
    /// `combine_all` applied to each worker's sends. Useful for tests and
    /// analysis tools that need the engine's combining semantics without
    /// running the engine.
    fn combine_all(&self, messages: &[Self::Message]) -> Option<Self::Message> {
        let mut iter = messages.iter();
        let first = iter.next()?.clone();
        Some(iter.fold(first, |acc, m| self.combine(&acc, m)))
    }

    /// Registers the aggregators this computation uses. Called once
    /// before superstep 0.
    fn register_aggregators(&self, _registry: &mut AggregatorRegistry) {}

    /// Human-readable program name, used in trace metadata and the GUI.
    fn name(&self) -> String {
        let full = std::any::type_name::<Self>();
        full.rsplit("::").next().unwrap_or(full).to_string()
    }
}

/// Mutable view of one vertex during its `compute()` call.
pub struct VertexHandle<'a, I, V, E> {
    id: I,
    value: &'a mut V,
    edges: Edges<'a, I, E>,
    voted_halt: bool,
}

/// A vertex's out-edges during one `compute()` call. The first local edit
/// copies them, so a vertex that edits nothing copies nothing, and the list
/// as it was at compute entry stays readable for Graft's context capture.
enum Edges<'a, I, E> {
    /// The engine's edge columns, borrowed; `edited` is the edit buffer
    /// the engine folds back into its partition after the call.
    Columns { entry: &'a [Edge<I, E>], edited: Option<Vec<Edge<I, E>>> },
    /// A caller's list ([`VertexHandle::new`]), edited in place; `entry`
    /// is the copy taken before the first edit.
    List { list: &'a mut Vec<Edge<I, E>>, entry: Option<Vec<Edge<I, E>>> },
}

impl<'a, I: VertexId, V: Value, E: Value> VertexHandle<'a, I, V, E> {
    /// Creates a handle over borrowed vertex state. Exposed for the
    /// engine and for test harnesses that replay a single `compute()`.
    pub fn new(id: I, value: &'a mut V, edges: &'a mut Vec<Edge<I, E>>) -> Self {
        Self { id, value, edges: Edges::List { list: edges, entry: None }, voted_halt: false }
    }

    /// A handle over a partition's edge columns; see [`Self::into_edits`].
    pub(crate) fn over_columns(id: I, value: &'a mut V, entry: &'a [Edge<I, E>]) -> Self {
        Self { id, value, edges: Edges::Columns { entry, edited: None }, voted_halt: false }
    }

    /// The edit buffer of a handle made by [`Self::over_columns`], if the
    /// call changed its edges.
    pub(crate) fn into_edits(self) -> Option<Vec<Edge<I, E>>> {
        match self.edges {
            Edges::Columns { entry, edited } => edited.filter(|list| list.as_slice() != entry),
            Edges::List { .. } => None,
        }
    }

    fn edges_mut(&mut self) -> &mut Vec<Edge<I, E>> {
        match &mut self.edges {
            Edges::Columns { entry, edited } => edited.get_or_insert_with(|| entry.to_vec()),
            Edges::List { list, entry } => {
                entry.get_or_insert_with(|| list.to_vec());
                list
            }
        }
    }

    /// The edge list as it was when `compute()` started, regardless of
    /// local mutations made since. Used by Graft's context capture.
    pub fn edges_at_entry(&self) -> &[Edge<I, E>] {
        match &self.edges {
            Edges::Columns { entry, .. } => entry,
            Edges::List { list, entry } => entry.as_deref().unwrap_or(list),
        }
    }

    /// This vertex's id.
    pub fn id(&self) -> I {
        self.id
    }

    /// The current vertex value.
    pub fn value(&self) -> &V {
        self.value
    }

    /// Mutable access to the vertex value.
    pub fn value_mut(&mut self) -> &mut V {
        self.value
    }

    /// Replaces the vertex value.
    pub fn set_value(&mut self, value: V) {
        *self.value = value;
    }

    /// The outgoing edges.
    pub fn edges(&self) -> &[Edge<I, E>] {
        match &self.edges {
            Edges::Columns { entry, edited } => edited.as_deref().unwrap_or(entry),
            Edges::List { list, .. } => list,
        }
    }

    /// Out-degree.
    pub fn num_edges(&self) -> usize {
        self.edges().len()
    }

    /// The value of the first edge to `target`, if any.
    pub fn edge_value(&self, target: I) -> Option<&E> {
        self.edges().iter().find(|e| e.target == target).map(|e| &e.value)
    }

    /// Adds an outgoing edge immediately (local mutation).
    pub fn add_edge(&mut self, target: I, value: E) {
        self.edges_mut().push(Edge::new(target, value));
    }

    /// Removes the first outgoing edge to `target`; returns whether one
    /// existed.
    pub fn remove_edge(&mut self, target: I) -> bool {
        let edges = self.edges_mut();
        match edges.iter().position(|e| e.target == target) {
            Some(i) => {
                edges.remove(i);
                true
            }
            None => false,
        }
    }

    /// Replaces the value of the first edge to `target`; returns whether
    /// one existed.
    pub fn set_edge_value(&mut self, target: I, value: E) -> bool {
        match self.edges_mut().iter_mut().find(|e| e.target == target) {
            Some(e) => {
                e.value = value;
                true
            }
            None => false,
        }
    }

    /// Declares this vertex inactive. It will not be computed again until
    /// a message arrives for it.
    pub fn vote_to_halt(&mut self) {
        self.voted_halt = true;
    }

    /// Withdraws a previous `vote_to_halt` made during this same compute
    /// call.
    pub fn revoke_halt(&mut self) {
        self.voted_halt = false;
    }

    /// Whether `vote_to_halt` has been called during this compute call.
    pub fn has_voted_halt(&self) -> bool {
        self.voted_halt
    }
}
