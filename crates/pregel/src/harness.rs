//! Single-vertex test harness: replays one `compute()` call under a
//! fully specified context.
//!
//! This is the Rust analogue of the mock-object scaffolding in the JUnit
//! files Graft generates (Figure 6 of the paper): the harness plays the
//! roles of the mocked `GraphState` (global data), the mocked
//! `WorkerAggregatorUsage` (aggregator values), and the reconstructed
//! vertex (id, value, edges, incoming messages). Graft's context
//! reproducer both calls this harness directly (in-process replay) and
//! generates test source code that uses it. The harness builds its
//! [`crate::ComputeContext`] with a fresh staging buffer
//! (`ComputeContext::new`); only the engine's pooled workers use the
//! buffer-recycling `with_buffer` constructor.
//!
//! ```
//! use graft_pregel::harness::VertexTestHarness;
//! use graft_pregel::{Computation, ContextOf, VertexHandleOf};
//!
//! struct Doubler;
//! impl Computation for Doubler {
//!     type Id = u64;
//!     type VValue = i64;
//!     type EValue = ();
//!     type Message = i64;
//!     fn compute(
//!         &self,
//!         vertex: &mut VertexHandleOf<'_, Self>,
//!         messages: &[i64],
//!         ctx: &mut ContextOf<'_, Self>,
//!     ) {
//!         let sum: i64 = messages.iter().sum();
//!         vertex.set_value(sum * 2);
//!         ctx.send_message_to_all_edges(vertex, sum * 2);
//!         vertex.vote_to_halt();
//!     }
//! }
//!
//! let result = VertexTestHarness::new(Doubler)
//!     .superstep(41)
//!     .vertex(672, 0, vec![(671, ()), (673, ())])
//!     .incoming(vec![10, 5])
//!     .run();
//! assert_eq!(result.value_after, 30);
//! assert_eq!(result.outgoing, vec![(671, 30), (673, 30)]);
//! assert!(result.voted_halt);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::aggregators::{AggOp, AggValue, AggregatorRegistry, WorkerAggregators};
use crate::computation::{Computation, VertexHandle};
use crate::context::{ComputeContext, Mutation};
use crate::error::panic_message;
use crate::types::{Edge, GlobalData};

/// Builder + executor for a single reproduced `compute()` call.
pub struct VertexTestHarness<C: Computation> {
    computation: C,
    global: GlobalData,
    aggregators: AggregatorRegistry,
    id: Option<C::Id>,
    value: Option<C::VValue>,
    edges: Vec<Edge<C::Id, C::EValue>>,
    incoming: Vec<C::Message>,
    worker_id: usize,
}

/// Everything observable from one replayed `compute()` call.
#[derive(Debug)]
pub struct HarnessResult<C: Computation> {
    /// Vertex value after compute returned (or at the point of panic).
    pub value_after: C::VValue,
    /// Outgoing edges after compute (local mutations applied).
    pub edges_after: Vec<Edge<C::Id, C::EValue>>,
    /// Messages sent, in send order.
    pub outgoing: Vec<(C::Id, C::Message)>,
    /// Whether the vertex voted to halt.
    pub voted_halt: bool,
    /// Topology mutations requested.
    pub mutations: Vec<Mutation<C::Id, C::VValue, C::EValue>>,
    /// The panic message, if compute panicked (the Giraph "exception").
    pub panic: Option<String>,
}

impl<C: Computation> VertexTestHarness<C> {
    /// Creates a harness for `computation` with default global data
    /// (superstep 0, zero counts) and the computation's own aggregators
    /// registered.
    pub fn new(computation: C) -> Self {
        let mut aggregators = AggregatorRegistry::new();
        computation.register_aggregators(&mut aggregators);
        Self {
            computation,
            global: GlobalData { superstep: 0, num_vertices: 0, num_edges: 0 },
            aggregators,
            id: None,
            value: None,
            edges: Vec::new(),
            incoming: Vec::new(),
            worker_id: 0,
        }
    }

    /// Sets the superstep number the vertex believes it is in.
    pub fn superstep(mut self, superstep: u64) -> Self {
        self.global.superstep = superstep;
        self
    }

    /// Sets the full default-global-data record.
    pub fn global(mut self, global: GlobalData) -> Self {
        self.global = global;
        self
    }

    /// Sets the total vertex/edge counts the vertex will observe.
    pub fn graph_totals(mut self, num_vertices: u64, num_edges: u64) -> Self {
        self.global.num_vertices = num_vertices;
        self.global.num_edges = num_edges;
        self
    }

    /// Reconstructs the vertex: id, value at compute entry, and outgoing
    /// edges as `(target, edge value)` pairs.
    pub fn vertex(mut self, id: C::Id, value: C::VValue, edges: Vec<(C::Id, C::EValue)>) -> Self {
        self.id = Some(id);
        self.value = Some(value);
        self.edges = edges.into_iter().map(|(t, v)| Edge::new(t, v)).collect();
        self
    }

    /// Sets the incoming messages.
    pub fn incoming(mut self, messages: Vec<C::Message>) -> Self {
        self.incoming = messages;
        self
    }

    /// Emulates an aggregator value visible to the vertex, registering it
    /// on the fly (like `when(aggr.getAggregatedValue(...))` in Mockito).
    pub fn aggregator(mut self, name: &str, value: AggValue) -> Self {
        if !self.aggregators.contains(name) {
            self.aggregators.register_persistent(name, AggOp::Overwrite, value.clone());
        }
        self.aggregators.set(name, value);
        self
    }

    /// Sets the worker id the vertex will observe.
    pub fn worker_id(mut self, worker_id: usize) -> Self {
        self.worker_id = worker_id;
        self
    }

    /// Executes the reproduced `compute()` call.
    ///
    /// # Panics
    /// Panics if [`VertexTestHarness::vertex`] was never called — the
    /// context is incomplete, which is a usage bug, not a runtime
    /// condition. A panic *inside* the user's compute is caught and
    /// reported in [`HarnessResult::panic`].
    pub fn run(self) -> HarnessResult<C> {
        let id = self.id.expect("harness.vertex(id, value, edges) must be called");
        let mut value = self.value.expect("harness.vertex() sets the value");
        let mut edges = self.edges;
        let mut worker_aggs = WorkerAggregators::for_registry(&self.aggregators);
        let mut mutations = Vec::new();

        let (outgoing, voted_halt, panic) = {
            let mut ctx = ComputeContext::new(
                self.global,
                self.worker_id,
                &self.aggregators,
                &mut worker_aggs,
                &mut mutations,
            );
            let mut handle = VertexHandle::new(id, &mut value, &mut edges);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.computation.compute(&mut handle, &self.incoming, &mut ctx);
            }));
            let panic = outcome.err().map(|payload| panic_message(&*payload));
            let outgoing: Vec<(C::Id, C::Message)> = ctx.drain_staged().collect();
            (outgoing, handle.has_voted_halt(), panic)
        };

        HarnessResult {
            value_after: value,
            edges_after: edges,
            outgoing,
            voted_halt,
            mutations,
            panic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation::{ContextOf, VertexHandleOf};

    struct AggEcho;

    impl Computation for AggEcho {
        type Id = u64;
        type VValue = String;
        type EValue = ();
        type Message = u64;

        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[u64],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            let phase = ctx
                .get_aggregated("phase")
                .and_then(|v| v.as_text().map(str::to_string))
                .unwrap_or_else(|| "none".into());
            vertex.set_value(format!("ss={} phase={}", ctx.superstep(), phase));
        }
    }

    #[test]
    fn replays_global_data_and_aggregators() {
        let result = VertexTestHarness::new(AggEcho)
            .superstep(41)
            .graph_totals(1_000_000_000, 3_000_000_000)
            .aggregator("phase", AggValue::Text("CONFLICT-RESOLUTION".into()))
            .vertex(672, String::new(), vec![(671, ()), (673, ())])
            .incoming(vec![])
            .run();
        assert_eq!(result.value_after, "ss=41 phase=CONFLICT-RESOLUTION");
        assert!(result.panic.is_none());
    }

    struct Panics;

    impl Computation for Panics {
        type Id = u64;
        type VValue = ();
        type EValue = ();
        type Message = ();

        fn compute(
            &self,
            _vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[()],
            _ctx: &mut ContextOf<'_, Self>,
        ) {
            panic!("reproduced exception");
        }
    }

    #[test]
    fn captures_panics_as_exceptions() {
        let result = VertexTestHarness::new(Panics).vertex(1, (), vec![]).incoming(vec![]).run();
        assert_eq!(result.panic.as_deref(), Some("reproduced exception"));
    }
}
