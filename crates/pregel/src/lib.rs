//! # graft-pregel
//!
//! A from-scratch Pregel/Giraph-like BSP graph-processing engine: the
//! substrate that the Graft debugger (crate `graft-core`) instruments.
//!
//! Algorithms are written vertex-centrically by implementing
//! [`Computation::compute`], which runs once per active vertex per
//! superstep. Inside `compute`, a vertex has access to exactly the five
//! pieces of data the Giraph API exposes — its id, its outgoing edges,
//! its incoming messages, the aggregators, and the default global data —
//! plus an active/inactive flag toggled with
//! [`VertexHandle::vote_to_halt`]. An optional [`MasterComputation`] runs
//! between supersteps to coordinate phases through aggregators.
//!
//! ## Example: connected components by min-label propagation
//!
//! ```
//! use graft_pregel::{Computation, ContextOf, Engine, Graph, VertexHandleOf};
//!
//! struct MinLabel;
//!
//! impl Computation for MinLabel {
//!     type Id = u64;
//!     type VValue = u64; // current component label
//!     type EValue = ();
//!     type Message = u64;
//!
//!     fn compute(
//!         &self,
//!         vertex: &mut VertexHandleOf<'_, Self>,
//!         messages: &[u64],
//!         ctx: &mut ContextOf<'_, Self>,
//!     ) {
//!         let best = messages.iter().copied().min().unwrap_or(u64::MAX);
//!         let mine = *vertex.value();
//!         let candidate = if ctx.superstep() == 0 { vertex.id() } else { best.min(mine) };
//!         if ctx.superstep() == 0 || candidate < mine {
//!             vertex.set_value(candidate);
//!             ctx.send_message_to_all_edges(vertex, candidate);
//!         }
//!         vertex.vote_to_halt();
//!     }
//! }
//!
//! let mut b = Graph::<u64, u64, ()>::builder();
//! for v in 0..4 { b.add_vertex(v, u64::MAX).unwrap(); }
//! b.add_undirected_edge(0, 1, ()).unwrap();
//! b.add_undirected_edge(2, 3, ()).unwrap();
//! let outcome = Engine::new(MinLabel).num_workers(2).run(b.build().unwrap()).unwrap();
//! assert_eq!(outcome.graph.value(1), Some(&0));
//! assert_eq!(outcome.graph.value(3), Some(&2));
//! ```

#![forbid(unsafe_code)]

// `tests/support/` is compiled both into the integration tests and, by
// `#[path]`, into this crate's own; both name the crate the same way.
#[cfg(test)]
extern crate self as graft_pregel;

pub mod aggregators;
mod checkpoint;
mod computation;
mod context;
mod engine;
mod error;
mod fault;
pub mod graph;
pub mod harness;
pub mod hash;
pub mod io;
mod master;
mod msglog;
mod observer;
pub mod ooc;
mod partition;
pub mod reference;
mod stats;
#[cfg(test)]
mod thread_invariance;
mod types;

pub use aggregators::{AggOp, AggValue, AggregatorRegistry, WorkerAggregators};
pub use checkpoint::{CheckpointConfig, CheckpointError, RecoveryMode};
pub use computation::{Computation, ContextOf, VertexHandle, VertexHandleOf};
pub use context::{ComputeContext, Mutation};
pub use engine::{detect_stragglers, Engine, EngineConfig};
pub use error::EngineError;
pub use fault::{Fault, FaultPlan, FaultPlanParseError};
pub use graph::{Graph, GraphBuilder, GraphError, GraphStats};
pub use hash::partition_for;
pub use master::{MasterComputation, MasterContext};
pub use observer::{JobEnd, JobObserver};
pub use ooc::{estimate_max_partition_bytes, OocConfig};
pub use stats::{HaltReason, JobOutcome, JobStats, SuperstepStats};
pub use types::{Edge, GlobalData, Value, VertexId};
