//! # graft
//!
//! A Rust reproduction of **Graft**, the capture/visualize/reproduce
//! debugger for Pregel-like vertex-centric graph computations (Salihoglu
//! et al., SIGMOD 2015). It debugs programs written against the
//! [`graft_pregel`] engine, writing its trace files through the
//! [`graft_dfs`] file-system abstraction.
//!
//! The debugging cycle mirrors the paper:
//!
//! 1. **Capture** — describe the vertices of interest in a
//!    [`DebugConfig`] (by id, random sample, value/message constraints,
//!    exceptions, or all active vertices), then submit the program
//!    through [`GraftRunner`]. The [`Instrumented`] wrapper intercepts
//!    every `compute()` call, checks constraints, and logs the full
//!    vertex context of captured vertices to per-worker trace files.
//! 2. **Visualize** — open a [`DebugSession`] over the traces to step
//!    superstep by superstep through typed records, indicators and
//!    search, and an [`untyped::UntypedSession`] for the views: the
//!    [`views::json`] documents (node-link, tabular, violations) that
//!    [`views::render`] draws as text, DOT or HTML.
//! 3. **Reproduce** — [`DebugSession::reproduce_vertex`] yields a
//!    [`ReproducedContext`] that replays the exact `compute()` call
//!    in-process (optionally recording line-level [`steptrace`] events)
//!    or generates a standalone Rust test reproducing the context.
//!
//! ```
//! use graft::{DebugConfig, GraftRunner, SearchQuery};
//! use graft::testing::premade;
//! use graft_pregel::{Computation, ContextOf, VertexHandleOf};
//!
//! // A little program with a bug: it sends a negative message when a
//! // counter overflows its artificial i8 range.
//! struct Overflowy;
//! impl Computation for Overflowy {
//!     type Id = u64;
//!     type VValue = i8;
//!     type EValue = ();
//!     type Message = i8;
//!     fn compute(
//!         &self,
//!         vertex: &mut VertexHandleOf<'_, Self>,
//!         messages: &[i8],
//!         ctx: &mut ContextOf<'_, Self>,
//!     ) {
//!         let total = messages.iter().fold(*vertex.value(), |a, &b| a.wrapping_add(b));
//!         vertex.set_value(total);
//!         if ctx.superstep() < 4 {
//!             ctx.send_message_to_all_edges(vertex, total.wrapping_add(100));
//!         } else {
//!             vertex.vote_to_halt();
//!         }
//!     }
//! }
//!
//! // Capture any vertex that sends a negative message.
//! let config = DebugConfig::<Overflowy>::builder()
//!     .message_constraint(|m, _src, _dst, _ss| *m >= 0)
//!     .build();
//! let run = GraftRunner::new(Overflowy, config)
//!     .num_workers(2)
//!     .run(premade::cycle(6, 1i8), "/traces/overflow")
//!     .unwrap();
//! assert!(run.violations > 0);
//!
//! // Find an offender and replay its compute() call exactly.
//! let session = run.session().unwrap();
//! let offender = session.violations()[0];
//! let replayed = session
//!     .reproduce_vertex(offender.vertex, offender.superstep)
//!     .unwrap()
//!     .replay(Overflowy);
//! assert_eq!(replayed.value_after, offender.value_after);
//! # let _ = SearchQuery::by_id(0u64);
//! ```

#![forbid(unsafe_code)]

pub mod codegen;
mod config;
mod instrument;
pub mod panic_capture;
mod reproduce;
mod runner;
mod session;
mod sink;
pub mod steptrace;
pub mod testing;
pub mod trace;
pub mod untyped;
pub mod views;

pub use config::{
    CaptureReason, ConfigFacts, DebugConfig, DebugConfigBuilder, ExceptionPolicy,
    MessageConstraint, SuperstepFilter, VertexValueConstraint,
};
pub use instrument::{CaptureSets, GraftObserver, Instrumented};
pub use reproduce::{untyped_test_source, FidelityReport, ReproducedContext, ReproducedMaster};
pub use runner::{GraftError, GraftRun, GraftRunner};
pub use session::{DebugSession, Indicators, SearchQuery, SessionError};
pub use sink::TraceSink;
pub use trace::{
    ExceptionInfo, JobMeta, JobResultRecord, MasterTrace, TraceFormat, VertexTrace, VertexTraceOf,
    ViolationKind, ViolationRecord,
};
