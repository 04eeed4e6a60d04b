//! # graft-spine
//!
//! The whole-pipeline benchmark of graft-rs: generate → compute →
//! instrument → encode → sink → DFS → index → view → HTTP, run in one
//! process per workload, with eleven named end-to-end metrics, per-layer
//! attribution from the benchmark's own spans, and five workloads that
//! each lean on a different layer. See `README.md` next to this crate.

#![forbid(unsafe_code)]

pub mod compare;
pub mod gen;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
