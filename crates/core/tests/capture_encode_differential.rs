//! Differential test of the single-pass capture encoder against the
//! tree-building one it replaced: for the `(Id, VValue, EValue, Message)`
//! of every algorithm in `graft-algorithms`, and for the type-erased
//! records `trace convert --to binary` re-encodes, the vertex frame must
//! equal `write_value_frame(FRAME_VERTEX, &wire_vertex_trace(..))` —
//! whether it is encoded from an owned `VertexTrace` or from a
//! `VertexCapture` borrowing engine-shaped state.

use std::fmt::Debug;

mod common;

use common::{
    gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64, random_trace, random_u64,
    rw_value, Rng64,
};
use graft::trace::{
    encode_record, CaptureError, TraceRecord, VertexCapture, WireVertexTrace, FRAME_VERTEX,
};
use graft::{TraceCodec, VertexTrace};
use graft_codec::{to_bin_value, BinValue};
use graft_pregel::Edge;
use rand::SeedableRng;
use serde::Serialize;

fn leaf<T: Serialize>(value: &T) -> BinValue {
    to_bin_value(value).unwrap()
}

/// The reference: the typed record converted leaf by leaf into heap
/// trees, as the capture path did before it encoded in one pass.
fn wire_vertex_trace<I, V, E, M>(trace: &VertexTrace<I, V, E, M>) -> WireVertexTrace
where
    I: Serialize,
    V: Serialize,
    E: Serialize,
    M: Serialize,
{
    WireVertexTrace {
        superstep: trace.superstep,
        vertex: leaf(&trace.vertex),
        value_before: leaf(&trace.value_before),
        value_after: leaf(&trace.value_after),
        edges: trace.edges.iter().map(|(i, e)| (leaf(i), leaf(e))).collect(),
        incoming: trace.incoming.iter().map(leaf).collect(),
        outgoing: trace.outgoing.iter().map(|(i, m)| (leaf(i), leaf(m))).collect(),
        aggregators: trace.aggregators.clone(),
        global: trace.global,
        halted_after: trace.halted_after,
        reasons: trace.reasons.clone(),
        violations: trace.violations.clone(),
        exception: trace.exception.clone(),
    }
}

fn reference_frame<I, V, E, M>(trace: &VertexTrace<I, V, E, M>) -> Vec<u8>
where
    I: Serialize,
    V: Serialize,
    E: Serialize,
    M: Serialize,
{
    let mut frame = Vec::new();
    graft_codec::frame::write_value_frame(&mut frame, FRAME_VERTEX, &wire_vertex_trace(trace))
        .unwrap();
    frame
}

fn check<I, V, E, M>(trace: &VertexTrace<I, V, E, M>)
where
    I: Serialize + Clone + Debug,
    V: Serialize + Debug,
    E: Serialize + Clone + Debug,
    M: Serialize + Debug,
{
    let reference = reference_frame(trace);

    // Appending must leave what is already in the buffer alone.
    let mut owned = vec![0x5a];
    encode_record(TraceCodec::Binary, trace, &mut owned).unwrap();
    assert_eq!(owned[1..], reference, "owned record: {trace:?}");

    // The instrumenter's view: edges as the engine stores them.
    let edges: Vec<Edge<I, E>> =
        trace.edges.iter().map(|(t, v)| Edge::new(t.clone(), v.clone())).collect();
    let capture = VertexCapture {
        superstep: trace.superstep,
        vertex: &trace.vertex,
        value_before: &trace.value_before,
        value_after: &trace.value_after,
        edges: edges.iter().map(|e| (&e.target, &e.value)),
        incoming: &trace.incoming,
        outgoing: &trace.outgoing,
        aggregators: trace.aggregators.iter().map(|(name, value)| (name.as_str(), value)),
        global: trace.global,
        halted_after: trace.halted_after,
        reasons: &trace.reasons,
        violations: &trace.violations,
        exception: trace.exception.as_ref(),
    };
    let mut borrowed = Vec::new();
    capture.encode_binary_frame(&mut borrowed).unwrap();
    assert_eq!(borrowed, reference, "borrowed record: {trace:?}");
    assert_eq!(capture.record_superstep(), trace.superstep);

    // Under JSON the borrowed record is indistinguishable from the owned.
    assert_eq!(serde_json::to_vec(&capture).unwrap(), serde_json::to_vec(trace).unwrap());

    // What `trace convert` does: the JSON line parsed back into
    // type-erased leaves and re-encoded must give the same frame again.
    let erased: WireVertexTrace =
        serde_json::from_slice(&serde_json::to_vec(trace).unwrap()).unwrap();
    let mut converted = Vec::new();
    encode_record(TraceCodec::Binary, &erased, &mut converted).unwrap();
    assert_eq!(converted, reference, "type-erased record: {trace:?}");
}

const CASES: usize = 300;

#[test]
fn pagerank_and_sssp_records() {
    let mut rng = Rng64::seed_from_u64(1);
    for _ in 0..CASES {
        // PageRank: (u64, f64, (), f64).
        check(&random_trace(&mut rng, random_u64, random_f64, |_| (), random_f64));
        // SSSP: (u64, f64, f64, f64).
        check(&random_trace(&mut rng, random_u64, random_f64, random_f64, random_f64));
    }
}

#[test]
fn components_and_random_walk_records() {
    let mut rng = Rng64::seed_from_u64(2);
    for _ in 0..CASES {
        // Components: (u64, u64, (), u64).
        check(&random_trace(&mut rng, random_u64, random_u64, |_| (), random_u64));
        // Random walk: (u64, RWValue, (), i64).
        check(&random_trace(&mut rng, random_u64, rw_value, |_| (), random_i64));
    }
}

#[test]
fn graph_coloring_records() {
    let mut rng = Rng64::seed_from_u64(3);
    for _ in 0..CASES {
        check(&random_trace(&mut rng, random_u64, gc_value, |_| (), gc_message));
    }
}

#[test]
fn matching_records() {
    let mut rng = Rng64::seed_from_u64(4);
    for _ in 0..CASES {
        check(&random_trace(&mut rng, random_u64, mwm_value, random_f64, mwm_message));
    }
}

#[test]
fn a_leaf_that_cannot_be_type_erased_fails_and_leaves_the_buffer_alone() {
    // A map keyed by a tuple has no JSON rendition.
    let bad_value = std::collections::BTreeMap::from([((1u8, 2u8), 3u8)]);
    let mut rng = Rng64::seed_from_u64(5);
    let trace = random_trace(&mut rng, random_u64, |_| bad_value.clone(), |_| (), random_u64);
    let mut buf = vec![1, 2, 3];
    let err = encode_record(TraceCodec::Binary, &trace, &mut buf).unwrap_err();
    assert!(matches!(err, CaptureError::Codec(_)), "{err:?}");
    assert_eq!(err.to_string(), "map key must be a string or number");
    assert_eq!(buf, [1, 2, 3]);
    let err = encode_record(TraceCodec::JsonLines, &trace, &mut buf).unwrap_err();
    assert!(matches!(err, CaptureError::Json(_)), "{err:?}");
    assert_eq!(buf, [1, 2, 3]);
}
