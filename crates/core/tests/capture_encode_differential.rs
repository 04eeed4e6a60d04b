//! Differential test of the single-pass capture encoder against the
//! tree-building one it replaced: for the `(Id, VValue, EValue, Message)`
//! of every algorithm in `graft-algorithms`, and for the type-erased
//! records `trace convert --to binary` re-encodes, the vertex frame must
//! equal `write_value_frame(FRAME_VERTEX, &wire_vertex_trace(..))` —
//! whether it is encoded from an owned `VertexTrace` or from a
//! `VertexCapture` borrowing engine-shaped state — and a record captured
//! again, its edges by reference, must equal `WireVertexTrace`'s frame;
//! the index frame a channel writer opens the record's group with must
//! equal `IndexRecord`'s.
//! The reference decides the broadcast form of `outgoing` on the
//! encodings of its trees; records that send one message along every edge
//! are drawn for every shape that can.

use std::fmt::Debug;

mod common;

use common::{
    broadcasting, gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64,
    random_trace, random_u64, rw_value, Rng64,
};
use graft::trace::{
    Broadcast, CaptureError, ChannelWriter, ErasedVertexTrace, IndexRecord, TraceRecord,
    VertexCapture, WireEdges, WireOutgoing, WireValue, WireVertexTrace, FRAME_INDEX, FRAME_VERTEX,
};
use graft::VertexTrace;
use graft_codec::frame::FrameScanner;
use graft_codec::{to_bin_value, BinValue};
use graft_pregel::Edge;
use rand::SeedableRng;
use serde::Serialize;

fn leaf<T: Serialize>(value: &T) -> BinValue {
    to_bin_value(value).unwrap()
}

/// The reference's `outgoing`: a broadcast when there are sends, their
/// targets encode as the edges' targets in edge order, and every message
/// encodes as the first; the pairs otherwise.
fn wire_outgoing(
    edges: &[(BinValue, BinValue)],
    pairs: Vec<(BinValue, BinValue)>,
) -> WireOutgoing<Vec<(BinValue, BinValue)>, BinValue> {
    let bytes = |value: &BinValue| graft_codec::to_vec(value).unwrap();
    let along_edges = pairs.len() == edges.len()
        && pairs.iter().zip(edges).all(|((to, _), (target, _))| bytes(to) == bytes(target));
    match pairs.first() {
        Some((_, first)) if along_edges && pairs.iter().all(|(_, m)| bytes(m) == bytes(first)) => {
            WireOutgoing::Broadcast(Broadcast { count: pairs.len() as u64, value: first.clone() })
        }
        _ => WireOutgoing::Pairs(pairs),
    }
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
    let edges: Vec<_> = trace.edges.iter().map(|(i, e)| (leaf(i), leaf(e))).collect();
    let pairs = trace.outgoing.iter().map(|(i, m)| (leaf(i), leaf(m))).collect();
    WireVertexTrace {
        vertex: leaf(&trace.vertex),
        value_before: WireValue::Inline(leaf(&trace.value_before)),
        value_after: leaf(&trace.value_after),
        outgoing: wire_outgoing(&edges, pairs),
        edges: WireEdges::Inline(edges),
        incoming: trace.incoming.iter().map(leaf).collect(),
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
    I: Serialize + Clone + Debug + PartialEq,
    V: Serialize + Debug,
    E: Serialize + Clone + Debug,
    M: Serialize + Debug,
{
    let reference = reference_frame(trace);

    // Appending must leave what is already in the buffer alone.
    let mut owned = vec![0x5a];
    trace.encode_binary_frame(&mut owned).unwrap();
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
        // One version for both captures below: the second refers back by
        // it, with no edges encoded.
        edges_version: Some(1),
        // The values before and after compute may differ: no version.
        value_versions: None,
        incoming: &trace.incoming,
        outgoing: &trace.outgoing,
        // Promises nothing: the form is decided on bytes.
        outgoing_broadcast: false,
        aggregators: trace.aggregators.iter().map(|(name, value)| (name.as_str(), value)),
        global: trace.global,
        // One version for both captures below: the second is in the
        // group the first opens, with no context encoded.
        context_version: Some(1),
        halted_after: trace.halted_after,
        reasons: &trace.reasons,
        violations: &trace.violations,
        exception: trace.exception.as_ref(),
    };
    let mut borrowed = Vec::new();
    capture.encode_binary_frame(&mut borrowed).unwrap();
    assert_eq!(borrowed, reference, "borrowed record: {trace:?}");
    assert_eq!(capture.record_superstep(), trace.superstep);

    // What importing a JSON-lines trace does: the JSON line parsed back
    // into type-erased leaves and re-encoded must give the same frame
    // again.
    let erased: ErasedVertexTrace =
        serde_json::from_slice(&serde_json::to_vec(trace).unwrap()).unwrap();
    let mut converted = Vec::new();
    erased.encode_binary_frame(&mut converted).unwrap();
    assert_eq!(converted, reference, "type-erased record: {trace:?}");

    // In a channel the record opens a group whose index frame is
    // `IndexRecord`'s. Captured again behind itself, the record is in
    // that group, its edges may become a reference and its value at entry
    // a `Same`; that frame too is what `WireVertexTrace` encodes to.
    let (mut writer, mut channel) = (ChannelWriter::default(), Vec::new());
    for _ in 0..2 {
        writer.append_vertex(&capture, &mut channel).unwrap();
    }
    let index = IndexRecord {
        superstep: trace.superstep,
        records_before: 0,
        bytes_before: 0,
        global: trace.global,
        aggregators: trace.aggregators.clone(),
    };
    let mut opened = Vec::new();
    graft_codec::frame::write_value_frame(&mut opened, FRAME_INDEX, &index).unwrap();
    opened.extend_from_slice(&reference);
    assert_eq!(channel[..opened.len()], opened, "the group: {trace:?}");
    let again = &channel[opened.len()..];
    let frame = FrameScanner::new(again).next_frame().unwrap().unwrap();
    let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
    let mut rewritten = Vec::new();
    graft_codec::frame::write_value_frame(&mut rewritten, FRAME_VERTEX, &wire).unwrap();
    assert_eq!(rewritten, again, "repeated record: {trace:?}");
}

const CASES: usize = 300;

#[test]
fn pagerank_and_sssp_records() {
    let mut rng = Rng64::seed_from_u64(1);
    for _ in 0..CASES {
        // PageRank: (u64, f64, (), f64).
        check(&random_trace(&mut rng, random_u64, random_f64, |_| (), random_f64));
        let record = random_trace(&mut rng, random_u64, random_f64, |_| (), random_f64);
        let message = random_f64(&mut rng);
        check(&broadcasting(record, message));
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
        let record = random_trace(&mut rng, random_u64, random_u64, |_| (), random_u64);
        let message = random_u64(&mut rng);
        check(&broadcasting(record, message));
        // Random walk: (u64, RWValue, (), i64).
        check(&random_trace(&mut rng, random_u64, rw_value, |_| (), random_i64));
    }
}

#[test]
fn graph_coloring_records() {
    let mut rng = Rng64::seed_from_u64(3);
    for _ in 0..CASES {
        check(&random_trace(&mut rng, random_u64, gc_value, |_| (), gc_message));
        let record = random_trace(&mut rng, random_u64, gc_value, |_| (), gc_message);
        let message = gc_message(&mut rng);
        check(&broadcasting(record, message));
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
    // A map keyed by a tuple has no tagged (JSON-shaped) rendition.
    let bad_value = std::collections::BTreeMap::from([((1u8, 2u8), 3u8)]);
    let mut rng = Rng64::seed_from_u64(5);
    let trace = random_trace(&mut rng, random_u64, |_| bad_value.clone(), |_| (), random_u64);
    let mut buf = vec![1, 2, 3];
    let err = trace.encode_binary_frame(&mut buf).unwrap_err();
    assert!(matches!(err, CaptureError::Codec(_)), "{err:?}");
    assert_eq!(err.to_string(), "map key must be a string or number");
    assert_eq!(buf, [1, 2, 3]);
}
