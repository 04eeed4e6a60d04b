//! Differential test of the single-pass capture encoder against the
//! tree-building one it replaced: for the `(Id, VValue, EValue, Message)`
//! of every algorithm in `graft-algorithms`, and for the type-erased
//! records `trace convert --to binary` re-encodes, the vertex frame must
//! equal `write_value_frame(FRAME_VERTEX, &wire_vertex_trace(..))` —
//! whether it is encoded from an owned `VertexTrace` or from a
//! `VertexCapture` borrowing engine-shaped state.

use std::fmt::Debug;

use graft::trace::{
    encode_record, CaptureError, TraceRecord, VertexCapture, WireVertexTrace, FRAME_VERTEX,
};
use graft::{
    CaptureReason, ExceptionInfo, TraceCodec, VertexTrace, ViolationKind, ViolationRecord,
};
use graft_algorithms::coloring::{GCMessage, GCState, GCValue};
use graft_algorithms::matching::{MWMMessage, MWMValue};
use graft_algorithms::random_walk::RWValue;
use graft_codec::{to_bin_value, BinValue};
use graft_pregel::{AggValue, Edge, GlobalData};
use rand::{Rng, SeedableRng};
use serde::Serialize;

type Rng64 = rand::rngs::StdRng;

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

fn random_f64(rng: &mut Rng64) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.gen_range(0..5u32) as f64,
        _ => f64::from_bits(rng.gen()),
    }
}

fn random_u64(rng: &mut Rng64) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen()
    } else {
        rng.gen_range(0..300)
    }
}

fn random_i64(rng: &mut Rng64) -> i64 {
    match rng.gen_range(0..4u32) {
        0 => i64::MIN,
        1 => rng.gen(),
        _ => rng.gen_range(-200..200),
    }
}

/// Aggregators are typed fields, not type-erased ones: a NaN there has no
/// JSON rendition that parses back, whichever encoder wrote the frame.
fn random_agg(rng: &mut Rng64) -> AggValue {
    let double = |rng: &mut Rng64| Some(random_f64(rng)).filter(|f| !f.is_nan()).unwrap_or(0.5);
    match rng.gen_range(0..5u32) {
        0 => AggValue::Long(random_i64(rng)),
        1 => AggValue::Double(double(rng)),
        2 => AggValue::Bool(rng.gen()),
        3 => AggValue::Text(["MIS", "", "COLOR-ASSIGNMENT ✓"][rng.gen_range(0..3usize)].into()),
        _ => AggValue::Pair(random_i64(rng), double(rng)),
    }
}

/// A record around the given typed positions, with every untyped field
/// drawn at random: each optional part present in some cases and absent
/// in others, frames on both sides of the one-byte length prefix.
fn random_trace<I, V, E, M>(
    rng: &mut Rng64,
    id: impl Fn(&mut Rng64) -> I,
    value: impl Fn(&mut Rng64) -> V,
    edge: impl Fn(&mut Rng64) -> E,
    message: impl Fn(&mut Rng64) -> M,
) -> VertexTrace<I, V, E, M> {
    let superstep = random_u64(rng);
    let sometimes = |rng: &mut Rng64, max: usize| {
        if rng.gen_bool(0.3) {
            0
        } else {
            rng.gen_range(0..=max)
        }
    };
    const REASONS: [CaptureReason; 7] = [
        CaptureReason::SpecifiedId,
        CaptureReason::RandomSample,
        CaptureReason::NeighborOfCaptured,
        CaptureReason::AllActive,
        CaptureReason::MessageViolation,
        CaptureReason::VertexValueViolation,
        CaptureReason::Exception,
    ];
    VertexTrace {
        superstep,
        vertex: id(rng),
        value_before: value(rng),
        value_after: value(rng),
        edges: (0..sometimes(rng, 40)).map(|_| (id(rng), edge(rng))).collect(),
        incoming: (0..sometimes(rng, 40)).map(|_| message(rng)).collect(),
        outgoing: (0..sometimes(rng, 40)).map(|_| (id(rng), message(rng))).collect(),
        aggregators: (0..sometimes(rng, 3)).map(|i| (format!("agg{i}"), random_agg(rng))).collect(),
        global: GlobalData { superstep, num_vertices: random_u64(rng), num_edges: random_u64(rng) },
        halted_after: rng.gen(),
        reasons: (0..rng.gen_range(1..3usize)).map(|_| REASONS[rng.gen_range(0..7usize)]).collect(),
        violations: (0..sometimes(rng, 2))
            .map(|_| ViolationRecord {
                kind: if rng.gen() { ViolationKind::Message } else { ViolationKind::VertexValue },
                detail: format!("{:?}", random_f64(rng)),
                target: rng.gen_bool(0.5).then(|| random_u64(rng).to_string()),
            })
            .collect(),
        exception: rng.gen_bool(0.2).then(|| ExceptionInfo {
            message: "attempt to subtract with overflow (at src/lib.rs:3:5)".into(),
            backtrace: rng.gen_bool(0.5).then(|| "   0: frame\n   1: frame".into()),
        }),
    }
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
        let walkers = |rng: &mut Rng64| RWValue { walkers: random_i64(rng) };
        check(&random_trace(&mut rng, random_u64, walkers, |_| (), random_i64));
    }
}

#[test]
fn graph_coloring_records() {
    let mut rng = Rng64::seed_from_u64(3);
    // `GCValue` declares its fields out of key order and `GCMessage` has
    // a struct variant next to a unit one.
    let value = |rng: &mut Rng64| GCValue {
        color: rng.gen_bool(0.5).then(|| random_u64(rng)),
        state: [GCState::Undecided, GCState::InSet, GCState::OutOfSet, GCState::Colored]
            [rng.gen_range(0..4usize)],
        priority: random_u64(rng),
    };
    let message = |rng: &mut Rng64| {
        if rng.gen_bool(0.3) {
            GCMessage::InSet
        } else {
            GCMessage::Priority { priority: random_u64(rng), sender: random_u64(rng) }
        }
    };
    for _ in 0..CASES {
        check(&random_trace(&mut rng, random_u64, value, |_| (), message));
    }
}

#[test]
fn matching_records() {
    let mut rng = Rng64::seed_from_u64(4);
    let value = |rng: &mut Rng64| MWMValue {
        matched_with: rng.gen_bool(0.5).then(|| random_u64(rng)),
        proposed_to: rng.gen_bool(0.5).then(|| random_u64(rng)),
    };
    let message = |rng: &mut Rng64| {
        if rng.gen() {
            MWMMessage::Propose(random_u64(rng))
        } else {
            MWMMessage::Matched(random_u64(rng))
        }
    };
    for _ in 0..CASES {
        check(&random_trace(&mut rng, random_u64, value, random_f64, message));
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
