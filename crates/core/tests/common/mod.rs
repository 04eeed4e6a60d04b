//! Seeded generators of trace records, shared by the differential tests
//! of the capture path and of the read path: the typed positions
//! `(Id, VValue, EValue, Message)` of every algorithm in
//! `graft-algorithms`, inside records whose untyped fields are drawn at
//! random.

// Each test crate uses its own subset.
#![allow(dead_code)]

use graft::{CaptureReason, ExceptionInfo, VertexTrace, ViolationKind, ViolationRecord};
use graft_algorithms::coloring::{GCMessage, GCState, GCValue};
use graft_algorithms::matching::{MWMMessage, MWMValue};
use graft_algorithms::random_walk::RWValue;
use graft_pregel::{AggValue, GlobalData};
use rand::Rng;

pub type Rng64 = rand::rngs::StdRng;

pub fn random_f64(rng: &mut Rng64) -> f64 {
    match rng.gen_range(0..8u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.gen_range(0..5u32) as f64,
        _ => f64::from_bits(rng.gen()),
    }
}

pub fn random_u64(rng: &mut Rng64) -> u64 {
    if rng.gen_bool(0.5) {
        rng.gen()
    } else {
        rng.gen_range(0..300)
    }
}

pub fn random_i64(rng: &mut Rng64) -> i64 {
    match rng.gen_range(0..4u32) {
        0 => i64::MIN,
        1 => rng.gen(),
        _ => rng.gen_range(-200..200),
    }
}

/// Aggregators are typed fields, not type-erased ones: a NaN there has no
/// JSON rendition that parses back, whichever encoder wrote the frame.
pub fn random_agg(rng: &mut Rng64) -> AggValue {
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
pub fn random_trace<I, V, E, M>(
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

/// Random walk's vertex value.
pub fn rw_value(rng: &mut Rng64) -> RWValue {
    RWValue { walkers: random_i64(rng) }
}

/// Graph coloring's vertex value: `GCValue` declares its fields out of
/// key order.
pub fn gc_value(rng: &mut Rng64) -> GCValue {
    GCValue {
        color: rng.gen_bool(0.5).then(|| random_u64(rng)),
        state: [GCState::Undecided, GCState::InSet, GCState::OutOfSet, GCState::Colored]
            [rng.gen_range(0..4usize)],
        priority: random_u64(rng),
    }
}

/// Graph coloring's message: a struct variant next to a unit one.
pub fn gc_message(rng: &mut Rng64) -> GCMessage {
    if rng.gen_bool(0.3) {
        GCMessage::InSet
    } else {
        GCMessage::Priority { priority: random_u64(rng), sender: random_u64(rng) }
    }
}

/// Matching's vertex value.
pub fn mwm_value(rng: &mut Rng64) -> MWMValue {
    MWMValue {
        matched_with: rng.gen_bool(0.5).then(|| random_u64(rng)),
        proposed_to: rng.gen_bool(0.5).then(|| random_u64(rng)),
    }
}

/// Matching's message.
pub fn mwm_message(rng: &mut Rng64) -> MWMMessage {
    if rng.gen() {
        MWMMessage::Propose(random_u64(rng))
    } else {
        MWMMessage::Matched(random_u64(rng))
    }
}
