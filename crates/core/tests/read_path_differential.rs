//! Differential test of the decode-once read path against the reader it
//! replaced, over valid vertex payloads of every algorithm in
//! `graft-algorithms` and over seeded mutations of them:
//!
//! * skimming a payload (`VertexHead`) succeeds exactly when decoding it
//!   in full (`WireVertexTrace`) does, with the same error when not —
//!   which is what lets `UntypedSession` parse a row `open` only skimmed;
//! * the head is what the full value says: superstep, rendered vertex,
//!   flag bits;
//! * the row digest the listing views read (`RowDigest::from_payload`,
//!   with and without edges) decodes exactly when the record does, with
//!   the same error, and every field of it is what the `UntypedTrace`
//!   accessor of that name says of the full value;
//! * `vertex_value_from_payload` builds the value the three-step
//!   function it replaced built (decode, `to_value`, `normalize`).
//!
//! Seeds are fixed, so a failure reproduces with the same command. A
//! release build (CI's `fuzz-smoke` job) runs ten times the mutations of
//! a debug one.

mod common;

use common::{
    gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64, random_trace, random_u64,
    rw_value, Rng64,
};
use graft::trace::{
    encode_record, vertex_value_from_payload, RowDigest, TraceRecord, VertexHead, WireVertexTrace,
    FLAG_EXCEPTION, FLAG_MESSAGE_VIOLATION, FLAG_VALUE_VIOLATION,
};
use graft::untyped::UntypedTrace;
use graft::TraceCodec;
use graft_codec::frame::FrameScanner;
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// The reader this PR replaced, kept as the oracle.
fn three_step_value(payload: &[u8]) -> Result<Value, String> {
    let wire: WireVertexTrace = graft_codec::from_slice(payload).map_err(|e| e.to_string())?;
    let mut value = serde_json::to_value(&wire).map_err(|e| e.to_string())?;
    graft_codec::normalize(&mut value);
    Ok(value)
}

/// The head, read off the full value the way the views read a row.
fn head_of(value: &Value) -> VertexHead {
    let mut flags = 0;
    for violation in value["violations"].as_array().unwrap() {
        flags |= match violation["kind"].as_str().unwrap() {
            "Message" => FLAG_MESSAGE_VIOLATION,
            "VertexValue" => FLAG_VALUE_VIOLATION,
            other => panic!("violation kind {other}"),
        };
    }
    if !value["exception"].is_null() {
        flags |= FLAG_EXCEPTION;
    }
    let vertex = match &value["vertex"] {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    };
    VertexHead { superstep: value["superstep"].as_u64().unwrap(), vertex, flags }
}

/// Checks one payload; returns whether it decodes.
fn check(payload: &[u8]) -> bool {
    let skimmed = graft_codec::from_slice::<VertexHead>(payload).map_err(|e| e.to_string());
    let oracle = three_step_value(payload);
    let built = vertex_value_from_payload(payload).map_err(|e| e.to_string());
    let digest =
        |with_edges| RowDigest::from_payload(payload, with_edges).map_err(|e| e.to_string());
    match oracle {
        Ok(oracle) => {
            let built = built.unwrap_or_else(|e| panic!("{e}: {payload:?}"));
            // `==` tells `5` from `5u64` but not `-0.0` from `0.0`; the text does.
            assert_eq!(built, oracle, "{payload:?}");
            assert_eq!(built.to_string(), oracle.to_string(), "{payload:?}");
            assert_eq!(skimmed, Ok(head_of(&oracle)), "{payload:?}");
            // `UntypedTrace::digest` is its accessors, field for field.
            let row = UntypedTrace::from(oracle);
            assert_eq!(digest(true), Ok(row.digest(true)), "{payload:?}");
            assert_eq!(digest(false), Ok(row.digest(false)), "{payload:?}");
            true
        }
        Err(error) => {
            assert_eq!(skimmed, Err(error.clone()), "{payload:?}");
            assert_eq!(digest(true), Err(error.clone()), "{payload:?}");
            assert_eq!(digest(false), Err(error.clone()), "{payload:?}");
            assert_eq!(built, Err(error), "{payload:?}");
            false
        }
    }
}

fn payload_of(record: &impl TraceRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_record(TraceCodec::Binary, record, &mut frame).unwrap();
    FrameScanner::new(&frame).next_frame().unwrap().unwrap().payload.to_vec()
}

/// Payloads of every algorithm's record shape, plus string ids.
fn valid_payloads(rng: &mut Rng64, per_shape: usize) -> Vec<Vec<u8>> {
    let name = |rng: &mut Rng64| ["v1", "", "κόμβος ✓", "10"][rng.gen_range(0..4usize)].to_string();
    let mut payloads = Vec::new();
    for _ in 0..per_shape {
        // PageRank, SSSP, components, random walk, coloring, matching.
        payloads.push(payload_of(&random_trace(rng, random_u64, random_f64, |_| (), random_f64)));
        payloads
            .push(payload_of(&random_trace(rng, random_u64, random_f64, random_f64, random_f64)));
        payloads.push(payload_of(&random_trace(rng, random_u64, random_u64, |_| (), random_u64)));
        payloads.push(payload_of(&random_trace(rng, random_u64, rw_value, |_| (), random_i64)));
        payloads.push(payload_of(&random_trace(rng, random_u64, gc_value, |_| (), gc_message)));
        payloads.push(payload_of(&random_trace(
            rng,
            random_u64,
            mwm_value,
            random_f64,
            mwm_message,
        )));
        payloads.push(payload_of(&random_trace(rng, name, gc_value, name, random_i64)));
    }
    payloads
}

#[test]
fn every_algorithms_records_skim_and_build_like_the_old_reader() {
    let mut rng = Rng64::seed_from_u64(15);
    for payload in valid_payloads(&mut rng, 100) {
        assert!(check(&payload), "a captured record must decode");
    }
}

/// One seeded edit of a valid payload.
fn mutate(rng: &mut Rng64, payload: &mut Vec<u8>) {
    let at = rng.gen_range(0..payload.len());
    match rng.gen_range(0..8u32) {
        // A flipped bit, a flipped byte.
        0 => payload[at] ^= 1 << rng.gen_range(0..8u32),
        1 => payload[at] ^= 0xff,
        // A truncation.
        2 => payload.truncate(at),
        // A tag, length or count edited: most bytes of a record are one.
        3 => payload[at] = rng.gen_range(0..10u32) as u8,
        4 => payload[at] = payload[at].wrapping_add(if rng.gen_bool(0.5) { 1 } else { 0xff }),
        // A continuation bit: invalid UTF-8 in a string, a longer varint
        // in a length.
        5 => payload[at] |= 0x80,
        // Trailing bytes.
        6 => payload.extend((0..rng.gen_range(1..4u32)).map(|_| rng.gen::<u32>() as u8)),
        // A byte removed or inserted: everything after it shifts.
        _ => {
            if rng.gen_bool(0.5) {
                payload.remove(at);
            } else {
                payload.insert(at, rng.gen::<u32>() as u8);
            }
        }
    }
}

#[test]
fn mutated_payloads_skim_exactly_when_they_decode() {
    let budget = if cfg!(debug_assertions) { 6_000 } else { 60_000 };
    let mut rng = Rng64::seed_from_u64(0x15_5eed);
    let valid = valid_payloads(&mut rng, 20);
    let mut decoded = 0;
    for _ in 0..budget {
        let mut payload = valid[rng.gen_range(0..valid.len())].clone();
        // Sometimes two edits: the second can repair or mask the first.
        for _ in 0..if rng.gen_bool(0.2) { 2 } else { 1 } {
            if !payload.is_empty() {
                mutate(&mut rng, &mut payload);
            }
        }
        decoded += usize::from(check(&payload));
    }
    // Both sides of the equivalence must be exercised.
    assert!(decoded > budget / 10 && decoded < budget * 9 / 10, "{decoded} of {budget} decoded");
}
