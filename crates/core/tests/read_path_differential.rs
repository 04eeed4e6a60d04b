//! Differential test of the read path against plain decoding, over valid
//! vertex payloads of every algorithm in `graft-algorithms` — in layout
//! v1, and in layout v2 with the edges inline and by reference — and over
//! seeded mutations of them:
//!
//! * skimming a payload (`VertexChannel::head`) succeeds exactly when
//!   decoding it in full (`WireVertexTrace`, in v1 `ErasedVertexTrace`)
//!   does, with the same error when not — which is what lets
//!   `UntypedSession` parse a row `open` only skimmed;
//! * the head is what the full value says: superstep, rendered vertex,
//!   flag bits;
//! * the row digest the listing views read (`VertexChannel::digest`)
//!   decodes exactly when the record does, with the same error, and every
//!   field of it is what the `UntypedTrace` accessor of that name says of
//!   the full value;
//! * `VertexChannel::value`, and the digest with edges, follow an edge
//!   reference exactly when it names a frame of the channel recording the
//!   same vertex with its edges inline, and then build what decoding the
//!   record, taking that frame's edges and normalizing gives.
//!
//! Every edge reference a channel can hold wrong — dangling, forward, to
//! itself, to another reference, to a frame of another kind or vertex, to
//! the middle of a frame, past a torn tail — fails every reader of the
//! channel with a typed error naming the referring frame.
//!
//! Seeds are fixed, so a failure reproduces with the same command. A
//! release build (CI's `fuzz-smoke` job) runs ten times the mutations of
//! a debug one.

mod common;

use std::sync::Arc;

use common::{
    gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64, random_trace, random_u64,
    rw_value, Rng64,
};
use graft::trace::{
    encode_index_frame, meta_path, walk_vertex_channel, worker_trace_path, ChannelWriter, EdgeRefs,
    ErasedVertexTrace, IndexRecord, JobMeta, TraceFormat, TraceReadError, TraceRecord,
    VertexChannel, VertexHead, VertexTrace, WireEdges, WireVertexTrace, FLAG_EXCEPTION,
    FLAG_MESSAGE_VIOLATION, FLAG_VALUE_VIOLATION, FRAME_VERTEX,
};
use graft::untyped::{JobSummary, UntypedSession, UntypedTrace};
use graft::{DebugSession, SessionError};
use graft_codec::frame::{write_frame, write_value_frame, FrameScanner};
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{Computation, ContextOf, GlobalData, VertexHandleOf};
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// A payload under test: the last frame of a channel whose earlier
/// frames it may reference.
#[derive(Clone)]
struct Case {
    format: TraceFormat,
    before: Vec<u8>,
    payload: Vec<u8>,
}

impl Case {
    fn channel(&self) -> Vec<u8> {
        let mut channel = self.before.clone();
        write_frame(&mut channel, FRAME_VERTEX, &self.payload);
        channel
    }
}

/// The record a payload decodes to, its edges left empty when it holds a
/// reference, and the offset the reference names.
fn decode(format: TraceFormat, payload: &[u8]) -> Result<(ErasedVertexTrace, Option<u64>), String> {
    if format == TraceFormat::Binary {
        return graft_codec::from_slice(payload)
            .map(|record| (record, None))
            .map_err(|e| e.to_string());
    }
    let wire: WireVertexTrace = graft_codec::from_slice(payload).map_err(|e| e.to_string())?;
    let (edges, target) = match wire.edges {
        WireEdges::Inline(edges) => (edges, None),
        WireEdges::At(target) => (Vec::new(), Some(target)),
    };
    let record = VertexTrace {
        superstep: wire.superstep,
        vertex: wire.vertex,
        value_before: wire.value_before,
        value_after: wire.value_after,
        edges,
        incoming: wire.incoming,
        outgoing: wire.outgoing,
        aggregators: wire.aggregators,
        global: wire.global,
        halted_after: wire.halted_after,
        reasons: wire.reasons,
        violations: wire.violations,
        exception: wire.exception,
    };
    Ok((record, target))
}

/// The edges of the frame of `channel` starting at `target`, if it is a
/// vertex frame recording `vertex` with its edges inline.
fn referenced_edges(
    channel: &[u8],
    target: u64,
    vertex: &graft_codec::BinValue,
) -> Option<Vec<(graft_codec::BinValue, graft_codec::BinValue)>> {
    let mut scanner = FrameScanner::new(channel);
    while let Ok(Some(frame)) = scanner.next_frame() {
        if frame.start as u64 != target || frame.kind != FRAME_VERTEX {
            continue;
        }
        let (record, reference) = decode(TraceFormat::BinaryV2, frame.payload).ok()?;
        let same = graft_codec::to_vec(&record.vertex).ok()? == graft_codec::to_vec(vertex).ok()?;
        return (same && reference.is_none()).then_some(record.edges);
    }
    None
}

/// The normalized dynamic value of a record: what parsing its JSON line
/// gives.
fn value_of(record: &ErasedVertexTrace) -> Value {
    let mut value = serde_json::to_value(record).unwrap();
    graft_codec::normalize(&mut value);
    value
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

/// What one case read: whether its payload decodes, and whether its
/// edges, if a reference, resolve.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Read {
    Fails,
    Decodes { resolved: bool },
}

/// Checks one case.
fn check(case: &Case) -> Read {
    let channel = case.channel();
    let payload =
        FrameScanner::new(&channel[case.before.len()..]).next_frame().unwrap().unwrap().payload;
    let reader = VertexChannel::new(&channel, case.format);
    let skimmed = reader.head(payload).map_err(|e| e.to_string());
    let digest = |with_edges| reader.digest(payload, with_edges).map_err(|e| e.to_string());
    let built = reader.value(payload).map_err(|e| e.to_string());
    let at = |what: &str| format!("{what}: {payload:?}");
    let (record, target) = match decode(case.format, payload) {
        Ok(decoded) => decoded,
        Err(error) => {
            assert_eq!(skimmed, Err(error.clone()), "{}", at("head"));
            assert_eq!(digest(true), Err(error.clone()), "{}", at("digest"));
            assert_eq!(digest(false), Err(error.clone()), "{}", at("digest"));
            assert_eq!(built, Err(error), "{}", at("value"));
            return Read::Fails;
        }
    };
    let unresolved = value_of(&record);
    assert_eq!(skimmed, Ok(head_of(&unresolved)), "{}", at("head"));
    assert_eq!(digest(false), Ok(UntypedTrace::from(unresolved).digest(false)), "{}", at("digest"));
    let edges = match target {
        None => Some(record.edges.clone()),
        Some(target) => referenced_edges(&channel, target, &record.vertex),
    };
    let Some(edges) = edges else {
        assert!(built.is_err(), "{}", at("value of a bad reference"));
        assert!(digest(true).is_err(), "{}", at("digest of a bad reference"));
        return Read::Decodes { resolved: false };
    };
    let full = value_of(&VertexTrace { edges, ..record });
    let built = built.unwrap_or_else(|e| panic!("{e}: {}", at("value")));
    // `==` tells `5` from `5u64` but not `-0.0` from `0.0`; the text does.
    assert_eq!(built, full, "{}", at("value"));
    assert_eq!(built.to_string(), full.to_string(), "{}", at("value"));
    assert_eq!(digest(true), Ok(UntypedTrace::from(full).digest(true)), "{}", at("digest"));
    Read::Decodes { resolved: true }
}

/// The three cases of one record: a v1 payload, a v2 payload with its
/// edges inline, and the v2 payload of the same record captured again,
/// behind the first — its edges a reference where the rule makes one.
fn cases_of<R: TraceRecord + serde::Serialize>(record: &R) -> [Case; 3] {
    let erased: ErasedVertexTrace =
        serde_json::from_slice(&serde_json::to_vec(record).unwrap()).unwrap();
    let v1 = Case {
        format: TraceFormat::Binary,
        before: Vec::new(),
        payload: graft_codec::to_vec(&erased).unwrap(),
    };
    let mut channel = Vec::new();
    let mut refs = EdgeRefs::default();
    for _ in 0..2 {
        let offset = channel.len() as u64;
        record.encode_channel_frame(&mut channel, &mut refs, offset).unwrap();
    }
    let mut scanner = FrameScanner::new(&channel);
    let first = scanner.next_frame().unwrap().unwrap();
    let again = scanner.next_frame().unwrap().unwrap();
    let inline =
        Case { format: TraceFormat::BinaryV2, before: Vec::new(), payload: first.payload.to_vec() };
    let repeated = Case {
        format: TraceFormat::BinaryV2,
        before: channel[..first.end].to_vec(),
        payload: again.payload.to_vec(),
    };
    [v1, inline, repeated]
}

/// Cases of every algorithm's record shape, plus string ids.
fn valid_cases(rng: &mut Rng64, per_shape: usize) -> Vec<Case> {
    let name = |rng: &mut Rng64| ["v1", "", "κόμβος ✓", "10"][rng.gen_range(0..4usize)].to_string();
    let mut cases = Vec::new();
    for _ in 0..per_shape {
        // PageRank, SSSP, components, random walk, coloring, matching.
        cases.extend(cases_of(&random_trace(rng, random_u64, random_f64, |_| (), random_f64)));
        cases.extend(cases_of(&random_trace(rng, random_u64, random_f64, random_f64, random_f64)));
        cases.extend(cases_of(&random_trace(rng, random_u64, random_u64, |_| (), random_u64)));
        cases.extend(cases_of(&random_trace(rng, random_u64, rw_value, |_| (), random_i64)));
        cases.extend(cases_of(&random_trace(rng, random_u64, gc_value, |_| (), gc_message)));
        cases.extend(cases_of(&random_trace(rng, random_u64, mwm_value, random_f64, mwm_message)));
        cases.extend(cases_of(&random_trace(rng, name, gc_value, name, random_i64)));
    }
    cases
}

/// Whether a v2 payload holds its edges by reference.
fn is_reference(case: &Case) -> bool {
    matches!(decode(case.format, &case.payload), Ok((_, Some(_))))
}

#[test]
fn every_algorithms_records_skim_and_build_like_the_old_reader() {
    let mut rng = Rng64::seed_from_u64(15);
    let cases = valid_cases(&mut rng, 100);
    for case in &cases {
        assert_eq!(check(case), Read::Decodes { resolved: true }, "a captured record must read");
    }
    // Most repeated records hold a reference; short edge lists do not.
    let references = cases.iter().filter(|case| is_reference(case)).count();
    assert!(references > cases.len() / 6, "{references} references in {} cases", cases.len());
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
        // A tag, length, count or variant edited: most bytes of a record
        // are one.
        3 => payload[at] = rng.gen_range(0..10u32) as u8,
        4 => payload[at] = payload[at].wrapping_add(if rng.gen_bool(0.5) { 1 } else { 0xff }),
        // A continuation bit: invalid UTF-8 in a string, a longer varint
        // in a length or an offset.
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
    let valid = valid_cases(&mut rng, 20);
    let references: Vec<&Case> = valid.iter().filter(|case| is_reference(case)).collect();
    let (mut decoded, mut unresolved) = (0, 0);
    for round in 0..budget {
        // Every fourth edit lands on a payload holding a reference.
        let mut case = if round % 4 == 0 {
            references[rng.gen_range(0..references.len())].clone()
        } else {
            valid[rng.gen_range(0..valid.len())].clone()
        };
        // Sometimes two edits: the second can repair or mask the first.
        for _ in 0..if rng.gen_bool(0.2) { 2 } else { 1 } {
            if !case.payload.is_empty() {
                mutate(&mut rng, &mut case.payload);
            }
        }
        match check(&case) {
            Read::Fails => {}
            Read::Decodes { resolved } => {
                decoded += 1;
                unresolved += usize::from(!resolved);
            }
        }
    }
    // Both sides of each equivalence must be exercised.
    assert!(decoded > budget / 10 && decoded < budget * 9 / 10, "{decoded} of {budget} decoded");
    assert!(unresolved > budget / 1000, "{unresolved} of {budget} held a bad reference");
}

/// The computation the damaged channels record, for `DebugSession`.
struct Ring;

impl Computation for Ring {
    type Id = u64;
    type VValue = i64;
    type EValue = ();
    type Message = i64;

    fn compute(
        &self,
        _vertex: &mut VertexHandleOf<'_, Self>,
        _messages: &[i64],
        _ctx: &mut ContextOf<'_, Self>,
    ) {
    }
}

fn ring_record(superstep: u64, vertex: u64) -> VertexTrace<u64, i64, (), i64> {
    VertexTrace {
        superstep,
        vertex,
        value_before: 1,
        value_after: 2,
        edges: (1..4).map(|step| ((vertex + step) % 8, ())).collect(),
        incoming: vec![],
        outgoing: vec![],
        aggregators: vec![],
        global: GlobalData { superstep, num_vertices: 8, num_edges: 24 },
        halted_after: false,
        reasons: vec![graft::CaptureReason::AllActive],
        violations: vec![],
        exception: None,
    }
}

/// Frame starts of the pristine channel below.
struct Layout {
    index: [usize; 3],
    a: [usize; 3],
    b: [usize; 2],
}

/// A channel written as the sink writes it: vertices 1 (`a`) and 2 (`b`)
/// in supersteps 0 and 1, vertex 1 again in superstep 2 — its inline
/// lists in superstep 0, references after. It is laid out frame by frame
/// here, and must be what a `ChannelWriter` writes.
fn pristine() -> (Vec<u8>, Layout) {
    let mut channel = Vec::new();
    let mut refs = EdgeRefs::default();
    let mut writer = (ChannelWriter::default(), Vec::new());
    let mut layout = Layout { index: [0; 3], a: [0; 3], b: [0; 2] };
    let mut records = 0;
    for superstep in 0..3u64 {
        let s = superstep as usize;
        layout.index[s] = channel.len();
        let index =
            IndexRecord { superstep, records_before: records, bytes_before: channel.len() as u64 };
        encode_index_frame(&index, &mut channel).unwrap();
        for vertex in [1u64, 2].into_iter().filter(|v| superstep < 2 || *v == 1) {
            let offset = channel.len();
            match vertex {
                1 => layout.a[s] = offset,
                _ => layout.b[s] = offset,
            }
            let record = ring_record(superstep, vertex);
            record.encode_channel_frame(&mut channel, &mut refs, offset as u64).unwrap();
            writer.0.append_vertex(&record, &mut writer.1).unwrap();
            records += 1;
        }
    }
    assert_eq!(writer.1, channel, "the channel writer's grammar");
    (channel, layout)
}

/// The last frame of `channel` — vertex 1 in superstep 2 — rewritten
/// to reference `target`.
fn redirect(channel: &[u8], last: usize, target: u64) -> Vec<u8> {
    let frame = FrameScanner::new(&channel[last..]).next_frame().unwrap().unwrap();
    let mut wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
    assert!(matches!(wire.edges, WireEdges::At(_)), "the pristine record holds a reference");
    wire.edges = WireEdges::At(target);
    let mut damaged = channel[..last].to_vec();
    write_value_frame(&mut damaged, FRAME_VERTEX, &wire).unwrap();
    damaged
}

/// The channel with its last frame referencing where that frame ends,
/// and `tail` written there.
fn redirect_to_end(channel: &[u8], last: usize, tail: &[u8]) -> Vec<u8> {
    // Every two-byte offset gives the frame the same length.
    let end = redirect(channel, last, 1 << 7).len();
    assert!((1 << 7..1 << 14).contains(&end), "{end}");
    let mut damaged = redirect(channel, last, end as u64);
    damaged.extend_from_slice(tail);
    damaged
}

fn write_trace(fs: &Arc<dyn FileSystem>, root: &str, channel: &[u8]) {
    let meta = JobMeta {
        computation: "Ring".into(),
        computation_type: "read_path_differential::Ring".into(),
        master: None,
        value_types: ("u64".into(), "i64".into(), "()".into(), "i64".into()),
        num_workers: 1,
        trace_format: Some(TraceFormat::BinaryV2),
        config: vec![],
        facts: None,
    };
    fs.write_all(&meta_path(root), &serde_json::to_vec(&meta).unwrap()).unwrap();
    fs.write_all(&worker_trace_path(root, 0), channel).unwrap();
}

/// Whether `error` is the typed error of a bad reference in the frame at
/// `offset`.
fn names_the_frame(error: &TraceReadError, offset: usize) -> bool {
    matches!(error, TraceReadError::EdgeRef { offset: at, .. } if *at == offset)
}

fn session_names_the_frame<T>(opened: Result<T, SessionError>, offset: usize) -> bool {
    matches!(opened, Err(SessionError::Decode { error, .. }) if names_the_frame(&error, offset))
}

#[test]
fn every_damaged_reference_fails_every_reader_at_its_frame() {
    let (channel, layout) = pristine();
    let last = layout.a[2];
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    write_trace(&fs, "/pristine", &channel);
    let session = UntypedSession::open(fs.clone(), "/pristine").unwrap();
    assert_eq!(session.total_captures(), 5);
    assert_eq!(session.vertex_at(2, "1").unwrap().edges().len(), 3);

    let mut next = Vec::new();
    ring_record(2, 2).encode_binary_frame(&mut next).unwrap();
    let torn = &next[..next.len() - 2];
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("dangling", redirect(&channel, last, 1 << 40)),
        ("forward", redirect_to_end(&channel, last, &next)),
        ("to itself", redirect(&channel, last, last as u64)),
        ("to a reference", redirect(&channel, last, layout.a[1] as u64)),
        ("to an index frame", redirect(&channel, last, layout.index[0] as u64)),
        ("into a frame", redirect(&channel, last, layout.a[0] as u64 + 1)),
        ("to another vertex", redirect(&channel, last, layout.b[0] as u64)),
        ("past a torn tail", redirect_to_end(&channel, last, torn)),
    ];
    for (name, damaged) in cases {
        let root = format!("/damaged/{}", name.replace(' ', "-"));
        write_trace(&fs, &root, &damaged);
        assert!(
            session_names_the_frame(UntypedSession::open(fs.clone(), &root), last),
            "{name}: open"
        );
        let partial = UntypedSession::open_partial(fs.clone(), &root, u64::MAX);
        assert!(session_names_the_frame(partial, last), "{name}: open_partial");
        let summary = JobSummary::scan(fs.as_ref(), &root);
        assert!(session_names_the_frame(summary, last), "{name}: scan");
        let typed = DebugSession::<Ring>::open(fs.clone(), &root);
        assert!(session_names_the_frame(typed, last), "{name}: DebugSession::open");
        // What `graft-cli trace dump` walks.
        let walked = walk_vertex_channel(
            VertexChannel::new(&damaged, TraceFormat::BinaryV2),
            None,
            |_, _| Ok(()),
        );
        assert!(walked.is_err_and(|e| names_the_frame(&e, last)), "{name}: dump");
    }
}
