//! Differential test of the read path against plain decoding, over valid
//! vertex payloads of every algorithm in `graft-algorithms` — in layout
//! v6 with the value at compute entry inline and as a `Same`, the edges
//! inline and by reference and the outgoing messages listed and as a
//! broadcast, each behind the index frame of its group, and in layout v1 —
//! and over seeded mutations of the vertex payloads and of the index-frame
//! payloads:
//!
//! * an index frame reads exactly when its payload decodes as an
//!   `IndexRecord`; otherwise every walk of the channel fails with that
//!   error at the index frame's offset;
//! * skimming a v6 payload (`VertexChannel::head`) succeeds exactly when
//!   decoding it in full as a `WireVertexTrace` does, with the same error
//!   when not — which is what lets `UntypedSession` decode a row `open`
//!   only skimmed;
//! * the head is what the record says: the group's superstep, rendered
//!   vertex, flag bits;
//! * the row digest the listing views read (`VertexChannel::digest`)
//!   decodes exactly when the record does, with the same error, and every
//!   field of it is what the `UntypedTrace` accessor of that name says of
//!   the record;
//! * `VertexChannel::record`, and the node-link digest, follow an edge
//!   reference exactly when it names a frame of the channel recording the
//!   same vertex with its edges inline, and accept a broadcast exactly
//!   when its count is the number of those edges; `record` and the tabular
//!   digest read a `Same` value exactly when an earlier frame records the
//!   same vertex, as the last such frame's value after compute; the record
//!   is then what decoding the payload, taking that value and that frame's
//!   edges, listing the broadcast along them and the context from the
//!   group gives, and the walk of the channel succeeds exactly then;
//! * a v1 channel passes the door (`native_channel`) exactly when its
//!   payload decodes as an `ErasedVertexTrace`, fails with that error at
//!   that frame's offset otherwise, and becomes a v6 channel that reads,
//!   every way above, as that record — its type-erased values put through
//!   a JSON text round trip, as the door writes them through the tagged
//!   encoding.
//!
//! Every edge reference a channel can hold wrong — dangling, forward, to
//! itself, to another reference, to a frame of another kind or vertex, to
//! the middle of a frame, past a torn tail — fails every reader of the
//! channel with a typed error naming the referring frame, and so does a
//! `Same` value with no earlier frame of its vertex: in the first frame,
//! after the frames of other vertices only, and after a truncation.
//!
//! A name node where the writer puts none — at the id, in an inline edge
//! list — reads to every reader as the payload decodes: the string it
//! names, or the typed error of an index no name has reached.
//!
//! Seeds are fixed, so a failure reproduces with the same command. A
//! release build (CI's `fuzz-smoke` job) runs ten times the mutations of
//! a debug one.

mod common;

use std::sync::Arc;

use common::oracle::BinValue;
use common::{
    broadcasting, gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64,
    random_trace, random_u64, rw_value, Rng64,
};
use graft::trace::{
    encode_index_frame, meta_path, native_channel, walk_vertex_channel, worker_trace_path,
    Broadcast, ChannelKind, ChannelWriter, ErasedVertexTrace, IndexRecord, JobMeta, RowView,
    TraceFormat, TraceReadError, TraceRecord, VertexChannel, VertexHead, VertexRefs, VertexTrace,
    WireEdges, WireOutgoing, WireValue, WireVertexTrace, FLAG_EXCEPTION, FLAG_MESSAGE_VIOLATION,
    FLAG_VALUE_VIOLATION, FRAME_INDEX, FRAME_VERTEX,
};
use graft::untyped::{JobSummary, UntypedSession, UntypedTrace};
use graft::{DebugSession, SessionError, ViolationKind};
use graft_codec::frame::{write_frame, write_value_frame, FrameScanner};
use graft_codec::TaggedBytes;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{Computation, ContextOf, GlobalData, VertexHandleOf};
use rand::{Rng, SeedableRng};

/// A payload under test: the last frame of a channel, behind the index
/// frame of its group, whose earlier frames it may reference; or, in
/// layout v1, a channel's one frame.
#[derive(Clone)]
struct Case {
    v1: bool,
    before: Vec<u8>,
    /// The payload of the index frame that opens the group (v6 only).
    index: Vec<u8>,
    payload: Vec<u8>,
}

impl Case {
    fn channel(&self) -> Vec<u8> {
        let mut channel = self.before.clone();
        if !self.v1 {
            write_frame(&mut channel, FRAME_INDEX, &self.index);
        }
        write_frame(&mut channel, FRAME_VERTEX, &self.payload);
        channel
    }
}

/// What a v6 payload decodes to: the record, its value at compute entry
/// null when it is a `Same`, its edges left empty when it holds a
/// reference and its outgoing messages when they are a broadcast; whether
/// the value is a `Same`; the offset the reference names; the broadcast.
type Decoded = (ErasedVertexTrace, bool, Option<u64>, Option<Broadcast<TaggedBytes>>);

/// Decodes a v6 payload, its superstep and context those of `group`.
fn decode(payload: &[u8], group: &IndexRecord) -> Result<Decoded, String> {
    let wire: WireVertexTrace = graft_codec::from_slice(payload).map_err(|e| e.to_string())?;
    let (value_before, same) = match wire.value_before {
        WireValue::Inline(value) => (value, false),
        WireValue::Same => (serde_json::from_str("null").unwrap(), true),
    };
    let (edges, target) = match wire.edges {
        WireEdges::Inline(edges) => (edges, None),
        WireEdges::At(target) => (Vec::new(), Some(target)),
    };
    let (outgoing, broadcast) = match wire.outgoing {
        WireOutgoing::Pairs(pairs) => (pairs, None),
        WireOutgoing::Broadcast(broadcast) => (Vec::new(), Some(broadcast)),
    };
    let record = VertexTrace {
        superstep: group.superstep,
        vertex: wire.vertex,
        value_before,
        value_after: wire.value_after,
        edges,
        incoming: wire.incoming,
        outgoing,
        aggregators: group.aggregators.clone(),
        global: group.global,
        halted_after: wire.halted_after,
        reasons: wire.reasons,
        violations: wire.violations,
        exception: wire.exception,
    };
    Ok((record, same, target, broadcast))
}

/// The start and value after compute of the last vertex frame of
/// `channel` that records `vertex`, if any.
fn last_frame_of(channel: &[u8], vertex: &TaggedBytes) -> Option<(u64, TaggedBytes)> {
    let id = graft_codec::to_vec(vertex).ok()?;
    let (mut scanner, mut last) = (FrameScanner::new(channel), None);
    while let Ok(Some(frame)) = scanner.next_frame() {
        let Ok(wire) = graft_codec::from_slice::<WireVertexTrace>(frame.payload) else { continue };
        if frame.kind == FRAME_VERTEX && graft_codec::to_vec(&wire.vertex).ok()? == id {
            last = Some((frame.start as u64, wire.value_after));
        }
    }
    last
}

/// The edges of the frame of `channel` starting at `target`, if it is a
/// vertex frame recording `vertex` with its edges inline.
fn referenced_edges(
    channel: &[u8],
    target: u64,
    vertex: &TaggedBytes,
) -> Option<Vec<(TaggedBytes, TaggedBytes)>> {
    let mut scanner = FrameScanner::new(channel);
    while let Ok(Some(frame)) = scanner.next_frame() {
        if frame.start as u64 != target || frame.kind != FRAME_VERTEX {
            continue;
        }
        let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).ok()?;
        let same = graft_codec::to_vec(&wire.vertex).ok()? == graft_codec::to_vec(vertex).ok()?;
        return match wire.edges {
            WireEdges::Inline(edges) if same => Some(edges),
            _ => None,
        };
    }
    None
}

/// The head, read off the record the way the views read a row.
fn head_of(record: &ErasedVertexTrace) -> VertexHead {
    let mut flags = if record.exception.is_some() { FLAG_EXCEPTION } else { 0 };
    for violation in &record.violations {
        flags |= match violation.kind {
            ViolationKind::Message => FLAG_MESSAGE_VIOLATION,
            ViolationKind::VertexValue => FLAG_VALUE_VIOLATION,
        };
    }
    // Rendered from the oracle's tree, not by the views' renderer.
    let tree: BinValue = graft_codec::from_slice(record.vertex.as_bytes()).unwrap();
    let vertex = tree.0.as_str().map_or_else(|| tree.0.to_string(), str::to_string);
    VertexHead { superstep: record.superstep, vertex, flags }
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
    if case.v1 {
        return check_door(case);
    }
    let channel = case.channel();
    let index_at = case.before.len();
    let group = match graft_codec::from_slice::<IndexRecord>(&case.index) {
        Ok(group) => group,
        Err(error) => {
            let walked = walk_vertex_channel(VertexChannel::new(&channel), None, |_, _| Ok(()));
            assert!(
                matches!(&walked, Err(TraceReadError::Frame { offset, error: refused })
                    if *offset == index_at && refused.to_string() == error.to_string()),
                "index {:?}: {walked:?}, not {error}",
                case.index
            );
            return Read::Fails;
        }
    };
    let last = FrameScanner::new(&channel[index_at..]).next_frame().unwrap().unwrap().end;
    check_v6(&channel, index_at + last, &group).0
}

/// Checks the v6 payload of the frame at `last` of `channel`, whose group
/// is `group`, and the walk of the channel; returns what it read, and the
/// record if it resolved.
fn check_v6(channel: &[u8], last: usize, group: &IndexRecord) -> (Read, Option<ErasedVertexTrace>) {
    let payload = FrameScanner::new(&channel[last..]).next_frame().unwrap().unwrap().payload;
    let reader = VertexChannel::new(channel);
    let at = |what: &str| format!("{what}: {payload:?}");
    // The frame a `Same` reads, as the walk resolves it.
    let mut resolved = None;
    let walked = walk_vertex_channel(reader, None, |frame, read| {
        if let (true, graft::trace::ChannelRecord::Vertex(_, before)) = (frame.start == last, read)
        {
            resolved = before;
        }
        Ok(())
    });
    let skimmed = reader.head(payload, Some(group)).map_err(|e| e.to_string());
    let digest = |before: Option<u64>, view| {
        reader.digest(payload, Some(group), before, view).map_err(|e| e.to_string())
    };
    let (record, same, target, broadcast) = match decode(payload, group) {
        Ok(decoded) => decoded,
        Err(error) => {
            assert_eq!(skimmed, Err(error.clone()), "{}", at("head"));
            for view in [RowView::Tabular, RowView::NodeLink] {
                assert_eq!(digest(None, view), Err(error.clone()), "{}", at("digest"));
            }
            let built = reader.record(payload, Some(group), None).map_err(|e| e.to_string());
            assert_eq!(built.map(drop), Err(error.clone()), "{}", at("record"));
            assert!(
                matches!(&walked, Err(TraceReadError::Frame { offset, error: refused })
                    if *offset == last && refused.to_string() == error),
                "{}",
                at("walk")
            );
            return (Read::Fails, None);
        }
    };
    assert_eq!(skimmed, Ok(head_of(&record)), "{}", at("head"));
    // A `Same` is the value after compute of the vertex's last earlier
    // frame, if there is one.
    let earlier = last_frame_of(&channel[..last], &record.vertex);
    let before = earlier.as_ref().map(|(start, _)| *start).filter(|_| same);
    let value_before = match (same, earlier) {
        (false, _) => Some(record.value_before.clone()),
        (true, earlier) => earlier.map(|(_, value)| value),
    };
    let Some(value_before) = value_before else {
        assert!(reader.record(payload, Some(group), None).is_err(), "{}", at("record"));
        assert!(digest(None, RowView::Tabular).is_err(), "{}", at("digest"));
        assert!(
            matches!(&walked, Err(TraceReadError::SameValue { offset }) if *offset == last),
            "{}",
            at("walk of a `Same` with no earlier frame")
        );
        return (Read::Decodes { resolved: false }, None);
    };
    let record = VertexTrace { value_before, ..record };
    let built = reader.record(payload, Some(group), before).map_err(|e| e.to_string());
    let mut listed = UntypedTrace::from(record.clone()).digest(RowView::Tabular);
    if let Some(broadcast) = &broadcast {
        listed.outgoing = usize::try_from(broadcast.count).unwrap_or(usize::MAX);
    }
    assert_eq!(digest(before, RowView::Tabular), Ok(listed), "{}", at("digest"));
    let edges = match target {
        None => Some(record.edges.clone()),
        Some(target) => referenced_edges(channel, target, &record.vertex),
    };
    let outgoing = |edges: &[(TaggedBytes, TaggedBytes)]| match &broadcast {
        None => Some(record.outgoing.clone()),
        Some(Broadcast { count, value }) => (*count == edges.len() as u64)
            .then(|| edges.iter().map(|(target, _)| (target.clone(), value.clone())).collect()),
    };
    let full =
        edges.and_then(|edges| Some(VertexTrace { outgoing: outgoing(&edges)?, edges, ..record }));
    let Some(full) = full else {
        assert!(built.is_err(), "{}", at("record of a bad reference or broadcast"));
        let digest = digest(before, RowView::NodeLink);
        assert!(digest.is_err(), "{}", at("digest of a bad reference or broadcast"));
        let named = |offset| offset == last;
        assert!(
            matches!(&walked, Err(TraceReadError::EdgeRef { offset, .. }
                | TraceReadError::Frame { offset, .. }) if named(*offset)),
            "{}",
            at("walk of a bad reference or broadcast")
        );
        return (Read::Decodes { resolved: false }, None);
    };
    assert!(walked.is_ok(), "{}: {walked:?}", at("walk"));
    assert_eq!(resolved, before, "{}", at("the walk's `Same`"));
    let built = built.unwrap_or_else(|e| panic!("{e}: {}", at("record")));
    // No NaN aggregator value equals itself; the debug rendering does.
    assert_eq!(format!("{built:?}"), format!("{full:?}"), "{}", at("record"));
    let listed = UntypedTrace::from(full).digest(RowView::NodeLink);
    assert_eq!(digest(before, RowView::NodeLink), Ok(listed), "{}", at("digest"));
    (Read::Decodes { resolved: true }, Some(built))
}

/// Checks a v1 case at the door: its channel becomes a v6 channel exactly
/// when the payload decodes as an `ErasedVertexTrace`, fails with that
/// error at the frame's offset otherwise, and the v6 channel reads back
/// as the record.
fn check_door(case: &Case) -> Read {
    let door = native_channel(TraceFormat::Binary, ChannelKind::Worker, case.channel(), false);
    let at = format!("door: {:?}", case.payload);
    match (graft_codec::from_slice::<ErasedVertexTrace>(&case.payload), door) {
        (Err(error), Err(TraceReadError::Frame { offset, error: refused })) => {
            assert_eq!(
                (offset, refused.to_string()),
                (case.before.len(), error.to_string()),
                "{at}"
            );
            Read::Fails
        }
        (Ok(record), Ok(v6)) => {
            let mut scanner = FrameScanner::new(&v6);
            let frames: Vec<_> = std::iter::from_fn(|| scanner.next_frame().unwrap()).collect();
            let kinds: Vec<u8> = frames.iter().map(|frame| frame.kind).collect();
            assert_eq!(kinds, [FRAME_INDEX, FRAME_VERTEX], "{at}");
            let group = graft_codec::from_slice(frames[0].payload).unwrap();
            let (read, built) = check_v6(&v6, frames[1].start, &group);
            assert_eq!(read, Read::Decodes { resolved: true }, "{at}");
            assert_eq!(format!("{:?}", built.unwrap()), format!("{record:?}"), "{at}");
            read
        }
        (decoded, door) => panic!("{at}: decoding gave {decoded:?}, the door {door:?}"),
    }
}

/// The three cases of one record: a v1 payload, a v6 payload with its
/// edges inline, and the v6 payload of the same record captured again in
/// the next superstep, behind the first, its value at compute entry the
/// first's value after — its edges a reference where the rule makes one,
/// and its value a `Same`.
fn cases_of<I, V, E, M>(record: &VertexTrace<I, V, E, M>) -> [Case; 3]
where
    VertexTrace<I, V, E, M>: TraceRecord + serde::Serialize + Clone,
{
    let erased: ErasedVertexTrace =
        serde_json::from_slice(&serde_json::to_vec(record).unwrap()).unwrap();
    let payload = graft_codec::to_vec(&erased).unwrap();
    let v1 = Case { v1: true, before: Vec::new(), index: Vec::new(), payload };
    let (mut writer, mut channel) = (ChannelWriter::default(), Vec::new());
    let next = VertexTrace {
        superstep: record.superstep ^ 1,
        value_before: record.clone().value_after,
        ..record.clone()
    };
    for record in [record, &next] {
        writer.append_vertex(record, &mut channel).unwrap();
    }
    let mut scanner = FrameScanner::new(&channel);
    let frames: Vec<_> = std::iter::from_fn(|| scanner.next_frame().unwrap()).collect();
    let kinds: Vec<u8> = frames.iter().map(|frame| frame.kind).collect();
    assert_eq!(kinds, [FRAME_INDEX, FRAME_VERTEX, FRAME_INDEX, FRAME_VERTEX]);
    let case = |before: &[u8], group: usize| Case {
        v1: false,
        before: before.to_vec(),
        index: frames[group].payload.to_vec(),
        payload: frames[group + 1].payload.to_vec(),
    };
    [v1, case(&[], 0), case(&channel[..frames[2].start], 2)]
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
        // PageRank and coloring broadcasting along their edges.
        let pagerank = random_trace(rng, random_u64, random_f64, |_| (), random_f64);
        let message = random_f64(rng);
        cases.extend(cases_of(&broadcasting(pagerank, message)));
        let coloring = random_trace(rng, random_u64, gc_value, |_| (), gc_message);
        let message = gc_message(rng);
        cases.extend(cases_of(&broadcasting(coloring, message)));
    }
    cases
}

/// What a v6 payload holds: its edges by reference, its outgoing
/// messages as a broadcast.
fn wire_of(case: &Case) -> Option<WireVertexTrace> {
    (!case.v1).then(|| graft_codec::from_slice(&case.payload).ok()).flatten()
}

/// Whether a v6 payload holds its edges by reference.
fn is_reference(case: &Case) -> bool {
    wire_of(case).is_some_and(|wire| matches!(wire.edges, WireEdges::At(_)))
}

/// Whether a v6 payload holds its outgoing messages as a broadcast.
fn is_broadcast(case: &Case) -> bool {
    wire_of(case).is_some_and(|wire| matches!(wire.outgoing, WireOutgoing::Broadcast(_)))
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
    let broadcasts = cases.iter().filter(|case| is_broadcast(case)).count();
    assert!(broadcasts > cases.len() / 20, "{broadcasts} broadcasts in {} cases", cases.len());
    // Every repeated record's value is a `Same`.
    let same = cases.iter().filter(|case| is_same(case)).count();
    assert_eq!(same, cases.len() / 3, "{same} `Same` values in {} cases", cases.len());
}

/// Whether a v6 payload holds a `Same` value at compute entry.
fn is_same(case: &Case) -> bool {
    wire_of(case).is_some_and(|wire| wire.value_before == WireValue::Same)
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
    let broadcasts: Vec<&Case> = valid.iter().filter(|case| is_broadcast(case)).collect();
    let (mut decoded, mut unresolved) = (0, 0);
    let (mut index_edits, mut index_decoded) = (0, 0);
    for round in 0..budget {
        // Every fourth edit lands on a payload holding a reference, every
        // eighth on one holding a broadcast.
        let mut case = if round % 4 == 0 {
            references[rng.gen_range(0..references.len())].clone()
        } else if round % 8 == 1 {
            broadcasts[rng.gen_range(0..broadcasts.len())].clone()
        } else {
            valid[rng.gen_range(0..valid.len())].clone()
        };
        // Every fifth edit of a v6 case lands on its group's index frame.
        let on_index = !case.v1 && round % 5 == 2;
        index_edits += usize::from(on_index);
        let edited = if on_index { &mut case.index } else { &mut case.payload };
        // Sometimes two edits: the second can repair or mask the first.
        for _ in 0..if rng.gen_bool(0.2) { 2 } else { 1 } {
            if !edited.is_empty() {
                mutate(&mut rng, edited);
            }
        }
        match check(&case) {
            Read::Fails => {}
            Read::Decodes { resolved } => {
                decoded += 1;
                unresolved += usize::from(!resolved);
                index_decoded += usize::from(on_index);
            }
        }
    }
    // Both sides of each equivalence must be exercised.
    assert!(decoded > budget / 10 && decoded < budget * 9 / 10, "{decoded} of {budget} decoded");
    assert!(unresolved > budget / 1000, "{unresolved} of {budget} held a bad reference");
    assert!(
        index_decoded > index_edits / 20 && index_decoded < index_edits * 19 / 20,
        "{index_decoded} of {index_edits} edited index frames decoded"
    );
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
        // Each superstep's value at entry is the last one's after: a
        // `Same` behind the first capture.
        value_before: superstep as i64,
        value_after: superstep as i64 + 1,
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
/// lists and values in superstep 0, references and `Same` values after.
/// It is laid out frame by frame here, and must be what a `ChannelWriter`
/// writes.
fn pristine() -> (Vec<u8>, Layout) {
    let mut channel = Vec::new();
    let mut refs = VertexRefs::default();
    let mut writer = (ChannelWriter::default(), Vec::new());
    let mut layout = Layout { index: [0; 3], a: [0; 3], b: [0; 2] };
    let mut records = 0;
    for superstep in 0..3u64 {
        let s = superstep as usize;
        layout.index[s] = channel.len();
        let index = IndexRecord {
            superstep,
            records_before: records,
            bytes_before: channel.len() as u64,
            global: ring_record(superstep, 1).global,
            aggregators: vec![],
        };
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
        trace_format: Some(TraceFormat::NATIVE),
        config: vec![],
        facts: None,
    };
    fs.write_all(&meta_path(root), &serde_json::to_vec(&meta).unwrap()).unwrap();
    fs.write_all(&worker_trace_path(root, 0), channel).unwrap();
}

/// Whether `error` is the typed error of a bad reference or `Same` in the
/// frame at `offset`.
fn names_the_frame(error: &TraceReadError, offset: usize) -> bool {
    matches!(error, TraceReadError::EdgeRef { offset: at, .. }
        | TraceReadError::SameValue { offset: at } if *at == offset)
}

fn session_names_the_frame<T>(opened: Result<T, SessionError>, offset: usize) -> bool {
    matches!(opened, Err(SessionError::Decode { error, .. }) if names_the_frame(&error, offset))
}

/// Checks that `damaged`, a channel whose frame at `offset` is at fault,
/// fails every reader with a typed error naming that frame.
fn fails_every_reader(fs: &Arc<dyn FileSystem>, name: &str, damaged: &[u8], offset: usize) {
    let root = format!("/damaged/{}", name.replace(' ', "-"));
    write_trace(fs, &root, damaged);
    let open = UntypedSession::open(fs.clone(), &root);
    assert!(session_names_the_frame(open, offset), "{name}: open");
    let partial = UntypedSession::open_partial(fs.clone(), &root, u64::MAX);
    assert!(session_names_the_frame(partial, offset), "{name}: open_partial");
    let summary = JobSummary::scan(fs.as_ref(), &root);
    assert!(session_names_the_frame(summary, offset), "{name}: scan");
    let typed = DebugSession::<Ring>::open(fs.clone(), &root);
    assert!(session_names_the_frame(typed, offset), "{name}: DebugSession::open");
    // What `graft-cli trace dump` walks.
    let walked = walk_vertex_channel(VertexChannel::new(damaged), None, |_, _| Ok(()));
    assert!(walked.is_err_and(|e| names_the_frame(&e, offset)), "{name}: dump");
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
        fails_every_reader(&fs, name, &damaged, last);
    }
}

/// `channel` with its last frame's value at compute entry made a `Same`,
/// and the start of that frame.
fn same_at_end(channel: &[u8]) -> (Vec<u8>, usize) {
    let last = vertex_frames(channel).last().unwrap().0;
    let frame = FrameScanner::new(&channel[last..]).next_frame().unwrap().unwrap();
    let mut wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
    assert!(matches!(wire.value_before, WireValue::Inline(_)));
    wire.value_before = WireValue::Same;
    let mut damaged = channel[..last].to_vec();
    write_value_frame(&mut damaged, FRAME_VERTEX, &wire).unwrap();
    (damaged, last)
}

/// A `Same` value whose vertex has no earlier frame in its channel fails
/// every reader with a typed error naming its frame: in the first frame,
/// behind frames of other vertices only, and behind a truncation that cut
/// away the vertex's only earlier frame.
#[test]
fn a_same_value_with_no_earlier_frame_fails_every_reader_at_its_frame() {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let channel_of = |records: &[VertexTrace<u64, i64, (), i64>]| {
        let (mut writer, mut channel) = (ChannelWriter::default(), Vec::new());
        for record in records {
            writer.append_vertex(record, &mut channel).unwrap();
        }
        channel
    };
    let (first, at) = same_at_end(&channel_of(&[ring_record(0, 1)]));
    fails_every_reader(&fs, "in the first frame", &first, at);
    let others = channel_of(&[ring_record(0, 2), ring_record(0, 3), ring_record(1, 1)]);
    let (others, at) = same_at_end(&others);
    fails_every_reader(&fs, "behind other vertices only", &others, at);

    // Vertex 1's superstep-0 frame is written and cut away; the writer,
    // resumed from the bytes left, writes its superstep-1 value inline.
    let (mut writer, mut channel) = (ChannelWriter::default(), Vec::new());
    writer.append_vertex(&ring_record(0, 2), &mut channel).unwrap();
    let cut = channel.len();
    writer.append_vertex(&ring_record(0, 1), &mut channel).unwrap();
    channel.truncate(cut);
    let mut writer = ChannelWriter::resume(&channel);
    writer.append_vertex(&ring_record(1, 1), &mut channel).unwrap();
    assert!(walk_vertex_channel(VertexChannel::new(&channel), None, |_, _| Ok(())).is_ok());
    let (truncated, at) = same_at_end(&channel);
    fails_every_reader(&fs, "behind a truncation", &truncated, at);
}

/// A record whose id and edge targets are the strings `v<vertex>`.
fn named_record(superstep: u64, vertex: u64) -> VertexTrace<String, i64, (), i64> {
    let ring = ring_record(superstep, vertex);
    VertexTrace {
        superstep,
        vertex: format!("v{vertex}"),
        value_before: ring.value_before,
        value_after: ring.value_after,
        edges: ring.edges.iter().map(|(target, ())| (format!("v{target}"), ())).collect(),
        incoming: vec![],
        outgoing: vec![],
        aggregators: vec![],
        global: ring.global,
        halted_after: false,
        reasons: ring.reasons,
        violations: vec![],
        exception: None,
    }
}

/// The vertex frames of `channel`, each with the group it is read with.
fn vertex_frames(channel: &[u8]) -> Vec<(usize, IndexRecord)> {
    let (mut scanner, mut group, mut frames) = (FrameScanner::new(channel), None, Vec::new());
    while let Some(frame) = scanner.next_frame().unwrap() {
        match frame.kind {
            FRAME_INDEX => group = Some(graft_codec::from_slice(frame.payload).unwrap()),
            _ => frames.push((frame.start, group.clone().unwrap())),
        }
    }
    frames
}

/// `channel` with its last frame's payload passed through `damage`.
fn damage_last(channel: &[u8], damage: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let last = vertex_frames(channel).last().unwrap().0;
    let mut payload =
        FrameScanner::new(&channel[last..]).next_frame().unwrap().unwrap().payload.to_vec();
    damage(&mut payload);
    let mut damaged = channel[..last].to_vec();
    write_frame(&mut damaged, FRAME_VERTEX, &payload);
    damaged
}

/// Replaces the first `from` in `bytes` by `to`.
fn replace(bytes: &mut Vec<u8>, from: &[u8], to: &[u8]) {
    let at = bytes.windows(from.len()).position(|window| window == from).unwrap();
    bytes.splice(at..at + from.len(), to.iter().copied());
}

/// The id and edges of a record hold no names, and the writer puts none
/// there; a damaged payload that does still reads alike everywhere. To
/// every reader a name node at the id or in an inline edge list is the
/// string it names, or the typed error of an index no name has reached,
/// just as the payload decodes.
#[test]
fn name_nodes_at_the_id_and_in_the_edges_read_as_the_decode_reads_them() {
    let mut writer = ChannelWriter::default();
    let mut channel = Vec::new();
    for superstep in 0..2 {
        writer.append_vertex(&named_record(superstep, 1), &mut channel).unwrap();
    }
    // Every string node of every vertex frame — ids and edge targets, all
    // `v` and a digit — becomes an inline name of the same length.
    let mut named = channel.clone();
    for (start, _) in vertex_frames(&channel) {
        let frame = FrameScanner::new(&channel[start..]).next_frame().unwrap().unwrap();
        for at in start + frame.payload_start..start + frame.end - 3 {
            if named[at..at + 3] == [5, 2, b'v'] {
                named[at..at + 2].copy_from_slice(&[8, 2 << 1]);
            }
        }
    }
    assert_ne!(named, channel);
    let frames = vertex_frames(&channel);
    assert_eq!(frames.len(), 2, "inline edges, then a reference to them");
    for (at, group) in &frames {
        let (read, record) = check_v6(&named, *at, group);
        assert_eq!(read, Read::Decodes { resolved: true }, "frame at {at}");
        let (_, pristine) = check_v6(&channel, *at, group);
        assert_eq!(format!("{record:?}"), format!("{pristine:?}"), "frame at {at}");
    }

    // One frame, its edges inline: the id by an index no name has reached
    // fails every reader alike; an edge target by the index of the id's
    // inline name reads as the id.
    let inline = &named[..frames[1].0];
    let group = &frames[0].1;
    let id_by_index = damage_last(inline, |payload| replace(payload, &[8, 4, b'v', b'1'], &[8, 1]));
    assert_eq!(check_v6(&id_by_index, frames[0].0, group).0, Read::Fails);
    let payload = FrameScanner::new(&id_by_index[frames[0].0..]).next_frame().unwrap().unwrap();
    let error = graft_codec::from_slice::<WireVertexTrace>(payload.payload).unwrap_err();
    assert!(error.to_string().contains("name index 0"), "{error}");
    let target_by_index =
        damage_last(inline, |payload| replace(payload, &[8, 4, b'v', b'2'], &[8, 1]));
    let (read, record) = check_v6(&target_by_index, frames[0].0, group);
    assert_eq!(read, Read::Decodes { resolved: true });
    assert_eq!(record.unwrap().edges[0].0.json(), r#""v1""#);
}
