//! Differential test of the read path against plain decoding, over valid
//! vertex payloads of every algorithm in `graft-algorithms` — in layout
//! v4 with the edges inline and by reference and the outgoing messages
//! listed and as a broadcast, each behind the index frame of its group,
//! and in layout v1 — and over seeded mutations of the vertex payloads
//! and of the index-frame payloads:
//!
//! * an index frame reads exactly when its payload decodes as an
//!   `IndexRecord`; otherwise every walk of the channel fails with that
//!   error at the index frame's offset;
//! * skimming a v4 payload (`VertexChannel::head`) succeeds exactly when
//!   decoding it in full as a `WireVertexTrace` does, with the same error
//!   when not — which is what lets `UntypedSession` decode a row `open`
//!   only skimmed;
//! * the head is what the record says: the group's superstep, rendered
//!   vertex, flag bits;
//! * the row digest the listing views read (`VertexChannel::digest`)
//!   decodes exactly when the record does, with the same error, and every
//!   field of it is what the `UntypedTrace` accessor of that name says of
//!   the record;
//! * `VertexChannel::record`, and the digest with edges, follow an edge
//!   reference exactly when it names a frame of the channel recording the
//!   same vertex with its edges inline, and accept a broadcast exactly
//!   when its count is the number of those edges; the record is then what
//!   decoding the payload, taking that frame's edges, listing the
//!   broadcast along them and the context from the group gives, and the
//!   walk of the channel succeeds exactly then;
//! * a v1 channel passes the door (`native_channel`) exactly when its
//!   payload decodes as an `ErasedVertexTrace`, fails with that error at
//!   that frame's offset otherwise, and becomes a v4 channel that reads,
//!   every way above, as that record — its type-erased values put through
//!   a JSON text round trip, as the door writes them through the tagged
//!   encoding.
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
    broadcasting, gc_message, gc_value, mwm_message, mwm_value, random_f64, random_i64,
    random_trace, random_u64, rw_value, Rng64,
};
use graft::trace::{
    encode_index_frame, meta_path, native_channel, walk_vertex_channel, worker_trace_path,
    Broadcast, ChannelKind, ChannelWriter, EdgeRefs, ErasedVertexTrace, IndexRecord, JobMeta,
    TraceFormat, TraceReadError, TraceRecord, VertexChannel, VertexHead, VertexTrace, WireEdges,
    WireOutgoing, WireVertexTrace, FLAG_EXCEPTION, FLAG_MESSAGE_VIOLATION, FLAG_VALUE_VIOLATION,
    FRAME_INDEX, FRAME_VERTEX,
};
use graft::untyped::{JobSummary, UntypedSession, UntypedTrace};
use graft::{DebugSession, SessionError, ViolationKind};
use graft_codec::frame::{write_frame, write_value_frame, FrameScanner};
use graft_codec::BinValue;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{Computation, ContextOf, GlobalData, VertexHandleOf};
use rand::{Rng, SeedableRng};
use serde_json::Value;

/// A payload under test: the last frame of a channel, behind the index
/// frame of its group, whose earlier frames it may reference; or, in
/// layout v1, a channel's one frame.
#[derive(Clone)]
struct Case {
    v1: bool,
    before: Vec<u8>,
    /// The payload of the index frame that opens the group (v4 only).
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

/// What a v4 payload decodes to: the record, its edges left empty when
/// it holds a reference and its outgoing messages when they are a
/// broadcast; the offset the reference names; the broadcast.
type Decoded = (ErasedVertexTrace, Option<u64>, Option<Broadcast<BinValue>>);

/// Decodes a v4 payload, its superstep and context those of `group`.
fn decode(payload: &[u8], group: &IndexRecord) -> Result<Decoded, String> {
    let wire: WireVertexTrace = graft_codec::from_slice(payload).map_err(|e| e.to_string())?;
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
        value_before: wire.value_before,
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
    Ok((record, target, broadcast))
}

/// The edges of the frame of `channel` starting at `target`, if it is a
/// vertex frame recording `vertex` with its edges inline.
fn referenced_edges(
    channel: &[u8],
    target: u64,
    vertex: &BinValue,
) -> Option<Vec<(BinValue, BinValue)>> {
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

/// `record` with every type-erased value as a JSON text round trip gives
/// it back.
fn normalized(mut record: ErasedVertexTrace) -> ErasedVertexTrace {
    let pairs = |list: &mut Vec<(BinValue, BinValue)>| {
        list.iter_mut()
            .for_each(|(a, b)| [a, b].into_iter().for_each(|v| graft_codec::normalize(&mut v.0)))
    };
    pairs(&mut record.edges);
    pairs(&mut record.outgoing);
    let singles = [&mut record.vertex, &mut record.value_before, &mut record.value_after];
    for value in singles.into_iter().chain(&mut record.incoming) {
        graft_codec::normalize(&mut value.0);
    }
    record
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
    let vertex = match &record.vertex.0 {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    };
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
    check_v4(&channel, index_at + last, &group).0
}

/// Checks the v4 payload of the frame at `last` of `channel`, whose group
/// is `group`, and the walk of the channel; returns what it read, and the
/// record if it resolved.
fn check_v4(channel: &[u8], last: usize, group: &IndexRecord) -> (Read, Option<ErasedVertexTrace>) {
    let payload = FrameScanner::new(&channel[last..]).next_frame().unwrap().unwrap().payload;
    let reader = VertexChannel::new(channel);
    let skimmed = reader.head(payload, Some(group)).map_err(|e| e.to_string());
    let digest =
        |with_edges| reader.digest(payload, Some(group), with_edges).map_err(|e| e.to_string());
    let built = reader.record(payload, Some(group)).map_err(|e| e.to_string());
    let walked = walk_vertex_channel(reader, None, |_, _| Ok(()));
    let at = |what: &str| format!("{what}: {payload:?}");
    let (record, target, broadcast) = match decode(payload, group) {
        Ok(decoded) => decoded,
        Err(error) => {
            assert_eq!(skimmed, Err(error.clone()), "{}", at("head"));
            assert_eq!(digest(true), Err(error.clone()), "{}", at("digest"));
            assert_eq!(digest(false), Err(error.clone()), "{}", at("digest"));
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
    let mut listed = UntypedTrace::from(record.clone()).digest(false);
    if let Some(broadcast) = &broadcast {
        listed.outgoing = usize::try_from(broadcast.count).unwrap_or(usize::MAX);
    }
    assert_eq!(digest(false), Ok(listed), "{}", at("digest"));
    let edges = match target {
        None => Some(record.edges.clone()),
        Some(target) => referenced_edges(channel, target, &record.vertex),
    };
    let outgoing = |edges: &[(BinValue, BinValue)]| match &broadcast {
        None => Some(record.outgoing.clone()),
        Some(Broadcast { count, value }) => (*count == edges.len() as u64)
            .then(|| edges.iter().map(|(target, _)| (target.clone(), value.clone())).collect()),
    };
    let full =
        edges.and_then(|edges| Some(VertexTrace { outgoing: outgoing(&edges)?, edges, ..record }));
    let Some(full) = full else {
        assert!(built.is_err(), "{}", at("record of a bad reference or broadcast"));
        assert!(digest(true).is_err(), "{}", at("digest of a bad reference or broadcast"));
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
    let built = built.unwrap_or_else(|e| panic!("{e}: {}", at("record")));
    // `==` neither tells `5` from `5u64` nor `-0.0` from `0.0`, and no NaN
    // equals itself; the debug rendering does all three right.
    assert_eq!(format!("{built:?}"), format!("{full:?}"), "{}", at("record"));
    let listed = UntypedTrace::from(full).digest(true);
    assert_eq!(digest(true), Ok(listed), "{}", at("digest"));
    (Read::Decodes { resolved: true }, Some(built))
}

/// Checks a v1 case at the door: its channel becomes a v4 channel exactly
/// when the payload decodes as an `ErasedVertexTrace`, fails with that
/// error at the frame's offset otherwise, and the v4 channel reads back
/// as the record, normalized.
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
        (Ok(record), Ok(v4)) => {
            let mut scanner = FrameScanner::new(&v4);
            let frames: Vec<_> = std::iter::from_fn(|| scanner.next_frame().unwrap()).collect();
            let kinds: Vec<u8> = frames.iter().map(|frame| frame.kind).collect();
            assert_eq!(kinds, [FRAME_INDEX, FRAME_VERTEX], "{at}");
            let group = graft_codec::from_slice(frames[0].payload).unwrap();
            let (read, built) = check_v4(&v4, frames[1].start, &group);
            assert_eq!(read, Read::Decodes { resolved: true }, "{at}");
            assert_eq!(
                format!("{:?}", built.unwrap()),
                format!("{:?}", normalized(record)),
                "{at}"
            );
            read
        }
        (decoded, door) => panic!("{at}: decoding gave {decoded:?}, the door {door:?}"),
    }
}

/// The three cases of one record: a v1 payload, a v4 payload with its
/// edges inline, and the v4 payload of the same record captured again in
/// the next superstep, behind the first — its edges a reference where the
/// rule makes one.
fn cases_of<I, V, E, M>(record: &VertexTrace<I, V, E, M>) -> [Case; 3]
where
    VertexTrace<I, V, E, M>: TraceRecord + serde::Serialize + Clone,
{
    let erased: ErasedVertexTrace =
        serde_json::from_slice(&serde_json::to_vec(record).unwrap()).unwrap();
    let payload = graft_codec::to_vec(&erased).unwrap();
    let v1 = Case { v1: true, before: Vec::new(), index: Vec::new(), payload };
    let (mut writer, mut channel) = (ChannelWriter::default(), Vec::new());
    let next = VertexTrace { superstep: record.superstep ^ 1, ..record.clone() };
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

/// What a v4 payload holds: its edges by reference, its outgoing
/// messages as a broadcast.
fn wire_of(case: &Case) -> Option<WireVertexTrace> {
    (!case.v1).then(|| graft_codec::from_slice(&case.payload).ok()).flatten()
}

/// Whether a v4 payload holds its edges by reference.
fn is_reference(case: &Case) -> bool {
    wire_of(case).is_some_and(|wire| matches!(wire.edges, WireEdges::At(_)))
}

/// Whether a v4 payload holds its outgoing messages as a broadcast.
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
        // Every fifth edit of a v4 case lands on its group's index frame.
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
        let walked = walk_vertex_channel(VertexChannel::new(&damaged), None, |_, _| Ok(()));
        assert!(walked.is_err_and(|e| names_the_frame(&e, last)), "{name}: dump");
    }
}
