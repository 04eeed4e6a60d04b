//! Layout v3 writes one message sent along every edge as a broadcast.
//! These are its edge cases, each captured by a real job: `-0.0` next to
//! `0.0`, byte-equal NaNs, sends to a subset of the edges or in another
//! order, sends after a local edge edit, vertices of degree 0 and 1, and
//! graph coloring's `Priority` and `InSet` rounds.
//!
//! Whatever form a record's sends take on disk, the record every reader
//! builds, its JSON-lines export and its reproducer must be those of the
//! sends `compute` made, listed as explicit pairs; and `trace convert`
//! must take the capture to JSON lines and back to the same bytes. The
//! form is the rule's: a broadcast exactly when the sends go along every
//! edge in edge order and every message has the first's encoding —
//! which, since layout v5 writes each name once per record, the writer
//! must decide with every message encoded against the names as they
//! stood before the first.
//!
//! Where the engine vouches for a call's sends as one broadcast, the
//! writer takes its word without comparing the messages; a debug build
//! compares them anyway and fails on a vouch the bytes deny. The vouch is
//! given only for one `send_message_to_all_edges` over unedited edges of
//! a vertex with any, and must be withheld around other sends, for a
//! second broadcast, at degree 0 and after an edit, even one that
//! restores the list.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use graft::trace::{
    convert_channel, decode_vertex_records, worker_trace_path, ChannelKind, ErasedVertexTrace,
    IndexRecord, TraceFormat, WireOutgoing, WireVertexTrace, FRAME_INDEX, FRAME_VERTEX,
};
use graft::untyped::{UntypedSession, UntypedTrace};
use graft::views::json as vj;
use graft::{untyped_test_source, DebugConfig, GraftRun, GraftRunner};
use graft_algorithms::coloring::{GCValue, GraphColoring, GraphColoringMaster};
use graft_codec::frame::FrameScanner;
use graft_codec::TaggedBytes;
use graft_dfs::FileSystem;
use graft_pregel::{
    AggregatorRegistry, Computation, ContextOf, Graph, MasterComputation, MasterContext,
    VertexHandleOf,
};
use serde::Serialize;

const ROOT: &str = "/broadcast";
const WORKERS: usize = 2;

/// Each vertex's sends, type-erased, by `(superstep, vertex)`.
type Sends = BTreeMap<(u64, u64), Vec<(TaggedBytes, TaggedBytes)>>;

/// The sends of each call, and the calls whose sends the engine vouched
/// for as one broadcast.
#[derive(Clone, Default)]
struct Noted {
    sends: Arc<Mutex<Sends>>,
    vouches: Arc<Mutex<BTreeSet<(u64, u64)>>>,
}

/// `value` type-erased as a reader holds it: its JSON text, imported.
fn erased<T: Serialize>(value: &T) -> TaggedBytes {
    serde_json::from_slice(&serde_json::to_vec(value).unwrap()).unwrap()
}

/// Runs `C`, noting the sends each call made and whether they were
/// vouched for.
struct Witnessed<C> {
    inner: C,
    noted: Noted,
}

impl<C: Computation<Id = u64>> Computation for Witnessed<C> {
    type Id = u64;
    type VValue = C::VValue;
    type EValue = C::EValue;
    type Message = C::Message;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[C::Message],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        self.inner.compute(vertex, messages, ctx);
        let sends = ctx.staged_sends().iter().map(|(to, m)| (erased(to), erased(m))).collect();
        let key = (ctx.superstep(), vertex.id());
        self.noted.sends.lock().unwrap().insert(key, sends);
        if ctx.staged_broadcast() {
            self.noted.vouches.lock().unwrap().insert(key);
        }
    }

    fn use_combiner(&self) -> bool {
        self.inner.use_combiner()
    }

    fn combine(&self, a: &C::Message, b: &C::Message) -> C::Message {
        self.inner.combine(a, b)
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        self.inner.register_aggregators(registry);
    }
}

/// `M`, the master of `C`, mastering `Witnessed<C>`.
struct WitnessedMaster<M>(M);

impl<C: Computation<Id = u64>, M: MasterComputation<C>> MasterComputation<Witnessed<C>>
    for WitnessedMaster<M>
{
    fn compute(&self, master: &mut MasterContext<'_>) {
        self.0.compute(master);
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        self.0.register_aggregators(registry);
    }
}

/// How a record's sends are written: `true` for a broadcast.
type Forms = BTreeMap<(u64, u64), bool>;

/// Checks the run of `computation` (see the module docs) and returns the
/// form each record's sends took.
fn check<C: Computation<Id = u64>>(run: &GraftRun<Witnessed<C>>, noted: &Noted) -> Forms {
    let sends = noted.sends.lock().unwrap();
    let fs = run.fs();
    let session = UntypedSession::open(fs.clone(), ROOT).unwrap();
    // `==` on JSON values takes `-0.0` for `0.0`; their text does not.
    let text = |record: &ErasedVertexTrace| serde_json::to_string(record).unwrap();
    let with_pairs = |mut record: ErasedVertexTrace| {
        let vertex = record.vertex.text().parse::<u64>().unwrap();
        record.outgoing = sends[&(record.superstep, vertex)].clone();
        record
    };
    let mut forms = Forms::new();
    let mut rule = Forms::new();
    for worker in 0..WORKERS {
        let captured = fs.read_all(&worker_trace_path(ROOT, worker)).unwrap();
        let records: Vec<ErasedVertexTrace> = decode_vertex_records(&captured).unwrap();
        let mut lines = Vec::new();
        for record in records {
            let (superstep, vertex) =
                (record.superstep, record.vertex.text().parse::<u64>().unwrap());
            let label = format!("superstep {superstep}, vertex {vertex}");
            let expected = with_pairs(record.clone());
            assert_eq!(text(&record), text(&expected), "{label}: the record");
            let bytes = |message| graft_codec::to_vec(&graft_codec::Tagged(message)).unwrap();
            let along_edges = !expected.outgoing.is_empty()
                && expected.outgoing.len() == expected.edges.len()
                && expected.outgoing.iter().zip(&expected.edges).all(
                    |((to, message), (target, _))| {
                        to == target && bytes(message) == bytes(&expected.outgoing[0].1)
                    },
                );
            rule.insert((superstep, vertex), along_edges);
            let row = session.vertex_at(superstep, &vertex.to_string()).unwrap();
            assert_eq!(text(row.record()), text(&expected), "{label}: the session's record");
            let repro = vj::repro_source(&session, &vertex.to_string(), superstep).unwrap();
            let listed = untyped_test_source(&UntypedTrace::from(expected.clone()), session.meta());
            assert_eq!(repro, listed, "{label}: the reproducer");
            lines.push(text(&expected) + "\n");
        }

        let (native, json) = (TraceFormat::NATIVE, TraceFormat::JsonLines);
        let kind = ChannelKind::Worker;
        let exported = convert_channel(kind, native, json, captured.clone()).unwrap();
        assert_eq!(String::from_utf8(exported.clone()).unwrap(), lines.concat(), "the export");
        assert_eq!(convert_channel(kind, json, native, exported).unwrap(), captured, "the import");

        let mut scanner = FrameScanner::new(&captured);
        let mut superstep = None;
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind == FRAME_INDEX {
                let group: IndexRecord = graft_codec::from_slice(frame.payload).unwrap();
                superstep = Some(group.superstep);
            } else if frame.kind == FRAME_VERTEX {
                let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
                let key = (superstep.unwrap(), wire.vertex.text().parse::<u64>().unwrap());
                forms.insert(key, matches!(wire.outgoing, WireOutgoing::Broadcast(_)));
            }
        }
    }
    assert_eq!(forms.len(), run.captures as usize);
    assert_eq!(forms, rule, "the broadcast rule");
    for key in noted.vouches.lock().unwrap().iter() {
        assert!(forms[key], "superstep {}, vertex {}: a vouch for no broadcast", key.0, key.1);
    }
    forms
}

/// Superstep 0: every vertex sends `1.5` along its edges. Superstep 1:
/// each vertex sends its own case (see the test). Superstep 2: every
/// vertex sends along its edges again, then all halt.
struct Cases;

/// A NaN whose bits differ from `f64::NAN`'s; both encode as null.
const OTHER_NAN: f64 = f64::from_bits(0x7ff8_0000_0000_0001);

impl Computation for Cases {
    type Id = u64;
    type VValue = f64;
    type EValue = ();
    type Message = f64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        _messages: &[f64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let targets: Vec<u64> = vertex.edges().iter().map(|e| e.target).collect();
        match (ctx.superstep(), vertex.id()) {
            (0 | 2, _) => ctx.send_message_to_all_edges(vertex, 1.5),
            (1, 0) => {
                ctx.send_message(targets[0], -0.0);
                ctx.send_message(targets[1], 0.0);
            }
            (1, 1) => {
                ctx.send_message(targets[0], f64::NAN);
                ctx.send_message(targets[1], OTHER_NAN);
            }
            (1, 2) => ctx.send_message(targets[0], 2.0),
            (1, 3) => {
                ctx.send_message(targets[1], 2.0);
                ctx.send_message(targets[0], 2.0);
            }
            (1, 4) => {
                vertex.add_edge(7, ());
                ctx.send_message_to_all_edges(vertex, 2.0);
            }
            (1, 5) => {
                vertex.remove_edge(targets[0]);
                ctx.send_message_to_all_edges(vertex, 2.0);
            }
            (1, 6) => {
                vertex.remove_edge(targets[1]);
                vertex.add_edge(targets[1], ());
                ctx.send_message_to_all_edges(vertex, 2.0);
            }
            (1, 7) => ctx.send_message_to_all_edges(vertex, 2.0),
            (1, 9) => {
                ctx.send_message_to_all_edges(vertex, 2.0);
                ctx.send_message(targets[0], 2.0);
            }
            (1, 10) => {
                ctx.send_message(targets[0], 2.0);
                ctx.send_message_to_all_edges(vertex, 2.0);
            }
            (1, 11) => {
                ctx.send_message_to_all_edges(vertex, 2.0);
                ctx.send_message_to_all_edges(vertex, 2.0);
            }
            (1, _) => ctx.send_message(0, 2.0),
            _ => vertex.vote_to_halt(),
        }
    }
}

#[test]
fn broadcast_edge_cases_read_as_their_pairs() {
    // Vertices 0-6 and 9-11 have two edges, 7 has one and 8 none.
    let mut graph = Graph::builder();
    for v in 0..12u64 {
        graph.add_vertex(v, 0.0).unwrap();
    }
    for v in (0..7u64).chain(9..12) {
        graph.add_edge(v, (v + 1) % 9, ()).unwrap();
        graph.add_edge(v, (v + 3) % 9, ()).unwrap();
    }
    graph.add_edge(7, 0, ()).unwrap();
    let noted = Noted::default();
    let computation = Witnessed { inner: Cases, noted: noted.clone() };
    let config = DebugConfig::builder().capture_all_active(true).build();
    let run = GraftRunner::new(computation, config)
        .num_workers(WORKERS)
        .run(graph.build().unwrap(), ROOT)
        .unwrap();
    assert!(run.outcome.is_ok());
    let forms = check(&run, &noted);
    let vouches = noted.vouches.lock().unwrap();

    // (call, written as a broadcast, vouched for, case)
    let expected = [
        ((0, 0), true, true, "two edges, one message"),
        ((0, 7), true, true, "degree 1"),
        ((0, 8), false, false, "degree 0: a broadcast with no sends"),
        ((1, 0), false, false, "-0.0 next to 0.0"),
        ((1, 1), true, false, "two NaNs, both null"),
        ((1, 2), false, false, "a subset of the edges"),
        ((1, 3), false, false, "the edges in another order"),
        ((1, 4), false, false, "along the edges after an added edge"),
        ((1, 5), false, false, "along the edges after a removed edge"),
        ((1, 6), true, false, "an edit that restores the list"),
        ((1, 7), true, true, "degree 1"),
        ((1, 8), false, false, "degree 0: a send off the edges"),
        ((1, 9), false, false, "a broadcast, then one send more"),
        ((1, 10), false, false, "one send, then a broadcast"),
        ((1, 11), false, false, "two broadcasts"),
        ((2, 4), true, true, "along the edited list"),
    ];
    for (key, broadcast, vouched, case) in expected {
        let label = format!("superstep {}, vertex {}: {case}", key.0, key.1);
        assert_eq!(forms[&key], broadcast, "{label}");
        assert_eq!(vouches.contains(&key), vouched, "{label}: the vouch");
    }
}

#[test]
fn graph_coloring_priority_and_in_set_rounds_read_as_their_pairs() {
    let mut graph = Graph::builder();
    for v in 0..32u64 {
        graph.add_vertex(v, GCValue::default()).unwrap();
    }
    for v in 0..32u64 {
        graph.add_undirected_edge(v, (v + 1) % 32, ()).unwrap();
        if v % 3 == 0 {
            graph.add_undirected_edge(v, (v + 7) % 32, ()).unwrap();
        }
    }
    let noted = Noted::default();
    let computation = Witnessed { inner: GraphColoring::new(7), noted: noted.clone() };
    let config = DebugConfig::builder().capture_all_active(true).build();
    let run = GraftRunner::new(computation, config)
        .with_master(WitnessedMaster(GraphColoringMaster))
        .num_workers(WORKERS)
        .max_supersteps(500)
        .run(graph.build().unwrap(), ROOT)
        .unwrap();
    assert!(run.outcome.is_ok());
    let forms = check(&run, &noted);

    // Both message kinds are written as broadcasts.
    let sends = noted.sends.lock().unwrap();
    let kind =
        |pairs: &[(TaggedBytes, TaggedBytes)]| match serde_json::from_str(&pairs.first()?.1.json())
            .ok()?
        {
            serde_json::Value::String(unit) => Some(unit),
            serde_json::Value::Object(variant) => variant.into_keys().next(),
            _ => None,
        };
    let mut seen = BTreeMap::new();
    for (key, broadcast) in &forms {
        if let Some(kind) = kind(&sends[key]) {
            seen.entry(kind).or_insert_with(Vec::new).push(*broadcast);
        }
    }
    for name in ["Priority", "InSet"] {
        assert!(seen[name].contains(&true), "{name}: {:?}", seen[name]);
    }
    // A vertex with no incoming messages writes the names of its first
    // `Priority` message inline, yet its sends are one broadcast.
    let fs = run.fs();
    let mut quiet = 0;
    for worker in 0..WORKERS {
        let bytes = fs.read_all(&worker_trace_path(ROOT, worker)).unwrap();
        for record in
            decode_vertex_records::<TaggedBytes, TaggedBytes, TaggedBytes, TaggedBytes>(&bytes)
                .unwrap()
        {
            let key = (record.superstep, record.vertex.text().parse::<u64>().unwrap());
            if record.incoming.is_empty()
                && sends[&key].len() > 1
                && kind(&sends[&key]).as_deref() == Some("Priority")
            {
                assert!(forms[&key], "superstep {}, vertex {}: not a broadcast", key.0, key.1);
                quiet += 1;
            }
        }
    }
    assert!(quiet > 0, "no vertex broadcast Priority with no incoming messages");
}
