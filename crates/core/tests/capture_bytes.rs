//! What a capture costs in trace bytes:
//!
//! * binary worker channels are at most half the bytes of their
//!   JSON-lines export;
//! * a binary channel writes a vertex's adjacency inline once per version
//!   of it — at the vertex's first capture and after each edit — and by
//!   back-reference at every other capture;
//! * a binary channel writes a superstep's context — its global data and
//!   aggregator values — once, in the index frame of the superstep's
//!   group, whatever the number of records in it;
//! * ids and edges that are strings keep their context-free bytes, so
//!   they are back-referenced like any other, while the names in values
//!   and messages are written once per record.

use std::sync::Arc;

use graft::trace::{
    convert_channel, decode_vertex_records, worker_trace_path, ChannelKind, ErasedVertexTrace,
    TraceFormat, WireEdges, WireVertexTrace, FRAME_INDEX, FRAME_VERTEX,
};
use graft::{DebugConfig, GraftRunner};
use graft_algorithms::pagerank::PageRank;
use graft_codec::frame::FrameScanner;
use graft_dfs::FileSystem;
use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, Graph, VertexHandleOf,
};

const WORKERS: usize = 4;
const ROOT: &str = "/traces/bytes";

/// A ring with chords: every vertex has two out-edges.
fn ring(n: u64) -> Graph<u64, f64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, 0.0).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, ()).unwrap();
        b.add_edge(v, (v * 7 + 3) % n, ()).unwrap();
    }
    b.build().unwrap()
}

/// Runs `computation` with capture-all and returns its file system.
fn capture<C>(computation: C, graph: Graph<u64, C::VValue, ()>) -> Arc<dyn FileSystem>
where
    C: Computation<Id = u64, EValue = ()>,
{
    let config = DebugConfig::<C>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(computation, config).num_workers(WORKERS).run(graph, ROOT).unwrap();
    assert!(run.outcome.is_ok());
    run.fs().clone()
}

/// Per worker channel: every vertex record in order, as `(vertex, edge
/// targets, whether the edges are inline)`.
fn channel_records(fs: &Arc<dyn FileSystem>) -> Vec<Vec<(String, Vec<String>, bool)>> {
    (0..WORKERS)
        .map(|w| {
            let bytes = fs.read_all(&worker_trace_path(ROOT, w)).unwrap();
            let records: Vec<ErasedVertexTrace> = decode_vertex_records(&bytes).unwrap();
            let mut inline = Vec::new();
            let mut scanner = FrameScanner::new(&bytes);
            while let Some(frame) = scanner.next_frame().unwrap() {
                if frame.kind == FRAME_VERTEX {
                    let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
                    inline.push(matches!(wire.edges, WireEdges::Inline(_)));
                }
            }
            assert_eq!(records.len(), inline.len());
            records
                .iter()
                .zip(inline)
                .map(|(record, inline)| {
                    let targets = record.edges.iter().map(|(t, _)| t.0.to_string()).collect();
                    (record.vertex.0.to_string(), targets, inline)
                })
                .collect()
        })
        .collect()
}

/// Asserts that each channel holds a vertex's edges inline exactly when
/// they differ from its previous capture in that channel; returns the
/// number of inline lists.
fn assert_inline_once_per_version(fs: &Arc<dyn FileSystem>) -> usize {
    let mut lists = 0;
    for (worker, records) in channel_records(fs).into_iter().enumerate() {
        let mut last: std::collections::HashMap<String, Vec<String>> = Default::default();
        for (vertex, edges, inline) in records {
            let changed = last.get(&vertex) != Some(&edges);
            assert_eq!(inline, changed, "worker {worker}, vertex {vertex}, edges {edges:?}");
            lists += usize::from(inline);
            last.insert(vertex, edges);
        }
    }
    lists
}

#[test]
fn binary_channels_are_at_most_half_the_json_bytes() {
    let fs = capture(PageRank::new(5), ring(64));
    let (mut binary, mut json) = (0, 0);
    for w in 0..WORKERS {
        let bytes = fs.read_all(&worker_trace_path(ROOT, w)).unwrap();
        let binary_len = bytes.len();
        let lines = convert_channel(
            ChannelKind::Worker,
            TraceFormat::NATIVE,
            TraceFormat::JsonLines,
            bytes,
        );
        (binary, json) = (binary + binary_len, json + lines.unwrap().len());
    }
    assert!(binary * 2 <= json, "binary {binary} vs JSON {json} bytes");
}

#[test]
fn an_unchanged_adjacency_is_written_inline_once_per_vertex() {
    let supersteps = 5;
    let fs = capture(PageRank::new(supersteps), ring(64));
    assert_eq!(assert_inline_once_per_version(&fs), 64);
    let records: usize = channel_records(&fs).iter().map(Vec::len).sum();
    assert_eq!(records, 64 * (supersteps as usize + 1));
}

/// Forwards its value for seven supersteps; every third vertex adds an
/// edge in each odd superstep.
struct Rewire;

impl Computation for Rewire {
    type Id = u64;
    type VValue = f64;
    type EValue = ();
    type Message = f64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[f64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let superstep = ctx.superstep();
        if superstep >= 7 {
            vertex.vote_to_halt();
            return;
        }
        let id = vertex.id();
        vertex.set_value(messages.iter().sum::<f64>() / 2.0 + 1.0);
        if superstep % 2 == 1 && id % 3 == 0 {
            vertex.add_edge((id + superstep) % ctx.num_vertices(), ());
        }
        ctx.send_message_to_all_edges(vertex, *vertex.value());
    }
}

#[test]
fn an_edited_adjacency_is_written_inline_again_after_each_edit() {
    let fs = capture(Rewire, ring(48));
    // Edits in supersteps 1, 3 and 5 show in the captures of 2, 4 and 6:
    // three more lists for each of the 16 editing vertices.
    assert_eq!(assert_inline_once_per_version(&fs), 48 + 16 * 3);
}

/// Forwards its value for four supersteps, summing the vertex ids into an
/// aggregator every superstep.
struct Tally;

impl Computation for Tally {
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
        if ctx.superstep() >= 4 {
            vertex.vote_to_halt();
            return;
        }
        ctx.aggregate("ids", AggValue::Long(vertex.id() as i64));
        ctx.send_message_to_all_edges(vertex, *vertex.value());
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register("ids", AggOp::Sum, AggValue::Long(0));
    }
}

#[test]
fn a_supersteps_context_is_written_once_per_channel() {
    let fs = capture(Tally, ring(48));
    for w in 0..WORKERS {
        let bytes = fs.read_all(&worker_trace_path(ROOT, w)).unwrap();
        let mut scanner = FrameScanner::new(&bytes);
        let frames: Vec<_> = std::iter::from_fn(|| scanner.next_frame().unwrap()).collect();
        let groups = frames.iter().filter(|frame| frame.kind == FRAME_INDEX).count();
        assert_eq!(groups, 5, "worker {w}: one group per superstep");
        // Every record of a superstep saw the sum its predecessor made.
        let records: Vec<ErasedVertexTrace> = decode_vertex_records(&bytes).unwrap();
        assert_eq!(records.len(), frames.len() - groups);
        for record in records {
            let sum = if record.superstep == 0 { 0 } else { (0..48).sum() };
            assert_eq!(record.aggregators, [("ids".to_string(), AggValue::Long(sum))]);
            assert_eq!(record.global.superstep, record.superstep);
        }
    }
}

/// A vertex id that is a string on the wire: `town-<n>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Town(u8);

impl std::fmt::Display for Town {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "town-{}", self.0)
    }
}

impl serde::Serialize for Town {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> serde::Deserialize<'de> for Town {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        let number = text.strip_prefix("town-").and_then(|n| n.parse().ok());
        number.map(Town).ok_or_else(|| serde::de::Error::custom(format!("not a town: {text}")))
    }
}

/// An edge value that is a string on the wire: a unit variant's name.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
enum Link {
    Road,
    Rail,
}

/// A value whose field names and strings repeat the ids and edge values.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct Post {
    from: Town,
    by: Link,
    hops: u32,
}

/// Passes a [`Post`] along every edge for four supersteps.
struct Courier;

impl Computation for Courier {
    type Id = Town;
    type VValue = Post;
    type EValue = Link;
    type Message = Post;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[Post],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        if ctx.superstep() >= 4 {
            vertex.vote_to_halt();
            return;
        }
        let hops = messages.iter().map(|post| post.hops + 1).max().unwrap_or(0);
        let by = vertex.edges().first().map_or(Link::Road, |edge| edge.value);
        vertex.set_value(Post { from: vertex.id(), by, hops });
        let post = vertex.value().clone();
        ctx.send_message_to_all_edges(vertex, post);
    }
}

#[test]
fn string_ids_and_edge_values_are_back_referenced() {
    let mut b = Graph::builder();
    for v in 0..24u8 {
        b.add_vertex(Town(v), Post { from: Town(v), by: Link::Road, hops: 0 }).unwrap();
    }
    for v in 0..24u8 {
        b.add_edge(Town(v), Town((v + 1) % 24), Link::Road).unwrap();
        b.add_edge(Town(v), Town((v * 5 + 2) % 24), Link::Rail).unwrap();
    }
    let config = DebugConfig::<Courier>::builder().capture_all_active(true).build();
    let run = GraftRunner::new(Courier, config)
        .num_workers(WORKERS)
        .run(b.build().unwrap(), ROOT)
        .unwrap();
    assert!(run.outcome.is_ok());
    let fs = run.fs().clone();
    // Each adjacency inline once: the id and edge bytes do not depend on
    // the names the record wrote before them.
    assert_eq!(assert_inline_once_per_version(&fs), 24);
    for w in 0..WORKERS {
        let bytes = fs.read_all(&worker_trace_path(ROOT, w)).unwrap();
        let records: Vec<ErasedVertexTrace> = decode_vertex_records(&bytes).unwrap();
        assert!(records.iter().all(|record| record.vertex.0.as_str().is_some()));
        let mut scanner = FrameScanner::new(&bytes);
        let mut vertex_frames = 0;
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind != FRAME_VERTEX {
                continue;
            }
            let record = &records[vertex_frames];
            vertex_frames += 1;
            // The id opens the payload in its context-free bytes, and an
            // inline edge list is its context-free bytes too, although
            // the values before it wrote the id's and the links' names.
            let id = graft_codec::to_vec(&graft_codec::Tagged(&record.vertex)).unwrap();
            assert_eq!(frame.payload[..id.len()], id, "{:?}", record.vertex);
            let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
            if let WireEdges::Inline(list) = &wire.edges {
                let edges = graft_codec::to_vec(&WireEdges::Inline(list)).unwrap();
                assert!(frame.payload.windows(edges.len()).any(|at| at == edges), "{list:?}");
            }
        }
        assert_eq!(vertex_frames, records.len());
    }
}
