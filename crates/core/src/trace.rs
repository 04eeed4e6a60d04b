//! Trace record types and their on-disk encoding.
//!
//! A Graft run writes, under its trace root:
//!
//! ```text
//! <root>/meta.json        job metadata (computation name, types, config)
//! <root>/worker_<w>.trace captured vertex contexts from worker w
//! <root>/master.trace     captured master contexts (one per superstep)
//! <root>/result.json      terminal job status and summary counters
//! ```
//!
//! Worker and master trace files hold kind-tagged GraftBin frames,
//! `[len varint][kind u8][payload]` (see `graft_codec::frame`). Worker
//! channels carry [`FRAME_VERTEX`] records in groups, each opened by a
//! [`FRAME_INDEX`] record that holds what every record of the group
//! shares — the superstep, the default global data and the aggregator
//! values — and lets readers hop whole groups without touching payloads.
//! The master channel carries [`FRAME_MASTER`] records. Every writer of a
//! channel — the trace sink, `trace convert`, synthetic traces — goes
//! through a [`ChannelWriter`], the one place that grammar is written
//! down.
//!
//! JSON lines, one document per line, and binary layouts v1 to v5 are
//! legacy formats: nothing captures in them, and every reader takes a
//! channel through one door, [`native_channel`], which turns a legacy
//! channel into the v6 bytes `trace convert --to binary` writes for it —
//! so no reader past the door knows a layout. [`convert_channel`] exports
//! to JSON lines.
//!
//! Capture writes a vertex frame in one pass, straight from borrowed
//! engine state: the instrumenter fills a [`VertexCapture`] with
//! references to the vertex's value, edges and messages, and its
//! `Serialize` impl puts the computation-typed positions (id, values,
//! edges, messages) through the type-erased tagged encoding whose rules
//! are stated in `graft_codec`'s `tagged` module — the id and edges
//! through [`graft_codec::Tagged`], the values and messages through
//! [`graft_codec::Interned`] — and everything else through plain
//! GraftBin. No intermediate value tree is built and no size pass is
//! made; the frame's length prefix is filled in after the payload is
//! written.
//!
//! Readers decode the same payload as a [`WireVertexTrace`], whose typed
//! positions are [`graft_codec::TaggedBytes`] — the context-free tagged
//! bytes of each tree, its names resolved as it is read — and take the
//! rest of the record from its group's [`IndexRecord`], so any tool can
//! browse a binary trace without the computation's Rust types. The tagged
//! encoding is defined so that those trees are the exact
//! `serde_json::Value`s a JSON text round-trip of the record yields, so
//! a record exported to JSON lines and read back is the record, and
//! every view served over either format is byte-for-byte the same.
//!
//! **Format v6: a capture writes only what the vertex's last capture did
//! not, a superstep's context once, and each name once per record.**
//! `meta.json` records the binary layout as a [`TraceFormat`]. A v6
//! vertex record holds no superstep,
//! global data or aggregator values: its group's index frame does. A
//! [`ChannelWriter`] opens a group when the superstep changes or when a
//! record's encoded context differs from the open group's, so a context
//! that changes within a superstep opens a second group for it. The
//! capture path hands the writer a context version with the record
//! ([`VertexCapture::context_version`]); a record under the version the
//! open group was written or matched under is in that group, with its
//! context neither encoded nor compared. Within a payload, the values
//! and messages share one name table: an object key or string is inline
//! the first time the payload writes it and an index after that, while
//! the id and edges write no names and enter no table, so their bytes
//! do not depend on what the record wrote before them. v4 payloads
//! wrote every name inline; they read as v5 payloads that hold no name.
//!
//! A vertex record's `value_before` is a [`WireValue`]: the value, or one
//! `Same` byte when the value encodes, against a fresh name table, to the
//! bytes of the `value_after` of the channel's last earlier frame of the
//! same vertex (equal encoded id bytes). The comparison is on fresh-table
//! encodings because interning makes a value's bytes in a payload depend
//! on what the payload wrote before it; a `Same` writes no names, so the
//! `value_after` behind it is written against an empty table and its bytes
//! are the very ones the next record compares with. The capture path hands
//! the writer the value versions of compute entry and exit
//! ([`VertexCapture::value_versions`]); a record whose entry version is the
//! one the rule stored the vertex's last value under gets its `Same` with
//! nothing encoded or compared. v5 payloads held every value inline.
//!
//! A vertex record's `edges` field is a [`WireEdges`]: the
//! inline list, or the channel offset of an earlier frame that records the
//! same vertex (equal encoded id bytes) with identical inline edges — one
//! hop, never a reference to a reference. A [`ChannelWriter`] decides both
//! rules with a [`VertexRefs`], a pure function of the channel's record stream, so a
//! replayed, budgeted or converted channel is byte-identical to a native
//! one. The capture path hands the writer an adjacency version with the
//! edges ([`VertexCapture::edges_version`]); where the version vouches
//! for the stored bytes, the writer refers back without encoding the list,
//! and writes what the byte rule writes. The `outgoing` field is a
//! [`WireOutgoing`]: the pairs, or — when the sends are the edges'
//! targets in edge order and every message encodes to the first's bytes —
//! one [`Broadcast`] of that message, which readers list along the
//! record's edges. v1 channels held every list inline, v2 channels every
//! send as a pair, v3 channels a context in every record, v4 channels
//! every name inline and v5 channels every value inline; the door writes
//! each again under these rules.
//!
//! A payload is read in one of three ways, all through the one GraftBin
//! decoder, so each succeeds on exactly the same payloads. A
//! [`VertexHead`] *skims* it: every field is checked, and only the
//! rendered vertex id and three flag bits are kept, beside the group's
//! superstep — what a reader indexing a trace needs, and proof that the
//! payload decodes.
//! A [`RowDigest`] skims it for a listing view: the texts and counts a
//! row of the tabular or node-link view shows, rendered as the fields are
//! read, no tree built. [`VertexChannel::record`] decodes it, once, into
//! the [`ErasedVertexTrace`] a view of the whole record reads
//! (reproducers, the violations view, a typed session): the one
//! whole-record form on the read side. The last two attach the group's
//! context and resolve an edge reference against the channel, and a
//! `Same` against the frame the walk resolved it to — which the node-link
//! digest, showing no `value_before`, leaves unread;
//! [`walk_vertex_channel`] reads every index frame, checks every reference
//! and resolves every `Same` of a channel. A channel that cannot be read fails with a
//! [`TraceReadError`] naming the byte offset of the frame at fault.

use std::cell::RefCell;
use std::fmt;
use std::hash::Hasher;
use std::ops::Range;
use std::sync::Arc;

use graft_codec::frame::{Frame, FrameScanner};
use graft_codec::{
    for_each_element, Interned, NameTable, SkipSeq, SkipStr, SkipTagged, Tagged, TaggedBytes,
    TaggedText,
};
use graft_dfs::FileSystem;
use graft_pregel::hash::{FxHashMap, FxHasher};
use graft_pregel::{AggValue, GlobalData};
use serde::de::DeserializeOwned;
use serde::ser::SerializeSeq;
use serde::{Deserialize, Serialize};

use crate::config::{CaptureReason, ConfigFacts};

/// Frame kind of a captured vertex context (written from a
/// [`VertexCapture`], read back as a [`WireVertexTrace`]).
pub const FRAME_VERTEX: u8 = 1;
/// Frame kind of a captured master context ([`MasterTrace`] payload).
pub const FRAME_MASTER: u8 = 2;
/// Frame kind of a superstep index record ([`IndexRecord`] payload).
pub const FRAME_INDEX: u8 = 3;

/// A captured exception (panic) from `compute()`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExceptionInfo {
    /// The panic payload rendered as text.
    pub message: String,
    /// A captured backtrace, when available.
    pub backtrace: Option<String>,
}

/// What kind of constraint a violation record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The vertex-value constraint failed.
    VertexValue,
    /// The message constraint failed for one outgoing message.
    Message,
}

/// One constraint violation, with the offending value rendered for the
/// Violations & Exceptions view. The full typed context lives in the
/// enclosing [`VertexTrace`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// Vertex-value or message violation.
    pub kind: ViolationKind,
    /// The offending vertex/message value, `Debug`-rendered.
    pub detail: String,
    /// For message violations, the target vertex (rendered).
    pub target: Option<String>,
}

/// The full captured context of one vertex in one superstep — the five
/// pieces of data the Giraph API exposes, plus what the vertex did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VertexTrace<I, V, E, M> {
    /// Superstep of the capture.
    pub superstep: u64,
    /// The captured vertex (context piece 1: the vertex id).
    pub vertex: I,
    /// Vertex value when `compute()` started.
    pub value_before: V,
    /// Vertex value after `compute()` returned (or panicked).
    pub value_after: V,
    /// Outgoing edges at `compute()` entry (context piece 2).
    pub edges: Vec<(I, E)>,
    /// Incoming messages (context piece 3).
    pub incoming: Vec<M>,
    /// Messages the vertex sent, in send order.
    pub outgoing: Vec<(I, M)>,
    /// Aggregator values visible this superstep (context piece 4).
    pub aggregators: Vec<(String, AggValue)>,
    /// Default global data (context piece 5).
    pub global: GlobalData,
    /// Whether the vertex voted to halt.
    pub halted_after: bool,
    /// Why this context was captured (possibly several reasons).
    pub reasons: Vec<CaptureReason>,
    /// Constraint violations committed by this vertex this superstep.
    pub violations: Vec<ViolationRecord>,
    /// The exception, if `compute()` panicked.
    pub exception: Option<ExceptionInfo>,
}

/// Shorthand for the vertex trace of a computation `C`.
pub type VertexTraceOf<C> = VertexTrace<
    <C as graft_pregel::Computation>::Id,
    <C as graft_pregel::Computation>::VValue,
    <C as graft_pregel::Computation>::EValue,
    <C as graft_pregel::Computation>::Message,
>;

/// A vertex trace whose computation-specific fields (id, values, edges,
/// messages) are type-erased [`graft_codec::TaggedBytes`], its edges
/// listed: what a JSON line or a v1 binary payload holds, and what a v6
/// payload reads as once its `Same` value and edge reference are resolved
/// and its group's context attached. Any tool can
/// handle it without the computation's Rust types; it is the one form of
/// a whole record that readers build ([`VertexChannel::record`]).
pub type ErasedVertexTrace = VertexTrace<TaggedBytes, TaggedBytes, TaggedBytes, TaggedBytes>;

impl ErasedVertexTrace {
    /// The record with its type-erased positions read as the
    /// computation's types, each from its JSON text; every other field
    /// moves over as it is.
    pub(crate) fn typed<I, V, E, M>(self) -> graft_codec::Result<VertexTrace<I, V, E, M>>
    where
        I: DeserializeOwned,
        V: DeserializeOwned,
        E: DeserializeOwned,
        M: DeserializeOwned,
    {
        fn leaf<T: DeserializeOwned>(value: &TaggedBytes) -> graft_codec::Result<T> {
            serde_json::from_str(&value.json()).map_err(json_error)
        }
        fn pairs<A: DeserializeOwned, B: DeserializeOwned>(
            list: &[(TaggedBytes, TaggedBytes)],
        ) -> graft_codec::Result<Vec<(A, B)>> {
            list.iter().map(|(a, b)| Ok((leaf(a)?, leaf(b)?))).collect()
        }
        Ok(VertexTrace {
            superstep: self.superstep,
            vertex: leaf(&self.vertex)?,
            value_before: leaf(&self.value_before)?,
            value_after: leaf(&self.value_after)?,
            edges: pairs(&self.edges)?,
            incoming: self.incoming.iter().map(leaf).collect::<Result<_, _>>()?,
            outgoing: pairs(&self.outgoing)?,
            aggregators: self.aggregators,
            global: self.global,
            halted_after: self.halted_after,
            reasons: self.reasons,
            violations: self.violations,
            exception: self.exception,
        })
    }
}

/// The `edges` field of a v2 to v6 binary vertex payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireEdges<L> {
    /// The `(target, edge value)` list itself.
    Inline(L),
    /// The channel offset of an earlier vertex frame that records the
    /// same vertex, byte for byte, with these edges inline.
    At(u64),
}

/// The `value_before` field of a v6 binary vertex payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireValue<V> {
    /// The value itself.
    Inline(V),
    /// The `value_after` of the channel's last earlier vertex frame that
    /// records the same vertex (equal encoded id bytes): one byte.
    Same,
}

/// The `outgoing` field of a v3 to v6 binary vertex payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireOutgoing<L, M> {
    /// The `(target, message)` pairs themselves, in send order.
    Pairs(L),
    /// One message sent along every edge of the record, in edge order.
    Broadcast(Broadcast<M>),
}

/// [`WireOutgoing::Broadcast`]: `count` sends, one along each edge of
/// the record in edge order, every message encoding to the bytes of
/// `value`. `count` is the number of edges, so a reader that does not
/// resolve them still knows how many messages the vertex sent.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Broadcast<M> {
    /// The number of sends, which is the record's out-degree.
    pub count: u64,
    /// The message every send carried.
    pub value: M,
}

/// The layout of a v6 binary vertex frame's payload, field for field:
/// an [`ErasedVertexTrace`] without the `superstep`, `aggregators` and
/// `global` its group's [`IndexRecord`] holds, whose value at compute
/// entry is a [`WireValue`], whose edges are a [`WireEdges`] and whose
/// outgoing messages are a [`WireOutgoing`]. The values and messages are
/// [`Interned`], against one name table for the payload; the id and the
/// edges are context-free. Each is read as its context-free
/// [`TaggedBytes`], which names nothing, and written again through the
/// payload's table. Encoding one with
/// `graft_codec::frame::write_value_frame` gives the frame the capture
/// path writes for the same record, a `Same` value included: the frame
/// round-trips alone.
#[derive(Clone, Debug, Deserialize)]
pub struct WireVertexTrace {
    /// See [`VertexTrace::vertex`].
    pub vertex: TaggedBytes,
    /// See [`VertexTrace::value_before`]: inline, or the same as the
    /// vertex's last `value_after`.
    pub value_before: WireValue<TaggedBytes>,
    /// See [`VertexTrace::value_after`].
    pub value_after: TaggedBytes,
    /// The edges, inline or by reference.
    pub edges: WireEdges<Vec<(TaggedBytes, TaggedBytes)>>,
    /// See [`VertexTrace::incoming`].
    pub incoming: Vec<TaggedBytes>,
    /// The outgoing messages, listed or as one broadcast.
    pub outgoing: WireOutgoing<Vec<(TaggedBytes, TaggedBytes)>, TaggedBytes>,
    /// See [`VertexTrace::halted_after`].
    pub halted_after: bool,
    /// See [`VertexTrace::reasons`].
    pub reasons: Vec<CaptureReason>,
    /// See [`VertexTrace::violations`].
    pub violations: Vec<ViolationRecord>,
    /// See [`VertexTrace::exception`].
    pub exception: Option<ExceptionInfo>,
}

impl Serialize for WireVertexTrace {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let outgoing = match &self.outgoing {
            WireOutgoing::Pairs(pairs) => {
                let pairs = pairs.iter().map(|(target, message)| (target, Interned(message)));
                WireOutgoing::Pairs(Seq(pairs))
            }
            WireOutgoing::Broadcast(Broadcast { count, value }) => {
                WireOutgoing::Broadcast(Broadcast { count: *count, value: Interned(value) })
            }
        };
        let value_before = match &self.value_before {
            WireValue::Inline(value) => WireValue::Inline(Interned(value)),
            WireValue::Same => WireValue::Same,
        };
        let mut record = serializer.serialize_struct("WireVertexTrace", 10)?;
        record.serialize_field("vertex", &self.vertex)?;
        record.serialize_field("value_before", &value_before)?;
        record.serialize_field("value_after", &Interned(&self.value_after))?;
        record.serialize_field("edges", &self.edges)?;
        record.serialize_field("incoming", &Seq(self.incoming.iter().map(Interned)))?;
        record.serialize_field("outgoing", &outgoing)?;
        record.serialize_field("halted_after", &self.halted_after)?;
        record.serialize_field("reasons", &self.reasons)?;
        record.serialize_field("violations", &self.violations)?;
        record.serialize_field("exception", &self.exception)?;
        record.end()
    }
}

/// The captured context of one `master.compute()` call: the aggregator
/// values it saw/produced, plus global data.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MasterTrace {
    /// The superstep this master call preceded.
    pub superstep: u64,
    /// Global data at the start of the superstep.
    pub global: GlobalData,
    /// Aggregator values after the master ran (what gets broadcast).
    pub aggregators: Vec<(String, AggValue)>,
    /// Whether the master halted the job here.
    pub halted: bool,
}

/// A group's index record: the payload of the index frame a
/// [`ChannelWriter`] writes into a worker channel immediately before the
/// first vertex record of each group. It holds the context every record
/// of the group shares, which a v6 vertex payload leaves out, so a reader
/// scanning frame headers knows — without decoding a single vertex
/// payload — which superstep the following group belongs to and how much
/// of the channel precedes it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IndexRecord {
    /// The superstep of the vertex records that follow.
    pub superstep: u64,
    /// Vertex records written to this channel before this frame.
    pub records_before: u64,
    /// Channel bytes written before this frame (its own offset).
    pub bytes_before: u64,
    /// The default global data of the records that follow (context
    /// piece 5).
    pub global: GlobalData,
    /// The aggregator values the records that follow saw (context
    /// piece 4).
    pub aggregators: Vec<(String, AggValue)>,
}

/// Job metadata written at trace root as `meta.json`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobMeta {
    /// Computation name (for display and generated test code).
    pub computation: String,
    /// Fully-qualified computation type path (for generated test code).
    pub computation_type: String,
    /// Master computation name, if any.
    pub master: Option<String>,
    /// Rust type names of `(Id, VValue, EValue, Message)`.
    pub value_types: (String, String, String, String),
    /// Number of workers the job ran with.
    pub num_workers: usize,
    /// Trace format of the worker/master files. `None` in meta.json
    /// files written before the binary pipeline existed, which always
    /// meant JSON lines — use [`JobMeta::format`] for the effective value.
    pub trace_format: Option<TraceFormat>,
    /// Human description of the active `DebugConfig`.
    pub config: Vec<String>,
    /// Machine-readable config summary for the analyzer's lints. `None`
    /// in traces written before the analyzer existed.
    pub facts: Option<ConfigFacts>,
}

impl JobMeta {
    /// The effective trace format: the recorded `trace_format`, or JSON
    /// lines for legacy trace directories that predate the field.
    pub fn format(&self) -> TraceFormat {
        self.trace_format.unwrap_or(TraceFormat::JsonLines)
    }
}

/// The on-disk format `meta.json` records: JSON lines or binary frames
/// and, for binary frames, the layout of their vertex payloads. Capture
/// writes [`TraceFormat::NATIVE`]; the others are read. A reader that
/// does not know a layout fails on `meta.json`, before it reads a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceFormat {
    /// JSON lines: legacy directories, and `trace convert`'s export.
    JsonLines,
    /// Binary frames whose vertex payloads hold their edges as a plain
    /// list: layout v1, recorded under this name as binary traces were
    /// before their layout had a version.
    Binary,
    /// Binary frames whose vertex payloads hold their edges as a
    /// [`WireEdges`] and their outgoing messages as a plain list.
    BinaryV2,
    /// Binary frames whose vertex payloads hold their edges as a
    /// [`WireEdges`], their outgoing messages as a [`WireOutgoing`], and
    /// their superstep and context.
    BinaryV3,
    /// Binary frames whose vertex payloads hold their superstep and
    /// context in their group's [`IndexRecord`], and every object key and
    /// string of their values and messages inline.
    BinaryV4,
    /// Binary frames whose vertex payloads hold their superstep and
    /// context in their group's [`IndexRecord`], and whose values and
    /// messages write each name once per payload
    /// ([`graft_codec::Interned`]).
    BinaryV5,
    /// Binary frames whose vertex payloads are [`WireVertexTrace`]s: v5
    /// payloads whose value at compute entry is one `Same` byte where it
    /// is the vertex's last value after compute in the channel.
    BinaryV6,
}

impl TraceFormat {
    /// The layout capture writes, `trace convert --to binary` imports to
    /// and every reader reads past the door ([`native_channel`]).
    pub const NATIVE: TraceFormat = TraceFormat::BinaryV6;
}

/// Terminal job status written at trace root as `result.json`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobResultRecord {
    /// Supersteps fully executed.
    pub supersteps_executed: u64,
    /// `None` on success, the engine error text otherwise.
    pub error: Option<String>,
    /// Total vertex contexts captured.
    pub captures: u64,
    /// Total constraint violations recorded.
    pub violations: u64,
    /// Total exceptions recorded.
    pub exceptions: u64,
    /// Whether the capture safety net tripped.
    pub capture_limit_hit: bool,
}

/// Path of the job metadata file.
pub fn meta_path(root: &str) -> String {
    format!("{root}/meta.json")
}

/// Path of worker `w`'s trace file.
pub fn worker_trace_path(root: &str, worker: usize) -> String {
    format!("{root}/worker_{worker}.trace")
}

/// Path of the master trace file.
pub fn master_trace_path(root: &str) -> String {
    format!("{root}/master.trace")
}

/// Path of the terminal status file.
pub fn result_path(root: &str) -> String {
    format!("{root}/result.json")
}

/// Why a record could not be captured, or why captured records were
/// lost. `result.json` carries the first one as its `error` text.
#[derive(Debug)]
pub enum CaptureError {
    /// A record could not be encoded as a binary frame.
    Codec(graft_codec::Error),
    /// The trace file system failed a write, or did not keep what was
    /// written; the text names the file where one is known.
    Dfs(String),
    /// A restore named a superstep no trace snapshot was taken for.
    SnapshotMissing(u64),
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Codec(e) => write!(f, "{e}"),
            CaptureError::Dfs(detail) => f.write_str(detail),
            CaptureError::SnapshotMissing(superstep) => {
                write!(f, "no trace snapshot for restored superstep {superstep}")
            }
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<graft_codec::Error> for CaptureError {
    fn from(e: graft_codec::Error) -> Self {
        CaptureError::Codec(e)
    }
}

impl From<std::io::Error> for CaptureError {
    fn from(e: std::io::Error) -> Self {
        CaptureError::Dfs(e.to_string())
    }
}

impl From<graft_dfs::FsError> for CaptureError {
    fn from(e: graft_dfs::FsError) -> Self {
        CaptureError::Dfs(e.to_string())
    }
}

/// A record a [`ChannelWriter`] can write to a channel: a superstep and
/// a context, which worker channels group frames by, and a kind-tagged
/// binary frame.
pub trait TraceRecord {
    /// The record's superstep, which worker channels group frames by.
    fn record_superstep(&self) -> u64;

    /// The version of the record's superstep and context (see
    /// [`VertexCapture::context_version`]); `None` promises nothing.
    fn context_version(&self) -> Option<u64> {
        None
    }

    /// Appends the GraftBin encoding of the record's context — the
    /// `global` and `aggregators` of its group's [`IndexRecord`] — to
    /// `out`. Records that are not grouped have none.
    fn encode_context(&self, _out: &mut Vec<u8>) -> Result<(), CaptureError> {
        Ok(())
    }

    /// Appends the record's binary frame (`[len][kind][payload]`) to
    /// `buf`, which is left untouched on error. A vertex record's edges
    /// go inline, and its superstep and context are left to its group.
    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError>;

    /// Appends the record's binary frame as a channel writer does: a
    /// vertex record's edges become a back-reference, and its value at
    /// compute entry a `Same`, where `refs`, the channel's rule, says so.
    /// `offset` is where the frame starts in the channel. Records without
    /// edges ignore the rule.
    fn encode_channel_frame(
        &self,
        buf: &mut Vec<u8>,
        _refs: &mut VertexRefs,
        _offset: u64,
    ) -> Result<(), CaptureError> {
        self.encode_binary_frame(buf)
    }
}

/// Serializes a cloneable iterator as the sequence of its items.
struct Seq<It>(It);

impl<It> Serialize for Seq<It>
where
    It: ExactSizeIterator + Clone,
    It::Item: Serialize,
{
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for item in self.0.clone() {
            seq.serialize_element(&item)?;
        }
        seq.end()
    }
}

/// Appends the GraftBin encoding of `value` to `out`.
fn put<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> graft_codec::Result<()> {
    value.serialize(&mut graft_codec::Serializer::new(out))
}

thread_local! {
    /// The name table of the vertex payload this thread writes: cleared
    /// for each payload, its room kept, so a payload's names cost no
    /// allocation.
    static PAYLOAD_NAMES: RefCell<NameTable> = RefCell::default();
}

/// Appends the GraftBin encoding of `value`, a part of the payload `out`
/// ends with, whose interned names so far `names` holds.
fn put_in<T: Serialize + ?Sized>(
    out: &mut Vec<u8>,
    names: &mut NameTable,
    value: &T,
) -> graft_codec::Result<()> {
    value.serialize(&mut graft_codec::Serializer::with_names(out, names))
}

/// A vertex context as the instrumenter hands it to the sink: the fields
/// of a [`VertexTrace`], borrowed from the engine state they live in
/// rather than cloned into a record. Its binary frame is a
/// [`WireVertexTrace`]'s, written field by field, the computation-typed
/// positions through [`Tagged`]; its superstep and context go to its
/// group's index frame.
pub struct VertexCapture<'a, I, V, M, Ed, Ag> {
    /// Superstep of the capture.
    pub superstep: u64,
    /// The captured vertex.
    pub vertex: &'a I,
    /// Vertex value when `compute()` started.
    pub value_before: &'a V,
    /// Vertex value after `compute()` returned (or panicked).
    pub value_after: &'a V,
    /// `(target, value)` of each outgoing edge at `compute()` entry.
    pub edges: Ed,
    /// The version of `edges` ([`graft_pregel::VertexHandle::entry_version`]):
    /// two captures of one vertex under one version have equal edges, so
    /// the channel's rule may refer back without encoding them. `None`
    /// promises nothing.
    pub edges_version: Option<u64>,
    /// The versions of `value_before` and `value_after`
    /// ([`graft_pregel::VertexHandle::value_version`] at compute entry and
    /// exit): two captures of one vertex under one version have equal
    /// values, so the channel's rule may write a `Same` without encoding
    /// the value. `None` promises nothing.
    pub value_versions: Option<(u64, u64)>,
    /// Incoming messages.
    pub incoming: &'a [M],
    /// Messages the vertex sent, in send order.
    pub outgoing: &'a [(I, M)],
    /// Whether `outgoing` is one broadcast
    /// ([`graft_pregel::ComputeContext::staged_broadcast`]): at least one
    /// send, the sends' targets the targets of `edges` in edge order, and
    /// every message a clone of the first, so the writer may write a
    /// broadcast without comparing the messages. `false` promises nothing.
    pub outgoing_broadcast: bool,
    /// `(name, value)` of each aggregator visible this superstep.
    pub aggregators: Ag,
    /// Default global data.
    pub global: GlobalData,
    /// The version of `superstep`, `aggregators` and `global`
    /// ([`graft_pregel::ComputeContext::context_version`]): two captures
    /// under one version have equal ones, so the channel's writer may put
    /// a record in the open group without encoding its context. `None`
    /// promises nothing.
    pub context_version: Option<u64>,
    /// Whether the vertex voted to halt.
    pub halted_after: bool,
    /// Why this context was captured.
    pub reasons: &'a [CaptureReason],
    /// Constraint violations committed by this vertex this superstep.
    pub violations: &'a [ViolationRecord],
    /// The exception, if `compute()` panicked.
    pub exception: Option<&'a ExceptionInfo>,
}

impl<'a, I, V, E, M, Ed, Ag> VertexCapture<'a, I, V, M, Ed, Ag>
where
    I: Serialize + 'a,
    V: Serialize,
    E: Serialize + 'a,
    M: Serialize,
    Ed: ExactSizeIterator<Item = (&'a I, &'a E)> + Clone,
    Ag: ExactSizeIterator<Item = (&'a str, &'a AggValue)> + Clone,
{
    /// Appends the record's v6 frame to `buf`, field by field. With a
    /// `rule`, the channel's rule and the frame's channel offset, the value
    /// at compute entry is a `Same` where the rule says so (see
    /// [`Self::write_value_before`]), and the edges are written inline, then
    /// cut back to a reference where the rule has one; once the frame is
    /// whole, the rule notes its value after compute and any inline list.
    /// Where the rule already holds the vertex's edges under
    /// `edges_version`, the reference is written without encoding them at
    /// all; a debug build encodes them anyway and checks that the bytes
    /// would have said the same. `same_target` says whether two ids encode
    /// to the same bytes (see [`Self::write_outgoing`]).
    fn write_frame(
        &self,
        buf: &mut Vec<u8>,
        mut rule: Option<(&mut VertexRefs, u64)>,
        same_target: impl Fn(&I, &I) -> bool,
    ) -> Result<(), CaptureError> {
        // The id, the value after compute and the inline edges of the
        // frame, as distances back from its end: the length prefix may
        // still shift what lies before.
        let mut back = [0; 4];
        let mut inline: Option<[usize; 2]> = None;
        // Whether the value after compute was written against an empty
        // name table, so that its bytes are its fresh-table encoding.
        let mut fresh_after = false;
        // The vertex's entry in the rule, looked up once.
        let mut slot = Err(0);
        PAYLOAD_NAMES.with_borrow_mut(|names| {
            names.clear();
            graft_codec::frame::write_frame_with(buf, FRAME_VERTEX, |out| {
                let id_at = out.len();
                put(out, &Tagged(self.vertex))?;
                let id = id_at..out.len();
                if let Some((refs, _)) = rule.as_mut() {
                    slot = refs.find(&out[id.clone()]);
                }
                let entry = slot.ok();
                fresh_after = match rule.as_mut() {
                    Some((refs, _)) => self.write_value_before(out, names, refs, entry)?,
                    None => {
                        put_in(out, names, &WireValue::Inline(Interned(self.value_before)))?;
                        false
                    }
                };
                let after_at = out.len();
                put_in(out, names, &Interned(self.value_after))?;
                let edges_at = out.len();
                let tagged_pair = |(a, b)| (Tagged(a), Tagged(b));
                let listed = WireEdges::Inline(Seq(self.edges.clone().map(tagged_pair)));
                let known = match (rule.as_mut(), entry, self.edges_version) {
                    (Some((refs, _)), Some(at), Some(version)) => {
                        refs.reference_by_version(at, version)
                    }
                    _ => None,
                };
                if known.is_none() || cfg!(debug_assertions) {
                    put(out, &listed)?;
                }
                let by_bytes = |refs: &mut VertexRefs, version| {
                    entry.and_then(|at| refs.reference(at, &out[edges_at..], version))
                };
                let target = match (known, rule.as_mut()) {
                    (Some(target), Some((refs, _))) if cfg!(debug_assertions) => {
                        let by_bytes = by_bytes(refs, None);
                        assert_eq!(by_bytes, Some(target), "a version named other edges");
                        known
                    }
                    (Some(_), _) => known,
                    (None, rule) => rule.and_then(|(refs, _)| by_bytes(refs, self.edges_version)),
                };
                let edges_end = match target {
                    Some(target) => {
                        out.truncate(edges_at);
                        put(out, &WireEdges::<()>::At(target))?;
                        None
                    }
                    None => Some(out.len()),
                };
                put_in(out, names, &Seq(self.incoming.iter().map(Interned)))?;
                self.write_outgoing(out, names, same_target)?;
                put(out, &self.halted_after)?;
                put(out, self.reasons)?;
                put(out, self.violations)?;
                put(out, &self.exception)?;
                let end = out.len();
                back = [id.start, id.end, after_at, edges_at].map(|at| end - at);
                inline = edges_end.map(|edges_end| [edges_at, edges_end].map(|at| end - at));
                Ok(())
            })
        })?;
        let Some((refs, offset)) = rule else { return Ok(()) };
        let [id_start, id_end, after_start, after_end] = back.map(|back| buf.len() - back);
        let edges = inline.map(|back| {
            let [start, end] = back.map(|back| buf.len() - back);
            (&buf[start..end], self.edges_version)
        });
        let version = self.value_versions.map(|(_, after)| after);
        let id = &buf[id_start..id_end];
        if fresh_after {
            refs.remember(slot, id, offset, edges, &buf[after_start..after_end], version);
        } else {
            let mut value = std::mem::take(&mut refs.scratch);
            value.clear();
            put(&mut value, &Interned(self.value_after))?;
            refs.remember(slot, id, offset, edges, &value, version);
            refs.scratch = value;
        }
        Ok(())
    }

    /// Appends the `value_before` field of a frame of the vertex at
    /// `entry` in `refs`, if seen, the first value of its payload: a
    /// [`WireValue::Same`] where `refs` holds the vertex's last
    /// `value_after` and it is this record's value at entry, inline
    /// otherwise. Where the rule holds that value under the entry version
    /// of `value_versions`, the `Same` is written without encoding the
    /// value, which a debug build encodes anyway and checks; otherwise the
    /// value is written inline, against the payload's still empty name
    /// table, and its bytes — its fresh-table encoding — are compared with
    /// the stored ones, to be cut back to a `Same`, names and all, if equal.
    /// Returns whether it wrote a `Same`.
    fn write_value_before(
        &self,
        out: &mut Vec<u8>,
        names: &mut NameTable,
        refs: &VertexRefs,
        entry: Option<usize>,
    ) -> graft_codec::Result<bool> {
        let Some(entry) = entry else {
            put_in(out, names, &WireValue::Inline(Interned(self.value_before)))?;
            return Ok(false);
        };
        let at = out.len();
        let version = self.value_versions.map(|(version, _)| version);
        let vouched = version.is_some_and(|version| refs.value_by_version(entry, version));
        if !vouched || cfg!(debug_assertions) {
            put_in(out, names, &WireValue::Inline(Interned(self.value_before)))?;
            // `Inline` is variant 0: its index is one byte.
            let same = refs.same_value(entry, &out[at + 1..]);
            assert!(same || !vouched, "a value version named another value");
            if !same {
                return Ok(false);
            }
            out.truncate(at);
            names.clear();
        }
        put(out, &WireValue::<()>::Same)?;
        Ok(true)
    }

    /// Appends the record's context as its group's [`IndexRecord`] holds
    /// it.
    fn write_context(&self, out: &mut Vec<u8>) -> Result<(), CaptureError> {
        put(out, &self.global)?;
        put(out, &Seq(self.aggregators.clone()))?;
        Ok(())
    }

    /// Appends the `outgoing` field: a [`WireOutgoing::Broadcast`] when
    /// there is at least one send, the sends' targets are the edges'
    /// targets in edge order, and every message encodes to the bytes of
    /// the first; the pairs otherwise. Where `outgoing_broadcast` vouches
    /// for that, the broadcast is written with one message encoded and none
    /// compared, which a debug build decides on bytes anyway and checks.
    /// The vouch relies on what the engine stages:
    /// [`graft_pregel::ComputeContext::send_message_to_all_edges`] over
    /// unedited edges stages clones of one message along the edges at
    /// compute entry, in edge order, and clones encode alike.
    fn write_outgoing(
        &self,
        out: &mut Vec<u8>,
        names: &mut NameTable,
        same_target: impl Fn(&I, &I) -> bool,
    ) -> graft_codec::Result<()> {
        let broadcast = match self.outgoing_broadcast {
            true if !cfg!(debug_assertions) => true,
            vouched => {
                let by_bytes = self.broadcast_by_bytes(out, same_target)?;
                assert!(by_bytes || !vouched, "a broadcast vouch the bytes deny");
                by_bytes
            }
        };
        if let (true, Some((_, first))) = (broadcast, self.outgoing.first()) {
            let count = self.outgoing.len() as u64;
            let broadcast = Broadcast { count, value: Interned(first) };
            return put_in(out, names, &WireOutgoing::<(), _>::Broadcast(broadcast));
        }
        let pairs =
            self.outgoing.iter().map(|(target, message)| (Tagged(target), Interned(message)));
        put_in(out, names, &WireOutgoing::<_, ()>::Pairs(Seq(pairs)))
    }

    /// Whether the sends are a broadcast by the byte rule of
    /// [`Self::write_outgoing`], decided with `out` as scratch space past
    /// its end. Both tests are on encoded bytes — `same_target` answers the
    /// first without encoding where equal ids are known to encode alike —
    /// so `-0.0` never stands for `0.0`, and two NaNs, which both encode as
    /// null, may. The messages are compared in their context-free encoding:
    /// two are equal there exactly when they intern alike against one
    /// table, whatever names the first of them would have entered into it.
    fn broadcast_by_bytes(
        &self,
        out: &mut Vec<u8>,
        same_target: impl Fn(&I, &I) -> bool,
    ) -> graft_codec::Result<bool> {
        let along_edges = self.outgoing.len() == self.edges.len()
            && self
                .outgoing
                .iter()
                .zip(self.edges.clone())
                .all(|((to, _), (target, _))| same_target(to, target));
        let Some(((_, first), rest)) = self.outgoing.split_first().filter(|_| along_edges) else {
            return Ok(false);
        };
        let field = out.len();
        put(out, &Tagged(first))?;
        let value = field..out.len();
        let mut alike = true;
        for (_, message) in rest {
            let at = out.len();
            put(out, &Tagged(message))?;
            alike = out[at..] == out[value.clone()];
            out.truncate(at);
            if !alike {
                break;
            }
        }
        out.truncate(field);
        Ok(alike)
    }
}

/// Whether `a` and `b` have the same tagged encoding.
fn same_encoding<T: Serialize>(a: &T, b: &T) -> bool {
    let (mut x, mut y) = (Vec::new(), Vec::new());
    put(&mut x, &Tagged(a)).is_ok() && put(&mut y, &Tagged(b)).is_ok() && x == y
}

/// Id equality, for a captured record: the engine's ids encode alike
/// exactly when they are equal, which a debug build checks.
fn equal_ids<I: PartialEq + Serialize>(a: &I, b: &I) -> bool {
    let equal = a == b;
    debug_assert_eq!(equal, same_encoding(a, b), "ids that compare and encode differently");
    equal
}

impl<'a, I, V, E, M, Ed, Ag> TraceRecord for VertexCapture<'a, I, V, M, Ed, Ag>
where
    I: PartialEq + Serialize + 'a,
    V: Serialize,
    E: Serialize + 'a,
    M: Serialize,
    Ed: ExactSizeIterator<Item = (&'a I, &'a E)> + Clone,
    Ag: ExactSizeIterator<Item = (&'a str, &'a AggValue)> + Clone,
{
    fn record_superstep(&self) -> u64 {
        self.superstep
    }

    fn context_version(&self) -> Option<u64> {
        self.context_version
    }

    fn encode_context(&self, out: &mut Vec<u8>) -> Result<(), CaptureError> {
        self.write_context(out)
    }

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        self.write_frame(buf, None, equal_ids)
    }

    fn encode_channel_frame(
        &self,
        buf: &mut Vec<u8>,
        refs: &mut VertexRefs,
        offset: u64,
    ) -> Result<(), CaptureError> {
        self.write_frame(buf, Some((refs, offset)), equal_ids)
    }
}

impl<I, V, E, M> TraceRecord for VertexTrace<I, V, E, M>
where
    I: Serialize,
    V: Serialize,
    E: Serialize,
    M: Serialize,
{
    fn record_superstep(&self) -> u64 {
        self.superstep
    }

    fn encode_context(&self, out: &mut Vec<u8>) -> Result<(), CaptureError> {
        self.borrowed().write_context(out)
    }

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        self.write_frame(buf, None)
    }

    fn encode_channel_frame(
        &self,
        buf: &mut Vec<u8>,
        refs: &mut VertexRefs,
        offset: u64,
    ) -> Result<(), CaptureError> {
        self.write_frame(buf, Some((refs, offset)))
    }
}

impl<I, V, E, M> VertexTrace<I, V, E, M>
where
    I: Serialize,
    V: Serialize,
    E: Serialize,
    M: Serialize,
{
    /// The [`VertexCapture`] borrowing the record, which promises nothing:
    /// a record may come from anywhere, a JSON line included.
    fn borrowed(
        &self,
    ) -> VertexCapture<
        '_,
        I,
        V,
        M,
        impl ExactSizeIterator<Item = (&I, &E)> + Clone,
        impl ExactSizeIterator<Item = (&str, &AggValue)> + Clone,
    > {
        VertexCapture {
            superstep: self.superstep,
            vertex: &self.vertex,
            value_before: &self.value_before,
            value_after: &self.value_after,
            edges: self.edges.iter().map(|(target, value)| (target, value)),
            edges_version: None,
            value_versions: None,
            incoming: &self.incoming,
            outgoing: &self.outgoing,
            outgoing_broadcast: false,
            aggregators: self.aggregators.iter().map(|(name, value)| (name.as_str(), value)),
            global: self.global,
            context_version: None,
            halted_after: self.halted_after,
            reasons: &self.reasons,
            violations: &self.violations,
            exception: self.exception.as_ref(),
        }
    }

    /// Writes the record's frame as the [`VertexCapture`] borrowing it,
    /// comparing ids by their encoding.
    fn write_frame(
        &self,
        buf: &mut Vec<u8>,
        rule: Option<(&mut VertexRefs, u64)>,
    ) -> Result<(), CaptureError> {
        self.borrowed().write_frame(buf, rule, same_encoding)
    }
}

/// A channel writer's back-reference rule for vertex records: per
/// vertex, the channel offset of its last inline frame and that frame's
/// encoded `edges` field, and the offset of its last frame and that
/// frame's `value_after` in its fresh-table encoding. A record whose
/// encoded edges equal the stored ones gets a reference to that frame when
/// the reference is shorter than the list; any other record keeps its
/// list and becomes the entry. A record whose value at compute entry
/// encodes, against a fresh name table, to the stored value writes it as
/// one `Same` byte. The rule is a pure function of the channel's record
/// stream, and the state holds one copy of each vertex's latest adjacency
/// and value.
///
/// Each entry also keeps the adjacency and value versions (see
/// [`VertexCapture::edges_version`] and [`VertexCapture::value_versions`])
/// under which its bytes were last written or matched. A record under
/// that same version has those bytes by the version's promise, so it gets
/// its reference or its `Same` with nothing encoded or compared; any other
/// record is decided on bytes. The versions only save work: what is
/// written is the byte rule's answer.
#[derive(Default)]
pub struct VertexRefs {
    /// Per vertex, in the order of its first capture.
    vertices: Vec<Latest>,
    /// Each vertex's encoded id, latest inline `edges` field and last
    /// value, laid out in `vertices` order: a channel captures its vertices
    /// in the same order every superstep, so its lookups walk this front to
    /// back.
    arena: Vec<u8>,
    /// Bytes of `arena` no vertex uses any more.
    garbage: usize,
    /// Each vertex's index in `vertices`, by [`id_hash`]. Of two ids with
    /// one hash the later takes the entry over: the rule stays a pure
    /// function of the stream, and only compares bytes.
    by_id: FxHashMap<u64, usize>,
    /// The index after the vertex last looked up: usually the next one.
    cursor: usize,
    /// Room for a value's fresh-table encoding, kept between frames.
    scratch: Vec<u8>,
}

/// Whether a reference to `offset` is shorter than an `edges` field of
/// `len` bytes.
fn shorter(offset: u64, len: usize) -> bool {
    1 + graft_codec::varint::encoded_len_u64(offset) < len
}

/// A hash of an encoded id. Fx alone would leave the low bits, which
/// pick the bucket, to the id's fixed tag byte; the high half is folded
/// into them.
fn id_hash(id: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(id);
    let hash = hasher.finish();
    hash ^ (hash >> 32)
}

/// Where [`VertexRefs`] keeps one vertex: `id_len` id bytes, then
/// `edges_len` bytes of its `edges` field, then `value_len` bytes of its
/// last value, at `at` in the arena, in `room` bytes.
#[derive(Default)]
struct Latest {
    at: usize,
    id_len: usize,
    edges_len: usize,
    value_len: usize,
    room: usize,
    /// Where the vertex's last inline frame starts; `None` once the
    /// channel no longer holds it.
    offset: Option<u64>,
    /// The adjacency version the stored edges were last written or
    /// matched under, if one was given.
    version: Option<u64>,
    /// Where the vertex's last frame, whose `value_after` the stored value
    /// is in its fresh-table encoding, starts; `None` once the channel no
    /// longer holds it.
    last: Option<u64>,
    /// The value version the stored value was written under, if one was
    /// given.
    value_version: Option<u64>,
}

impl Latest {
    fn id<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at..self.at + self.id_len]
    }

    fn edges<'a>(&self, arena: &'a [u8]) -> &'a [u8] {
        &arena[self.at + self.id_len..self.at + self.id_len + self.edges_len]
    }

    /// The stored value, if the channel still holds its frame.
    fn value<'a>(&self, arena: &'a [u8]) -> Option<&'a [u8]> {
        let at = self.at + self.id_len + self.edges_len;
        self.last.map(|_| &arena[at..at + self.value_len])
    }
}

impl VertexRefs {
    /// The index of vertex `id`, or the hash it goes by if unseen.
    fn find(&mut self, id: &[u8]) -> Result<usize, u64> {
        // The vertex after the last one looked up, or that one again.
        let near = [self.cursor, self.cursor.wrapping_sub(1)];
        let is_id = |at: &usize| self.vertices.get(*at).is_some_and(|v| v.id(&self.arena) == id);
        let found = match near.into_iter().find(is_id) {
            Some(at) => at,
            None => {
                let hash = id_hash(id);
                match self.by_id.get(&hash) {
                    Some(at) if is_id(at) => *at,
                    _ => return Err(hash),
                }
            }
        };
        self.cursor = found + 1;
        Ok(found)
    }

    /// Where a record of the vertex at `at` whose encoded `edges` field
    /// is `edges` points instead of holding them, if anywhere. On a match
    /// the stored edges are noted as those of `version` too.
    fn reference(&mut self, at: usize, edges: &[u8], version: Option<u64>) -> Option<u64> {
        let latest = &mut self.vertices[at];
        let offset = latest.offset?;
        let same = shorter(offset, edges.len()) && latest.edges(&self.arena) == edges;
        if same && version.is_some() {
            latest.version = version;
        }
        same.then_some(offset)
    }

    /// [`Self::reference`] for a record of the vertex at `at` whose edges
    /// are those of adjacency `version`, if the stored edges are known to
    /// be that version's: decided with no bytes to compare.
    fn reference_by_version(&self, at: usize, version: u64) -> Option<u64> {
        let latest = &self.vertices[at];
        let offset = latest.offset.filter(|_| latest.version == Some(version))?;
        shorter(offset, latest.edges_len).then_some(offset)
    }

    /// Whether `value`, a fresh-table encoding, is the stored value of the
    /// vertex at `at`.
    fn same_value(&self, at: usize, value: &[u8]) -> bool {
        self.vertices[at].value(&self.arena) == Some(value)
    }

    /// Whether the stored value of the vertex at `at` is known to be that
    /// of value `version`: decided with no bytes to compare.
    fn value_by_version(&self, at: usize, version: u64) -> bool {
        let latest = &self.vertices[at];
        latest.last.is_some() && latest.value_version == Some(version)
    }

    /// Notes the frame at `offset` of vertex `id`, found at `slot` (see
    /// [`Self::find`]): its `value_after`, encoded against a fresh name
    /// table, of value version `value_version` if one is given, and its
    /// `edges` if inline, of the adjacency version that comes with them if
    /// one is given.
    fn remember(
        &mut self,
        slot: Result<usize, u64>,
        id: &[u8],
        offset: u64,
        edges: Option<(&[u8], Option<u64>)>,
        value: &[u8],
        value_version: Option<u64>,
    ) {
        let (at, entered) = match slot {
            Ok(at) => (at, false),
            Err(hash) => {
                let fresh = self.vertices.len();
                let at = *self.by_id.entry(hash).or_insert(fresh);
                if at == fresh {
                    self.vertices.push(Latest { at: self.arena.len(), ..Latest::default() });
                }
                self.cursor = at + 1;
                (at, true)
            }
        };
        // An entry taken over from another id keeps none of its edges.
        let edges = match edges {
            Some((edges, version)) => Some((edges, Some(offset), version)),
            None => entered.then_some((&[][..], None, None)),
        };
        let latest = &mut self.vertices[at];
        // The id and edges stay where they are unless new ones come.
        let (kept, edges_len) = match edges {
            Some((edges, ..)) => (0, edges.len()),
            None => (latest.id_len + latest.edges_len, latest.edges_len),
        };
        let need = id.len() + edges_len + value.len();
        if need > latest.room {
            self.garbage += latest.room;
            let old = std::mem::replace(&mut latest.at, self.arena.len());
            latest.room = need;
            self.arena.resize(latest.at + need, 0);
            self.arena.copy_within(old..old + kept, latest.at);
        }
        if let Some((edges, edges_offset, version)) = edges {
            let at = latest.at + id.len();
            self.arena[latest.at..at].copy_from_slice(id);
            self.arena[at..at + edges.len()].copy_from_slice(edges);
            (latest.id_len, latest.edges_len) = (id.len(), edges.len());
            (latest.offset, latest.version) = (edges_offset, version);
        }
        let at = latest.at + latest.id_len + latest.edges_len;
        self.arena[at..at + value.len()].copy_from_slice(value);
        latest.value_len = value.len();
        (latest.last, latest.value_version) = (Some(offset), value_version);
        if self.garbage > self.arena.len() / 2 {
            self.compact();
        }
    }

    /// Lays the arena out afresh in `vertices` order, without garbage.
    fn compact(&mut self) {
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        for latest in &mut self.vertices {
            let used = latest.id_len + latest.edges_len + latest.value_len;
            arena.extend_from_slice(&self.arena[latest.at..latest.at + used]);
            (latest.at, latest.room) = (arena.len() - used, used);
        }
        (self.arena, self.garbage) = (arena, 0);
    }
}

impl TraceRecord for MasterTrace {
    fn record_superstep(&self) -> u64 {
        self.superstep
    }

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        Ok(graft_codec::frame::write_value_frame(buf, FRAME_MASTER, self)?)
    }
}

/// The superstep of a v5 index payload, and the offset of the context it
/// ends with; an error unless the whole payload reads as an
/// [`IndexRecord`].
fn index_context(payload: &[u8]) -> graft_codec::Result<(u64, usize)> {
    graft_codec::from_slice::<IndexRecord>(payload)?;
    let mut reader = PayloadReader::new(payload);
    let (superstep, _, _): (u64, u64, u64) = (reader.field()?, reader.field()?, reader.field()?);
    Ok((superstep, reader.at()))
}

/// Appends a group's index frame to `buf`.
pub fn encode_index_frame(record: &IndexRecord, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
    Ok(graft_codec::frame::write_value_frame(buf, FRAME_INDEX, record)?)
}

/// Where a channel stands: its length and, in a worker channel, the
/// vertex records it holds and the superstep and encoded context of its
/// open group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChannelMark {
    /// Bytes written to the channel.
    pub(crate) written: u64,
    /// Vertex records written to the channel.
    pub(crate) records: u64,
    /// Superstep of the last vertex record; `None` before the first.
    pub(crate) last_superstep: Option<u64>,
    /// The open group's context as its index frame encodes it (see
    /// [`TraceRecord::encode_context`]); empty before the first group.
    pub(crate) context: Arc<[u8]>,
}

/// The grammar of a trace channel, written down once. A worker channel
/// gets an index frame whenever a record opens a group — its superstep
/// differs from the open group's, or its encoded context does — carrying
/// the counts as of the frame's own start and the group's context, then
/// the record's vertex frame, its edges a back-reference where the
/// channel's [`VertexRefs`] says so. The master channel gets each record's
/// frame and nothing else.
///
/// The trace sink, `trace convert` and synthetic traces all write their
/// channels through one. What it writes is a pure function of the
/// records appended, so a channel rewritten after a rewind, under a
/// memory budget, at another thread count or by conversion is
/// byte-identical to the native one.
#[derive(Default)]
pub struct ChannelWriter {
    mark: ChannelMark,
    /// The context version the open group was written or matched under,
    /// if the last record gave one.
    version: Option<u64>,
    refs: VertexRefs,
    /// A record's encoded context, while its group is decided.
    context: Vec<u8>,
}

impl ChannelWriter {
    /// The writer that wrote the channel `bytes`, as it stood after the
    /// last frame: the mark read off the frame headers and index frames,
    /// the open group's context off the last index frame, the
    /// back-reference rule rebuilt by noting, in order, every vertex
    /// frame's value after compute and any inline edges. A frame that does
    /// not read as a vertex record holds nothing to point at.
    pub fn resume(bytes: &[u8]) -> Self {
        let mut writer = ChannelWriter::default();
        writer.mark.written = bytes.len() as u64;
        let mut scanner = FrameScanner::new(bytes);
        while let Ok(Some(frame)) = scanner.next_frame() {
            match frame.kind {
                FRAME_INDEX => {
                    let (superstep, context) = match index_context(frame.payload) {
                        Ok((superstep, at)) => (Some(superstep), frame.payload[at..].into()),
                        Err(_) => (None, Arc::default()),
                    };
                    (writer.mark.last_superstep, writer.mark.context) = (superstep, context);
                }
                FRAME_VERTEX => {
                    writer.mark.records += 1;
                    let mut value = Vec::new();
                    let mut reader = PayloadReader::new(frame.payload);
                    let read = reader.front::<SkipTagged>().and_then(|(_, _, id)| {
                        // The value after compute is written against an
                        // empty name table only after a `Same`.
                        let after_at = match reader.field::<WireValue<SkipTagged>>()? {
                            WireValue::Same => Some(reader.at()),
                            WireValue::Inline(_) => None,
                        };
                        match after_at {
                            Some(at) => {
                                reader.field::<SkipTagged>()?;
                                value.extend_from_slice(&frame.payload[at..reader.at()]);
                            }
                            None => put(&mut value, &Interned(reader.field::<TaggedBytes>()?))?,
                        }
                        let at = reader.at();
                        let edges: WireEdges<SkipSeq<(SkipTagged, SkipTagged)>> = reader.field()?;
                        let inline = matches!(edges, WireEdges::Inline(_));
                        Ok((id, inline.then(|| at..reader.at())))
                    });
                    if let Ok((id, edges)) = read {
                        let edges = edges.map(|edges| (&frame.payload[edges], None));
                        let (id, start) = (&frame.payload[id], frame.start as u64);
                        let slot = writer.refs.find(id);
                        writer.refs.remember(slot, id, start, edges, &value, None);
                    }
                }
                _ => {}
            }
        }
        writer
    }

    /// Where the channel stands.
    pub fn mark(&self) -> ChannelMark {
        self.mark.clone()
    }

    /// Appends a vertex record to `buf`, whose end is the channel's end:
    /// an index frame first if the record opens a group, then the
    /// record's frame. A record under the context version the open group
    /// was written or matched under is in it by the version's promise,
    /// its context neither encoded nor compared; a debug build encodes it
    /// anyway and checks that the bytes agree. On error, `buf` and the
    /// writer are left as they were.
    pub fn append_vertex<T: TraceRecord>(
        &mut self,
        record: &T,
        buf: &mut Vec<u8>,
    ) -> Result<(), CaptureError> {
        let start = buf.len();
        let superstep = record.record_superstep();
        let version = record.context_version();
        let in_group = |mark: &ChannelMark, context: &[u8]| {
            mark.last_superstep == Some(superstep) && *mark.context == *context
        };
        let vouched = version.is_some() && version == self.version;
        let (mut opens, mut encoded) = (false, Ok(()));
        if !vouched {
            self.context.clear();
            encoded = record.encode_context(&mut self.context);
            opens = !in_group(&self.mark, &self.context);
        } else if cfg!(debug_assertions) {
            let mut context = Vec::new();
            let same =
                record.encode_context(&mut context).is_ok() && in_group(&self.mark, &context);
            assert!(same, "a context version named another context");
        }
        if opens {
            encoded = encoded.and_then(|()| {
                graft_codec::frame::write_frame_with(buf, FRAME_INDEX, |out| {
                    put(out, &superstep)?;
                    put(out, &self.mark.records)?;
                    put(out, &self.mark.written)?;
                    out.extend_from_slice(&self.context);
                    Ok(())
                })?;
                Ok(())
            });
        }
        let encoded = encoded.and_then(|()| {
            let offset = self.mark.written + (buf.len() - start) as u64;
            record.encode_channel_frame(buf, &mut self.refs, offset)
        });
        if let Err(e) = encoded {
            buf.truncate(start);
            return Err(e);
        }
        if opens {
            self.mark.context = self.context[..].into();
            self.mark.last_superstep = Some(superstep);
        }
        self.mark.written += (buf.len() - start) as u64;
        self.mark.records += 1;
        self.version = version;
        Ok(())
    }

    /// Appends a master record's frame to `buf`, whose end is the
    /// channel's end. The master channel holds at most one record per
    /// superstep, so it has no index frames. On error, `buf` and the
    /// writer are left as they were.
    pub fn append_master<T: TraceRecord>(
        &mut self,
        record: &T,
        buf: &mut Vec<u8>,
    ) -> Result<(), CaptureError> {
        let start = buf.len();
        record.encode_binary_frame(buf)?;
        self.mark.written += (buf.len() - start) as u64;
        Ok(())
    }
}

/// Why a trace channel could not be read.
#[derive(Debug)]
pub enum TraceReadError {
    /// A binary frame did not scan, or its payload did not decode.
    Frame {
        /// Byte offset of the frame's length prefix in the channel.
        offset: usize,
        /// What the codec made of it.
        error: graft_codec::Error,
    },
    /// A JSON line did not parse.
    Json(serde_json::Error),
    /// A vertex frame's edge reference names no earlier frame of its
    /// channel that records the same vertex with its edges inline.
    EdgeRef {
        /// Byte offset of the referring frame's length prefix.
        offset: usize,
        /// The channel offset the reference names.
        target: u64,
    },
    /// A vertex frame's value at compute entry is a `Same`, but no earlier
    /// frame of its channel records the same vertex.
    SameValue {
        /// Byte offset of the frame's length prefix.
        offset: usize,
    },
}

impl TraceReadError {
    /// The error of the frame at `offset`.
    fn at(offset: usize) -> impl FnOnce(graft_codec::Error) -> Self {
        move |error| TraceReadError::Frame { offset, error }
    }
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Frame { offset, error } => write!(f, "{error} at byte {offset}"),
            TraceReadError::Json(e) => write!(f, "{e}"),
            TraceReadError::EdgeRef { offset, target } => write!(
                f,
                "edge reference to byte {target} names no earlier inline record of the same \
                 vertex at byte {offset}"
            ),
            TraceReadError::SameValue { offset } => write!(
                f,
                "a `Same` value with no earlier record of the same vertex at byte {offset}"
            ),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<serde_json::Error> for TraceReadError {
    fn from(e: serde_json::Error) -> Self {
        TraceReadError::Json(e)
    }
}

/// Calls `frame` for every frame of a binary channel, in order; a frame
/// that does not scan is reported with its offset. With `torn_tail_ok`,
/// a frame overrunning the end of `bytes` (the shape a write caught
/// mid-append leaves) ends the walk instead; a complete frame whose
/// payload runs short is corrupt either way.
fn for_each_frame<'a>(
    bytes: &'a [u8],
    torn_tail_ok: bool,
    mut frame: impl FnMut(Frame<'a>) -> Result<(), TraceReadError>,
) -> Result<(), TraceReadError> {
    let mut scanner = FrameScanner::new(bytes);
    loop {
        let offset = scanner.offset();
        match scanner.next_frame() {
            Ok(None) => return Ok(()),
            Err(graft_codec::Error::UnexpectedEof) if torn_tail_ok => return Ok(()),
            Ok(Some(next)) => frame(next)?,
            Err(error) => return Err(TraceReadError::at(offset)(error)),
        }
    }
}

/// Calls `line` for every non-empty line of a legacy JSON-lines channel.
/// With `torn_tail_ok`, a last line that has no newline yet and does not
/// parse ends the walk instead of failing it.
fn for_each_line(
    bytes: &[u8],
    torn_tail_ok: bool,
    mut line: impl FnMut(&[u8]) -> Result<(), serde_json::Error>,
) -> Result<(), TraceReadError> {
    let mut start = 0usize;
    for text in bytes.split(|&b| b == b'\n') {
        if !text.is_empty() {
            match line(text) {
                Ok(()) => {}
                Err(_) if torn_tail_ok && start + text.len() == bytes.len() => break,
                Err(e) => return Err(TraceReadError::Json(e)),
            }
        }
        start += text.len() + 1;
    }
    Ok(())
}

/// A frame's payload decoded, but the JSON layer rejected what it held.
fn json_error(e: serde_json::Error) -> graft_codec::Error {
    graft_codec::Error::Message(e.to_string())
}

/// The error for a frame of a kind `channel` does not carry.
pub(crate) fn unexpected_kind(kind: u8, channel: &str) -> graft_codec::Error {
    graft_codec::Error::Message(format!("unexpected record kind {kind} in {channel}"))
}

/// [`VertexHead::flags`] bit: a message constraint was violated.
pub const FLAG_MESSAGE_VIOLATION: u8 = 1;
/// [`VertexHead::flags`] bit: the vertex-value constraint was violated.
pub const FLAG_VALUE_VIOLATION: u8 = 2;
/// [`VertexHead::flags`] bit: `compute()` raised an exception.
pub const FLAG_EXCEPTION: u8 = 4;

/// The flag bit of a violation of `kind`.
pub(crate) fn violation_flag(kind: ViolationKind) -> u8 {
    match kind {
        ViolationKind::Message => FLAG_MESSAGE_VIOLATION,
        ViolationKind::VertexValue => FLAG_VALUE_VIOLATION,
    }
}

/// What a reader indexing a trace keeps of a vertex record: where the
/// record sorts, and whether the violations view shows it.
///
/// Skimming a binary vertex payload for its head
/// ([`VertexChannel::head`]) puts it through the same GraftBin decoder,
/// field for field, as a [`WireVertexTrace`] — so it is a valid head
/// exactly when it is a valid record — but every tree and string is
/// checked and dropped (`graft_codec`'s `Skip*` types) instead of built,
/// and the vertex id is rendered as it is read ([`TaggedText`]). An edge
/// reference is read, not followed. The superstep is the group's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexHead {
    /// Superstep of the capture.
    pub superstep: u64,
    /// The vertex id, rendered: the record's sort key in its superstep.
    pub vertex: String,
    /// `FLAG_*` bits.
    pub flags: u8,
}

/// The flag bits of a record's `violations` field.
struct ViolationFlags(u8);

impl<'de> Deserialize<'de> for ViolationFlags {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut flags = 0;
        // A `ViolationRecord`, field for field.
        for_each_element(deserializer, |(kind, _, _): (_, SkipStr, Option<SkipStr>)| {
            flags |= violation_flag(kind)
        })?;
        Ok(ViolationFlags(flags))
    }
}

/// What a listing reads of the fields after a record's edges.
struct Listing<R> {
    incoming: usize,
    /// The number of outgoing messages.
    outgoing: usize,
    /// Whether they are a broadcast, whose count the record's edges must
    /// match.
    broadcast: bool,
    /// The global data a legacy payload holds.
    global: Option<GlobalData>,
    halted_after: bool,
    reasons: R,
    flags: u8,
}

/// The binary layout of a worker channel's vertex payloads, as the walk
/// reads them: v6 or, only behind the door, v5 — or v4, whose payloads
/// read alike, holding no name node — whose value at compute entry is
/// always inline, v3, whose payloads hold their own superstep and context
/// too, or v2, whose `outgoing` is a plain list as well.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    V2,
    V3,
    V5,
    V6,
}

/// Reads a vertex payload field by field, each field as the caller's
/// stand-in for it. The decoder calls are those of a [`WireVertexTrace`],
/// in order, so every reader accepts exactly the payloads that decode and
/// fails on the rest with the same error. A v5 payload's value at compute
/// entry is a plain value, read as the inline form; a v3 payload adds a
/// superstep before the id and the aggregators and global data after
/// `outgoing`; a v2 payload's `outgoing` is a plain list, read as the
/// pairs form.
struct PayloadReader<'de> {
    de: graft_codec::Deserializer<'de>,
    len: usize,
    layout: Layout,
}

impl<'de> PayloadReader<'de> {
    fn new(payload: &'de [u8]) -> Self {
        let de = graft_codec::Deserializer::new(payload);
        Self { de, len: payload.len(), layout: Layout::V6 }
    }

    /// Bytes of the payload read so far.
    fn at(&self) -> usize {
        self.len - self.de.remaining()
    }

    fn field<T: Deserialize<'de>>(&mut self) -> graft_codec::Result<T> {
        T::deserialize(&mut self.de)
    }

    /// The superstep a legacy payload holds, the vertex id read as `T`,
    /// and the id's bytes.
    fn front<T: Deserialize<'de>>(
        &mut self,
    ) -> graft_codec::Result<(Option<u64>, T, Range<usize>)> {
        let superstep = match self.layout {
            Layout::V5 | Layout::V6 => None,
            Layout::V2 | Layout::V3 => Some(self.field()?),
        };
        let start = self.at();
        let vertex = self.field()?;
        Ok((superstep, vertex, start..self.at()))
    }

    /// The value at compute entry, read as `T`; the value after compute
    /// is the field after it.
    fn value_before<T: Deserialize<'de>>(&mut self) -> graft_codec::Result<WireValue<T>> {
        match self.layout {
            Layout::V6 => self.field(),
            Layout::V2 | Layout::V3 | Layout::V5 => self.field().map(WireValue::Inline),
        }
    }

    /// The values before and after compute, skipped.
    fn skip_values(&mut self) -> graft_codec::Result<WireValue<SkipTagged>> {
        let before = self.value_before()?;
        self.field::<SkipTagged>()?;
        Ok(before)
    }

    /// The outgoing messages, the pairs read as `L` and a broadcast
    /// message as `M`.
    fn outgoing<L: Deserialize<'de>, M: Deserialize<'de>>(
        &mut self,
    ) -> graft_codec::Result<WireOutgoing<L, M>> {
        match self.layout {
            Layout::V2 => self.field().map(WireOutgoing::Pairs),
            Layout::V3 | Layout::V5 | Layout::V6 => self.field(),
        }
    }

    /// The aggregators, read as `A`, and the global data a legacy payload
    /// holds after `outgoing`.
    fn context<A: Deserialize<'de>>(&mut self) -> graft_codec::Result<Option<(A, GlobalData)>> {
        match self.layout {
            Layout::V5 | Layout::V6 => Ok(None),
            Layout::V2 | Layout::V3 => Ok(Some((self.field()?, self.field()?))),
        }
    }

    /// The fields after the edges, as a listing reads them, the reasons
    /// as `R`; the payload must end with them.
    fn listing<R: Deserialize<'de>>(mut self) -> graft_codec::Result<Listing<R>> {
        let incoming: SkipSeq<SkipTagged> = self.field()?;
        let (outgoing, broadcast) =
            match self.outgoing::<SkipSeq<(SkipTagged, SkipTagged)>, SkipTagged>()? {
                WireOutgoing::Pairs(pairs) => (pairs.len, false),
                WireOutgoing::Broadcast(Broadcast { count, .. }) => (len_of(count), true),
            };
        let global = self.context::<SkipSeq<(SkipStr, AggValue)>>()?.map(|(_, global)| global);
        let halted_after = self.field()?;
        let reasons = self.field()?;
        let ViolationFlags(violations) = self.field()?;
        // An `ExceptionInfo`, field for field.
        let exception: Option<(SkipStr, Option<SkipStr>)> = self.field()?;
        self.finish()?;
        Ok(Listing {
            incoming: incoming.len,
            outgoing,
            broadcast,
            global,
            halted_after,
            reasons,
            flags: violations | if exception.is_some() { FLAG_EXCEPTION } else { 0 },
        })
    }

    /// Checks that nothing follows the last field.
    fn finish(&self) -> graft_codec::Result<()> {
        match self.de.remaining() {
            0 => Ok(()),
            trailing => Err(graft_codec::Error::TrailingBytes(trailing)),
        }
    }
}

/// Which listing view a [`RowDigest`] is read for: what it renders
/// besides the texts and counts both show.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowView {
    /// The tabular view: the value at compute entry, read at the frame a
    /// `Same` names; no edges.
    Tabular,
    /// The node-link view: the edges, followed if a reference; the value
    /// at compute entry, which the view does not show, is left empty.
    NodeLink,
}

/// What a listing view shows of a vertex record: the rendered texts and
/// the counts of one row of the tabular or node-link view, and no more.
///
/// [`VertexChannel::digest`] skims a binary vertex payload for them the
/// way [`VertexChannel::head`] does — the same decoder calls, field for
/// field, so it succeeds exactly when the record decodes — rendering each
/// kept tree to text as it is read ([`TaggedText`]) and dropping
/// messages, aggregators and violation details unread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowDigest {
    /// The vertex id, rendered.
    pub vertex: String,
    /// The value at compute entry, rendered, for [`RowView::Tabular`];
    /// empty otherwise.
    pub value_before: String,
    /// The value after compute, rendered.
    pub value_after: String,
    /// The outgoing edges as `(target, edge value)` rendered pairs, for
    /// [`RowView::NodeLink`]; empty otherwise.
    pub edges: Vec<(String, String)>,
    /// Number of incoming messages.
    pub incoming: usize,
    /// Number of outgoing messages.
    pub outgoing: usize,
    /// The default global data.
    pub global: GlobalData,
    /// Whether the vertex voted to halt.
    pub halted_after: bool,
    /// Capture reasons, rendered.
    pub reasons: Vec<String>,
    /// `FLAG_*` bits.
    pub flags: u8,
}

/// A count read off a payload, as a length: one past what any list
/// holds if it does not fit.
fn len_of(count: u64) -> usize {
    usize::try_from(count).unwrap_or(usize::MAX)
}

/// The pairs of `outgoing`, a broadcast sent along `edges`, which must
/// number as many as its count.
fn expand<T: Clone, E, M: Clone>(
    outgoing: WireOutgoing<Vec<(T, M)>, M>,
    edges: &[(T, E)],
) -> graft_codec::Result<Vec<(T, M)>> {
    match outgoing {
        WireOutgoing::Pairs(pairs) => Ok(pairs),
        WireOutgoing::Broadcast(Broadcast { count, value }) => {
            check_broadcast(len_of(count), edges.len())?;
            Ok(edges.iter().map(|(target, _)| (target.clone(), value.clone())).collect())
        }
    }
}

/// Fails a broadcast of `count` sends over `degree` edges unless the two
/// agree.
fn check_broadcast(count: usize, degree: usize) -> graft_codec::Result<()> {
    match count == degree {
        true => Ok(()),
        false => Err(graft_codec::Error::Message(format!(
            "a broadcast of {count} messages over {degree} edges"
        ))),
    }
}

/// What [`VertexChannel::skim`] keeps of a vertex payload.
struct Skim {
    head: VertexHead,
    /// The byte range of the vertex id in the payload.
    id: Range<usize>,
    /// The length of the inline edge list, or the offset a reference
    /// names.
    edges: WireEdges<usize>,
    /// The count of a broadcast, which the edges must match.
    broadcast: Option<usize>,
    /// Whether the value at compute entry is a `Same`.
    same: bool,
}

/// A v6 worker channel as its vertex payloads are read: the bytes an edge
/// reference or a `Same` value resolves against. A legacy channel reaches it through
/// [`native_channel`].
///
/// Each payload is read with its `group`, the [`IndexRecord`] of the
/// group it lies in, whose superstep and context it takes, and with
/// `before`, the channel offset of the vertex's last earlier frame, whose
/// value after compute a `Same` value at compute entry is; a payload with
/// no group fails to read, and so does a `Same` with no `before`.
#[derive(Clone, Copy, Debug)]
pub struct VertexChannel<'a> {
    bytes: &'a [u8],
    /// The layout: v6 but where the door reads a legacy channel.
    layout: Layout,
}

impl<'a> VertexChannel<'a> {
    /// The v6 channel `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, layout: Layout::V6 }
    }

    /// A reader of a payload of this channel's layout.
    fn reader<'de>(&self, payload: &'de [u8]) -> PayloadReader<'de> {
        PayloadReader { layout: self.layout, ..PayloadReader::new(payload) }
    }

    /// The group a v6 payload is read with.
    fn group<'g>(&self, group: Option<&'g IndexRecord>) -> graft_codec::Result<&'g IndexRecord> {
        group.ok_or_else(|| graft_codec::Error::Message("a vertex record in no group".into()))
    }

    /// Skims a vertex payload for its head (see [`VertexHead`]).
    pub fn head(
        &self,
        payload: &[u8],
        group: Option<&IndexRecord>,
    ) -> graft_codec::Result<VertexHead> {
        self.skim(payload, group).map(|skim| skim.head)
    }

    /// Skims a vertex payload for what a walk checks of it.
    fn skim(&self, payload: &[u8], group: Option<&IndexRecord>) -> graft_codec::Result<Skim> {
        let mut reader = self.reader(payload);
        let (superstep, TaggedText(vertex), id) = reader.front()?;
        let before = reader.skip_values()?;
        let edges = match reader.field::<WireEdges<SkipSeq<(SkipTagged, SkipTagged)>>>()? {
            WireEdges::Inline(list) => WireEdges::Inline(list.len),
            WireEdges::At(target) => WireEdges::At(target),
        };
        let listing: Listing<SkipSeq<CaptureReason>> = reader.listing()?;
        let broadcast = listing.broadcast.then_some(listing.outgoing);
        let superstep = match superstep {
            Some(superstep) => superstep,
            None => self.group(group)?.superstep,
        };
        Ok(Skim {
            head: VertexHead { superstep, vertex, flags: listing.flags },
            id,
            edges,
            broadcast,
            same: matches!(before, WireValue::Same),
        })
    }

    /// Skims a vertex payload for a listing row of `view` (see
    /// [`RowDigest`]): the tabular view's value at compute entry read, if
    /// a `Same`, at `before`; the node-link view's edges followed, if a
    /// reference, and a broadcast's count checked against them.
    pub fn digest(
        &self,
        payload: &[u8],
        group: Option<&IndexRecord>,
        before: Option<u64>,
        view: RowView,
    ) -> graft_codec::Result<RowDigest> {
        let with_edges = view == RowView::NodeLink;
        let mut reader = self.reader(payload);
        let (_, TaggedText(vertex), id) = reader.front()?;
        let value_before = match view {
            RowView::Tabular => Some(reader.value_before::<TaggedText>()?),
            RowView::NodeLink => reader.value_before::<SkipTagged>().map(|_| None)?,
        };
        let TaggedText(value_after) = reader.field()?;
        let edges: WireEdges<Vec<(TaggedText, TaggedText)>> = if with_edges {
            reader.field()?
        } else {
            reader.field::<WireEdges<SkipSeq<(SkipTagged, SkipTagged)>>>()?;
            WireEdges::Inline(Vec::new())
        };
        let listing: Listing<Vec<CaptureReason>> = reader.listing()?;
        let global = match listing.global {
            Some(global) => global,
            None => self.group(group)?.global,
        };
        let value_before = match value_before {
            Some(value) => self.value(value, before, &payload[id.clone()])?.0,
            None => String::new(),
        };
        let edges = self.resolve(edges, &payload[id])?;
        if with_edges && listing.broadcast {
            check_broadcast(listing.outgoing, edges.len())?;
        }
        Ok(RowDigest {
            vertex,
            value_before,
            value_after,
            edges: edges.into_iter().map(|(target, value)| (target.0, value.0)).collect(),
            incoming: listing.incoming,
            outgoing: listing.outgoing,
            global,
            halted_after: listing.halted_after,
            reasons: listing.reasons.iter().map(|reason| reason.as_str().to_string()).collect(),
            flags: listing.flags,
        })
    }

    /// Decodes a vertex payload into its record, the value at compute
    /// entry read at `before` if a `Same`, the edges followed if a
    /// reference and a broadcast listed along them: every field as the
    /// payload holds it, and the superstep and context as its group does.
    pub fn record(
        &self,
        payload: &[u8],
        group: Option<&IndexRecord>,
        before: Option<u64>,
    ) -> graft_codec::Result<ErasedVertexTrace> {
        let mut reader = self.reader(payload);
        let (superstep, vertex, id) = reader.front()?;
        let value_before = reader.value_before()?;
        let value_after = reader.field()?;
        let edges: WireEdges<Vec<(TaggedBytes, TaggedBytes)>> = reader.field()?;
        let incoming = reader.field()?;
        let outgoing = reader.outgoing()?;
        let context = reader.context()?;
        let (superstep, aggregators, global) = match (superstep, context) {
            (Some(superstep), Some((aggregators, global))) => (superstep, aggregators, global),
            _ => {
                let group = self.group(group)?;
                (group.superstep, group.aggregators.clone(), group.global)
            }
        };
        let (halted_after, reasons, violations, exception) =
            (reader.field()?, reader.field()?, reader.field()?, reader.field()?);
        reader.finish()?;
        let value_before = self.value(value_before, before, &payload[id.clone()])?;
        let edges = self.resolve(edges, &payload[id])?;
        Ok(VertexTrace {
            superstep,
            vertex,
            value_before,
            value_after,
            outgoing: expand(outgoing, &edges)?,
            edges,
            incoming,
            aggregators,
            global,
            halted_after,
            reasons,
            violations,
            exception,
        })
    }

    /// The value at compute entry `value`, read at the frame `before`
    /// if a `Same` in a record of the vertex whose encoded id is `id`.
    fn value<T: DeserializeOwned>(
        &self,
        value: WireValue<T>,
        before: Option<u64>,
        id: &[u8],
    ) -> graft_codec::Result<T> {
        match (value, before) {
            (WireValue::Inline(value), _) => Ok(value),
            (WireValue::Same, Some(before)) => self.value_at(before, id),
            (WireValue::Same, None) => Err(graft_codec::Error::Message(
                "a `Same` value with no earlier record of the vertex".into(),
            )),
        }
    }

    /// The value after compute, read as `T`, of the vertex frame at
    /// `offset` if it records vertex `id`: one hop.
    fn value_at<T: DeserializeOwned>(&self, offset: u64, id: &[u8]) -> graft_codec::Result<T> {
        let after = || -> Option<T> {
            let mut reader = self.payload_of(offset, id)?;
            reader.value_before::<SkipTagged>().ok()?;
            reader.field().ok()
        };
        after().ok_or_else(|| {
            graft_codec::Error::Message(format!(
                "a `Same` value names byte {offset}, which holds no record of the same vertex"
            ))
        })
    }

    /// A reader of the payload of the vertex frame at `offset`, past its
    /// id, if the frame records vertex `id`.
    fn payload_of(&self, offset: u64, id: &[u8]) -> Option<PayloadReader<'a>> {
        let rest = self.bytes.get(usize::try_from(offset).ok()?..)?;
        let frame = FrameScanner::new(rest).next_frame().ok()??;
        let mut reader = self.reader(frame.payload);
        let (_, SkipTagged, target) = reader.front().ok()?;
        (frame.kind == FRAME_VERTEX && frame.payload[target] == *id).then_some(reader)
    }

    /// The list of `edges`, read at the frame they name if a reference
    /// in a record of the vertex whose encoded id is `id`.
    fn resolve<L: DeserializeOwned>(
        &self,
        edges: WireEdges<L>,
        id: &[u8],
    ) -> graft_codec::Result<L> {
        match edges {
            WireEdges::Inline(list) => Ok(list),
            WireEdges::At(target) => self.edges_at(target, id),
        }
    }

    /// The inline edges, read as `L`, of the vertex frame at `offset`
    /// if it records vertex `id`: one hop, never through a reference.
    fn edges_at<L: DeserializeOwned>(&self, offset: u64, id: &[u8]) -> graft_codec::Result<L> {
        let inline = || -> Option<L> {
            let mut reader = self.payload_of(offset, id)?;
            reader.skip_values().ok()?;
            match reader.field().ok()? {
                WireEdges::Inline(list) => Some(list),
                WireEdges::At(_) => None,
            }
        };
        inline().ok_or_else(|| {
            graft_codec::Error::Message(format!(
                "edge reference to byte {offset} names no inline record of the same vertex"
            ))
        })
    }
}

/// A frame of a binary worker channel, as [`walk_vertex_channel`] read
/// it.
#[derive(Clone, Debug)]
pub enum ChannelRecord {
    /// An index frame, decoded: the group its vertex frames read with.
    Index(IndexRecord),
    /// A vertex frame, skimmed, and the channel offset of the vertex's
    /// last earlier frame, whose value after compute the frame's value at
    /// compute entry is, if a `Same`.
    Vertex(VertexHead, Option<u64>),
}

/// Each vertex's last frame in a walk of a channel, by encoded id. A
/// channel holds its vertices in the same order every superstep, so the
/// vertex after the one last noted is tried before the map.
#[derive(Default)]
struct LastFrames<'a> {
    /// Per vertex, in the order of its first frame: its id and the start
    /// of its last frame.
    frames: Vec<(&'a [u8], u64)>,
    /// Each vertex's index in `frames`.
    index: FxHashMap<&'a [u8], usize>,
    /// The index after the vertex last noted.
    cursor: usize,
}

impl<'a> LastFrames<'a> {
    /// Notes that vertex `id`'s last frame starts at `start`; returns
    /// where its last frame before that one starts, if it has one.
    fn note(&mut self, id: &'a [u8], start: u64) -> Option<u64> {
        let near = [self.cursor, self.cursor.wrapping_sub(1)];
        let is_id = |at: &usize| self.frames.get(*at).is_some_and(|frame| frame.0 == id);
        let at = match near.into_iter().find(is_id) {
            Some(at) => at,
            None => match self.index.entry(id) {
                std::collections::hash_map::Entry::Occupied(entry) => *entry.get(),
                std::collections::hash_map::Entry::Vacant(entry) => {
                    self.cursor = *entry.insert(self.frames.len()) + 1;
                    self.frames.push((id, start));
                    return None;
                }
            },
        };
        self.cursor = at + 1;
        Some(std::mem::replace(&mut self.frames[at].1, start))
    }
}

/// Walks a binary worker channel, handing `record` every frame with what
/// was read of it: index frames are decoded, vertex payloads skimmed with
/// their group — a vertex frame before the first index frame is in none,
/// and fails — and every edge reference checked — it must name an earlier
/// frame of the channel that records the same vertex, byte for byte, with
/// its edges inline — and so is every broadcast, whose count must be the
/// number of those edges. A `Same` value at compute entry is resolved to
/// the vertex's last earlier frame, which must exist. With `up_to`, the
/// live watermark of a job still running, a group past it is hopped
/// without reading a payload, and a torn tail ends the walk. Anything else
/// that does not read fails with the offset of its frame.
pub fn walk_vertex_channel<'a>(
    channel: VertexChannel<'a>,
    up_to: Option<u64>,
    mut record: impl FnMut(Frame<'a>, ChannelRecord) -> Result<(), graft_codec::Error>,
) -> Result<(), TraceReadError> {
    // The open group, and whether it lies beyond the watermark.
    let mut group: Option<IndexRecord> = None;
    let mut skip_group = false;
    // The frame start, the id bytes and the degree of each vertex frame
    // whose edges are inline, in channel order: the frames a reference may
    // name.
    let mut inline: Vec<(u64, Range<usize>, usize)> = Vec::new();
    let mut last = LastFrames::default();
    for_each_frame(channel.bytes, up_to.is_some(), |frame| {
        let read = match frame.kind {
            // A legacy index frame holds no context and says only which
            // superstep its group is: the door's walk reads it for the
            // watermark and hands nothing on.
            FRAME_INDEX if matches!(channel.layout, Layout::V2 | Layout::V3) => {
                let (superstep, ..) = graft_codec::from_slice::<(u64, u64, u64)>(frame.payload)
                    .map_err(TraceReadError::at(frame.start))?;
                skip_group = up_to.is_some_and(|w| superstep > w);
                return Ok(());
            }
            FRAME_INDEX => {
                let index = graft_codec::from_slice::<IndexRecord>(frame.payload)
                    .map_err(TraceReadError::at(frame.start))?;
                skip_group = up_to.is_some_and(|w| index.superstep > w);
                group = Some(index.clone());
                ChannelRecord::Index(index)
            }
            FRAME_VERTEX if skip_group => return Ok(()),
            FRAME_VERTEX => {
                let Skim { head, id, edges, broadcast, same } = channel
                    .skim(frame.payload, group.as_ref())
                    .map_err(TraceReadError::at(frame.start))?;
                let id = frame.payload_start + id.start..frame.payload_start + id.end;
                let earlier = last.note(&channel.bytes[id.clone()], frame.start as u64);
                let before = match (same, earlier) {
                    (false, _) => None,
                    (true, Some(earlier)) => Some(earlier),
                    (true, None) => return Err(TraceReadError::SameValue { offset: frame.start }),
                };
                let degree = match edges {
                    WireEdges::Inline(degree) => {
                        inline.push((frame.start as u64, id, degree));
                        degree
                    }
                    WireEdges::At(target) => {
                        let named = inline.binary_search_by_key(&target, |(start, ..)| *start);
                        match named.map(|at| &inline[at]) {
                            Ok((_, named, degree))
                                if channel.bytes[named.clone()] == channel.bytes[id] =>
                            {
                                *degree
                            }
                            _ => {
                                return Err(TraceReadError::EdgeRef { offset: frame.start, target })
                            }
                        }
                    }
                };
                if let Some(count) = broadcast {
                    check_broadcast(count, degree).map_err(TraceReadError::at(frame.start))?;
                }
                ChannelRecord::Vertex(head, before)
            }
            other => {
                return Err(TraceReadError::at(frame.start)(unexpected_kind(
                    other,
                    "a vertex trace",
                )))
            }
        };
        record(frame, read).map_err(TraceReadError::at(frame.start))
    })
}

/// Calls `each` with every vertex record of `channel`, in order, its
/// edges and outgoing messages listed and its group's context attached;
/// index frames, references and broadcasts are checked as
/// [`walk_vertex_channel`] checks them, and `up_to` is the walk's.
fn for_each_vertex_record(
    channel: VertexChannel<'_>,
    up_to: Option<u64>,
    mut each: impl FnMut(ErasedVertexTrace) -> graft_codec::Result<()>,
) -> Result<(), TraceReadError> {
    let mut group = None;
    walk_vertex_channel(channel, up_to, |frame, read| match read {
        ChannelRecord::Vertex(_, before) => {
            each(channel.record(frame.payload, group.as_ref(), before)?)
        }
        ChannelRecord::Index(index) => {
            group = Some(index);
            Ok(())
        }
    })
}

/// Decodes every vertex record of a v6 worker channel, `Same` values and
/// edge references followed and broadcasts listed, each built from its
/// [`ErasedVertexTrace`], its type-erased positions read from their JSON
/// text: `VertexTraceOf<C>` for a typed session, or the record itself.
pub fn decode_vertex_records<I, V, E, M>(
    bytes: &[u8],
) -> Result<Vec<VertexTrace<I, V, E, M>>, TraceReadError>
where
    I: DeserializeOwned,
    V: DeserializeOwned,
    E: DeserializeOwned,
    M: DeserializeOwned,
{
    let mut out = Vec::new();
    for_each_vertex_record(VertexChannel::new(bytes), None, |record| {
        out.push(record.typed()?);
        Ok(())
    })?;
    Ok(out)
}

/// Which channel of a trace directory a file is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// A worker's `worker_<w>.trace`: vertex records.
    Worker,
    /// `master.trace`: master records.
    Master,
}

/// The door every reader takes a channel through: the `kind` channel
/// `bytes`, recorded in `format`, as the v6 bytes `trace convert --to
/// binary` writes for them. A v6 channel passes as it is, and so does a
/// v1 to v5 master channel, the layouts differing only in worker
/// channels. Any other legacy channel is decoded in full and written
/// again, record by record, through a [`ChannelWriter`]: a record that
/// does not decode fails here, a binary frame with its offset. A v5 or v4
/// worker channel is read by the v6 reader in v5 mode, its values at
/// compute entry all inline, so each is written again as a `Same` where
/// the rule says so, and every name of a v4 payload is interned; a v3 one
/// by the same reader in v3 mode, each payload's own superstep and context
/// read with it, and a v2 channel too, its `outgoing` lists read as the
/// pairs form. With `torn_tail_ok`, the reading of a job still running, a
/// last record caught mid-append — a line with no newline that does not
/// parse, a frame overrunning the end — is left out, as the v6 walk leaves
/// out a torn frame.
pub fn native_channel(
    format: TraceFormat,
    kind: ChannelKind,
    bytes: Vec<u8>,
    torn_tail_ok: bool,
) -> Result<Vec<u8>, TraceReadError> {
    let mut out = Vec::new();
    let mut writer = ChannelWriter::default();
    match (format, kind) {
        (TraceFormat::BinaryV6, _)
        | (
            TraceFormat::Binary
            | TraceFormat::BinaryV2
            | TraceFormat::BinaryV3
            | TraceFormat::BinaryV4
            | TraceFormat::BinaryV5,
            ChannelKind::Master,
        ) => return Ok(bytes),
        (
            TraceFormat::BinaryV2
            | TraceFormat::BinaryV3
            | TraceFormat::BinaryV4
            | TraceFormat::BinaryV5,
            ChannelKind::Worker,
        ) => {
            let up_to = torn_tail_ok.then_some(u64::MAX);
            let layout = match format {
                TraceFormat::BinaryV2 => Layout::V2,
                TraceFormat::BinaryV3 => Layout::V3,
                _ => Layout::V5,
            };
            let channel = VertexChannel { bytes: &bytes, layout };
            for_each_vertex_record(channel, up_to, |record| {
                let appended = writer.append_vertex(&record, &mut out);
                appended.map_err(|e| graft_codec::Error::Message(e.to_string()))
            })?
        }
        (TraceFormat::JsonLines, ChannelKind::Worker) => {
            for_each_line(&bytes, torn_tail_ok, |line| {
                let record: ErasedVertexTrace = serde_json::from_slice(line)?;
                writer.append_vertex(&record, &mut out).map_err(serde::de::Error::custom)
            })?
        }
        (TraceFormat::JsonLines, ChannelKind::Master) => {
            for_each_line(&bytes, torn_tail_ok, |line| {
                let record: MasterTrace = serde_json::from_slice(line)?;
                writer.append_master(&record, &mut out).map_err(serde::de::Error::custom)
            })?
        }
        (TraceFormat::Binary, ChannelKind::Worker) => {
            for_each_frame(&bytes, torn_tail_ok, |frame| {
                let mut upgrade = || match frame.kind {
                    FRAME_INDEX => {
                        graft_codec::from_slice::<(u64, u64, u64)>(frame.payload).map(drop)
                    }
                    FRAME_VERTEX => {
                        let record: ErasedVertexTrace = graft_codec::from_slice(frame.payload)?;
                        let appended = writer.append_vertex(&record, &mut out);
                        appended.map_err(|e| graft_codec::Error::Message(e.to_string()))
                    }
                    other => Err(unexpected_kind(other, "a vertex trace")),
                };
                upgrade().map_err(TraceReadError::at(frame.start))
            })?
        }
    }
    Ok(out)
}

/// Appends `record` to a JSON-lines channel.
fn json_line<T: Serialize>(out: &mut Vec<u8>, record: &T) -> serde_json::Result<()> {
    serde_json::to_vec_into(record, out)?;
    out.push(b'\n');
    Ok(())
}

/// Re-encodes a `kind` channel recorded in `source` in `target`: through
/// the door, so an import is byte for byte what capture writes, since
/// both write through a [`ChannelWriter`]; an export to JSON lines then
/// writes one document a record, every edge list inline and every
/// broadcast listed.
pub fn convert_channel(
    kind: ChannelKind,
    source: TraceFormat,
    target: TraceFormat,
    bytes: Vec<u8>,
) -> Result<Vec<u8>, Box<dyn std::error::Error>> {
    let native = native_channel(source, kind, bytes, false)?;
    match target {
        TraceFormat::NATIVE => Ok(native),
        TraceFormat::JsonLines => {
            let mut out = Vec::new();
            match kind {
                ChannelKind::Worker => {
                    for_each_vertex_record(VertexChannel::new(&native), None, |record| {
                        json_line(&mut out, &record).map_err(json_error)
                    })?
                }
                ChannelKind::Master => {
                    for record in decode_master_records(&native, None)? {
                        json_line(&mut out, &record)?;
                    }
                }
            }
            Ok(out)
        }
        _ => Err(format!("{target:?} is read, not written").into()),
    }
}

/// Rewrites the trace directory at `root` of `src` into the same path of
/// `dst` in `target`: the worker and master channels re-encoded, every
/// other file — `result.json`, checkpoints, obs artifacts, spill files —
/// copied as it is, and `meta.json`, naming `target`, written last. A
/// directory already in `target` is refused.
pub fn convert_trace_dir(
    src: &dyn FileSystem,
    dst: &dyn FileSystem,
    root: &str,
    target: TraceFormat,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut meta: JobMeta = serde_json::from_slice(&src.read_all(&meta_path(root))?)?;
    let source = meta.format();
    if source == target {
        return Err(format!("the trace already uses {target:?}").into());
    }
    let workers: Vec<String> = (0..meta.num_workers).map(|w| worker_trace_path("", w)).collect();
    for file in src.list_files_recursive(root)? {
        let name = file.path.strip_prefix(root.trim_end_matches('/')).unwrap_or(&file.path);
        let bytes = src.read_all(&file.path)?;
        let converted = if name == meta_path("") {
            continue;
        } else if workers.iter().any(|worker| worker == name) {
            convert_channel(ChannelKind::Worker, source, target, bytes)
        } else if name == master_trace_path("") {
            convert_channel(ChannelKind::Master, source, target, bytes)
        } else {
            Ok(bytes)
        };
        let converted = converted.map_err(|e| format!("{}: {e}", name.trim_start_matches('/')))?;
        dst.write_all(&file.path, &converted)?;
    }
    meta.trace_format = Some(target);
    dst.write_all(&meta_path(root), &serde_json::to_vec_pretty(&meta)?)?;
    Ok(())
}

/// Decodes the master records of a master channel of supersteps up to
/// `up_to`, the watermark of a job still running, under which a torn tail
/// record is skipped instead of failing; without one, every record.
pub fn decode_master_records(
    bytes: &[u8],
    up_to: Option<u64>,
) -> Result<Vec<MasterTrace>, TraceReadError> {
    let mut out = Vec::new();
    for_each_frame(bytes, up_to.is_some(), |frame| {
        let record: MasterTrace = match frame.kind {
            FRAME_MASTER => graft_codec::from_slice(frame.payload),
            other => Err(unexpected_kind(other, "the master trace")),
        }
        .map_err(TraceReadError::at(frame.start))?;
        if up_to.is_none_or(|w| record.superstep <= w) {
            out.push(record);
        }
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod writer_model;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> VertexTrace<u64, i64, (), i64> {
        VertexTrace {
            superstep: 41,
            vertex: 672,
            value_before: -1,
            value_after: 5,
            edges: vec![(671, ()), (673, ())],
            incoming: vec![1, 2, 3],
            outgoing: vec![(671, 5), (673, 5)],
            aggregators: vec![("phase".into(), AggValue::Text("MIS".into()))],
            global: GlobalData { superstep: 41, num_vertices: 100, num_edges: 300 },
            halted_after: false,
            reasons: vec![CaptureReason::SpecifiedId, CaptureReason::MessageViolation],
            violations: vec![ViolationRecord {
                kind: ViolationKind::Message,
                detail: "-7".into(),
                target: Some("673".into()),
            }],
            exception: None,
        }
    }

    /// A legacy JSON-lines channel of `records`.
    fn json_lines<T: Serialize>(records: &[T]) -> Vec<u8> {
        let mut buf = Vec::new();
        for record in records {
            serde_json::to_vec_into(record, &mut buf).unwrap();
            buf.push(b'\n');
        }
        buf
    }

    /// The v4 worker channel of `records`, as capture writes it.
    fn channel_of<T: TraceRecord>(records: &[T]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = ChannelWriter::default();
        for record in records {
            writer.append_vertex(record, &mut buf).unwrap();
        }
        buf
    }

    /// `records` exported to JSON lines.
    fn export(records: &[VertexTrace<u64, i64, (), i64>]) -> Vec<u8> {
        let (native, json) = (TraceFormat::NATIVE, TraceFormat::JsonLines);
        convert_channel(ChannelKind::Worker, native, json, channel_of(records)).unwrap()
    }

    /// The index record a writer opens for `record` at the start of a
    /// channel.
    fn group_of(record: &VertexTrace<u64, i64, (), i64>) -> IndexRecord {
        IndexRecord {
            superstep: record.superstep,
            records_before: 0,
            bytes_before: 0,
            global: record.global,
            aggregators: record.aggregators.clone(),
        }
    }

    /// A v4 channel of `records` with no back-references: each record
    /// behind an index frame of its own, its edges inline.
    fn inline_channel(records: &[VertexTrace<u64, i64, (), i64>]) -> Vec<u8> {
        let mut buf = Vec::new();
        for (at, record) in records.iter().enumerate() {
            let index = IndexRecord {
                records_before: at as u64,
                bytes_before: buf.len() as u64,
                ..group_of(record)
            };
            encode_index_frame(&index, &mut buf).unwrap();
            record.encode_binary_frame(&mut buf).unwrap();
        }
        buf
    }

    #[test]
    fn roundtrip_both_codecs() {
        let records = [sample_trace(), sample_trace()];
        for (format, buf) in [
            (TraceFormat::JsonLines, json_lines(&records)),
            (TraceFormat::NATIVE, channel_of(&records)),
        ] {
            let native = native_channel(format, ChannelKind::Worker, buf, false).unwrap();
            let decoded: Vec<VertexTrace<u64, i64, (), i64>> =
                decode_vertex_records(&native).unwrap();
            assert_eq!(decoded, records);
        }
    }

    #[test]
    fn binary_is_denser_than_json() {
        let bin = channel_of(&[sample_trace()]);
        let json = export(&[sample_trace()]);
        assert_eq!(json, json_lines(&[sample_trace()]));
        assert!(bin.len() < json.len() / 2, "bin {} vs json {}", bin.len(), json.len());
    }

    #[test]
    fn json_lines_are_actual_json() {
        let text = String::from_utf8(export(&[sample_trace()])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(parsed["vertex"], 672);
        assert_eq!(parsed["superstep"], 41);
    }

    /// The pipeline's central invariant: a binary vertex frame decodes to
    /// the *same* record that parsing the record's JSON line yields, so
    /// views over either format are byte-identical.
    #[test]
    fn binary_frame_reconstructs_the_json_parsed_value() {
        let from_json: ErasedVertexTrace =
            serde_json::from_slice(&serde_json::to_vec(&sample_trace()).unwrap()).unwrap();

        let bin = channel_of(&[sample_trace()]);
        let mut scanner = graft_codec::frame::FrameScanner::new(&bin);
        let index = scanner.next_frame().unwrap().unwrap();
        let group: IndexRecord = graft_codec::from_slice(index.payload).unwrap();
        assert_eq!(group, group_of(&sample_trace()));
        let frame = scanner.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FRAME_VERTEX);
        let reader = VertexChannel::new(&bin);
        assert!(reader.record(frame.payload, None, None).is_err(), "in no group");
        let from_bin = reader.record(frame.payload, Some(&group), None).unwrap();

        assert_eq!(from_bin, from_json);
        assert_eq!(serde_json::to_vec(&from_bin).unwrap(), serde_json::to_vec(&from_json).unwrap());
    }

    /// The kind of each vertex record's edges in a v4 channel.
    fn edge_kinds(buf: &[u8]) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        let mut scanner = FrameScanner::new(buf);
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind != FRAME_VERTEX {
                continue;
            }
            let wire: WireVertexTrace = graft_codec::from_slice(frame.payload).unwrap();
            kinds.push(match wire.edges {
                WireEdges::Inline(_) => "inline",
                WireEdges::At(_) => "at",
            });
        }
        kinds
    }

    #[test]
    fn a_repeated_adjacency_is_written_once_per_vertex() {
        let with = |superstep, vertex, edges: Vec<(u64, ())>| VertexTrace {
            superstep,
            vertex,
            edges,
            ..sample_trace()
        };
        let ring = vec![(671, ()), (673, ())];
        let records = [
            with(0, 672, ring.clone()),
            with(0, 7, ring.clone()),
            with(1, 672, ring.clone()),
            with(1, 7, ring.clone()),
            // An edit: inline again, and the new list is what later
            // records point at.
            with(2, 672, vec![(671, ())]),
            with(3, 672, vec![(671, ())]),
            // A list no longer than its reference stays inline.
            with(4, 9, vec![]),
            with(5, 9, vec![]),
        ];
        let buf = channel_of(&records);
        assert_eq!(
            edge_kinds(&buf),
            ["inline", "inline", "at", "at", "inline", "at", "inline", "inline"]
        );

        // Every record reads back whole, references followed, and equals
        // what a channel of inline lists reads back.
        let decoded: Vec<VertexTrace<u64, i64, (), i64>> = decode_vertex_records(&buf).unwrap();
        let inline = inline_channel(&records);
        let expected: Vec<VertexTrace<u64, i64, (), i64>> = decode_vertex_records(&inline).unwrap();
        let vertex_bytes = |buf: &[u8]| -> usize {
            let mut scanner = FrameScanner::new(buf);
            std::iter::from_fn(|| scanner.next_frame().unwrap())
                .filter(|frame| frame.kind == FRAME_VERTEX)
                .map(|frame| frame.end - frame.start)
                .sum()
        };
        assert!(vertex_bytes(&buf) < vertex_bytes(&inline));
        let edges = |rows: &[VertexTrace<u64, i64, (), i64>]| -> Vec<Vec<u64>> {
            rows.iter().map(|r| r.edges.iter().map(|e| e.0).collect()).collect()
        };
        assert_eq!(edges(&decoded), edges(&expected));
        assert_eq!(edges(&decoded), edges(&records));

        // The writer resumed after any prefix of frames writes the rest of
        // the channel exactly as the uninterrupted writer did.
        let mut ends = vec![0];
        let mut scanner = FrameScanner::new(&buf);
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind == FRAME_VERTEX {
                ends.push(frame.end);
            }
        }
        for (cut, end) in ends.iter().enumerate() {
            let mut rewritten = buf[..*end].to_vec();
            let mut writer = ChannelWriter::resume(&rewritten);
            assert_eq!(writer.mark().records, cut as u64);
            for record in &records[cut..] {
                writer.append_vertex(record, &mut rewritten).unwrap();
            }
            assert_eq!(rewritten, buf, "resumed after {cut} records");
            assert_eq!(writer.mark(), ChannelWriter::resume(&buf).mark());
        }
    }

    /// A legacy JSON-lines or v1 worker channel, and a JSON-lines master
    /// channel, read as the v4 channel capture writes for the same
    /// records; a record torn mid-append is dropped only when the reader is
    /// told the job is still running.
    #[test]
    fn a_legacy_json_channel_upgrades_to_what_capture_writes() {
        use ChannelKind::{Master, Worker};
        use TraceFormat::{Binary, BinaryV2, BinaryV3, BinaryV4, BinaryV5, BinaryV6, JsonLines};
        let records = [sample_trace(), VertexTrace { superstep: 42, ..sample_trace() }];
        let lines = json_lines(&records);
        let upgraded = native_channel(JsonLines, Worker, lines.clone(), false).unwrap();
        assert_eq!(upgraded, channel_of(&records));

        let mut torn = lines.clone();
        torn.extend_from_slice(b"{\"superstep\":43,\"vertex\":6");
        assert!(native_channel(JsonLines, Worker, torn.clone(), false).is_err());
        assert_eq!(native_channel(JsonLines, Worker, torn, true).unwrap(), upgraded);

        // v1: every list inline, an index frame of three counts at each
        // superstep.
        let mut v1 = Vec::new();
        for (at, record) in records.iter().enumerate() {
            let index = (record.superstep, at as u64, v1.len() as u64);
            graft_codec::frame::write_value_frame(&mut v1, FRAME_INDEX, &index).unwrap();
            let erased: ErasedVertexTrace =
                serde_json::from_slice(&serde_json::to_vec(record).unwrap()).unwrap();
            graft_codec::frame::write_value_frame(&mut v1, FRAME_VERTEX, &erased).unwrap();
        }
        assert_eq!(native_channel(Binary, Worker, v1.clone(), false).unwrap(), upgraded);
        let torn = v1[..v1.len() - 2].to_vec();
        assert!(native_channel(Binary, Worker, torn.clone(), false).is_err());
        assert_eq!(native_channel(Binary, Worker, torn, true).unwrap(), channel_of(&records[..1]));

        let master = MasterTrace {
            superstep: 3,
            global: GlobalData { superstep: 3, num_vertices: 10, num_edges: 20 },
            aggregators: vec![("x".into(), AggValue::Double(0.5))],
            halted: false,
        };
        let mut native = Vec::new();
        ChannelWriter::default().append_master(&master, &mut native).unwrap();
        let mut torn = json_lines(std::slice::from_ref(&master));
        torn.extend_from_slice(b"{\"superstep\":4,");
        assert!(native_channel(JsonLines, Master, torn.clone(), false).is_err());
        assert_eq!(native_channel(JsonLines, Master, torn, true).unwrap(), native);

        // v6 channels, and v1 to v5 master channels, pass through as they
        // are.
        let passing = [
            (BinaryV6, Worker),
            (BinaryV6, Master),
            (BinaryV5, Master),
            (BinaryV4, Master),
            (BinaryV3, Master),
            (BinaryV2, Master),
            (Binary, Master),
        ];
        for (format, kind) in passing {
            let bytes = b"any bytes".to_vec();
            assert_eq!(native_channel(format, kind, bytes.clone(), false).unwrap(), bytes);
        }
    }

    #[test]
    fn the_format_names_the_layout_in_meta_json() {
        for (format, name) in [
            (TraceFormat::JsonLines, "\"JsonLines\""),
            (TraceFormat::Binary, "\"Binary\""),
            (TraceFormat::BinaryV2, "\"BinaryV2\""),
            (TraceFormat::BinaryV3, "\"BinaryV3\""),
            (TraceFormat::BinaryV4, "\"BinaryV4\""),
            (TraceFormat::BinaryV5, "\"BinaryV5\""),
            (TraceFormat::BinaryV6, "\"BinaryV6\""),
        ] {
            assert_eq!(serde_json::to_string(&format).unwrap(), name);
            assert_eq!(serde_json::from_str::<TraceFormat>(name).unwrap(), format);
        }
    }

    #[test]
    fn index_frames_roundtrip_and_are_skipped_by_decode() {
        let mut buf = Vec::new();
        let index = group_of(&sample_trace());
        encode_index_frame(&index, &mut buf).unwrap();
        sample_trace().encode_binary_frame(&mut buf).unwrap();
        assert_eq!(buf, channel_of(&[sample_trace()]));

        let mut scanner = graft_codec::frame::FrameScanner::new(&buf);
        let frame = scanner.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FRAME_INDEX);
        assert_eq!(graft_codec::from_slice::<IndexRecord>(frame.payload).unwrap(), index);

        let decoded: Vec<VertexTrace<u64, i64, (), i64>> = decode_vertex_records(&buf).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].superstep, 41);
    }

    #[test]
    fn master_trace_roundtrip() {
        let record = MasterTrace {
            superstep: 3,
            global: GlobalData { superstep: 3, num_vertices: 10, num_edges: 20 },
            aggregators: vec![("phase".into(), AggValue::Text("DRAIN".into()))],
            halted: true,
        };
        let mut bin = Vec::new();
        ChannelWriter::default().append_master(&record, &mut bin).unwrap();
        let json = json_lines(std::slice::from_ref(&record));
        let (native, lines) = (TraceFormat::NATIVE, TraceFormat::JsonLines);
        assert_eq!(decode_master_records(&bin, None).unwrap(), vec![record.clone()]);
        let exported = convert_channel(ChannelKind::Master, native, lines, bin.clone()).unwrap();
        assert_eq!(exported, json);
        let imported = convert_channel(ChannelKind::Master, lines, native, json).unwrap();
        assert_eq!(imported, bin);
    }

    #[test]
    fn meta_without_trace_format_is_legacy_json() {
        // Traces written before the binary pipeline carried a `codec`
        // key (and before the analyzer, no `facts`); they must keep
        // loading — with JSON lines as the effective format — or old
        // trace directories would become unreadable by every command.
        let json = r#"{
            "computation": "PageRank",
            "computation_type": "graft_algorithms::pagerank::PageRank",
            "master": null,
            "value_types": ["u64", "f64", "()", "f64"],
            "num_workers": 2,
            "codec": "JsonLines",
            "config": []
        }"#;
        let meta: JobMeta = serde_json::from_str(json).unwrap();
        assert_eq!(meta.computation, "PageRank");
        assert!(meta.facts.is_none());
        assert!(meta.trace_format.is_none());
        assert_eq!(meta.format(), TraceFormat::JsonLines);
    }

    #[test]
    fn paths_are_stable() {
        assert_eq!(meta_path("/t/job"), "/t/job/meta.json");
        assert_eq!(worker_trace_path("/t/job", 3), "/t/job/worker_3.trace");
        assert_eq!(master_trace_path("/t/job"), "/t/job/master.trace");
        assert_eq!(result_path("/t/job"), "/t/job/result.json");
    }

    #[test]
    fn decode_rejects_garbage() {
        let json = b"{not json}\n".to_vec();
        assert!(native_channel(TraceFormat::JsonLines, ChannelKind::Master, json, false).is_err());
        assert!(decode_master_records(&[0xff, 0xff, 0xff], None).is_err());
        assert!(decode_vertex_records::<u64, i64, (), i64>(&[0xff, 0xff, 0xff]).is_err());
        // A master frame inside a worker file is a kind error, not a panic.
        let mut buf = Vec::new();
        graft_codec::frame::write_frame(&mut buf, FRAME_MASTER, b"");
        let err = decode_vertex_records::<u64, i64, (), i64>(&buf).unwrap_err();
        assert!(err.to_string().contains("record kind"), "{err}");
    }

    /// Channels whose context changes where capture never changes it:
    /// within a superstep, or back to a superstep's after another one.
    /// Each case is a JSON-lines channel that must import to the v4
    /// channel capture writes, with an index frame wherever the context
    /// changes, export back to its own bytes, and read back — every
    /// record, and every row of a session over it — as its JSON lines;
    /// and a writer resumed at any record must write the rest of the
    /// channel as the uninterrupted one did.
    mod context_changes {
        use std::sync::Arc;

        use graft_dfs::{FileSystem, InMemoryFs};

        use super::*;
        use crate::untyped::UntypedSession;

        type Trace = VertexTrace<u64, i64, (), i64>;

        fn text(value: &str) -> Vec<(String, AggValue)> {
            vec![("phase".into(), AggValue::Text(value.into()))]
        }

        fn record(superstep: u64, vertex: u64, aggregators: Vec<(String, AggValue)>) -> Trace {
            let global = GlobalData { superstep, num_vertices: 100, num_edges: 300 };
            VertexTrace { superstep, vertex, aggregators, global, ..sample_trace() }
        }

        fn index_frames(channel: &[u8]) -> usize {
            let mut scanner = FrameScanner::new(channel);
            std::iter::from_fn(|| scanner.next_frame().unwrap())
                .filter(|frame| frame.kind == FRAME_INDEX)
                .count()
        }

        /// Checks `records`, whose channel has `groups` groups.
        fn check(records: &[Trace], groups: usize) {
            use ChannelKind::Worker;
            use TraceFormat::JsonLines;
            const NATIVE: TraceFormat = TraceFormat::NATIVE;
            let lines = json_lines(records);
            let native = native_channel(JsonLines, Worker, lines.clone(), false).unwrap();
            assert_eq!(native, channel_of(records), "the import is what capture writes");
            assert_eq!(index_frames(&native), groups, "an index frame at each context change");
            let exported = convert_channel(Worker, NATIVE, JsonLines, native.clone()).unwrap();
            assert_eq!(exported, lines, "the export");
            assert_eq!(convert_channel(Worker, JsonLines, NATIVE, exported).unwrap(), native);

            let decoded: Vec<Trace> = decode_vertex_records(&native).unwrap();
            assert_eq!(decoded, records, "the records");
            let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
            let meta = JobMeta {
                computation: "Cases".into(),
                computation_type: "cases::Cases".into(),
                master: None,
                value_types: ("u64".into(), "i64".into(), "()".into(), "i64".into()),
                num_workers: 1,
                trace_format: Some(NATIVE),
                config: vec![],
                facts: None,
            };
            fs.write_all(&meta_path("/t"), &serde_json::to_vec(&meta).unwrap()).unwrap();
            fs.write_all(&worker_trace_path("/t", 0), &native).unwrap();
            let session = UntypedSession::open(fs, "/t").unwrap();
            for line in lines.split(|b| *b == b'\n').filter(|line| !line.is_empty()) {
                let expected: ErasedVertexTrace = serde_json::from_slice(line).unwrap();
                let vertex = expected.vertex.json();
                let row = session.vertex_at(expected.superstep, &vertex).unwrap();
                assert_eq!(row.record(), &expected, "the session's row");
                for view in [RowView::Tabular, RowView::NodeLink] {
                    let digest = session.digests(expected.superstep, 0, usize::MAX, view);
                    let listed = digest.filter(|digest| digest.vertex == vertex);
                    assert_eq!(listed.collect::<Vec<_>>(), [row.digest(view)], "a digest");
                }
            }

            let mut ends = vec![0];
            let mut scanner = FrameScanner::new(&native);
            while let Some(frame) = scanner.next_frame().unwrap() {
                if frame.kind == FRAME_VERTEX {
                    ends.push(frame.end);
                }
            }
            for (cut, end) in ends.into_iter().enumerate() {
                let mut buf = native[..end].to_vec();
                let mut writer = ChannelWriter::resume(&buf);
                for record in &records[cut..] {
                    writer.append_vertex(record, &mut buf).unwrap();
                }
                assert_eq!(buf, native, "resumed at record {cut}");
                assert_eq!(writer.mark(), ChannelWriter::resume(&native).mark());
            }
        }

        #[test]
        fn aggregators_that_change_within_a_superstep_open_a_group() {
            check(&[record(3, 1, text("a")), record(3, 2, text("b")), record(3, 4, text("b"))], 2);
        }

        #[test]
        fn global_data_that_changes_within_a_superstep_opens_a_group() {
            let grown = |mut record: Trace| {
                record.global.num_vertices += 1;
                record
            };
            let records = [record(3, 1, text("a")), grown(record(3, 2, text("a")))];
            check(&records, 2);
        }

        #[test]
        fn an_empty_aggregator_list_next_to_a_full_one_opens_a_group() {
            check(&[record(3, 1, vec![]), record(3, 2, text("a")), record(3, 4, vec![])], 3);
        }

        #[test]
        fn a_superstep_that_recurs_after_another_opens_a_group_again() {
            check(&[record(3, 1, text("a")), record(4, 1, text("a")), record(3, 2, text("a"))], 3);
        }
    }
}
