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
//! Worker and master trace files hold a stream of records encoded per the
//! configured [`TraceCodec`]:
//!
//! * **Binary** (the default): kind-tagged GraftBin frames,
//!   `[len varint][kind u8][payload]` (see `graft_codec::frame`). Worker
//!   channels carry [`FRAME_VERTEX`] records preceded, at every superstep
//!   transition, by a [`FRAME_INDEX`] record that lets readers hop whole
//!   superstep groups without touching payloads. The master channel
//!   carries [`FRAME_MASTER`] records.
//! * **JsonLines** (fallback): one JSON document per line,
//!   human-inspectable with any editor.
//!
//! Capture writes a vertex frame in one pass, straight from borrowed
//! engine state: the instrumenter fills a [`VertexCapture`] with
//! references to the vertex's value, edges and messages, and its
//! `Serialize` impl puts the computation-typed positions (id, values,
//! edges, messages) through [`graft_codec::Tagged`] — the type-erased
//! tagged encoding whose rules are stated in `graft_codec`'s `tagged`
//! module — and everything else through plain GraftBin. No intermediate
//! value tree is built and no size pass is made; the frame's length
//! prefix is filled in after the payload is written.
//!
//! Readers decode the same payload as a [`WireVertexTrace`], whose typed
//! positions are [`graft_codec::BinValue`] trees, so any tool can browse
//! a binary trace without the computation's Rust types. The tagged
//! encoding is defined so that those trees are the exact
//! `serde_json::Value`s a JSON text round-trip of the record yields:
//! the two codecs reconstruct *identical* dynamic values and every view
//! served over either format is byte-for-byte the same.
//!
//! A payload is read in one of three ways, all through the one GraftBin
//! decoder, so each succeeds on exactly the same payloads. [`VertexHead`]
//! *skims* it: every field is checked, and only the superstep, the
//! rendered vertex id and three flag bits are kept — what a reader
//! indexing a trace needs, and proof that the payload decodes.
//! [`RowDigest`] skims it for a listing view: the texts and counts a row
//! of the tabular or node-link view shows, rendered as the fields are
//! read, no tree built. [`vertex_value_from_payload`] decodes it, once,
//! into the dynamic value a view of the whole record reads (reproducers,
//! the violations view, `trace dump`). A channel that cannot be read
//! fails with a [`TraceReadError`] naming the byte offset of the frame
//! at fault.

use std::fmt;

use graft_codec::frame::{Frame, FrameScanner};
use graft_codec::{for_each_element, BinValue, SkipSeq, SkipStr, SkipTagged, Tagged, TaggedText};
use graft_pregel::{AggValue, GlobalData};
use serde::de::{DeserializeOwned, Deserializer as _, SeqAccess, Visitor};
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::config::{CaptureReason, ConfigFacts, TraceCodec};

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
#[derive(Clone, Debug, Serialize, Deserialize)]
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

/// The shape binary vertex frames decode to: a vertex trace whose
/// computation-specific fields (id, values, edges, messages) are
/// type-erased [`graft_codec::BinValue`] trees, so any tool can decode
/// a binary trace without the computation's Rust types.
pub type WireVertexTrace = VertexTrace<
    graft_codec::BinValue,
    graft_codec::BinValue,
    graft_codec::BinValue,
    graft_codec::BinValue,
>;

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

/// A superstep index record. The binary sink emits one into a worker
/// channel immediately before the first vertex record of each superstep,
/// so a reader scanning frame headers knows — without decoding a single
/// vertex payload — which superstep the following group belongs to and
/// how much of the channel precedes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexRecord {
    /// The superstep of the vertex records that follow.
    pub superstep: u64,
    /// Vertex records written to this channel before this frame.
    pub records_before: u64,
    /// Channel bytes written before this frame (its own offset).
    pub bytes_before: u64,
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
    /// Trace encoding of the worker/master files. `None` in meta.json
    /// files written before the binary pipeline existed, which always
    /// meant JSON lines — use [`JobMeta::codec`] for the effective value.
    pub trace_format: Option<TraceCodec>,
    /// Human description of the active `DebugConfig`.
    pub config: Vec<String>,
    /// Machine-readable config summary for the analyzer's lints. `None`
    /// in traces written before the analyzer existed.
    pub facts: Option<ConfigFacts>,
}

impl JobMeta {
    /// The effective trace codec: the recorded `trace_format`, or JSON
    /// lines for legacy trace directories that predate the field.
    pub fn codec(&self) -> TraceCodec {
        self.trace_format.unwrap_or(TraceCodec::JsonLines)
    }
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
    /// A record could not be rendered as a JSON line.
    Json(serde_json::Error),
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
            CaptureError::Json(e) => write!(f, "{e}"),
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

impl From<serde_json::Error> for CaptureError {
    fn from(e: serde_json::Error) -> Self {
        CaptureError::Json(e)
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

/// A record the trace sink can write to a channel: serializable (for the
/// JSON codec) plus a superstep and a kind-tagged binary frame (for the
/// binary codec and its index frames).
pub trait TraceRecord: Serialize {
    /// The record's superstep, which the binary sink groups frames by.
    fn record_superstep(&self) -> u64;

    /// Appends the record's binary frame (`[len][kind][payload]`) to
    /// `buf`, which is left untouched on error.
    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError>;
}

/// Appends the frame of `kind` whose payload is `value` in GraftBin.
fn binary_frame<T: Serialize + ?Sized>(
    buf: &mut Vec<u8>,
    kind: u8,
    value: &T,
) -> Result<(), CaptureError> {
    graft_codec::frame::write_frame_with(buf, kind, |out| {
        value.serialize(&mut graft_codec::Serializer::new(out))
    })?;
    Ok(())
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

/// A vertex context as the instrumenter hands it to the sink: the fields
/// of a [`VertexTrace`], borrowed from the engine state they live in
/// rather than cloned into a record. It serializes under the same field
/// names as [`VertexTrace`] — with the computation-typed positions
/// wrapped in [`Tagged`], so a JSON line is that of the equivalent
/// `VertexTrace` and a binary payload decodes as a [`WireVertexTrace`].
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
    /// Incoming messages.
    pub incoming: &'a [M],
    /// Messages the vertex sent, in send order.
    pub outgoing: &'a [(I, M)],
    /// `(name, value)` of each aggregator visible this superstep.
    pub aggregators: Ag,
    /// Default global data.
    pub global: GlobalData,
    /// Whether the vertex voted to halt.
    pub halted_after: bool,
    /// Why this context was captured.
    pub reasons: &'a [CaptureReason],
    /// Constraint violations committed by this vertex this superstep.
    pub violations: &'a [ViolationRecord],
    /// The exception, if `compute()` panicked.
    pub exception: Option<&'a ExceptionInfo>,
}

impl<'a, I, V, E, M, Ed, Ag> Serialize for VertexCapture<'a, I, V, M, Ed, Ag>
where
    I: Serialize + 'a,
    V: Serialize,
    E: Serialize + 'a,
    M: Serialize,
    Ed: ExactSizeIterator<Item = (&'a I, &'a E)> + Clone,
    Ag: ExactSizeIterator<Item = (&'a str, &'a AggValue)> + Clone,
{
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Field for field the derived impl of `VertexTrace`.
        let tagged_pair = |(a, b)| (Tagged(a), Tagged(b));
        let mut record = serializer.serialize_struct("VertexTrace", 13)?;
        record.serialize_field("superstep", &self.superstep)?;
        record.serialize_field("vertex", &Tagged(self.vertex))?;
        record.serialize_field("value_before", &Tagged(self.value_before))?;
        record.serialize_field("value_after", &Tagged(self.value_after))?;
        record.serialize_field("edges", &Seq(self.edges.clone().map(tagged_pair)))?;
        record.serialize_field("incoming", &Seq(self.incoming.iter().map(Tagged)))?;
        record.serialize_field(
            "outgoing",
            &Seq(self.outgoing.iter().map(|(target, message)| (Tagged(target), Tagged(message)))),
        )?;
        record.serialize_field("aggregators", &Seq(self.aggregators.clone()))?;
        record.serialize_field("global", &self.global)?;
        record.serialize_field("halted_after", &self.halted_after)?;
        record.serialize_field("reasons", self.reasons)?;
        record.serialize_field("violations", self.violations)?;
        record.serialize_field("exception", &self.exception)?;
        record.end()
    }
}

impl<I, V, M, Ed, Ag> TraceRecord for VertexCapture<'_, I, V, M, Ed, Ag>
where
    Self: Serialize,
{
    fn record_superstep(&self) -> u64 {
        self.superstep
    }

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        binary_frame(buf, FRAME_VERTEX, self)
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

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        VertexCapture {
            superstep: self.superstep,
            vertex: &self.vertex,
            value_before: &self.value_before,
            value_after: &self.value_after,
            edges: self.edges.iter().map(|(target, value)| (target, value)),
            incoming: &self.incoming,
            outgoing: &self.outgoing,
            aggregators: self.aggregators.iter().map(|(name, value)| (name.as_str(), value)),
            global: self.global,
            halted_after: self.halted_after,
            reasons: &self.reasons,
            violations: &self.violations,
            exception: self.exception.as_ref(),
        }
        .encode_binary_frame(buf)
    }
}

impl TraceRecord for MasterTrace {
    fn record_superstep(&self) -> u64 {
        self.superstep
    }

    fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
        binary_frame(buf, FRAME_MASTER, self)
    }
}

/// Encodes one record onto the end of `buf` in the given codec: a JSON
/// line, or a kind-tagged binary frame. (Binary superstep *index* frames
/// are the sink's job — see [`encode_index_frame`].)
pub fn encode_record<T: TraceRecord>(
    codec: TraceCodec,
    record: &T,
    buf: &mut Vec<u8>,
) -> Result<(), CaptureError> {
    match codec {
        TraceCodec::JsonLines => {
            serde_json::to_vec_into(record, buf)?;
            buf.push(b'\n');
            Ok(())
        }
        TraceCodec::Binary => record.encode_binary_frame(buf),
    }
}

/// Appends a superstep index frame to `buf`.
pub fn encode_index_frame(record: &IndexRecord, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
    binary_frame(buf, FRAME_INDEX, record)
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
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Frame { offset, error } => write!(f, "{error} at byte {offset}"),
            TraceReadError::Json(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<serde_json::Error> for TraceReadError {
    fn from(e: serde_json::Error) -> Self {
        TraceReadError::Json(e)
    }
}

/// Calls `frame` for every frame of a binary channel, in order; whatever
/// fails — the scan or `frame` — is reported with the frame's offset.
/// With `torn_tail_ok`, a frame overrunning the end of `bytes` (the shape
/// a write caught mid-append leaves) ends the walk instead; a complete
/// frame whose payload runs short is corrupt either way.
pub(crate) fn for_each_frame<'a>(
    bytes: &'a [u8],
    torn_tail_ok: bool,
    mut frame: impl FnMut(Frame<'a>) -> Result<(), graft_codec::Error>,
) -> Result<(), TraceReadError> {
    let mut scanner = FrameScanner::new(bytes);
    loop {
        let offset = scanner.offset();
        let read = match scanner.next_frame() {
            Ok(None) => return Ok(()),
            Err(graft_codec::Error::UnexpectedEof) if torn_tail_ok => return Ok(()),
            Ok(Some(next)) => frame(next),
            Err(error) => Err(error),
        };
        read.map_err(|error| TraceReadError::Frame { offset, error })?;
    }
}

/// Calls `line` for every non-empty line of a JSON-lines channel, with
/// the line's byte offset. With `torn_tail_ok`, a last line that has no
/// newline yet and does not parse ends the walk instead of failing it.
pub(crate) fn for_each_line<'a>(
    bytes: &'a [u8],
    torn_tail_ok: bool,
    mut line: impl FnMut(&'a [u8], usize) -> Result<(), serde_json::Error>,
) -> Result<(), TraceReadError> {
    let mut start = 0usize;
    for text in bytes.split(|&b| b == b'\n') {
        if !text.is_empty() {
            match line(text, start) {
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

/// Renders a dynamic value as the views show it: a string as itself,
/// anything else as compact JSON.
pub(crate) fn compact(value: &Value) -> String {
    match value {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// [`VertexHead::flags`] bit: a message constraint was violated.
pub const FLAG_MESSAGE_VIOLATION: u8 = 1;
/// [`VertexHead::flags`] bit: the vertex-value constraint was violated.
pub const FLAG_VALUE_VIOLATION: u8 = 2;
/// [`VertexHead::flags`] bit: `compute()` raised an exception.
pub const FLAG_EXCEPTION: u8 = 4;
/// [`VertexHead::flags`] bit: a violation of a kind this reader does not
/// know. Only a JSON line can carry one; binary frames encode the kind
/// as a [`ViolationKind`].
pub const FLAG_OTHER_VIOLATION: u8 = 8;

/// What a reader indexing a trace keeps of a vertex record: where the
/// record sorts, and whether the violations view shows it.
///
/// Decoding a binary vertex payload as a `VertexHead` *skims* it: the
/// payload goes through the same GraftBin decoder, field for field, as a
/// [`WireVertexTrace`] — so it is a valid head exactly when it is a valid
/// record — but every tree and string is checked and dropped
/// (`graft_codec`'s `Skip*` types) instead of built, and the vertex id is
/// rendered as it is read ([`TaggedText`]).
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
            flags |= match kind {
                ViolationKind::Message => FLAG_MESSAGE_VIOLATION,
                ViolationKind::VertexValue => FLAG_VALUE_VIOLATION,
            }
        })?;
        Ok(ViolationFlags(flags))
    }
}

/// The next field of a vertex record read as a tuple.
fn field<'de, T: Deserialize<'de>, A: SeqAccess<'de>>(seq: &mut A) -> Result<T, A::Error> {
    seq.next_element()?.ok_or_else(|| serde::de::Error::custom("short vertex record"))
}

impl<'de> Deserialize<'de> for VertexHead {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct HeadVisitor;
        impl<'de> Visitor<'de> for HeadVisitor {
            type Value = VertexHead;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a vertex record")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<VertexHead, A::Error> {
                // A `WireVertexTrace`, field for field.
                let superstep = field(&mut seq)?;
                let TaggedText(vertex) = field(&mut seq)?;
                let _value_before: SkipTagged = field(&mut seq)?;
                let _value_after: SkipTagged = field(&mut seq)?;
                let _edges: SkipSeq<(SkipTagged, SkipTagged)> = field(&mut seq)?;
                let _incoming: SkipSeq<SkipTagged> = field(&mut seq)?;
                let _outgoing: SkipSeq<(SkipTagged, SkipTagged)> = field(&mut seq)?;
                let _aggregators: SkipSeq<(SkipStr, AggValue)> = field(&mut seq)?;
                let _global: GlobalData = field(&mut seq)?;
                let _halted_after: bool = field(&mut seq)?;
                let _reasons: SkipSeq<CaptureReason> = field(&mut seq)?;
                let ViolationFlags(violations) = field(&mut seq)?;
                // An `ExceptionInfo`, field for field.
                let exception: Option<(SkipStr, Option<SkipStr>)> = field(&mut seq)?;
                let flags = violations | if exception.is_some() { FLAG_EXCEPTION } else { 0 };
                Ok(VertexHead { superstep, vertex, flags })
            }
        }
        deserializer.deserialize_tuple(13, HeadVisitor)
    }
}

/// What a listing view shows of a vertex record: the rendered texts and
/// the counts of one row of the tabular or node-link view, and no more.
///
/// [`RowDigest::from_payload`] skims a binary vertex payload for them the
/// way [`VertexHead`] does — the same decoder calls, field for field, as
/// a [`WireVertexTrace`], so it succeeds exactly when the record decodes
/// — rendering each kept tree to text as it is read
/// ([`graft_codec::TaggedText`]) and dropping messages, aggregators and
/// violation details unread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowDigest {
    /// The vertex id, rendered.
    pub vertex: String,
    /// The value at compute entry, rendered.
    pub value_before: String,
    /// The value after compute, rendered.
    pub value_after: String,
    /// The outgoing edges as `(target, edge value)` rendered pairs, if
    /// the reader asked for them; empty otherwise.
    pub edges: Vec<(String, String)>,
    /// Number of incoming messages.
    pub incoming: usize,
    /// Number of outgoing messages.
    pub outgoing: usize,
    /// The default global data `(superstep, num_vertices, num_edges)`.
    pub global: Option<(u64, u64, u64)>,
    /// Whether the vertex voted to halt.
    pub halted_after: bool,
    /// Capture reasons, rendered.
    pub reasons: Vec<String>,
    /// `FLAG_*` bits.
    pub flags: u8,
}

impl RowDigest {
    /// Skims a binary vertex frame's payload, rendering the edges only
    /// `with_edges`.
    pub fn from_payload(payload: &[u8], with_edges: bool) -> Result<Self, graft_codec::Error> {
        struct DigestVisitor {
            with_edges: bool,
        }
        impl<'de> Visitor<'de> for DigestVisitor {
            type Value = RowDigest;
            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a vertex record")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<RowDigest, A::Error> {
                // A `WireVertexTrace`, field for field.
                let _superstep: u64 = field(&mut seq)?;
                let TaggedText(vertex) = field(&mut seq)?;
                let TaggedText(value_before) = field(&mut seq)?;
                let TaggedText(value_after) = field(&mut seq)?;
                let edges = if self.with_edges {
                    let edges: Vec<(TaggedText, TaggedText)> = field(&mut seq)?;
                    edges.into_iter().map(|(target, value)| (target.0, value.0)).collect()
                } else {
                    let _: SkipSeq<(SkipTagged, SkipTagged)> = field(&mut seq)?;
                    Vec::new()
                };
                let incoming: SkipSeq<SkipTagged> = field(&mut seq)?;
                let outgoing: SkipSeq<(SkipTagged, SkipTagged)> = field(&mut seq)?;
                let _aggregators: SkipSeq<(SkipStr, AggValue)> = field(&mut seq)?;
                let global: GlobalData = field(&mut seq)?;
                let halted_after = field(&mut seq)?;
                let reasons: Vec<CaptureReason> = field(&mut seq)?;
                let ViolationFlags(violations) = field(&mut seq)?;
                let exception: Option<(SkipStr, Option<SkipStr>)> = field(&mut seq)?;
                Ok(RowDigest {
                    vertex,
                    value_before,
                    value_after,
                    edges,
                    incoming: incoming.len,
                    outgoing: outgoing.len,
                    global: Some((global.superstep, global.num_vertices, global.num_edges)),
                    halted_after,
                    reasons: reasons
                        .iter()
                        .map(|r| serde_json::to_value(r).map(|name| compact(&name)))
                        .collect::<Result<_, _>>()
                        .map_err(serde::de::Error::custom)?,
                    flags: violations | if exception.is_some() { FLAG_EXCEPTION } else { 0 },
                })
            }
        }
        let mut decoder = graft_codec::Deserializer::new(payload);
        let digest = decoder.deserialize_tuple(13, DigestVisitor { with_edges })?;
        match decoder.remaining() {
            0 => Ok(digest),
            trailing => Err(graft_codec::Error::TrailingBytes(trailing)),
        }
    }
}

/// Decodes a binary vertex frame's payload into the normalized dynamic
/// value — the exact `Value` that parsing the record's JSON-lines
/// rendition would produce. One tree is built: the decoded subtrees move
/// into the record's object, which is then normalized in place.
pub fn vertex_value_from_payload(payload: &[u8]) -> Result<Value, graft_codec::Error> {
    fn json<T: Serialize>(part: &T) -> Result<Value, graft_codec::Error> {
        serde_json::to_value(part).map_err(json_error)
    }
    let pair = |(a, b): (BinValue, BinValue)| Value::Array(vec![a.0, b.0]);
    let wire: WireVertexTrace = graft_codec::from_slice(payload)?;
    let mut value = Value::Object(serde_json::Map::from([
        ("superstep".to_string(), Value::Number(serde_json::Number::U64(wire.superstep))),
        ("vertex".to_string(), wire.vertex.0),
        ("value_before".to_string(), wire.value_before.0),
        ("value_after".to_string(), wire.value_after.0),
        ("edges".to_string(), Value::Array(wire.edges.into_iter().map(pair).collect())),
        ("incoming".to_string(), Value::Array(wire.incoming.into_iter().map(|m| m.0).collect())),
        ("outgoing".to_string(), Value::Array(wire.outgoing.into_iter().map(pair).collect())),
        ("aggregators".to_string(), json(&wire.aggregators)?),
        ("global".to_string(), json(&wire.global)?),
        ("halted_after".to_string(), Value::Bool(wire.halted_after)),
        ("reasons".to_string(), json(&wire.reasons)?),
        ("violations".to_string(), json(&wire.violations)?),
        ("exception".to_string(), json(&wire.exception)?),
    ]));
    graft_codec::normalize(&mut value);
    Ok(value)
}

/// Decodes a binary index frame's payload.
pub fn index_record_from_payload(payload: &[u8]) -> Result<IndexRecord, graft_codec::Error> {
    graft_codec::from_slice(payload)
}

/// Decodes all vertex records from a worker trace file's bytes. For the
/// binary codec the typed records are reconstructed through their
/// normalized dynamic values, so `T` can be a `VertexTraceOf<C>` or
/// `serde_json::Value` alike; index frames are validated and skipped.
pub fn decode_vertex_records<T: DeserializeOwned>(
    codec: TraceCodec,
    bytes: &[u8],
) -> Result<Vec<T>, TraceReadError> {
    let mut out = Vec::new();
    match codec {
        TraceCodec::JsonLines => for_each_line(bytes, false, |line, _| {
            out.push(serde_json::from_slice(line)?);
            Ok(())
        })?,
        TraceCodec::Binary => for_each_frame(bytes, false, |frame| match frame.kind {
            FRAME_INDEX => index_record_from_payload(frame.payload).map(drop),
            FRAME_VERTEX => {
                let value = vertex_value_from_payload(frame.payload)?;
                out.push(serde_json::from_value(&value).map_err(json_error)?);
                Ok(())
            }
            other => Err(unexpected_kind(other, "a vertex trace")),
        })?,
    }
    Ok(out)
}

/// Decodes all master records from the master trace file's bytes.
pub fn decode_master_records(
    codec: TraceCodec,
    bytes: &[u8],
) -> Result<Vec<MasterTrace>, TraceReadError> {
    master_records_up_to(codec, bytes, None)
}

/// The master records of supersteps up to `up_to`, the watermark of a
/// job still running, under which a torn tail record is skipped instead
/// of failing; without one, every record.
pub(crate) fn master_records_up_to(
    codec: TraceCodec,
    bytes: &[u8],
    up_to: Option<u64>,
) -> Result<Vec<MasterTrace>, TraceReadError> {
    let mut out = Vec::new();
    let mut within = |trace: MasterTrace| {
        if up_to.is_none_or(|w| trace.superstep <= w) {
            out.push(trace);
        }
    };
    match codec {
        TraceCodec::JsonLines => for_each_line(bytes, up_to.is_some(), |line, _| {
            within(serde_json::from_slice(line)?);
            Ok(())
        })?,
        TraceCodec::Binary => for_each_frame(bytes, up_to.is_some(), |frame| {
            if frame.kind != FRAME_MASTER {
                return Err(unexpected_kind(frame.kind, "the master trace"));
            }
            within(graft_codec::from_slice(frame.payload)?);
            Ok(())
        })?,
    }
    Ok(out)
}

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

    #[test]
    fn roundtrip_both_codecs() {
        for codec in [TraceCodec::JsonLines, TraceCodec::Binary] {
            let mut buf = Vec::new();
            encode_record(codec, &sample_trace(), &mut buf).unwrap();
            encode_record(codec, &sample_trace(), &mut buf).unwrap();
            let decoded: Vec<VertexTrace<u64, i64, (), i64>> =
                decode_vertex_records(codec, &buf).unwrap();
            assert_eq!(decoded.len(), 2);
            assert_eq!(decoded[0].vertex, 672);
            assert_eq!(decoded[0].violations[0].detail, "-7");
            assert_eq!(decoded[1].aggregators[0].0, "phase");
        }
    }

    #[test]
    fn binary_is_denser_than_json() {
        let mut json = Vec::new();
        let mut bin = Vec::new();
        encode_record(TraceCodec::JsonLines, &sample_trace(), &mut json).unwrap();
        encode_record(TraceCodec::Binary, &sample_trace(), &mut bin).unwrap();
        assert!(bin.len() < json.len() / 2, "bin {} vs json {}", bin.len(), json.len());
    }

    #[test]
    fn json_lines_are_actual_json() {
        let mut buf = Vec::new();
        encode_record(TraceCodec::JsonLines, &sample_trace(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(parsed["vertex"], 672);
        assert_eq!(parsed["superstep"], 41);
    }

    /// The pipeline's central invariant: a binary vertex frame decodes to
    /// the *same* dynamic value that parsing the record's JSON line
    /// yields, so views over either format are byte-identical.
    #[test]
    fn binary_frame_reconstructs_the_json_parsed_value() {
        let mut json = Vec::new();
        encode_record(TraceCodec::JsonLines, &sample_trace(), &mut json).unwrap();
        let from_json: Value = serde_json::from_slice(json.split_last().unwrap().1).unwrap();

        let mut bin = Vec::new();
        encode_record(TraceCodec::Binary, &sample_trace(), &mut bin).unwrap();
        let mut scanner = graft_codec::frame::FrameScanner::new(&bin);
        let frame = scanner.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FRAME_VERTEX);
        let from_bin = vertex_value_from_payload(frame.payload).unwrap();

        assert_eq!(from_bin, from_json);
        assert_eq!(serde_json::to_vec(&from_bin).unwrap(), serde_json::to_vec(&from_json).unwrap());
    }

    #[test]
    fn index_frames_roundtrip_and_are_skipped_by_decode() {
        let mut buf = Vec::new();
        let index = IndexRecord { superstep: 41, records_before: 0, bytes_before: 0 };
        encode_index_frame(&index, &mut buf).unwrap();
        encode_record(TraceCodec::Binary, &sample_trace(), &mut buf).unwrap();

        let mut scanner = graft_codec::frame::FrameScanner::new(&buf);
        let frame = scanner.next_frame().unwrap().unwrap();
        assert_eq!(frame.kind, FRAME_INDEX);
        assert_eq!(index_record_from_payload(frame.payload).unwrap(), index);

        let decoded: Vec<VertexTrace<u64, i64, (), i64>> =
            decode_vertex_records(TraceCodec::Binary, &buf).unwrap();
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
        for codec in [TraceCodec::JsonLines, TraceCodec::Binary] {
            let mut buf = Vec::new();
            encode_record(codec, &record, &mut buf).unwrap();
            let decoded: Vec<MasterTrace> = decode_master_records(codec, &buf).unwrap();
            assert_eq!(decoded, vec![record.clone()]);
        }
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
        assert_eq!(meta.codec(), TraceCodec::JsonLines);
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
        assert!(decode_master_records(TraceCodec::JsonLines, b"{not json}\n").is_err());
        assert!(decode_master_records(TraceCodec::Binary, &[0xff, 0xff, 0xff]).is_err());
        assert!(decode_vertex_records::<Value>(TraceCodec::Binary, &[0xff, 0xff, 0xff]).is_err());
        // A master frame inside a worker file is a kind error, not a panic.
        let mut buf = Vec::new();
        graft_codec::frame::write_frame(&mut buf, FRAME_MASTER, b"");
        let err = decode_vertex_records::<Value>(TraceCodec::Binary, &buf).unwrap_err();
        assert!(err.to_string().contains("record kind"), "{err}");
    }
}
