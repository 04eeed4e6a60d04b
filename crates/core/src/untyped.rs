//! Type-erased trace reading for external tools.
//!
//! A [`crate::DebugSession`] needs the computation's Rust types to decode
//! traces. Tools like `graft-cli` and `graft-server` — the browser-GUI
//! stand-ins — must work on *any* job's traces, so this module reads
//! records whose computation-specific fields are type-erased: binary
//! frames carry them as tagged `BinValue` trees that reconstruct the exact
//! dynamic values a JSON text round-trip gives (see `graft_codec::value`).
//! Every channel comes in through the door, [`crate::trace::native_channel`]:
//! a legacy JSON-lines or v1 to v5 channel is read in full, at open, into
//! the v6 bytes `trace convert --to binary` writes for it, so every row
//! read here is a v6 payload, and everything built on this module is
//! byte-identical across formats.
//!
//! Rows are *not* materialized up front, and a binary frame is decoded
//! into a record only when somebody asks for its row:
//!
//! * **What `open` validates.** [`UntypedSession::open`] reads each
//!   trace file once and checks every record: a vertex payload is
//!   *skimmed* — run through the same GraftBin
//!   decoder, field for field, as the full record, with visitors that
//!   check and drop what they read (see [`VertexHead`]) — so exactly the
//!   payloads that would decode in full pass, and none is built. A
//!   payload's edge back-reference is checked against the channel's
//!   inline rows before it, a broadcast's count against its edges, and a
//!   `Same` value at compute entry resolved to the vertex's last earlier
//!   row (see [`walk_vertex_channel`]). Index frames
//!   and master records are decoded outright; they are small, and each
//!   index frame's context — superstep, global data, aggregator values —
//!   is kept, once per group, for the rows of its group.
//! * **What the index holds.** Per superstep, one four-word entry per
//!   row, sorted by rendered vertex id: the byte range of the record's
//!   frame payload, located by walking frame headers, the worker file it
//!   lies in, the group it lies in, the frame a `Same` value resolved to,
//!   and three flag bits —
//!   message violation, vertex-value violation, exception. The sort keys
//!   are dropped once the rows are sorted; no tree is kept. The
//!   superstep listing, its M/V/E indicators and the choice of rows the
//!   violations view shows are answered from the index alone.
//! * **When a row is read, and how far.** When a view asks for it. The
//!   listing views (node-link, a tabular page or search) read a
//!   [`RowDigest`] per row — the texts and counts they show, skimmed
//!   from the payload with no tree built ([`UntypedSession::digests`]).
//!   What shows a whole record — the violations view its flagged rows,
//!   a reproducer its one row — decodes the payload once into the
//!   record an [`UntypedTrace`] wraps. Both take the superstep and
//!   context from the row's group. Edges held by reference are read,
//!   one hop, from the frame they name, and a broadcast is listed along
//!   them; a `Same` value, one hop too, from the frame the row resolved
//!   to, except in the node-link view, which does not show it. A point
//!   lookup probes O(log rows)
//!   rows with the head skim and decodes what it returns. A superstep
//!   with a million captures costs three words of index per row until
//!   then — which is what lets the debug server paginate large supersteps
//!   without holding decoded records for whole jobs in memory.
//!
//! The index frames let [`UntypedSession::open_partial`] skip whole
//! groups of a channel beyond the live watermark without touching their
//! payloads.

use std::collections::BTreeMap;
use std::num::NonZeroU64;
use std::sync::Arc;

use graft_codec::BinValue;
use graft_dfs::FileSystem;
use graft_pregel::GlobalData;
use serde_json::Value;

use crate::session::{read_channel, read_json, read_result, Indicators, SessionError};
use crate::trace::{
    decode_master_records, master_trace_path, meta_path, violation_flag, walk_vertex_channel,
    worker_trace_path, ChannelKind, ChannelRecord, ErasedVertexTrace, IndexRecord, JobMeta,
    JobResultRecord, MasterTrace, RowDigest, RowView, VertexChannel, VertexHead, FLAG_EXCEPTION,
    FLAG_MESSAGE_VIOLATION, FLAG_VALUE_VIOLATION,
};

/// Renders a type-erased value as the views show it: a string as itself,
/// anything else as compact JSON.
fn compact(value: &BinValue) -> String {
    match &value.0 {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// One captured vertex context, its type-erased positions rendered as the
/// views show them.
#[derive(Clone, Debug)]
pub struct UntypedTrace(ErasedVertexTrace);

impl From<ErasedVertexTrace> for UntypedTrace {
    fn from(record: ErasedVertexTrace) -> Self {
        UntypedTrace(record)
    }
}

impl UntypedTrace {
    /// The capture's superstep.
    pub fn superstep(&self) -> u64 {
        self.0.superstep
    }

    /// The vertex id, rendered.
    pub fn vertex(&self) -> String {
        compact(&self.0.vertex)
    }

    /// The value at compute entry, rendered.
    pub fn value_before(&self) -> String {
        compact(&self.0.value_before)
    }

    /// The value after compute, rendered.
    pub fn value_after(&self) -> String {
        compact(&self.0.value_after)
    }

    /// The outgoing edges as `(target, edge value)` rendered pairs.
    pub fn edges(&self) -> Vec<(String, String)> {
        self.0.edges.iter().map(|(target, value)| (compact(target), compact(value))).collect()
    }

    /// Number of incoming messages.
    pub fn incoming_count(&self) -> usize {
        self.0.incoming.len()
    }

    /// Number of outgoing messages.
    pub fn outgoing_count(&self) -> usize {
        self.0.outgoing.len()
    }

    /// Whether the vertex voted to halt.
    pub fn halted_after(&self) -> bool {
        self.0.halted_after
    }

    /// The default global data the vertex observed.
    pub fn global(&self) -> GlobalData {
        self.0.global
    }

    /// Aggregator `(name, value as compact JSON)` pairs.
    pub fn aggregators(&self) -> Vec<(String, String)> {
        let json = |value| serde_json::to_string(value).expect("an AggValue renders as JSON");
        self.0.aggregators.iter().map(|(name, value)| (name.clone(), json(value))).collect()
    }

    /// The record.
    pub fn record(&self) -> &ErasedVertexTrace {
        &self.0
    }

    /// The `FLAG_*` bits of this record.
    fn flags(&self) -> u8 {
        let flags = if self.0.exception.is_some() { FLAG_EXCEPTION } else { 0 };
        self.0.violations.iter().fold(flags, |flags, v| flags | violation_flag(v.kind))
    }

    /// What the listing `view` shows of this record: what
    /// [`VertexChannel::digest`] skims of its payload.
    pub fn digest(&self, view: RowView) -> RowDigest {
        let tabular = view == RowView::Tabular;
        RowDigest {
            vertex: self.vertex(),
            value_before: if tabular { self.value_before() } else { String::new() },
            value_after: self.value_after(),
            edges: if tabular { Vec::new() } else { self.edges() },
            incoming: self.incoming_count(),
            outgoing: self.outgoing_count(),
            global: self.global(),
            halted_after: self.halted_after(),
            reasons: self.0.reasons.iter().map(|reason| reason.as_str().to_string()).collect(),
            flags: self.flags(),
        }
    }
}

/// Reads worker `worker`'s trace file under `root` through the door, and
/// walks it, invoking `row` for every vertex record within the watermark
/// with the record's head and its [`RowRef`]; returns the v6 channel
/// walked, empty if the worker wrote no file, and the index records of
/// its groups, in channel order. A payload is skimmed, not decoded (see
/// [`VertexHead`]), its edge reference checked and its `Same` value
/// resolved ([`walk_vertex_channel`]). Shared by [`JobSummary::scan`] and
/// [`UntypedSession::open`] so a job summarizes if and only if it opens.
///
/// With `up_to: Some(w)` (the live watermark of `open_partial`), rows of
/// supersteps beyond `w` are excluded — whole superstep groups are hopped
/// via their index frames without touching a payload — and a torn tail
/// (a frame overrunning the end of the file, or a JSON line without its
/// newline) is skipped instead of failing. Any other malformed record is
/// an error in both modes: the watermark protocol guarantees completed
/// supersteps are durable and well-formed, so mid-file corruption is real
/// corruption.
fn walk_worker_rows(
    fs: &dyn FileSystem,
    root: &str,
    worker: usize,
    meta: &JobMeta,
    up_to: Option<u64>,
    mut row: impl FnMut(VertexHead, RowRef),
) -> Result<(Vec<u8>, Vec<IndexRecord>), SessionError> {
    let path = worker_trace_path(root, worker);
    let bytes = read_channel(fs, &path, meta, ChannelKind::Worker, up_to.is_some())?;
    let held = u32::try_from(worker).expect("fewer than 2^32 workers");
    let mut groups: Vec<IndexRecord> = Vec::new();
    walk_vertex_channel(VertexChannel::new(&bytes), up_to, |frame, read| {
        match read {
            ChannelRecord::Index(index) => groups.push(index),
            ChannelRecord::Vertex(head, before) if up_to.is_none_or(|w| head.superstep <= w) => {
                let too_many = |_| graft_codec::Error::Message("over 2^32 bytes or groups".into());
                let row_ref = RowRef {
                    start: frame.payload_start,
                    len: u32::try_from(frame.payload.len()).map_err(too_many)?,
                    worker: held,
                    group: u32::try_from(groups.len().saturating_sub(1)).map_err(too_many)?,
                    before: before.and_then(NonZeroU64::new),
                    flags: head.flags,
                };
                row(head, row_ref);
            }
            ChannelRecord::Vertex(..) => {}
        }
        Ok(())
    })
    .map_err(|e| SessionError::decode(path, e))?;
    Ok((bytes, groups))
}

/// The listing-only facts of a job: metadata, terminal status, and
/// per-superstep capture counts — everything a `/jobs` landing page needs
/// — gathered in one streaming pass that retains no trace bytes and
/// builds no row index. A server can enumerate a trace root far larger
/// than its session cache through this without evicting a single parsed
/// session.
pub struct JobSummary {
    meta: JobMeta,
    result: Option<JobResultRecord>,
    counts: BTreeMap<u64, usize>,
}

impl JobSummary {
    /// Scans the traces under `root`, validating exactly what
    /// [`UntypedSession::open`] validates (every record, in any format)
    /// — a job summarizes if and only if it opens, with identical counts.
    pub fn scan(fs: &dyn FileSystem, root: &str) -> Result<Self, SessionError> {
        let meta: JobMeta = read_json(fs, &meta_path(root))?;
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for worker in 0..meta.num_workers {
            walk_worker_rows(fs, root, worker, &meta, None, |head, _| {
                *counts.entry(head.superstep).or_default() += 1;
            })?;
        }
        let result = read_result(fs, root)?;
        Ok(Self { meta, result, counts })
    }

    /// Job metadata.
    pub fn meta(&self) -> &JobMeta {
        &self.meta
    }

    /// Terminal status, if present.
    pub fn result(&self) -> Option<&JobResultRecord> {
        self.result.as_ref()
    }

    /// Supersteps with captures, ascending.
    pub fn supersteps(&self) -> Vec<u64> {
        self.counts.keys().copied().collect()
    }

    /// Number of captures in one superstep.
    pub fn count_at(&self, superstep: u64) -> usize {
        self.counts.get(&superstep).copied().unwrap_or(0)
    }

    /// Total captures.
    pub fn total_captures(&self) -> usize {
        self.counts.values().sum()
    }
}

/// One trace record in the row index: the byte range of its frame
/// payload inside a worker channel, the group of that channel it lies
/// in, the channel offset of the frame a `Same` value at compute entry
/// resolved to — never 0, where a channel's first index frame lies — and
/// the `FLAG_*` bits of its head. Four words a row.
#[derive(Clone, Copy, Debug)]
struct RowRef {
    start: usize,
    before: Option<NonZeroU64>,
    len: u32,
    worker: u32,
    group: u32,
    flags: u8,
}

/// A type-erased debug session over a run's traces, in any format.
///
/// Holds the v6 worker channels and the index records of their groups,
/// plus a per-superstep row index sorted by rendered vertex id and
/// carrying each row's violation/exception flags; individual rows are
/// decoded on demand (see the module docs).
pub struct UntypedSession {
    meta: JobMeta,
    result: Option<JobResultRecord>,
    workers: Vec<Vec<u8>>,
    /// Per worker, the index record of each group, in channel order.
    groups: Vec<Vec<IndexRecord>>,
    index: BTreeMap<u64, Vec<RowRef>>,
    master: Vec<MasterTrace>,
}

impl UntypedSession {
    /// Loads the traces under `root`. Fails on any record that does not
    /// decode — after `open` succeeds, every indexed row is known to
    /// parse.
    pub fn open(fs: Arc<dyn FileSystem>, root: &str) -> Result<Self, SessionError> {
        Self::open_impl(fs, root, None)
    }

    /// Loads an *in-flight* job's traces: everything [`UntypedSession::open`]
    /// loads, except that rows of supersteps beyond `up_to` (the live
    /// watermark — supersteps still executing, or mid-rewrite by a
    /// recovery) are dropped from the index, and a torn tail record in a
    /// trace file — a frame overrunning the end of the file, or a legacy
    /// JSON line caught mid-append without its newline — is skipped
    /// instead of failing the open. A malformed record anywhere else
    /// still fails: the watermark protocol guarantees completed
    /// supersteps are durable and well-formed, so mid-file corruption is
    /// real corruption. A legacy channel, which no job is still writing,
    /// is read in full.
    pub fn open_partial(
        fs: Arc<dyn FileSystem>,
        root: &str,
        up_to: u64,
    ) -> Result<Self, SessionError> {
        Self::open_impl(fs, root, Some(up_to))
    }

    fn open_impl(
        fs: Arc<dyn FileSystem>,
        root: &str,
        up_to: Option<u64>,
    ) -> Result<Self, SessionError> {
        let meta: JobMeta = read_json(fs.as_ref(), &meta_path(root))?;

        // One validation scan: each record yields its head — sort key
        // (superstep, rendered vertex) and flags — and nothing else; only
        // the channel bytes and the byte-range index survive, the keys
        // until the rows are sorted.
        let (mut workers, mut groups) = (Vec::new(), Vec::new());
        let mut by_superstep: BTreeMap<u64, Vec<(String, RowRef)>> = BTreeMap::new();
        for worker in 0..meta.num_workers {
            let (walked, grouped) =
                walk_worker_rows(fs.as_ref(), root, worker, &meta, up_to, |head, row| {
                    by_superstep.entry(head.superstep).or_default().push((head.vertex, row));
                })?;
            workers.push(walked);
            groups.push(grouped);
        }
        let index = by_superstep
            .into_iter()
            .map(|(superstep, mut rows)| {
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                (superstep, rows.into_iter().map(|(_, row)| row).collect())
            })
            .collect();

        let path = master_trace_path(root);
        let bytes = read_channel(fs.as_ref(), &path, &meta, ChannelKind::Master, up_to.is_some())?;
        let master =
            decode_master_records(&bytes, up_to).map_err(|e| SessionError::decode(path, e))?;

        let result = read_result(fs.as_ref(), root)?;

        Ok(Self { meta, result, workers, groups, index, master })
    }

    /// The worker channel a row lies in, the row's frame payload, and the
    /// index record of its group.
    fn row_bytes(&self, row: &RowRef) -> (VertexChannel<'_>, &[u8], Option<&IndexRecord>) {
        let (worker, start) = (row.worker as usize, row.start);
        let bytes = &self.workers[worker];
        let group = self.groups[worker].get(row.group as usize);
        (VertexChannel::new(bytes), &bytes[start..start + row.len as usize], group)
    }

    fn parse_row(&self, row: &RowRef) -> UntypedTrace {
        let (channel, bytes, group) = self.row_bytes(row);
        let record = channel.record(bytes, group, row.before.map(NonZeroU64::get));
        UntypedTrace(record.expect("rows were validated by open()"))
    }

    fn digest_row(&self, row: &RowRef, view: RowView) -> RowDigest {
        let (channel, bytes, group) = self.row_bytes(row);
        let digest = channel.digest(bytes, group, row.before.map(NonZeroU64::get), view);
        digest.expect("rows were validated by open()")
    }

    /// The rendered vertex id of a row: the key the index is sorted by.
    fn vertex_of(&self, row: &RowRef) -> String {
        let (channel, bytes, group) = self.row_bytes(row);
        channel.head(bytes, group).expect("rows were validated by open()").vertex
    }

    /// The rows of `rows` (one superstep's, in index order) whose vertex
    /// is `vertex`, found by binary search over skimmed ids.
    fn rows_of<'a>(
        &'a self,
        rows: &'a [RowRef],
        vertex: &'a str,
    ) -> impl Iterator<Item = &'a RowRef> + 'a {
        let first = rows.partition_point(|row| self.vertex_of(row).as_str() < vertex);
        rows[first..].iter().take_while(move |row| self.vertex_of(row) == vertex)
    }

    /// Job metadata.
    pub fn meta(&self) -> &JobMeta {
        &self.meta
    }

    /// Terminal status, if present.
    pub fn result(&self) -> Option<&JobResultRecord> {
        self.result.as_ref()
    }

    /// Supersteps with captures.
    pub fn supersteps(&self) -> Vec<u64> {
        self.index.keys().copied().collect()
    }

    /// Number of captures in one superstep, without parsing any row.
    pub fn count_at(&self, superstep: u64) -> usize {
        self.rows_at(superstep).len()
    }

    /// The index rows of one superstep, in vertex order.
    fn rows_at(&self, superstep: u64) -> &[RowRef] {
        self.index.get(&superstep).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Streams the captures of one superstep in vertex order, parsing
    /// each row only as the iterator reaches it.
    pub fn traces_at(&self, superstep: u64) -> impl Iterator<Item = UntypedTrace> + '_ {
        self.rows_at(superstep).iter().map(|row| self.parse_row(row))
    }

    /// Captures in one superstep, materialized. Prefer
    /// [`UntypedSession::traces_at`] or [`UntypedSession::rows_window`]
    /// on large supersteps.
    pub fn captured_at(&self, superstep: u64) -> Vec<UntypedTrace> {
        self.traces_at(superstep).collect()
    }

    /// One page of a superstep: rows `[offset, offset + limit)` in vertex
    /// order. Only the requested rows are parsed, so paging through a
    /// huge superstep costs O(page), not O(superstep).
    pub fn rows_window(&self, superstep: u64, offset: usize, limit: usize) -> Vec<UntypedTrace> {
        let rows = self.rows_at(superstep).iter().skip(offset).take(limit);
        rows.map(|row| self.parse_row(row)).collect()
    }

    /// What the listing `view` shows of rows `[offset, offset + limit)`
    /// of a superstep, in vertex order, each row skimmed as the iterator
    /// reaches it (see [`RowDigest`]).
    pub fn digests(
        &self,
        superstep: u64,
        offset: usize,
        limit: usize,
        view: RowView,
    ) -> impl Iterator<Item = RowDigest> + '_ {
        let rows = self.rows_at(superstep).iter().skip(offset).take(limit);
        rows.map(move |row| self.digest_row(row, view))
    }

    /// The capture of one vertex in one superstep, if any — the first in
    /// index order when several share the id. The rows are sorted by
    /// rendered id, so the lookup skims O(log rows) of them and parses
    /// the one it returns.
    pub fn vertex_at(&self, superstep: u64, vertex: &str) -> Option<UntypedTrace> {
        self.rows_of(self.rows_at(superstep), vertex).next().map(|row| self.parse_row(row))
    }

    /// Every capture of one vertex, in superstep order, and in index
    /// order where a superstep has several.
    pub fn history(&self, vertex: &str) -> Vec<UntypedTrace> {
        let matching = self.index.values().flat_map(|rows| self.rows_of(rows, vertex));
        matching.map(|row| self.parse_row(row)).collect()
    }

    /// The M/V/E indicator state of a superstep, read off the index.
    pub fn indicators(&self, superstep: u64) -> Indicators {
        let flags = self.rows_at(superstep).iter().fold(0, |flags, row| flags | row.flags);
        Indicators {
            message_violation: flags & FLAG_MESSAGE_VIOLATION != 0,
            value_violation: flags & FLAG_VALUE_VIOLATION != 0,
            exception: flags & FLAG_EXCEPTION != 0,
        }
    }

    /// The violating/excepting captures of one superstep, in vertex
    /// order. Only those rows are parsed.
    pub fn flagged_at(&self, superstep: u64) -> impl Iterator<Item = UntypedTrace> + '_ {
        let flagged = self.rows_at(superstep).iter().filter(|row| row.flags != 0);
        flagged.map(|row| self.parse_row(row))
    }

    /// Captured master contexts.
    pub fn master_traces(&self) -> &[MasterTrace] {
        &self.master
    }

    /// Total captures.
    pub fn total_captures(&self) -> usize {
        self.index.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::premade;
    use crate::trace::{convert_channel, TraceFormat, FRAME_VERTEX};
    use crate::{DebugConfig, GraftRunner};
    use graft_pregel::{Computation, ContextOf, VertexHandleOf};

    struct Doubler;
    impl Computation for Doubler {
        type Id = u64;
        type VValue = i64;
        type EValue = ();
        type Message = i64;
        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            messages: &[i64],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            let sum: i64 = messages.iter().sum();
            vertex.set_value(vertex.value() * 2 + sum);
            if ctx.superstep() < 2 {
                ctx.send_message_to_all_edges(vertex, *vertex.value());
            } else {
                vertex.vote_to_halt();
            }
        }
    }

    #[test]
    fn untyped_session_reads_what_typed_wrote() {
        let config = DebugConfig::<Doubler>::builder()
            .capture_ids([1, 2])
            .message_constraint(|m, _, _, _| *m < 100)
            .catch_exceptions(false)
            .build();
        let run = GraftRunner::new(Doubler, config)
            .num_workers(2)
            .run(premade::cycle(5, 3i64), "/t/untyped")
            .unwrap();
        let session = UntypedSession::open(run.fs().clone(), "/t/untyped").unwrap();
        assert_eq!(session.meta().computation, "Doubler");
        assert_eq!(session.total_captures() as u64, run.captures);
        assert!(!session.supersteps().is_empty());
        let trace = &session.captured_at(0)[0];
        assert_eq!(trace.vertex(), "1");
        assert_eq!(trace.value_before(), "3");
        assert_eq!(trace.edges().len(), 2);
        assert!(!session.history("1").is_empty());
        let result = session.result().unwrap();
        assert!(result.error.is_none());
    }

    #[test]
    fn job_summary_agrees_with_the_full_session() {
        let config = DebugConfig::<Doubler>::builder()
            .capture_ids([1, 2, 3])
            .catch_exceptions(false)
            .build();
        let run = GraftRunner::new(Doubler, config)
            .num_workers(3)
            .run(premade::cycle(6, 2i64), "/t/untyped-summary")
            .unwrap();
        let session = UntypedSession::open(run.fs().clone(), "/t/untyped-summary").unwrap();
        let summary = JobSummary::scan(run.fs().as_ref(), "/t/untyped-summary").unwrap();
        assert_eq!(summary.supersteps(), session.supersteps());
        assert_eq!(summary.total_captures(), session.total_captures());
        assert_eq!(summary.meta().computation, session.meta().computation);
        assert_eq!(summary.result().map(|r| r.captures), session.result().map(|r| r.captures));
        for ss in session.supersteps() {
            assert_eq!(summary.count_at(ss), session.count_at(ss));
        }
    }

    /// The tentpole invariant end to end: a binary run browses untyped to
    /// the *same* dynamic rows its JSON-lines export yields, and the
    /// binary trace directory is smaller on disk.
    #[test]
    fn binary_traces_read_identically_to_json_traces() {
        let config = DebugConfig::<Doubler>::builder()
            .capture_ids([1, 2])
            .message_constraint(|m, _, _, _| *m < 100)
            .catch_exceptions(false)
            .build();
        let bin_run = GraftRunner::new(Doubler, config)
            .num_workers(2)
            .run(premade::cycle(5, 3i64), "/t/untyped-eq-bin")
            .unwrap();
        let fs = bin_run.fs();
        let (bin_root, json_root) = ("/t/untyped-eq-bin", "/t/untyped-eq-json");
        let mut meta: JobMeta = read_json(fs.as_ref(), &meta_path(bin_root)).unwrap();
        meta.trace_format = Some(TraceFormat::JsonLines);
        fs.write_all(&meta_path(json_root), &serde_json::to_vec(&meta).unwrap()).unwrap();
        let export = |kind, path: String, to: String| {
            let bytes = fs.read_all(&path).unwrap();
            let lines = convert_channel(kind, TraceFormat::NATIVE, TraceFormat::JsonLines, bytes);
            fs.write_all(&to, &lines.unwrap()).unwrap();
        };
        for w in 0..2 {
            let (from, to) = (worker_trace_path(bin_root, w), worker_trace_path(json_root, w));
            export(ChannelKind::Worker, from, to);
        }
        export(ChannelKind::Master, master_trace_path(bin_root), master_trace_path(json_root));
        let json = UntypedSession::open(fs.clone(), json_root).unwrap();
        let bin = UntypedSession::open(fs.clone(), bin_root).unwrap();

        assert_eq!(bin.meta().format(), TraceFormat::NATIVE);
        assert_eq!(bin.supersteps(), json.supersteps());
        assert_eq!(bin.total_captures(), json.total_captures());
        assert!(bin.total_captures() > 0);
        for ss in json.supersteps() {
            let bin_rows = bin.captured_at(ss);
            let json_rows = json.captured_at(ss);
            assert_eq!(bin_rows.len(), json_rows.len());
            for (b, j) in bin_rows.iter().zip(&json_rows) {
                assert_eq!(b.record(), j.record(), "superstep {ss}");
            }
        }
        assert_eq!(bin.master_traces(), json.master_traces());

        let summary = JobSummary::scan(bin_run.fs().as_ref(), "/t/untyped-eq-bin").unwrap();
        assert_eq!(summary.total_captures(), bin.total_captures());

        let dir_bytes = |fs: &Arc<dyn FileSystem>, root: &str| -> usize {
            (0..2).map(|w| fs.read_all(&worker_trace_path(root, w)).unwrap().len()).sum::<usize>()
                + fs.read_all(&master_trace_path(root)).unwrap().len()
        };
        let json_bytes = dir_bytes(fs, json_root);
        let bin_bytes = dir_bytes(fs, bin_root);
        assert!(
            bin_bytes < json_bytes,
            "binary traces must be smaller: {bin_bytes} vs {json_bytes}"
        );
    }

    /// Renders every view and reproducer of `session`. A row that `open`
    /// indexed without its payload decoding in full would panic here.
    fn render_every_view(session: &UntypedSession) {
        use crate::views::json as vj;
        vj::to_line(&vj::supersteps_json(session));
        vj::to_line(&vj::violations_json(session, None));
        for ss in session.supersteps() {
            vj::to_line(&vj::tabular_json(session, ss, None, 1, vj::MAX_PER_PAGE));
            vj::to_line(&vj::node_link_json(session, ss));
            for row in session.captured_at(ss) {
                assert!(vj::repro_source(session, &row.vertex(), ss).is_some());
            }
        }
    }

    /// The frame-corruption matrix: a torn tail, a truncated length
    /// varint, a bad record kind, and mid-file garbage each yield a clean
    /// `SessionError` (or a lenient tail skip under `open_partial`) —
    /// never a panic, at open or in any view of what opened.
    #[test]
    fn corrupt_binary_traces_fail_cleanly_never_panic() {
        let config = DebugConfig::<Doubler>::builder()
            .capture_all_active(true)
            .catch_exceptions(false)
            .build();
        let root = "/t/untyped-corrupt";
        let run = GraftRunner::new(Doubler, config)
            .num_workers(1)
            .run(premade::cycle(4, 1i64), root)
            .unwrap();
        let fs = run.fs().clone();
        let path = worker_trace_path(root, 0);
        let pristine = fs.read_all(&path).unwrap();
        let full = UntypedSession::open(fs.clone(), root).unwrap().total_captures();
        assert!(full > 0);

        // Torn tail: the last frame is cut short. A strict open reports
        // it; a live (partial) open skips the tail and keeps every
        // complete record.
        fs.write_all(&path, &pristine[..pristine.len() - 3]).unwrap();
        let err = UntypedSession::open(fs.clone(), root).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("unexpected end"), "{err}");
        let partial = UntypedSession::open_partial(fs.clone(), root, u64::MAX).unwrap();
        assert_eq!(partial.total_captures(), full - 1);
        render_every_view(&partial);

        // Truncated length varint at the tail (a lone continuation byte):
        // same torn-tail shape, so partial opens keep everything.
        let mut torn = pristine.clone();
        torn.push(0x80);
        fs.write_all(&path, &torn).unwrap();
        assert!(UntypedSession::open(fs.clone(), root).is_err());
        let partial = UntypedSession::open_partial(fs.clone(), root, u64::MAX).unwrap();
        assert_eq!(partial.total_captures(), full);
        render_every_view(&partial);

        // A complete frame with an unknown record kind is hard corruption
        // in both modes — a torn write can only truncate, never invent a
        // whole frame.
        let mut bad_kind = pristine.clone();
        graft_codec::frame::write_frame(&mut bad_kind, 9, b"junk");
        fs.write_all(&path, &bad_kind).unwrap();
        let err = UntypedSession::open(fs.clone(), root).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("record kind"), "{err}");
        assert!(UntypedSession::open_partial(fs.clone(), root, u64::MAX).is_err());

        // Mid-file garbage, deterministic shape: a zeroed length prefix
        // on a frame in the middle of the stream is structural corruption
        // in both modes, lenient tailing included.
        let mut frames = Vec::new();
        let mut scanner = graft_codec::frame::FrameScanner::new(&pristine);
        while let Some(frame) = scanner.next_frame().unwrap() {
            frames.push(frame);
        }
        let mut garbled = pristine.clone();
        garbled[frames[frames.len() / 2].start] = 0x00;
        fs.write_all(&path, &garbled).unwrap();
        assert!(UntypedSession::open(fs.clone(), root).is_err());
        assert!(UntypedSession::open_partial(fs.clone(), root, u64::MAX).is_err());

        // A payload that does not decode is reported with its frame's
        // offset: here the tag of the vertex id, the payload's first byte,
        // names no kind of node.
        let victim = frames.iter().rfind(|frame| frame.kind == FRAME_VERTEX).unwrap();
        let mut bad_tag = pristine.clone();
        bad_tag[victim.payload_start] = 10;
        fs.write_all(&path, &bad_tag).unwrap();
        let err = UntypedSession::open(fs.clone(), root).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains(&format!("tag 10 at byte {}", victim.start)), "{err}");
        // So is a short payload in a complete frame, which no torn write
        // leaves: the first index frame, a byte shorter.
        let mut short_index = pristine.clone();
        short_index.remove(frames[0].end - 1);
        short_index[0] -= 1;
        fs.write_all(&path, &short_index).unwrap();
        let err = UntypedSession::open(fs.clone(), root).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains("unexpected end of input at byte 0"), "{err}");
        assert!(UntypedSession::open_partial(fs.clone(), root, u64::MAX).is_err());

        // Mid-file garbage, arbitrary shape: flipped payload bytes must
        // fail cleanly on a strict open; a partial open may only ever
        // drop records, never panic or invent them.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        for b in &mut flipped[mid..mid + 4] {
            *b ^= 0xff;
        }
        fs.write_all(&path, &flipped).unwrap();
        assert!(UntypedSession::open(fs.clone(), root).is_err());
        if let Ok(partial) = UntypedSession::open_partial(fs.clone(), root, u64::MAX) {
            assert!(partial.total_captures() <= full);
        }

        // Every single-byte edit of the file: whatever still opens,
        // strictly or leniently, renders.
        for at in 0..pristine.len() {
            for edit in [0xff, 0x80, 0x01] {
                let mut edited = pristine.clone();
                edited[at] ^= edit;
                fs.write_all(&path, &edited).unwrap();
                for session in [
                    UntypedSession::open(fs.clone(), root),
                    UntypedSession::open_partial(fs.clone(), root, u64::MAX),
                ] {
                    let Ok(session) = session else { continue };
                    assert!(session.total_captures() <= full);
                    render_every_view(&session);
                }
            }
        }

        // JobSummary::scan applies the same validation as open.
        assert!(JobSummary::scan(fs.as_ref(), root).is_err());

        // The pristine bytes still open after all that.
        fs.write_all(&path, &pristine).unwrap();
        assert_eq!(UntypedSession::open(fs.clone(), root).unwrap().total_captures(), full);
    }

    /// `vertex_at` binary-searches the sorted rows; it must return what
    /// the linear scan it replaced returned — the first row in index
    /// order whose rendered id matches — on hits, misses and ids that
    /// several rows share, in either format.
    #[test]
    fn vertex_at_is_the_first_match_of_a_linear_scan() {
        use crate::trace::{ChannelWriter, VertexTrace};
        use graft_pregel::GlobalData;
        for format in [TraceFormat::JsonLines, TraceFormat::NATIVE] {
            let root = "/t/untyped-vertex-at";
            let fs: Arc<dyn FileSystem> = Arc::new(graft_dfs::InMemoryFs::new());
            let meta = JobMeta {
                computation: "Lookup".into(),
                computation_type: "Lookup".into(),
                master: None,
                value_types: ("String".into(), "i64".into(), "()".into(), "i64".into()),
                num_workers: 2,
                trace_format: Some(format),
                config: vec![],
                facts: None,
            };
            fs.write_all(&meta_path(root), &serde_json::to_vec(&meta).unwrap()).unwrap();
            // Ids that sort as text, not as numbers; "2" three times in
            // superstep 0, on both workers.
            let mut serial = 0;
            for (worker, ids) in [["10", "2", "b", "2"], ["100", "", "2", "a0"]].iter().enumerate()
            {
                let mut buf = Vec::new();
                let mut writer = ChannelWriter::default();
                for superstep in 0..2u64 {
                    for id in ids.iter().filter(|id| superstep == 0 || **id != "2") {
                        serial += 1;
                        let trace = VertexTrace::<String, i64, (), i64> {
                            superstep,
                            vertex: id.to_string(),
                            value_before: serial,
                            value_after: -serial,
                            edges: vec![],
                            incoming: vec![],
                            outgoing: vec![],
                            aggregators: vec![],
                            global: GlobalData { superstep, num_vertices: 8, num_edges: 0 },
                            halted_after: false,
                            reasons: vec![],
                            violations: vec![],
                            exception: None,
                        };
                        match format {
                            TraceFormat::JsonLines => {
                                serde_json::to_vec_into(&trace, &mut buf).unwrap();
                                buf.push(b'\n');
                            }
                            _ => writer.append_vertex(&trace, &mut buf).unwrap(),
                        }
                    }
                }
                fs.write_all(&worker_trace_path(root, worker), &buf).unwrap();
            }
            let session = UntypedSession::open(fs, root).unwrap();
            assert_eq!((session.count_at(0), session.count_at(1)), (8, 5));
            for superstep in 0..3 {
                for probe in ["", "0", "10", "100", "1000", "2", "20", "a", "a0", "b", "c"] {
                    let scanned = session.traces_at(superstep).find(|t| t.vertex() == probe);
                    let found = session.vertex_at(superstep, probe);
                    assert_eq!(
                        found.map(|t| t.record().clone()),
                        scanned.map(|t| t.record().clone()),
                        "{format:?}: {probe:?} in superstep {superstep}"
                    );
                }
            }
            assert_eq!(session.vertex_at(0, "2").unwrap().value_before(), "2");
        }
    }

    /// Regression for the streaming/pagination rewrite: a 10k-vertex
    /// superstep is served page by page without materializing the whole
    /// superstep, and the pages stitched together equal the full listing.
    #[test]
    fn large_superstep_paginates_without_materializing() {
        let config = DebugConfig::<Doubler>::builder()
            .capture_all_active(true)
            .catch_exceptions(false)
            .build();
        let run = GraftRunner::new(Doubler, config)
            .num_workers(4)
            .max_supersteps(1)
            .run(premade::cycle(10_000, 1i64), "/t/untyped-large")
            .unwrap();
        let session = UntypedSession::open(run.fs().clone(), "/t/untyped-large").unwrap();
        assert_eq!(session.count_at(0), 10_000);
        assert_eq!(session.total_captures(), 10_000);

        // A deep page parses only its 25 rows, stays in vertex order, and
        // matches the same slice of the full listing byte for byte.
        let page = session.rows_window(0, 9_950, 25);
        assert_eq!(page.len(), 25);
        let all = session.captured_at(0);
        for (paged, full) in page.iter().zip(&all[9_950..9_975]) {
            assert_eq!(paged.record(), full.record());
        }
        let mut keys: Vec<String> = all.iter().map(|t| t.vertex()).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted, "rows must be sorted by rendered vertex id");

        // Stitching every page back together reproduces the full set.
        let mut stitched = Vec::new();
        let mut offset = 0;
        loop {
            let chunk = session.rows_window(0, offset, 1_000);
            if chunk.is_empty() {
                break;
            }
            offset += chunk.len();
            stitched.extend(chunk.into_iter().map(|t| t.vertex()));
        }
        keys.sort();
        stitched.sort();
        assert_eq!(stitched, keys);

        // Point lookups and the past-the-end window behave.
        assert!(session.vertex_at(0, "777").is_some());
        assert!(session.vertex_at(0, "10000").is_none());
        assert!(session.rows_window(0, 10_000, 10).is_empty());
    }
}
