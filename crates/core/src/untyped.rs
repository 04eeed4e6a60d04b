//! Type-erased trace reading for external tools.
//!
//! A [`crate::DebugSession`] needs the computation's Rust types to decode
//! traces. Tools like `graft-cli` and `graft-server` — the browser-GUI
//! stand-ins — must work on *any* job's traces, so this module reads
//! traces into dynamic values instead. Both codecs are supported: JSON
//! lines parse directly, and binary frames carry their computation-
//! specific fields as tagged `BinValue` trees that reconstruct the exact
//! same dynamic values (see `graft_codec::value`), so everything built on
//! this module is byte-identical across formats.
//!
//! Rows are *not* materialized up front, and a binary frame is decoded
//! into a tree only when somebody asks for its row:
//!
//! * **What `open` validates.** [`UntypedSession::open`] reads each
//!   trace file once and checks every record: a JSON line is parsed; a
//!   binary vertex payload is *skimmed* — run through the same GraftBin
//!   decoder, field for field, as the full record, with visitors that
//!   check and drop what they read (see [`VertexHead`]) — so exactly the
//!   payloads that would decode in full pass, and none is built. Index
//!   frames and master records are decoded outright; they are small.
//! * **What the index holds.** Per superstep, one three-word entry per
//!   row, sorted by rendered vertex id: the byte range of the record
//!   (the JSON line, or the binary frame payload located by walking
//!   frame headers), the worker file it lies in, and three flag bits —
//!   message violation, vertex-value violation, exception. The sort keys
//!   are dropped once the rows are sorted; no tree is kept. The
//!   superstep listing, its M/V/E indicators and the choice of rows the
//!   violations view shows are answered from the index alone.
//! * **When a row is read, and how far.** When a view asks for it. The
//!   listing views (node-link, a tabular page or search) read a
//!   [`RowDigest`] per row — the texts and counts they show, skimmed
//!   from the payload with no tree built ([`UntypedSession::digests`]).
//!   What shows a whole record — the violations view its flagged rows,
//!   a reproducer its one row — parses the payload once into the tree
//!   an [`UntypedTrace`] wraps. A point lookup probes O(log rows) rows
//!   with the head skim and parses what it returns. A superstep with a
//!   million captures costs three words of index per row until then —
//!   which is what lets the debug server paginate large supersteps
//!   without holding parsed JSON trees for whole jobs in memory.
//!
//! In binary traces, the per-superstep index frames let
//! [`UntypedSession::open_partial`] skip whole superstep groups beyond
//! the live watermark without touching their payloads.

use std::collections::BTreeMap;
use std::sync::Arc;

use graft_dfs::FileSystem;
use serde_json::Value;

use crate::config::TraceCodec;
use crate::session::{read_json, read_result, Indicators, SessionError};
use crate::trace::{
    compact, for_each_frame, for_each_line, index_record_from_payload, master_records_up_to,
    master_trace_path, meta_path, unexpected_kind, vertex_value_from_payload, worker_trace_path,
    JobMeta, JobResultRecord, MasterTrace, RowDigest, TraceReadError, VertexHead, FLAG_EXCEPTION,
    FLAG_MESSAGE_VIOLATION, FLAG_OTHER_VIOLATION, FLAG_VALUE_VIOLATION, FRAME_INDEX, FRAME_VERTEX,
};

/// One captured vertex context, as dynamic JSON.
#[derive(Clone, Debug)]
pub struct UntypedTrace(Value);

impl From<Value> for UntypedTrace {
    /// The record whose parsed JSON line, or decoded binary payload, is
    /// `raw`.
    fn from(raw: Value) -> Self {
        UntypedTrace(raw)
    }
}

impl UntypedTrace {
    /// The capture's superstep.
    pub fn superstep(&self) -> u64 {
        self.0["superstep"].as_u64().unwrap_or(0)
    }

    /// The vertex id, rendered.
    pub fn vertex(&self) -> String {
        compact(&self.0["vertex"])
    }

    /// The value at compute entry, rendered.
    pub fn value_before(&self) -> String {
        compact(&self.0["value_before"])
    }

    /// The value after compute, rendered.
    pub fn value_after(&self) -> String {
        compact(&self.0["value_after"])
    }

    /// The outgoing edges as `(target, edge value)` rendered pairs.
    pub fn edges(&self) -> Vec<(String, String)> {
        self.0["edges"]
            .as_array()
            .map(|edges| {
                edges
                    .iter()
                    .map(|pair| {
                        let target = pair.get(0).map(compact).unwrap_or_default();
                        let value = pair.get(1).map(compact).unwrap_or_default();
                        (target, value)
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of incoming messages.
    pub fn incoming_count(&self) -> usize {
        self.0["incoming"].as_array().map(Vec::len).unwrap_or(0)
    }

    /// Number of outgoing messages.
    pub fn outgoing_count(&self) -> usize {
        self.0["outgoing"].as_array().map(Vec::len).unwrap_or(0)
    }

    /// Whether the vertex voted to halt.
    pub fn halted_after(&self) -> bool {
        self.0["halted_after"].as_bool().unwrap_or(false)
    }

    /// The default global data `(superstep, num_vertices, num_edges)` the
    /// vertex observed, if recorded.
    pub fn global(&self) -> Option<(u64, u64, u64)> {
        let global = self.0.get("global")?;
        Some((
            global["superstep"].as_u64()?,
            global["num_vertices"].as_u64()?,
            global["num_edges"].as_u64()?,
        ))
    }

    /// Capture reasons, rendered.
    pub fn reasons(&self) -> Vec<String> {
        self.0["reasons"]
            .as_array()
            .map(|reasons| reasons.iter().map(compact).collect())
            .unwrap_or_default()
    }

    /// Violations as `(kind, detail, target)` rendered triples.
    pub fn violations(&self) -> Vec<(String, String, Option<String>)> {
        self.0["violations"]
            .as_array()
            .map(|violations| {
                violations
                    .iter()
                    .map(|v| {
                        (
                            compact(&v["kind"]),
                            compact(&v["detail"]),
                            v["target"].as_str().map(str::to_string),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The exception `(message, backtrace)`, if any.
    pub fn exception(&self) -> Option<(String, Option<String>)> {
        let exc = self.0.get("exception")?;
        if exc.is_null() {
            return None;
        }
        Some((compact(&exc["message"]), exc["backtrace"].as_str().map(str::to_string)))
    }

    /// Aggregator `(name, rendered value)` pairs.
    pub fn aggregators(&self) -> Vec<(String, String)> {
        self.0["aggregators"]
            .as_array()
            .map(|aggs| {
                aggs.iter()
                    .map(|pair| {
                        (
                            pair.get(0).map(compact).unwrap_or_default(),
                            pair.get(1).map(compact).unwrap_or_default(),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The raw JSON record.
    pub fn raw(&self) -> &Value {
        &self.0
    }

    /// The `FLAG_*` bits of this record.
    fn flags(&self) -> u8 {
        let mut flags = if self.exception().is_some() { FLAG_EXCEPTION } else { 0 };
        for (kind, _, _) in self.violations() {
            flags |= match kind.as_str() {
                "Message" => FLAG_MESSAGE_VIOLATION,
                "VertexValue" => FLAG_VALUE_VIOLATION,
                _ => FLAG_OTHER_VIOLATION,
            };
        }
        flags
    }

    /// What the row index keeps of this record.
    fn head(&self) -> VertexHead {
        VertexHead { superstep: self.superstep(), vertex: self.vertex(), flags: self.flags() }
    }

    /// What a listing view shows of this record — for a binary payload,
    /// what [`RowDigest::from_payload`] skims.
    pub fn digest(&self, with_edges: bool) -> RowDigest {
        RowDigest {
            vertex: self.vertex(),
            value_before: self.value_before(),
            value_after: self.value_after(),
            edges: if with_edges { self.edges() } else { Vec::new() },
            incoming: self.incoming_count(),
            outgoing: self.outgoing_count(),
            global: self.global(),
            halted_after: self.halted_after(),
            reasons: self.reasons(),
            flags: self.flags(),
        }
    }
}

/// Walks one worker trace file, invoking `row` for every vertex record
/// within the watermark, with the record's head and its payload byte
/// range (the JSON line, or the binary frame payload). A binary payload
/// is skimmed, not decoded into a tree (see [`VertexHead`]); a JSON line
/// is parsed, its head read off the value, and the value dropped. Shared
/// by [`JobSummary::scan`] and [`UntypedSession::open`] so a job
/// summarizes if and only if it opens.
///
/// With `up_to: Some(w)` (the live watermark of `open_partial`), rows of
/// supersteps beyond `w` are excluded — in binary traces whole superstep
/// groups are hopped via their index frames without touching a payload —
/// and a torn tail (a JSON line without its newline, or a binary frame
/// overrunning the end of the file) is skipped instead of failing. Any
/// other malformed record is an error in both modes: the watermark
/// protocol guarantees completed supersteps are durable and well-formed,
/// so mid-file corruption is real corruption.
fn walk_worker_rows(
    codec: TraceCodec,
    bytes: &[u8],
    up_to: Option<u64>,
    mut row: impl FnMut(VertexHead, usize, usize),
) -> Result<(), TraceReadError> {
    let mut within = |head: VertexHead, start, len| {
        if up_to.is_none_or(|w| head.superstep <= w) {
            row(head, start, len);
        }
    };
    match codec {
        TraceCodec::JsonLines => for_each_line(bytes, up_to.is_some(), |line, start| {
            within(UntypedTrace(serde_json::from_slice(line)?).head(), start, line.len());
            Ok(())
        }),
        TraceCodec::Binary => {
            // Set while the current index group lies beyond the live
            // watermark; its vertex payloads are hopped, not read.
            let mut skip_group = false;
            for_each_frame(bytes, up_to.is_some(), |frame| match frame.kind {
                FRAME_INDEX => {
                    let index = index_record_from_payload(frame.payload)?;
                    skip_group = up_to.is_some_and(|w| index.superstep > w);
                    Ok(())
                }
                FRAME_VERTEX => {
                    if !skip_group {
                        let head = graft_codec::from_slice(frame.payload)?;
                        within(head, frame.payload_start, frame.payload.len());
                    }
                    Ok(())
                }
                other => Err(unexpected_kind(other, "a vertex trace")),
            })
        }
    }
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
    /// [`UntypedSession::open`] validates (every record, in either codec)
    /// — a job summarizes if and only if it opens, with identical counts.
    pub fn scan(fs: &dyn FileSystem, root: &str) -> Result<Self, SessionError> {
        let meta: JobMeta = read_json(fs, &meta_path(root))?;
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for worker in 0..meta.num_workers {
            let path = worker_trace_path(root, worker);
            if !fs.exists(&path) {
                continue;
            }
            let bytes = fs.read_all(&path)?;
            walk_worker_rows(meta.codec(), &bytes, None, |head, _, _| {
                *counts.entry(head.superstep).or_default() += 1;
            })
            .map_err(|e| SessionError::decode(path, e))?;
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

/// One trace record in the row index: the byte range of its JSON line or
/// binary frame payload inside a worker file, and the `FLAG_*` bits of
/// its head. Three words a row.
#[derive(Clone, Copy, Debug)]
struct RowRef {
    start: usize,
    len: usize,
    worker: u32,
    flags: u8,
}

/// A type-erased debug session over a run's traces, in either codec.
///
/// Holds the raw trace bytes plus a per-superstep row index sorted by
/// rendered vertex id and carrying each row's violation/exception flags;
/// individual rows are parsed on demand (see the module docs).
pub struct UntypedSession {
    meta: JobMeta,
    codec: TraceCodec,
    result: Option<JobResultRecord>,
    workers: Vec<Vec<u8>>,
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
    /// trace file — a JSON line caught mid-append without its newline, or
    /// a binary frame overrunning the end of the file — is skipped
    /// instead of failing the open. A malformed record anywhere else
    /// still fails: the watermark protocol guarantees completed
    /// supersteps are durable and well-formed, so mid-file corruption is
    /// real corruption.
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
        let codec = meta.codec();

        // One validation scan: each record yields its head — sort key
        // (superstep, rendered vertex) and flags — and nothing else; only
        // the raw bytes and the byte-range index survive, the keys until
        // the rows are sorted.
        let mut workers: Vec<Vec<u8>> = Vec::new();
        let mut by_superstep: BTreeMap<u64, Vec<(String, RowRef)>> = BTreeMap::new();
        for worker in 0..meta.num_workers {
            let path = worker_trace_path(root, worker);
            if !fs.exists(&path) {
                continue;
            }
            let bytes = fs.read_all(&path)?;
            let worker = u32::try_from(workers.len()).expect("fewer than 2^32 files are held");
            walk_worker_rows(codec, &bytes, up_to, |head, start, len| {
                let row = RowRef { start, len, worker, flags: head.flags };
                by_superstep.entry(head.superstep).or_default().push((head.vertex, row));
            })
            .map_err(|e| SessionError::decode(path, e))?;
            workers.push(bytes);
        }
        let index = by_superstep
            .into_iter()
            .map(|(superstep, mut rows)| {
                rows.sort_by(|a, b| a.0.cmp(&b.0));
                (superstep, rows.into_iter().map(|(_, row)| row).collect())
            })
            .collect();

        let mut master: Vec<MasterTrace> = Vec::new();
        let master_path = master_trace_path(root);
        if fs.exists(&master_path) {
            let bytes = fs.read_all(&master_path)?;
            master = master_records_up_to(codec, &bytes, up_to)
                .map_err(|e| SessionError::decode(master_path, e))?;
        }

        let result = read_result(fs.as_ref(), root)?;

        Ok(Self { meta, codec, result, workers, index, master })
    }

    /// The record's bytes: a JSON line, or a binary frame's payload.
    fn row_bytes(&self, row: &RowRef) -> &[u8] {
        &self.workers[row.worker as usize][row.start..row.start + row.len]
    }

    fn parse_row(&self, row: &RowRef) -> UntypedTrace {
        let bytes = self.row_bytes(row);
        let value = match self.codec {
            TraceCodec::JsonLines => {
                serde_json::from_slice(bytes).expect("rows were validated by open()")
            }
            TraceCodec::Binary => {
                vertex_value_from_payload(bytes).expect("rows were validated by open()")
            }
        };
        UntypedTrace(value)
    }

    fn digest_row(&self, row: &RowRef, with_edges: bool) -> RowDigest {
        match self.codec {
            TraceCodec::JsonLines => self.parse_row(row).digest(with_edges),
            TraceCodec::Binary => RowDigest::from_payload(self.row_bytes(row), with_edges)
                .expect("rows were validated by open()"),
        }
    }

    /// The rendered vertex id of a row: the key the index is sorted by.
    fn vertex_of(&self, row: &RowRef) -> String {
        match self.codec {
            TraceCodec::JsonLines => self.parse_row(row).vertex(),
            TraceCodec::Binary => {
                graft_codec::from_slice::<VertexHead>(self.row_bytes(row))
                    .expect("rows were validated by open()")
                    .vertex
            }
        }
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

    /// What a listing view shows of rows `[offset, offset + limit)` of a
    /// superstep, in vertex order, each row skimmed as the iterator
    /// reaches it (see [`RowDigest`]).
    pub fn digests(
        &self,
        superstep: u64,
        offset: usize,
        limit: usize,
        with_edges: bool,
    ) -> impl Iterator<Item = RowDigest> + '_ {
        let rows = self.rows_at(superstep).iter().skip(offset).take(limit);
        rows.map(move |row| self.digest_row(row, with_edges))
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

    /// All violating/excepting captures.
    pub fn violations(&self) -> Vec<UntypedTrace> {
        self.index.keys().flat_map(|ss| self.flagged_at(*ss)).collect()
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
    /// the *same* dynamic rows a JSON-lines run of the identical job
    /// yields, and the binary trace directory is smaller on disk.
    #[test]
    fn binary_traces_read_identically_to_json_traces() {
        let run_with = |codec, root: &str| {
            let config = DebugConfig::<Doubler>::builder()
                .capture_ids([1, 2])
                .message_constraint(|m, _, _, _| *m < 100)
                .codec(codec)
                .catch_exceptions(false)
                .build();
            GraftRunner::new(Doubler, config)
                .num_workers(2)
                .run(premade::cycle(5, 3i64), root)
                .unwrap()
        };
        let json_run = run_with(TraceCodec::JsonLines, "/t/untyped-eq-json");
        let bin_run = run_with(TraceCodec::Binary, "/t/untyped-eq-bin");
        let json = UntypedSession::open(json_run.fs().clone(), "/t/untyped-eq-json").unwrap();
        let bin = UntypedSession::open(bin_run.fs().clone(), "/t/untyped-eq-bin").unwrap();

        assert_eq!(bin.meta().codec(), TraceCodec::Binary);
        assert_eq!(bin.supersteps(), json.supersteps());
        assert_eq!(bin.total_captures(), json.total_captures());
        assert!(bin.total_captures() > 0);
        for ss in json.supersteps() {
            let bin_rows = bin.captured_at(ss);
            let json_rows = json.captured_at(ss);
            assert_eq!(bin_rows.len(), json_rows.len());
            for (b, j) in bin_rows.iter().zip(&json_rows) {
                assert_eq!(b.raw(), j.raw(), "superstep {ss}");
            }
        }
        assert_eq!(bin.master_traces(), json.master_traces());

        let summary = JobSummary::scan(bin_run.fs().as_ref(), "/t/untyped-eq-bin").unwrap();
        assert_eq!(summary.total_captures(), bin.total_captures());

        let dir_bytes = |fs: &Arc<dyn FileSystem>, root: &str| -> usize {
            (0..2).map(|w| fs.read_all(&worker_trace_path(root, w)).unwrap().len()).sum::<usize>()
                + fs.read_all(&master_trace_path(root)).unwrap().len()
        };
        let json_bytes = dir_bytes(json_run.fs(), "/t/untyped-eq-json");
        let bin_bytes = dir_bytes(bin_run.fs(), "/t/untyped-eq-bin");
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
            .codec(TraceCodec::Binary)
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
        // offset: here the tag of the vertex id, right after the one-byte
        // superstep, names no kind of node.
        let victim = frames.iter().rfind(|frame| frame.kind == FRAME_VERTEX).unwrap();
        let mut bad_tag = pristine.clone();
        bad_tag[victim.payload_start + 1] = 9;
        fs.write_all(&path, &bad_tag).unwrap();
        let err = UntypedSession::open(fs.clone(), root).map(|_| ()).unwrap_err().to_string();
        assert!(err.contains(&format!("tag 9 at byte {}", victim.start)), "{err}");
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
    /// several rows share, in both codecs.
    #[test]
    fn vertex_at_is_the_first_match_of_a_linear_scan() {
        use crate::trace::{encode_record, VertexTrace};
        use graft_pregel::GlobalData;
        for codec in [TraceCodec::JsonLines, TraceCodec::Binary] {
            let root = "/t/untyped-vertex-at";
            let fs: Arc<dyn FileSystem> = Arc::new(graft_dfs::InMemoryFs::new());
            let meta = JobMeta {
                computation: "Lookup".into(),
                computation_type: "Lookup".into(),
                master: None,
                value_types: ("String".into(), "i64".into(), "()".into(), "i64".into()),
                num_workers: 2,
                trace_format: Some(codec),
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
                        encode_record(codec, &trace, &mut buf).unwrap();
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
                        found.map(|t| t.raw().clone()),
                        scanned.map(|t| t.raw().clone()),
                        "{codec:?}: {probe:?} in superstep {superstep}"
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
            assert_eq!(paged.raw().to_string(), full.raw().to_string());
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
