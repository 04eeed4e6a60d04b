//! The trace sink: buffered, per-worker trace file writers with the
//! global capture-count safety net.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use graft_dfs::{FileSystem, FileWrite};
// Channel locks and the global counters are graft-sched shims: identical
// to parking_lot + std atomics in production, scheduler yield points
// with happens-before tracking under `check-sched` — the capture-slot
// reservation protocol is model-checked against real interleavings.
use graft_sched::atomic::{AtomicBool, AtomicU64};
use graft_sched::sync::Mutex;

use crate::trace::{
    master_trace_path, result_path, worker_trace_path, CaptureError, ChannelMark, ChannelWriter,
    JobResultRecord, TraceRecord,
};

/// A channel whose pending bytes reach this hands them to its writer at
/// once instead of at the next flush, so one superstep of capture-all on
/// a large graph cannot buffer without bound.
const PENDING_HIGH_WATER: usize = 1 << 20;

struct Channel {
    writer: Box<dyn FileWrite>,
    /// Encoded records not yet handed to the writer. Records are encoded
    /// straight into it and a flush hands it over in one write.
    pending: Vec<u8>,
    /// The file this channel writes to (needed for rollback).
    path: String,
    /// The channel's grammar, and where the channel stands, pending
    /// records included.
    grammar: ChannelWriter,
    /// Where it stood at the last write its writer accepted: what is left
    /// of it when a later write fails.
    handed: ChannelMark,
}

impl Channel {
    fn new(fs: &Arc<dyn FileSystem>, path: String) -> Result<Self, graft_dfs::FsError> {
        let writer = fs.create(&path)?;
        Ok(Self {
            writer,
            pending: Vec::new(),
            path,
            grammar: ChannelWriter::default(),
            handed: ChannelMark::default(),
        })
    }

    /// Where the channel stands, pending records included.
    fn now(&self) -> ChannelMark {
        self.grammar.mark()
    }
}

/// Placeholder writer installed while a channel's file is being rewound.
struct NullWrite;

impl std::io::Write for NullWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl FileWrite for NullWrite {
    fn sync(&mut self) -> Result<(), graft_dfs::FsError> {
        Ok(())
    }
}

/// Per-worker contribution counters, kept alongside the global ones so a
/// *confined* rollback can rewind one worker's share while survivors'
/// counts stand.
struct WorkerCounts {
    captures: AtomicU64,
    violations: AtomicU64,
    exceptions: AtomicU64,
}

impl WorkerCounts {
    fn new() -> Self {
        Self {
            captures: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            exceptions: AtomicU64::new(0),
        }
    }
}

/// Everything needed to rewind the sink to a checkpoint boundary: where
/// each channel stood (after a flush, its `written` is the durable file
/// length) and the global and per-worker counters.
#[derive(Clone)]
struct SinkSnapshot {
    superstep: u64,
    worker_marks: Vec<ChannelMark>,
    master_mark: ChannelMark,
    captures: u64,
    violations: u64,
    exceptions: u64,
    /// Per-worker `[captures, violations, exceptions]` at the boundary.
    worker_counts: Vec<[u64; 3]>,
    limit_hit: bool,
}

/// Thread-safe trace writer shared by the instrumenter (vertex captures,
/// from worker threads) and the job observer (master captures, flushes).
///
/// Each engine worker writes to its own file through its own lock, so
/// capture recording never contends across workers — the design point
/// behind the paper's low overhead numbers.
pub struct TraceSink {
    max_captures: u64,
    captures: AtomicU64,
    violations: AtomicU64,
    exceptions: AtomicU64,
    limit_hit: AtomicBool,
    worker_counts: Vec<WorkerCounts>,
    workers: Vec<Mutex<Channel>>,
    master: Mutex<Channel>,
    fs: Arc<dyn FileSystem>,
    root: String,
    /// Trace-state snapshots taken at checkpoint boundaries, oldest first.
    snapshots: Mutex<Vec<SinkSnapshot>>,
    /// First capture error encountered, surfaced in `result.json`.
    poisoned: Mutex<Option<CaptureError>>,
}

impl TraceSink {
    /// Creates the sink and its trace files under `root`.
    pub fn new(
        fs: Arc<dyn FileSystem>,
        root: &str,
        max_captures: u64,
        num_workers: usize,
    ) -> Result<Self, graft_dfs::FsError> {
        fs.mkdirs(root)?;
        let mut workers = Vec::with_capacity(num_workers);
        for w in 0..num_workers {
            workers.push(Mutex::new(Channel::new(&fs, worker_trace_path(root, w))?));
        }
        let master = Mutex::new(Channel::new(&fs, master_trace_path(root))?);
        Ok(Self {
            max_captures,
            captures: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            exceptions: AtomicU64::new(0),
            limit_hit: AtomicBool::new(false),
            worker_counts: (0..num_workers).map(|_| WorkerCounts::new()).collect(),
            workers,
            master,
            fs,
            root: root.to_string(),
            snapshots: Mutex::new(Vec::new()),
            poisoned: Mutex::new(None),
        })
    }

    /// Records one captured vertex context from `worker`. Returns `false`
    /// when nothing was recorded: the capture safety net has tripped, or
    /// the record could not be encoded or written (the sink is poisoned).
    /// A record counts as captured only once it is in the channel.
    ///
    /// The channel's [`ChannelWriter`] frames it: a pure function of the
    /// per-channel record stream, so a replayed execution reproduces the
    /// discarded one byte for byte.
    pub fn record_vertex<T: TraceRecord>(&self, worker: usize, record: &T) -> bool {
        // Reserve a capture slot first so the threshold is global across
        // workers, as the paper describes.
        let slot = self.captures.fetch_add(1, Ordering::Relaxed);
        if slot >= self.max_captures {
            self.captures.fetch_sub(1, Ordering::Relaxed);
            self.limit_hit.store(true, Ordering::Relaxed);
            return false;
        }
        let mut channel = self.workers[worker].lock();
        let channel = &mut *channel;
        if let Err(e) = channel.grammar.append_vertex(record, &mut channel.pending) {
            self.captures.fetch_sub(1, Ordering::Relaxed);
            self.poison(e);
            return false;
        }
        self.worker_counts[worker].captures.fetch_add(1, Ordering::Relaxed);
        channel.pending.len() < PENDING_HIGH_WATER || self.hand_over(Some(worker), channel)
    }

    /// Records one captured master context.
    pub fn record_master<T: TraceRecord>(&self, record: &T) {
        let mut channel = self.master.lock();
        let channel = &mut *channel;
        if let Err(e) = channel.grammar.append_master(record, &mut channel.pending) {
            self.poison(e);
        }
    }

    /// Hands a channel's pending records to its writer in one write.
    /// When the writer fails the records are gone: the channel is rewound
    /// to what the writer last accepted, as a rollback rewinds it — its
    /// file cut back, a partial write included, and its writer resumed
    /// from the bytes left — and a worker channel's lost records leave the
    /// capture counts too, so `captures` never exceeds the records the
    /// writers accepted. If the rewind fails too, the sink stays poisoned
    /// and the channel's file is reported short at finalize.
    fn hand_over(&self, worker: Option<usize>, channel: &mut Channel) -> bool {
        if channel.pending.is_empty() {
            return true;
        }
        let result = std::io::Write::write_all(&mut channel.writer, &channel.pending);
        channel.pending.clear();
        let Err(e) = result else {
            channel.handed = channel.now();
            return true;
        };
        self.poison(e.into());
        let lost = channel.now().records - channel.handed.records;
        if let Some(worker) = worker {
            self.captures.fetch_sub(lost, Ordering::Relaxed);
            self.worker_counts[worker].captures.fetch_sub(lost, Ordering::Relaxed);
        }
        let handed = channel.handed.clone();
        if let Err(e) = self.rewind(channel, &handed) {
            self.poison(e);
        }
        false
    }

    /// Counts `count` constraint violations observed by `worker`.
    pub fn count_violations(&self, worker: usize, count: u64) {
        self.violations.fetch_add(count, Ordering::Relaxed);
        self.worker_counts[worker].violations.fetch_add(count, Ordering::Relaxed);
    }

    /// Counts an exception captured by `worker`.
    pub fn count_exception(&self, worker: usize) {
        self.exceptions.fetch_add(1, Ordering::Relaxed);
        self.worker_counts[worker].exceptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Makes everything recorded so far visible to readers (called at
    /// superstep boundaries, like the paper's per-superstep HDFS flush):
    /// one write of the pending records per channel, then a sync.
    pub fn flush(&self) {
        let workers = self.workers.iter().enumerate().map(|(w, channel)| (Some(w), channel));
        for (worker, channel) in workers.chain([(None, &self.master)]) {
            let mut channel = channel.lock();
            self.hand_over(worker, &mut channel);
            if let Err(e) = channel.writer.sync() {
                self.poison(e.into());
            }
        }
    }

    /// Snapshots the sink's durable state at a checkpoint boundary for
    /// `superstep`, so a later [`TraceSink::rollback`] can rewind the
    /// trace files in lock-step with the engine's recovery. Replaces any
    /// earlier snapshot for the same or a later superstep (a replayed
    /// checkpoint supersedes the pre-failure one).
    pub fn snapshot(&self, superstep: u64) {
        self.flush();
        let worker_marks: Vec<ChannelMark> = self.workers.iter().map(|w| w.lock().now()).collect();
        let master_mark = self.master.lock().now();
        let worker_counts: Vec<[u64; 3]> = self
            .worker_counts
            .iter()
            .map(|c| {
                [
                    c.captures.load(Ordering::Relaxed),
                    c.violations.load(Ordering::Relaxed),
                    c.exceptions.load(Ordering::Relaxed),
                ]
            })
            .collect();
        let mut snapshots = self.snapshots.lock();
        snapshots.retain(|s| s.superstep < superstep);
        snapshots.push(SinkSnapshot {
            superstep,
            worker_marks,
            master_mark,
            captures: self.captures(),
            violations: self.violations(),
            exceptions: self.exceptions(),
            worker_counts,
            limit_hit: self.limit_hit(),
        });
    }

    /// Rewinds every trace file and counter to the snapshot taken for
    /// `superstep`, discarding records from the aborted execution so the
    /// replayed supersteps land exactly where the lost ones did. Poisons
    /// the sink if no snapshot exists or a file cannot be rewound.
    pub fn rollback(&self, superstep: u64) {
        let Some(snapshot) = self.take_snapshot(superstep) else { return };
        for (worker, channel) in self.workers.iter().enumerate() {
            let mut channel = channel.lock();
            if let Err(e) = self.rewind(&mut channel, &snapshot.worker_marks[worker]) {
                self.poison(e);
            }
        }
        if let Err(e) = self.rewind(&mut self.master.lock(), &snapshot.master_mark) {
            self.poison(e);
        }
        for (counts, snap) in self.worker_counts.iter().zip(&snapshot.worker_counts) {
            counts.captures.store(snap[0], Ordering::Relaxed);
            counts.violations.store(snap[1], Ordering::Relaxed);
            counts.exceptions.store(snap[2], Ordering::Relaxed);
        }
        self.captures.store(snapshot.captures, Ordering::Relaxed);
        self.violations.store(snapshot.violations, Ordering::Relaxed);
        self.exceptions.store(snapshot.exceptions, Ordering::Relaxed);
        self.limit_hit.store(snapshot.limit_hit, Ordering::Relaxed);
    }

    /// Rewinds *only* the listed workers' trace files and counter shares
    /// to the snapshot taken for `superstep`, leaving the survivors' (and
    /// the master's) records in place — the trace-side mirror of the
    /// engine's confined recovery. The global counters are recomputed as
    /// the snapshot values plus the survivors' contributions since.
    pub fn rollback_workers(&self, superstep: u64, workers: &[usize]) {
        let Some(snapshot) = self.take_snapshot(superstep) else { return };
        for &worker in workers {
            let mut channel = self.workers[worker].lock();
            if let Err(e) = self.rewind(&mut channel, &snapshot.worker_marks[worker]) {
                self.poison(e);
            }
        }
        let mut totals = [snapshot.captures, snapshot.violations, snapshot.exceptions];
        for (worker, (counts, snap)) in
            self.worker_counts.iter().zip(&snapshot.worker_counts).enumerate()
        {
            if workers.contains(&worker) {
                counts.captures.store(snap[0], Ordering::Relaxed);
                counts.violations.store(snap[1], Ordering::Relaxed);
                counts.exceptions.store(snap[2], Ordering::Relaxed);
            } else {
                totals[0] += counts.captures.load(Ordering::Relaxed) - snap[0];
                totals[1] += counts.violations.load(Ordering::Relaxed) - snap[1];
                totals[2] += counts.exceptions.load(Ordering::Relaxed) - snap[2];
            }
        }
        self.captures.store(totals[0], Ordering::Relaxed);
        self.violations.store(totals[1], Ordering::Relaxed);
        self.exceptions.store(totals[2], Ordering::Relaxed);
        self.limit_hit
            .store(snapshot.limit_hit || totals[0] >= self.max_captures, Ordering::Relaxed);
    }

    /// Finds the snapshot for `superstep`, dropping any later ones (a
    /// rewind invalidates them); poisons the sink when none exists.
    fn take_snapshot(&self, superstep: u64) -> Option<SinkSnapshot> {
        let mut snapshots = self.snapshots.lock();
        let Some(pos) = snapshots.iter().position(|s| s.superstep == superstep) else {
            self.poison(CaptureError::SnapshotMissing(superstep));
            return None;
        };
        snapshots.truncate(pos + 1);
        Some(snapshots[pos].clone())
    }

    /// Truncates a channel's file back to the mark's byte length by
    /// committing the current writer, re-reading the durable prefix, and
    /// recreating the file with exactly that prefix; the channel's writer
    /// resumes from the prefix.
    fn rewind(&self, channel: &mut Channel, mark: &ChannelMark) -> Result<(), CaptureError> {
        let fs = &self.fs;
        let keep = mark.written;
        if channel.now().written == keep {
            // Nothing was recorded since the snapshot, so the writer is
            // still at the mark too.
            return Ok(());
        }
        // Records not yet handed over belong to the aborted execution.
        channel.pending.clear();
        channel.handed = mark.clone();
        // Dropping the writer commits any buffered bytes; install a
        // placeholder so the channel stays structurally valid if the
        // rewrite below fails part-way.
        drop(std::mem::replace(&mut channel.writer, Box::new(NullWrite)));
        let bytes = fs.read_all(&channel.path)?;
        let keep_len = usize::try_from(keep).map_err(|e| CaptureError::Dfs(e.to_string()))?;
        if bytes.len() < keep_len {
            return Err(CaptureError::Dfs(format!(
                "trace file {} truncated below its snapshot ({} < {keep} bytes)",
                channel.path,
                bytes.len()
            )));
        }
        let mut writer = fs.create(&channel.path)?;
        std::io::Write::write_all(&mut writer, &bytes[..keep_len])?;
        writer.sync()?;
        channel.writer = writer;
        channel.grammar = ChannelWriter::resume(&bytes[..keep_len]);
        debug_assert_eq!(
            channel.now(),
            *mark,
            "{}: the prefix is not the snapshot's",
            channel.path
        );
        Ok(())
    }

    /// Final flush plus `result.json`. Called exactly once at job end.
    ///
    /// Durability-hardened: after the final sync, every trace file's
    /// length on the file system is verified against the bytes this sink
    /// wrote to it — a short file means the backing store lost data, and
    /// that is reported in `result.json` rather than silently producing a
    /// truncated trace.
    pub fn finalize(&self, supersteps_executed: u64, error: Option<String>) {
        self.flush();
        self.verify_durable();
        let error = error.or_else(|| self.poisoned.lock().as_ref().map(CaptureError::to_string));
        let record = JobResultRecord {
            supersteps_executed,
            error,
            captures: self.captures(),
            violations: self.violations(),
            exceptions: self.exceptions(),
            capture_limit_hit: self.limit_hit(),
        };
        let rendered = serde_json::to_vec_pretty(&record).expect("result record serializes");
        if let Err(e) = self.fs.write_all(&result_path(&self.root), &rendered) {
            self.poison(e.into());
        }
    }

    /// Vertex contexts captured so far.
    pub fn captures(&self) -> u64 {
        self.captures.load(Ordering::Relaxed)
    }

    /// Constraint violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Exceptions recorded so far.
    pub fn exceptions(&self) -> u64 {
        self.exceptions.load(Ordering::Relaxed)
    }

    /// Whether the capture safety net has tripped.
    pub fn limit_hit(&self) -> bool {
        self.limit_hit.load(Ordering::Relaxed)
    }

    /// Total bytes handed to all trace writers (worker files plus the
    /// master file) so far. After a [`TraceSink::flush`] this is the
    /// durable trace volume — the number the observability layer surfaces.
    pub fn bytes_written(&self) -> u64 {
        let workers: u64 = self.workers.iter().map(|w| w.lock().now().written).sum();
        workers + self.master.lock().now().written
    }

    /// Checks that every synced trace file is exactly as long as the
    /// bytes written to it.
    fn verify_durable(&self) {
        let channels = self.workers.iter().chain(std::iter::once(&self.master));
        for channel in channels {
            let channel = channel.lock();
            let written = channel.now().written;
            match self.fs.status(&channel.path) {
                Ok(status) if status.len == written => {}
                Ok(status) => self.poison(CaptureError::Dfs(format!(
                    "trace file {} not durable: {} bytes on disk, {written} written",
                    channel.path, status.len
                ))),
                Err(e) => self.poison(CaptureError::Dfs(format!(
                    "trace file {} unreadable at finalize: {e}",
                    channel.path
                ))),
            }
        }
    }

    fn poison(&self, error: CaptureError) {
        let mut slot = self.poisoned.lock();
        if slot.is_none() {
            *slot = Some(error);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{decode_master_records, IndexRecord, MasterTrace};
    use crate::trace::{FRAME_INDEX, FRAME_VERTEX};
    use graft_codec::frame::FrameScanner;
    use graft_dfs::InMemoryFs;
    use graft_pregel::{AggValue, GlobalData};
    use serde::{Deserialize, Serialize};

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Rec {
        worker: usize,
        seq: u64,
    }

    // The sink is generic over TraceRecord; the test record's sequence
    // number doubles as its superstep so index-frame emission is easy to
    // steer.
    impl TraceRecord for Rec {
        fn record_superstep(&self) -> u64 {
            self.seq
        }

        fn encode_context(&self, out: &mut Vec<u8>) -> Result<(), CaptureError> {
            let global = GlobalData { superstep: self.seq, num_vertices: 0, num_edges: 0 };
            let aggregators: Vec<(String, AggValue)> = Vec::new();
            out.extend(graft_codec::to_vec(&(global, aggregators))?);
            Ok(())
        }

        fn encode_binary_frame(&self, buf: &mut Vec<u8>) -> Result<(), CaptureError> {
            Ok(graft_codec::frame::write_value_frame(buf, FRAME_VERTEX, self)?)
        }
    }

    /// A record that cannot be encoded.
    struct Unencodable;

    impl TraceRecord for Unencodable {
        fn record_superstep(&self) -> u64 {
            0
        }

        fn encode_binary_frame(&self, _buf: &mut Vec<u8>) -> Result<(), CaptureError> {
            Err(graft_codec::Error::UnknownLength.into())
        }
    }

    /// An in-memory file system whose writers, between them, fail their
    /// `fail_on`-th write (1-based) and count every write they are asked
    /// to make.
    struct FlakyFs {
        inner: InMemoryFs,
        writes: Arc<std::sync::atomic::AtomicUsize>,
        fail_on: usize,
    }

    struct FlakyWriter {
        inner: Box<dyn FileWrite>,
        writes: Arc<std::sync::atomic::AtomicUsize>,
        fail_on: usize,
    }

    impl std::io::Write for FlakyWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.writes.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == self.fail_on {
                return Err(std::io::Error::other("datanode pipeline broke"));
            }
            self.inner.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    impl FileWrite for FlakyWriter {
        fn sync(&mut self) -> Result<(), graft_dfs::FsError> {
            self.inner.sync()
        }
    }

    impl FileSystem for FlakyFs {
        fn create(&self, path: &str) -> graft_dfs::FsResult<Box<dyn FileWrite>> {
            let inner = self.inner.create(path)?;
            Ok(Box::new(FlakyWriter {
                inner,
                writes: Arc::clone(&self.writes),
                fail_on: self.fail_on,
            }))
        }

        fn open(&self, path: &str) -> graft_dfs::FsResult<Box<dyn graft_dfs::FileRead>> {
            self.inner.open(path)
        }

        fn list(&self, path: &str) -> graft_dfs::FsResult<Vec<graft_dfs::FileStatus>> {
            self.inner.list(path)
        }

        fn status(&self, path: &str) -> graft_dfs::FsResult<graft_dfs::FileStatus> {
            self.inner.status(path)
        }

        fn exists(&self, path: &str) -> bool {
            self.inner.exists(path)
        }

        fn mkdirs(&self, path: &str) -> graft_dfs::FsResult<()> {
            self.inner.mkdirs(path)
        }

        fn delete(&self, path: &str, recursive: bool) -> graft_dfs::FsResult<()> {
            self.inner.delete(path, recursive)
        }
    }

    fn flaky_sink(fail_on: usize) -> (Arc<FlakyFs>, TraceSink) {
        let fs = Arc::new(FlakyFs { inner: InMemoryFs::new(), writes: Arc::default(), fail_on });
        let sink = TraceSink::new(fs.clone(), "/traces/job", u64::MAX, 2).unwrap();
        (fs, sink)
    }

    fn sink(max: u64) -> (Arc<InMemoryFs>, TraceSink) {
        let fs = Arc::new(InMemoryFs::new());
        let sink = TraceSink::new(fs.clone(), "/traces/job", max, 4).unwrap();
        (fs, sink)
    }

    fn frame_kinds(bytes: &[u8]) -> Vec<u8> {
        let mut scanner = FrameScanner::new(bytes);
        let mut kinds = Vec::new();
        while let Some(frame) = scanner.next_frame().unwrap() {
            kinds.push(frame.kind);
        }
        kinds
    }

    /// The test records of a worker channel, in order.
    fn records_in(bytes: &[u8]) -> Vec<Rec> {
        let mut scanner = FrameScanner::new(bytes);
        let mut records = Vec::new();
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind == FRAME_VERTEX {
                records.push(graft_codec::from_slice(frame.payload).unwrap());
            }
        }
        records
    }

    fn rows_on_disk(fs: &dyn FileSystem, worker: usize) -> Vec<Rec> {
        records_in(&fs.read_all(&worker_trace_path("/traces/job", worker)).unwrap())
    }

    fn seqs_on_disk(fs: &dyn FileSystem, worker: usize) -> Vec<u64> {
        rows_on_disk(fs, worker).iter().map(|r| r.seq).collect()
    }

    fn master(superstep: u64) -> MasterTrace {
        MasterTrace {
            superstep,
            global: GlobalData { superstep, num_vertices: 4, num_edges: 4 },
            aggregators: Vec::new(),
            halted: false,
        }
    }

    fn masters_on_disk(fs: &dyn FileSystem) -> Vec<MasterTrace> {
        let bytes = fs.read_all(&master_trace_path("/traces/job")).unwrap();
        decode_master_records(&bytes, None).unwrap()
    }

    #[test]
    fn per_worker_files_receive_their_records() {
        let (fs, sink) = sink(1000);
        for worker in 0..4 {
            for seq in 0..10 {
                assert!(sink.record_vertex(worker, &Rec { worker, seq }));
            }
        }
        sink.flush();
        for worker in 0..4 {
            let records = rows_on_disk(&*fs, worker);
            assert_eq!(records.len(), 10);
            assert!(records.iter().all(|r| r.worker == worker));
        }
        assert_eq!(sink.captures(), 40);
    }

    #[test]
    fn capture_limit_is_global_across_workers() {
        let (_fs, sink) = sink(25);
        let mut accepted = 0;
        for seq in 0..20u64 {
            for worker in 0..4 {
                if sink.record_vertex(worker, &Rec { worker, seq }) {
                    accepted += 1;
                }
            }
        }
        assert_eq!(accepted, 25);
        assert_eq!(sink.captures(), 25);
        assert!(sink.limit_hit());
    }

    #[test]
    fn finalize_writes_result_json() {
        let (fs, sink) = sink(1000);
        sink.record_vertex(0, &Rec { worker: 0, seq: 0 });
        sink.count_violations(0, 1);
        sink.count_violations(1, 1);
        sink.count_exception(2);
        sink.finalize(7, Some("vertex 3 panicked".into()));
        let bytes = fs.read_all(&result_path("/traces/job")).unwrap();
        let record: JobResultRecord = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(record.supersteps_executed, 7);
        assert_eq!(record.captures, 1);
        assert_eq!(record.violations, 2);
        assert_eq!(record.exceptions, 1);
        assert_eq!(record.error.as_deref(), Some("vertex 3 panicked"));
        assert!(!record.capture_limit_hit);
    }

    #[test]
    fn a_record_that_fails_to_encode_is_not_counted() {
        let (fs, sink) = sink(1000);
        // The failing record would open superstep 0: its index frame must
        // go with it.
        assert!(!sink.record_vertex(0, &Unencodable));
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 0 }));
        assert!(!sink.record_vertex(0, &Unencodable));
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 0 }));
        assert_eq!(sink.captures(), 2);
        assert_eq!(sink.worker_counts[0].captures.load(Ordering::Relaxed), 2);
        assert!(matches!(*sink.poisoned.lock(), Some(CaptureError::Codec(_))));
        // The failed records left no bytes behind: the channel holds
        // exactly the two good records, and the index frame counts them.
        sink.finalize(1, None);
        let bytes = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();
        assert_eq!(frame_kinds(&bytes), [FRAME_INDEX, FRAME_VERTEX, FRAME_VERTEX]);
        assert_eq!(records_in(&bytes).len(), 2);
        let result = fs.read_all(&result_path("/traces/job")).unwrap();
        let record: JobResultRecord = serde_json::from_slice(&result).unwrap();
        assert_eq!(record.captures, 2);
        assert!(record.error.is_some());
    }

    #[test]
    fn a_failed_write_uncounts_the_records_it_lost() {
        // Writes 1 and 2 are the first flush (one per worker channel);
        // write 3 — worker 0's second flush — fails.
        let (fs, sink) = flaky_sink(3);
        for seq in 0..3 {
            assert!(sink.record_vertex(0, &Rec { worker: 0, seq }));
            assert!(sink.record_vertex(1, &Rec { worker: 1, seq }));
        }
        sink.snapshot(3);
        for seq in 3..5 {
            assert!(sink.record_vertex(0, &Rec { worker: 0, seq }));
            assert!(sink.record_vertex(1, &Rec { worker: 1, seq }));
        }
        sink.flush();

        // Worker 0's two pending records never reached its file, and no
        // counter still claims them.
        assert_eq!(rows_on_disk(&*fs, 0).len(), 3);
        assert_eq!(rows_on_disk(&*fs, 1).len(), 5);
        assert_eq!(sink.captures(), 8);
        assert_eq!(sink.worker_counts[0].captures.load(Ordering::Relaxed), 3);
        assert!(matches!(*sink.poisoned.lock(), Some(CaptureError::Dfs(_))));

        // A confined rollback of worker 1 recomputes the total from the
        // survivor's share, which must be the corrected one: the 6 of the
        // snapshot plus nothing for worker 0.
        sink.rollback_workers(3, &[1]);
        assert_eq!(sink.captures(), 6);
        assert_eq!(rows_on_disk(&*fs, 1).len(), 3);

        // The channel stays usable, and the error reaches result.json with
        // a capture count that matches the rows on disk.
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 3 }));
        sink.finalize(5, None);
        assert_eq!(seqs_on_disk(&*fs, 0), [0, 1, 2, 3]);
        // The index frames count what the file holds, not what was lost:
        // the channel is what a fresh writer of its records writes.
        let bytes = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();
        assert_eq!(ChannelWriter::resume(&bytes).mark().records, 4);
        let (mut fresh, mut expected) = (ChannelWriter::default(), Vec::new());
        for record in rows_on_disk(&*fs, 0) {
            fresh.append_vertex(&record, &mut expected).unwrap();
        }
        assert_eq!(bytes, expected);
        let result = fs.read_all(&result_path("/traces/job")).unwrap();
        let record: JobResultRecord = serde_json::from_slice(&result).unwrap();
        assert_eq!(record.captures, 7);
        assert_eq!(record.error.as_deref(), Some("datanode pipeline broke"));
    }

    #[test]
    fn a_flush_is_one_write_per_channel_that_has_records() {
        let (fs, sink) = flaky_sink(usize::MAX);
        let writes = || fs.writes.load(std::sync::atomic::Ordering::SeqCst);
        for seq in 0..50 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
            sink.record_vertex(1, &Rec { worker: 1, seq });
        }
        assert_eq!(writes(), 0);
        sink.flush();
        assert_eq!(writes(), 2);
        sink.record_master(&master(0));
        sink.record_vertex(1, &Rec { worker: 1, seq: 50 });
        sink.flush();
        assert_eq!(writes(), 4);
        sink.flush();
        assert_eq!(writes(), 4);
        assert_eq!(rows_on_disk(&*fs, 1).len(), 51);
    }

    #[test]
    fn a_channel_past_the_high_water_mark_writes_before_the_flush() {
        let (fs, sink) = flaky_sink(usize::MAX);
        let mut recorded = 0u64;
        while fs.writes.load(std::sync::atomic::Ordering::SeqCst) == 0 {
            assert!(sink.record_vertex(0, &Rec { worker: 0, seq: recorded }));
            recorded += 1;
            assert!(recorded < 1_000_000, "the channel never handed its records over");
        }
        // Everything recorded so far went out in that one write, at the
        // mark and not before.
        let channel = sink.workers[0].lock();
        assert!(channel.pending.is_empty());
        assert!(channel.now().written >= PENDING_HIGH_WATER as u64);
        assert_eq!(channel.handed.records, recorded);
    }

    #[test]
    fn rollback_discards_records_that_were_never_flushed() {
        let (fs, sink) = sink(1000);
        sink.record_vertex(0, &Rec { worker: 0, seq: 0 });
        sink.snapshot(1);
        // Recorded but still pending when the job fails and restores.
        sink.record_vertex(0, &Rec { worker: 0, seq: 1 });
        sink.rollback(1);
        sink.record_vertex(0, &Rec { worker: 0, seq: 2 });
        sink.flush();
        let bytes = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();
        assert_eq!(frame_kinds(&bytes), [FRAME_INDEX, FRAME_VERTEX, FRAME_INDEX, FRAME_VERTEX]);
        assert_eq!(seqs_on_disk(&*fs, 0), [0, 2]);
        assert_eq!(sink.captures(), 2);
    }

    #[test]
    fn rollback_rewinds_files_and_counters_to_snapshot() {
        let (fs, sink) = sink(1000);
        // Superstep 0 and 1 records, checkpoint boundary at superstep 2.
        for seq in 0..4 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
        }
        sink.record_master(&master(0));
        sink.count_violations(0, 1);
        sink.snapshot(2);
        // Supersteps 2..4 write more, then the "job" fails and restores.
        for seq in 4..9 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
            sink.record_vertex(1, &Rec { worker: 1, seq });
        }
        sink.record_master(&master(1));
        sink.count_violations(0, 1);
        sink.count_exception(1);
        sink.rollback(2);

        assert_eq!(sink.captures(), 4);
        assert_eq!(sink.violations(), 1);
        assert_eq!(sink.exceptions(), 0);
        sink.flush();
        assert_eq!(seqs_on_disk(&*fs, 0), [0, 1, 2, 3]);
        let w1 = fs.read_all(&worker_trace_path("/traces/job", 1)).unwrap();
        assert!(w1.is_empty());
        assert_eq!(masters_on_disk(&*fs), [master(0)]);

        // The channels remain writable after a rollback: the replayed
        // supersteps append exactly where the discarded ones began.
        for seq in 4..6 {
            assert!(sink.record_vertex(0, &Rec { worker: 0, seq }));
        }
        sink.record_master(&master(1));
        sink.flush();
        assert_eq!(seqs_on_disk(&*fs, 0), [0, 1, 2, 3, 4, 5]);
        assert_eq!(masters_on_disk(&*fs), [master(0), master(1)]);
    }

    #[test]
    fn rollback_workers_rewinds_only_the_failed_workers() {
        let (fs, sink) = sink(1000);
        for seq in 0..3 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
            sink.record_vertex(1, &Rec { worker: 1, seq });
        }
        sink.record_master(&master(0));
        sink.count_violations(1, 1);
        sink.snapshot(3);
        // Both workers (and the master) record past the boundary, then
        // worker 1 fails and is confined-rolled-back.
        for seq in 3..7 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
            sink.record_vertex(1, &Rec { worker: 1, seq });
        }
        sink.record_master(&master(1));
        sink.count_violations(0, 1);
        sink.count_violations(1, 1);
        sink.count_exception(1);
        sink.rollback_workers(3, &[1]);

        // Worker 1's file is back at the boundary; worker 0's and the
        // master's are untouched.
        sink.flush();
        assert_eq!(seqs_on_disk(&*fs, 1), [0, 1, 2]);
        assert_eq!(rows_on_disk(&*fs, 0).len(), 7);
        assert_eq!(masters_on_disk(&*fs), [master(0), master(1)]);

        // Counters: worker 1's post-snapshot share (4 captures, 1
        // violation, 1 exception) is subtracted; worker 0's stands.
        assert_eq!(sink.captures(), 10);
        assert_eq!(sink.violations(), 2);
        assert_eq!(sink.exceptions(), 0);

        // The replayed records land exactly where the discarded began,
        // and the counters converge back to the full totals.
        for seq in 3..7 {
            assert!(sink.record_vertex(1, &Rec { worker: 1, seq }));
        }
        sink.count_violations(1, 1);
        sink.count_exception(1);
        sink.flush();
        assert_eq!(seqs_on_disk(&*fs, 1), [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(sink.captures(), 14);
        assert_eq!(sink.violations(), 3);
        assert_eq!(sink.exceptions(), 1);
    }

    #[test]
    fn replayed_snapshot_supersedes_pre_failure_snapshot() {
        let (_fs, sink) = sink(1000);
        sink.record_vertex(0, &Rec { worker: 0, seq: 0 });
        sink.snapshot(2);
        sink.record_vertex(0, &Rec { worker: 0, seq: 1 });
        sink.snapshot(4);
        sink.rollback(2);
        // Replay reaches superstep 4 again with different durable state.
        sink.snapshot(4);
        sink.record_vertex(0, &Rec { worker: 0, seq: 2 });
        sink.rollback(4);
        assert_eq!(sink.captures(), 1);
    }

    #[test]
    fn rollback_without_snapshot_poisons_the_result() {
        let (fs, sink) = sink(1000);
        sink.rollback(7);
        sink.finalize(0, None);
        let bytes = fs.read_all(&result_path("/traces/job")).unwrap();
        let record: JobResultRecord = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(record.error.as_deref(), Some("no trace snapshot for restored superstep 7"));
        assert!(matches!(*sink.poisoned.lock(), Some(CaptureError::SnapshotMissing(7))));
    }

    #[test]
    fn finalize_reports_truncated_trace_files() {
        let (fs, sink) = sink(1000);
        for seq in 0..8 {
            sink.record_vertex(0, &Rec { worker: 0, seq });
        }
        sink.flush();
        // Simulate the backing store losing the file's tail.
        let path = worker_trace_path("/traces/job", 0);
        let bytes = fs.read_all(&path).unwrap();
        fs.write_all(&path, &bytes[..bytes.len() / 2]).unwrap();
        sink.finalize(3, None);
        let bytes = fs.read_all(&result_path("/traces/job")).unwrap();
        let record: JobResultRecord = serde_json::from_slice(&bytes).unwrap();
        assert!(record.error.unwrap().contains("not durable"));
    }

    #[test]
    fn concurrent_workers_do_not_interleave_within_a_file() {
        let (fs, sink) = sink(100_000);
        let sink = Arc::new(sink);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for seq in 0..500u64 {
                        sink.record_vertex(worker, &Rec { worker, seq });
                    }
                });
            }
        });
        sink.flush();
        for worker in 0..4 {
            let records = rows_on_disk(&*fs, worker);
            assert_eq!(records.len(), 500);
            // Per-worker order is preserved.
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.seq, i as u64);
            }
        }
    }

    #[test]
    fn binary_channels_index_each_superstep_transition() {
        let (fs, sink) = sink(1000);
        // Two records in superstep 0, one in superstep 1 (seq doubles as
        // the superstep for the test record).
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 0 }));
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 0 }));
        assert!(sink.record_vertex(0, &Rec { worker: 0, seq: 1 }));
        sink.flush();
        let bytes = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();
        assert_eq!(
            frame_kinds(&bytes),
            vec![FRAME_INDEX, FRAME_VERTEX, FRAME_VERTEX, FRAME_INDEX, FRAME_VERTEX]
        );
        let mut scanner = FrameScanner::new(&bytes);
        let mut indexes = Vec::new();
        while let Some(frame) = scanner.next_frame().unwrap() {
            if frame.kind == FRAME_INDEX {
                let index: IndexRecord = graft_codec::from_slice(frame.payload).unwrap();
                assert_eq!(index.bytes_before, frame.start as u64, "index frames self-locate");
                indexes.push(index);
            }
        }
        let global = GlobalData { superstep: 0, num_vertices: 0, num_edges: 0 };
        let first = IndexRecord {
            superstep: 0,
            records_before: 0,
            bytes_before: 0,
            global,
            aggregators: vec![],
        };
        assert_eq!(indexes[0], first);
        assert_eq!(indexes[1].superstep, 1);
        assert_eq!(indexes[1].records_before, 2);
    }

    #[test]
    fn binary_rollback_makes_the_replay_byte_identical() {
        let (fs, sink) = sink(1000);
        let replay = |sink: &TraceSink| {
            sink.record_vertex(0, &Rec { worker: 0, seq: 1 });
            sink.record_vertex(0, &Rec { worker: 0, seq: 2 });
            sink.record_vertex(0, &Rec { worker: 0, seq: 2 });
        };
        sink.record_vertex(0, &Rec { worker: 0, seq: 0 });
        sink.snapshot(1);
        replay(&sink);
        sink.flush();
        let original = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();

        // The restored bookkeeping must re-emit index frames exactly where
        // the discarded execution did, or recovery byte-identity breaks.
        sink.rollback(1);
        replay(&sink);
        sink.flush();
        let replayed = fs.read_all(&worker_trace_path("/traces/job", 0)).unwrap();
        assert_eq!(original, replayed);
        assert_eq!(
            frame_kinds(&original),
            vec![
                FRAME_INDEX,
                FRAME_VERTEX,
                FRAME_INDEX,
                FRAME_VERTEX,
                FRAME_INDEX,
                FRAME_VERTEX,
                FRAME_VERTEX
            ]
        );
    }
}
