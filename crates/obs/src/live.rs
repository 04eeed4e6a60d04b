//! Live observability: streaming flush of the event log plus committed
//! metrics snapshots, written *while the job runs* instead of only at
//! finalize.
//!
//! The protocol has two channels under the job's obs directory:
//!
//! * `events.jsonl` — append-only. Each flush appends only the events
//!   recorded since the previous flush; a reader tailing the file (see
//!   [`LiveLogReader`]) never sees a rewrite, only growth. A reader may
//!   catch the final line torn mid-append; it carries the fragment until
//!   the next poll completes it.
//! * `live/snapshot_<seq>.json` — one complete [`LiveSnapshot`] document
//!   per flush, with a monotonically increasing sequence number.
//!   Snapshots are committed by writing `snapshot_<seq>.json.tmp` and
//!   renaming it into place, so a reader that can see the final name can
//!   read the whole document — never a torn prefix.
//!
//! Supersteps at or below the **watermark** are complete-and-immutable:
//! their trace rows, events, and metrics will not change except by a
//! recovery replay, which rewrites them byte-identically (proven by the
//! chaos matrices). The watermark only ever advances — a restore rewinds
//! execution, not the frontier — which is what lets `graft-server`
//! safely serve completed supersteps of an in-flight job.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;

use graft_dfs::{FileSystem, FsError, FsResult, TailEvent, TailWatcher};
use serde::{Deserialize, Serialize};

use crate::events::{parse_jsonl, write_jsonl_into, Event};
use crate::registry::{MetricsSnapshot, Scope};
use crate::{join, write_metrics, Obs, EVENTS_FILE};

/// Subdirectory of the obs dir holding committed snapshots.
pub const LIVE_DIR: &str = "live";
/// Snapshot file name prefix (`snapshot_<seq>.json`).
pub const SNAPSHOT_PREFIX: &str = "snapshot_";
/// Snapshot file name suffix.
pub const SNAPSHOT_SUFFIX: &str = ".json";
/// Suffix of the staging file renamed into place on commit.
pub const TMP_SUFFIX: &str = ".tmp";

/// Point event marking a superstep complete-and-immutable; its `frontier`
/// attribute is the watermark after the advance.
pub const WATERMARK_EVENT: &str = "watermark";
/// Point event emitted when a worker's compute time exceeds the
/// configured multiple of the superstep median.
pub const STRAGGLER_EVENT: &str = "straggler.detected";
/// Counter incremented once per detected straggler.
pub const STRAGGLERS_COUNTER: &str = "live_stragglers_total";
/// Counter of bytes written by live flushes (event-log appends +
/// snapshot documents), making the live pipeline's own cost visible.
pub const FLUSH_BYTES_COUNTER: &str = "pregel_obs_flush_bytes";
/// Counter of completed live flushes.
pub const FLUSHES_COUNTER: &str = "pregel_obs_flushes_total";
/// Gauge holding the current watermark frontier.
pub const WATERMARK_GAUGE: &str = "live_watermark";

/// `status` of a [`LiveSnapshot`] while the job runs.
pub const STATUS_RUNNING: &str = "running";
/// `status` once the job finished successfully.
pub const STATUS_FINISHED: &str = "finished";
/// `status` once the job failed.
pub const STATUS_FAILED: &str = "failed";

/// Per-worker progress derived from the metrics registry.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerProgress {
    /// Worker index.
    pub worker: u64,
    /// Total `compute()` calls executed by this worker so far.
    pub compute_calls: u64,
    /// Total compute-phase nanoseconds accumulated by this worker.
    pub compute_nanos: u64,
}

/// One detected straggler occurrence.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerRecord {
    /// Superstep in which the skew was observed.
    pub superstep: u64,
    /// The slow worker.
    pub worker: u64,
    /// The worker's compute nanoseconds that superstep.
    pub nanos: u64,
    /// The median compute nanoseconds across workers that superstep.
    pub median_nanos: u64,
}

/// One committed live snapshot: everything a monitoring client needs to
/// render the job's current state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LiveSnapshot {
    /// Monotonically increasing sequence number (1-based).
    pub seq: u64,
    /// `running`, `finished`, or `failed`.
    pub status: String,
    /// The superstep in flight (`watermark + 1` while running; equals the
    /// watermark once terminal).
    pub superstep: Option<u64>,
    /// Highest complete-and-immutable superstep, if any finished yet.
    pub watermark: Option<u64>,
    /// Recoveries observed so far (full restores + confined replays).
    pub recoveries: u64,
    /// Per-worker cumulative progress.
    pub workers: Vec<WorkerProgress>,
    /// Stragglers detected so far, in detection order.
    pub stragglers: Vec<StragglerRecord>,
    /// Full metrics snapshot at flush time.
    pub metrics: MetricsSnapshot,
}

/// Streams an [`Obs`]'s event log and metrics through a [`FileSystem`]
/// incrementally. One writer per job, driven from the coordinator thread
/// at superstep boundaries.
pub struct LiveWriter {
    fs: Arc<dyn FileSystem>,
    obs: Arc<Obs>,
    dir: String,
    live_dir: String,
    events_path: String,
    seq: u64,
    events_flushed: usize,
    /// Reused serialization buffer: flushes append into it instead of
    /// allocating a fresh string per superstep.
    buf: Vec<u8>,
    watermark: Option<u64>,
    recoveries: u64,
    stragglers: Vec<StragglerRecord>,
}

impl LiveWriter {
    /// A writer flushing into `obs_dir` on `fs`.
    pub fn new(fs: Arc<dyn FileSystem>, obs: Arc<Obs>, obs_dir: &str) -> Self {
        Self {
            fs,
            obs,
            dir: obs_dir.to_string(),
            live_dir: join(obs_dir, LIVE_DIR),
            events_path: join(obs_dir, EVENTS_FILE),
            seq: 0,
            events_flushed: 0,
            buf: Vec::new(),
            watermark: None,
            recoveries: 0,
            stragglers: Vec::new(),
        }
    }

    /// The current complete-superstep frontier.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// Sequence number of the last committed snapshot (0 before the
    /// first flush).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Marks `superstep` complete-and-immutable. The frontier never
    /// regresses: a recovery replaying an already-watermarked superstep
    /// re-announces the same frontier. Emits a [`WATERMARK_EVENT`] point
    /// and updates the [`WATERMARK_GAUGE`].
    pub fn advance_watermark(&mut self, superstep: u64) {
        let frontier = match self.watermark {
            Some(w) => w.max(superstep),
            None => superstep,
        };
        self.watermark = Some(frontier);
        self.obs.registry().set_gauge(WATERMARK_GAUGE, Scope::GLOBAL, frontier as i64);
        self.obs.point(WATERMARK_EVENT, Some(superstep), None, || {
            vec![("frontier", frontier.to_string())]
        });
    }

    /// One incremental flush: appends the event-log delta, then commits
    /// `live/snapshot_<seq>.json` via write-temp-then-rename. Returns the
    /// committed sequence number.
    pub fn flush(&mut self, status: &str) -> FsResult<u64> {
        if self.seq == 0 {
            self.fs.mkdirs(&self.live_dir)?;
        }

        // Channel 1: append the new tail of the event log.
        let events = self.obs.events();
        let new = &events[self.events_flushed.min(events.len())..];
        for event in new {
            if event.is_point(STRAGGLER_EVENT) {
                let attr =
                    |k: &str| event.attrs.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                self.stragglers.push(StragglerRecord {
                    superstep: event.superstep.unwrap_or(0),
                    worker: event.worker.unwrap_or(0),
                    nanos: attr("nanos"),
                    median_nanos: attr("median_nanos"),
                });
            }
            if event.is_recovery() {
                self.recoveries += 1;
            }
        }
        self.buf.clear();
        write_jsonl_into(new, &mut self.buf);
        let reg = self.obs.registry();
        if !self.buf.is_empty() {
            let mut w = self.fs.append(&self.events_path)?;
            w.write_all(&self.buf).map_err(FsError::from)?;
            w.sync()?;
        }
        // Recorded before the metrics snapshot below so the appended
        // bytes are visible in the snapshot they paid for.
        reg.inc(FLUSH_BYTES_COUNTER, Scope::GLOBAL, self.buf.len() as u64);
        self.events_flushed = events.len();

        // Channel 2: commit the snapshot document.
        self.seq += 1;
        let metrics = self.obs.metrics();
        let snapshot = LiveSnapshot {
            seq: self.seq,
            status: status.to_string(),
            superstep: if status == STATUS_RUNNING {
                Some(self.watermark.map(|w| w + 1).unwrap_or(0))
            } else {
                self.watermark
            },
            watermark: self.watermark,
            recoveries: self.recoveries,
            workers: worker_progress(&metrics),
            stragglers: self.stragglers.clone(),
            metrics,
        };
        self.buf.clear();
        serde_json::to_vec_into(&snapshot, &mut self.buf)
            .expect("snapshot serialization is infallible");
        self.buf.push(b'\n');
        let name = format!("{SNAPSHOT_PREFIX}{}{SNAPSHOT_SUFFIX}", self.seq);
        let tmp = join(&self.live_dir, &format!("{name}{TMP_SUFFIX}"));
        self.fs.write_all(&tmp, &self.buf)?;
        self.fs.rename(&tmp, &join(&self.live_dir, &name))?;
        reg.inc(FLUSH_BYTES_COUNTER, Scope::GLOBAL, self.buf.len() as u64);
        reg.inc(FLUSHES_COUNTER, Scope::GLOBAL, 1);
        Ok(self.seq)
    }

    /// The terminal flush: commits a final snapshot with the given
    /// status and writes the `metrics.prom`/`metrics.json` artifacts.
    /// The event log needs no rewrite — it has been appended all along,
    /// so its bytes already equal a post-mortem `write_artifacts`.
    pub fn finalize(&mut self, status: &str) -> FsResult<u64> {
        let seq = self.flush(status)?;
        write_metrics(self.fs.as_ref(), &self.dir, &self.obs.metrics())?;
        Ok(seq)
    }
}

/// Folds per-worker cumulative progress out of a metrics snapshot.
pub fn worker_progress(metrics: &MetricsSnapshot) -> Vec<WorkerProgress> {
    let mut map: BTreeMap<u64, WorkerProgress> = BTreeMap::new();
    for counter in &metrics.counters {
        if counter.name == "pregel_worker_compute_calls" {
            if let Some(worker) = counter.worker {
                let slot = map
                    .entry(worker)
                    .or_insert_with(|| WorkerProgress { worker, ..Default::default() });
                slot.compute_calls += counter.value;
            }
        }
    }
    for histogram in &metrics.histograms {
        if histogram.name == "worker_compute_nanos" && histogram.superstep.is_none() {
            if let Some(worker) = histogram.worker {
                let slot = map
                    .entry(worker)
                    .or_insert_with(|| WorkerProgress { worker, ..Default::default() });
                slot.compute_nanos += histogram.data.sum;
            }
        }
    }
    map.into_values().collect()
}

/// Committed snapshot files under `obs_dir/live` as `(seq, path)`,
/// ascending by sequence. Staging `.tmp` files and foreign names are
/// ignored. An absent live directory is an empty list, not an error.
pub fn snapshot_files(fs: &dyn FileSystem, obs_dir: &str) -> FsResult<Vec<(u64, String)>> {
    let live_dir = join(obs_dir, LIVE_DIR);
    let entries = match fs.list(&live_dir) {
        Ok(entries) => entries,
        Err(FsError::NotFound(_)) => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in entries {
        if !entry.is_file() {
            continue;
        }
        let name = entry.path.rsplit('/').next().unwrap_or("");
        let Some(stem) = name.strip_prefix(SNAPSHOT_PREFIX) else { continue };
        let Some(seq) = stem.strip_suffix(SNAPSHOT_SUFFIX) else { continue };
        if let Ok(seq) = seq.parse::<u64>() {
            out.push((seq, entry.path));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// The newest committed snapshot, if any. A candidate that vanished or
/// does not parse (a commit caught mid-publish on a backend without an
/// atomic rename) is skipped in favor of the next-newest.
pub fn latest_snapshot(fs: &dyn FileSystem, obs_dir: &str) -> FsResult<Option<LiveSnapshot>> {
    let files = snapshot_files(fs, obs_dir)?;
    for (_, path) in files.iter().rev() {
        match fs.read_all(path) {
            Ok(bytes) => {
                if let Ok(snapshot) = serde_json::from_slice::<LiveSnapshot>(&bytes) {
                    return Ok(Some(snapshot));
                }
            }
            Err(FsError::NotFound(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Incremental event-log reader: tails `events.jsonl`, resumes from a
/// byte offset, tolerates a torn final line (carried until the next
/// poll completes it), and tracks the watermark frontier announced by
/// [`WATERMARK_EVENT`] records.
pub struct LiveLogReader<F: FileSystem> {
    watcher: TailWatcher<F>,
    /// A trailing partial line from the previous poll, not yet parsed.
    carry: Vec<u8>,
    watermark: Option<u64>,
}

impl<F: FileSystem> LiveLogReader<F> {
    /// Tails the event log under `obs_dir` from the beginning.
    pub fn new(fs: F, obs_dir: &str) -> Self {
        Self::with_offset(fs, obs_dir, 0)
    }

    /// Resumes tailing from `offset` — a value previously returned by
    /// [`LiveLogReader::offset`], i.e. a complete-line boundary.
    pub fn with_offset(fs: F, obs_dir: &str, offset: u64) -> Self {
        Self {
            watcher: TailWatcher::with_offset(fs, join(obs_dir, EVENTS_FILE), offset),
            carry: Vec::new(),
            watermark: None,
        }
    }

    /// Byte offset of the complete lines consumed so far. A torn final
    /// line is *not* counted: resuming from this offset re-reads it.
    pub fn offset(&self) -> u64 {
        self.watcher.offset() - self.carry.len() as u64
    }

    /// The highest watermark frontier seen in the log so far.
    pub fn watermark(&self) -> Option<u64> {
        self.watermark
    }

    /// One poll: parses every event that became complete since the last
    /// poll (possibly none).
    pub fn poll(&mut self) -> Result<Vec<Event>, String> {
        let path = self.watcher.path().to_string();
        let polled = self.watcher.poll().map_err(|e| format!("tail {path}: {e}"))?;
        let bytes = match polled {
            // An append-only log shrank: it was rewritten from scratch;
            // drop the fragment and consume the fresh contents whole.
            TailEvent::Truncated(bytes) => {
                self.carry.clear();
                bytes
            }
            TailEvent::Appended(bytes) => bytes,
            TailEvent::Absent | TailEvent::Unchanged => return Ok(Vec::new()),
        };
        self.carry.extend_from_slice(&bytes);
        let Some(cut) = self.carry.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let complete: Vec<u8> = self.carry.drain(..=cut).collect();
        let text = String::from_utf8(complete).map_err(|e| format!("event log {path}: {e}"))?;
        let events = parse_jsonl(&text)?;
        for event in &events {
            if event.is_point(WATERMARK_EVENT) {
                if let Some(f) = event.attrs.get("frontier").and_then(|v| v.parse::<u64>().ok()) {
                    self.watermark = Some(self.watermark.map_or(f, |w| w.max(f)));
                }
            }
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_dfs::InMemoryFs;

    fn writer(fs: &InMemoryFs) -> (Arc<Obs>, LiveWriter) {
        let obs = Obs::deterministic(100);
        let writer = LiveWriter::new(Arc::new(fs.clone()), Arc::clone(&obs), "/obs");
        (obs, writer)
    }

    #[test]
    fn flush_appends_events_and_commits_snapshots() {
        let fs = InMemoryFs::new();
        let (obs, mut live) = writer(&fs);
        obs.span("superstep", Some(0), None).end(Vec::new);
        live.advance_watermark(0);
        assert_eq!(live.flush(STATUS_RUNNING).unwrap(), 1);
        let after_first = fs.read_all("/obs/events.jsonl").unwrap();
        assert_eq!(after_first.iter().filter(|&&b| b == b'\n').count(), 3);

        obs.span("superstep", Some(1), None).end(Vec::new);
        live.advance_watermark(1);
        assert_eq!(live.flush(STATUS_RUNNING).unwrap(), 2);
        // The first flush's bytes are a strict prefix: append-only.
        let after_second = fs.read_all("/obs/events.jsonl").unwrap();
        assert!(after_second.starts_with(&after_first));
        assert_eq!(String::from_utf8(after_second).unwrap(), crate::to_jsonl(&obs.events()));

        let snap = latest_snapshot(&fs, "/obs").unwrap().expect("snapshot committed");
        assert_eq!(snap.seq, 2);
        assert_eq!(snap.watermark, Some(1));
        assert_eq!(snap.superstep, Some(2));
        assert_eq!(snap.status, STATUS_RUNNING);
        // No staging file survives a commit.
        assert!(fs.list("/obs/live").unwrap().iter().all(|e| !e.path.ends_with(TMP_SUFFIX)));
        // The flush cost is accounted.
        assert!(obs.registry().counter_value(FLUSH_BYTES_COUNTER, Scope::GLOBAL) > 0);
        assert_eq!(obs.registry().counter_value(FLUSHES_COUNTER, Scope::GLOBAL), 2);
    }

    #[test]
    fn finalize_writes_metrics_artifacts_and_terminal_snapshot() {
        let fs = InMemoryFs::new();
        let (obs, mut live) = writer(&fs);
        obs.registry().inc("pregel_messages_sent", Scope::superstep(0), 3);
        live.advance_watermark(0);
        live.flush(STATUS_RUNNING).unwrap();
        live.finalize(STATUS_FINISHED).unwrap();
        let snap = latest_snapshot(&fs, "/obs").unwrap().unwrap();
        assert_eq!(snap.status, STATUS_FINISHED);
        assert_eq!(snap.superstep, Some(0));
        assert!(fs.exists("/obs/metrics.prom"));
        assert!(fs.exists("/obs/metrics.json"));
    }

    #[test]
    fn watermark_never_regresses() {
        let fs = InMemoryFs::new();
        let (_obs, mut live) = writer(&fs);
        live.advance_watermark(3);
        live.advance_watermark(1); // a recovery replays superstep 1
        assert_eq!(live.watermark(), Some(3));
    }

    #[test]
    fn latest_snapshot_skips_staging_and_garbage() {
        let fs = InMemoryFs::new();
        fs.write_all("/obs/live/snapshot_2.json.tmp", b"{torn").unwrap();
        fs.write_all("/obs/live/snapshot_9.json", b"not json").unwrap();
        assert!(latest_snapshot(&fs, "/obs").unwrap().is_none());
        let good = LiveSnapshot { seq: 1, status: STATUS_RUNNING.into(), ..Default::default() };
        fs.write_all("/obs/live/snapshot_1.json", serde_json::to_string(&good).unwrap().as_bytes())
            .unwrap();
        assert_eq!(latest_snapshot(&fs, "/obs").unwrap(), Some(good));
    }

    #[test]
    fn log_reader_carries_torn_lines_and_tracks_watermark() {
        let fs = InMemoryFs::new();
        let (obs, mut live) = writer(&fs);
        let mut reader = LiveLogReader::new(fs.clone(), "/obs");
        assert!(reader.poll().unwrap().is_empty());

        obs.point("job.start", None, None, Vec::new);
        live.advance_watermark(0);
        live.flush(STATUS_RUNNING).unwrap();
        let events = reader.poll().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(reader.watermark(), Some(0));

        // Tear the log mid-line: the fragment is carried, not parsed.
        let full_offset = reader.offset();
        let mut w = fs.append("/obs/events.jsonl").unwrap();
        w.write_all(b"{\"ts\":9,\"kind\":\"half").unwrap();
        w.sync().unwrap();
        assert!(reader.poll().unwrap().is_empty());
        assert_eq!(reader.offset(), full_offset, "torn bytes are not consumed");
        let rest =
            "\",\"edge\":\"P\",\"superstep\":null,\"worker\":null,\"dur\":null,\"attrs\":{}}\n";
        w.write_all(rest.as_bytes()).unwrap();
        w.sync().unwrap();
        let events = reader.poll().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "half");

        // A fresh reader resuming from the committed offset re-reads
        // nothing it should not.
        let mut resumed = LiveLogReader::with_offset(fs.clone(), "/obs", full_offset);
        let events = resumed.poll().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "half");
    }

    #[test]
    fn worker_progress_folds_calls_and_nanos() {
        let obs = Obs::deterministic(10);
        let reg = obs.registry();
        reg.inc("pregel_worker_compute_calls", Scope::at(0, 0), 5);
        reg.inc("pregel_worker_compute_calls", Scope::at(0, 1), 7);
        reg.inc("pregel_worker_compute_calls", Scope::at(1, 0), 2);
        reg.observe_time("worker_compute_nanos", Scope::worker(0), 100);
        reg.observe_time("worker_compute_nanos", Scope::worker(0), 50);
        reg.observe_time("worker_compute_nanos", Scope::worker(1), 30);
        let progress = worker_progress(&obs.metrics());
        assert_eq!(
            progress,
            vec![
                WorkerProgress { worker: 0, compute_calls: 12, compute_nanos: 150 },
                WorkerProgress { worker: 1, compute_calls: 2, compute_nanos: 30 },
            ]
        );
    }
}
