//! Sender-side message logging for confined (log-based) recovery.
//!
//! With [`crate::RecoveryMode::LogReplay`], every worker appends its
//! outgoing shuffle — the *already-combined* batches, exactly as they
//! cross to the staging slots — to a per-worker log file before shipping
//! them, and the coordinator appends one frame per superstep recording
//! what replayed `compute()` calls need to observe (the global data and
//! the post-master aggregator snapshot). On a worker failure, only the
//! failed partitions restore from the last checkpoint and replay
//! forward; survivors re-serve their logged batches instead of
//! recomputing (Yan/Cheng/Yang's confined recovery).
//!
//! Layout under the checkpoint root (so chaos byte-identity comparisons,
//! which exclude the checkpoint directory, exclude the logs too):
//!
//! ```text
//! <ckpt_root>/msglog/w<worker>/seg_<cp>.log   worker frames, one per superstep
//! <ckpt_root>/msglog/coord/seg_<cp>.log       coordinator frames, one per superstep
//! ```
//!
//! Segments follow checkpoints: at every checkpoint commit the log rolls
//! to a segment named after the checkpointed superstep, and segments
//! older than the oldest *retained* checkpoint are deleted — the same
//! keep-`k` discipline as [`crate::CheckpointConfig::keep`], which is
//! what keeps log bytes on disk bounded over a long run. Every worker
//! writes a frame every superstep, *including empty ones*: a missing
//! frame is indistinguishable from a torn log, and confined recovery
//! falls back to a full restart rather than replay from an unprovable
//! log.
//!
//! Frames are length-prefixed GraftBin values ([`graft_codec`]), written
//! through [`FileSystem::append`] one frame per call (open, write, sync,
//! drop), so the log survives the writer's crash at any frame boundary.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graft_dfs::{FileSystem, FsError};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::aggregators::AggValue;
use crate::checkpoint::CheckpointError;

/// One shuffle batch as logged: the exact content of the outbox that
/// crossed (or would have crossed) to one target partition.
#[derive(Serialize, Deserialize, Debug, PartialEq)]
pub(crate) enum LoggedBatch<I, M> {
    /// Raw `(target, message)` pairs in send order.
    Raw(Vec<(I, M)>),
    /// Sender-combined entries: target, folded message, raw count. The
    /// entry order is the combining map's iteration order and carries no
    /// meaning — delivery folds per target independently, and the
    /// per-target cross-worker merge order is the source-worker order of
    /// the frames, not the order within one frame.
    Combined(Vec<(I, M, u64)>),
}

/// One worker's complete outgoing shuffle for one superstep. `B` is
/// [`LoggedBatch`] when read back, and the engine's borrowing twin of it
/// when written: the live outboxes are serialized where they lie.
#[derive(Serialize, Deserialize)]
pub(crate) struct WorkerFrame<B> {
    pub(crate) superstep: u64,
    /// `(target partition, batch)` for every non-empty outbox, in target
    /// order.
    pub(crate) batches: Vec<(usize, B)>,
}

/// The coordinator's per-superstep frame: everything a replayed
/// `compute()` observes besides its partition state and inbox.
#[derive(Serialize, Deserialize, Clone)]
pub(crate) struct CoordFrame {
    pub(crate) superstep: u64,
    /// Graph totals at the start of the superstep (the `GlobalData` the
    /// original compute calls saw).
    pub(crate) num_vertices: u64,
    pub(crate) num_edges: u64,
    /// The post-master, pre-merge aggregator snapshot — the values
    /// visible to `compute()` in this superstep.
    pub(crate) aggregators: Vec<(String, AggValue)>,
    /// Topology mutations applied at the end of this superstep. Confined
    /// recovery requires this to be 0 for every replayed superstep:
    /// mutations can touch any partition, and the log does not carry
    /// enough to re-apply them confined to the failed ones.
    pub(crate) mutations_applied: u64,
}

/// The per-job message log handle shared by the coordinator and the
/// worker threads. Appends go to the current segment (advanced by
/// [`MsgLog::roll`] at checkpoint commits); reads name their segment
/// explicitly.
pub(crate) struct MsgLog {
    fs: Arc<dyn FileSystem>,
    root: String,
    segment: AtomicU64,
}

impl MsgLog {
    /// Creates the log under `root`, clearing any stale segments a
    /// previous run left there (a stale frame would poison the replay
    /// completeness checks).
    pub(crate) fn new(fs: Arc<dyn FileSystem>, root: String) -> Self {
        if fs.exists(&root) {
            let _ = fs.delete(&root, true);
        }
        Self { fs, root, segment: AtomicU64::new(0) }
    }

    /// The segment appends currently go to.
    pub(crate) fn segment(&self) -> u64 {
        self.segment.load(Ordering::Acquire)
    }

    /// Frame bytes currently on disk across all segments.
    pub(crate) fn disk_bytes(&self) -> u64 {
        self.fs
            .list_files_recursive(&self.root)
            .map(|files| files.iter().map(|f| f.len).sum())
            .unwrap_or(0)
    }

    fn worker_path(&self, worker: usize, segment: u64) -> String {
        format!("{}/w{worker}/seg_{segment}.log", self.root)
    }

    fn coord_path(&self, segment: u64) -> String {
        format!("{}/coord/seg_{segment}.log", self.root)
    }

    /// Appends one worker frame to the current segment; returns its
    /// encoded size in bytes.
    pub(crate) fn append_worker_frame<B: Serialize>(
        &self,
        worker: usize,
        frame: &WorkerFrame<B>,
    ) -> Result<u64, CheckpointError> {
        let path = self.worker_path(worker, self.segment());
        self.append_frame(&path, frame)
    }

    /// Appends one coordinator frame to the current segment; returns its
    /// encoded size in bytes.
    pub(crate) fn append_coord_frame(&self, frame: &CoordFrame) -> Result<u64, CheckpointError> {
        let path = self.coord_path(self.segment());
        self.append_frame(&path, frame)
    }

    fn append_frame<T: Serialize>(&self, path: &str, frame: &T) -> Result<u64, CheckpointError> {
        let mut bytes = Vec::new();
        graft_codec::write_framed(&mut bytes, frame)
            .map_err(|e| CheckpointError::new(format!("encoding frame for {path}"), e))?;
        let mut w = self
            .fs
            .append(path)
            .map_err(|e| CheckpointError::new(format!("appending to {path}"), e))?;
        w.write_all(&bytes).map_err(|e| CheckpointError::new(format!("writing {path}"), e))?;
        w.sync().map_err(|e| CheckpointError::new(format!("syncing {path}"), e))?;
        Ok(bytes.len() as u64)
    }

    /// Reads every frame of `worker`'s log for `segment`, in append
    /// order. A missing file reads as empty (the completeness check on
    /// the caller's side decides what that means).
    pub(crate) fn read_worker_frames<I: DeserializeOwned, M: DeserializeOwned>(
        &self,
        worker: usize,
        segment: u64,
    ) -> Result<Vec<WorkerFrame<LoggedBatch<I, M>>>, CheckpointError> {
        self.read_frames(&self.worker_path(worker, segment))
    }

    /// Reads every coordinator frame for `segment`, in append order.
    pub(crate) fn read_coord_frames(
        &self,
        segment: u64,
    ) -> Result<Vec<CoordFrame>, CheckpointError> {
        self.read_frames(&self.coord_path(segment))
    }

    fn read_frames<T: DeserializeOwned>(&self, path: &str) -> Result<Vec<T>, CheckpointError> {
        let bytes = match self.fs.read_all(path) {
            Ok(bytes) => bytes,
            Err(FsError::NotFound(_)) => return Ok(Vec::new()),
            Err(e) => return Err(CheckpointError::new(format!("reading {path}"), e)),
        };
        graft_codec::FramedIter::<T>::new(&bytes)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| CheckpointError::new(format!("decoding {path}"), e))
    }

    /// Rolls appends over to `new_segment` (named after the checkpoint
    /// just committed) and truncates segments older than the oldest
    /// retained checkpoint. Best-effort, like checkpoint pruning:
    /// truncation failures never fail the job.
    pub(crate) fn roll(&self, new_segment: u64, retain_oldest: u64) {
        self.segment.store(new_segment, Ordering::Release);
        let _ = self.delete_segments(|seg| seg < retain_oldest);
    }

    /// Full-restart rewind to the checkpoint at `segment`: every frame
    /// from that checkpoint on is dropped (the replay re-appends
    /// identical ones) and appends point at the segment again. Errors are
    /// fatal — a leftover stale frame would shadow the replayed run's
    /// frames in a later confined recovery.
    pub(crate) fn reset_to(&self, segment: u64) -> Result<(), CheckpointError> {
        self.segment.store(segment, Ordering::Release);
        self.delete_segments(|seg| seg >= segment)
    }

    fn delete_segments(&self, drop: impl Fn(u64) -> bool) -> Result<(), CheckpointError> {
        let dirs = match self.fs.list(&self.root) {
            Ok(entries) => entries,
            Err(FsError::NotFound(_)) => return Ok(()),
            Err(e) => return Err(CheckpointError::new(format!("listing {}", self.root), e)),
        };
        for dir in dirs {
            let Ok(files) = self.fs.list(&dir.path) else { continue };
            for file in files {
                let Some(name) = file.path.rsplit('/').next() else { continue };
                let Some(seg) = name
                    .strip_prefix("seg_")
                    .and_then(|rest| rest.strip_suffix(".log"))
                    .and_then(|n| n.parse::<u64>().ok())
                else {
                    continue;
                };
                if drop(seg) {
                    self.fs.delete(&file.path, false).map_err(|e| {
                        CheckpointError::new(format!("truncating {}", file.path), e)
                    })?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_dfs::InMemoryFs;

    fn log() -> MsgLog {
        MsgLog::new(Arc::new(InMemoryFs::new()), "/ckpt/msglog".to_string())
    }

    type Frame = WorkerFrame<LoggedBatch<u64, f64>>;

    fn worker_frame(superstep: u64) -> Frame {
        WorkerFrame {
            superstep,
            batches: vec![
                (0, LoggedBatch::Raw(vec![(1, 0.5), (3, 0.25)])),
                (2, LoggedBatch::Combined(vec![(4, 1.5, 3)])),
            ],
        }
    }

    #[test]
    fn worker_frames_roundtrip_in_append_order() {
        let log = log();
        log.append_worker_frame(1, &worker_frame(0)).unwrap();
        log.append_worker_frame(1, &worker_frame(1)).unwrap();
        let frames: Vec<Frame> = log.read_worker_frames(1, 0).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].superstep, 0);
        assert_eq!(frames[1].superstep, 1);
        assert_eq!(frames[0].batches, worker_frame(0).batches);
        // Another worker's log is separate and reads empty when absent.
        let other: Vec<Frame> = log.read_worker_frames(2, 0).unwrap();
        assert!(other.is_empty());
    }

    #[test]
    fn coord_frames_roundtrip() {
        let log = log();
        let frame = CoordFrame {
            superstep: 3,
            num_vertices: 10,
            num_edges: 20,
            aggregators: vec![("mass".into(), AggValue::Double(1.0))],
            mutations_applied: 0,
        };
        log.append_coord_frame(&frame).unwrap();
        let frames = log.read_coord_frames(0).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].superstep, 3);
        assert_eq!(frames[0].aggregators, frame.aggregators);
    }

    #[test]
    fn roll_truncates_below_oldest_retained() {
        let log = log();
        log.append_worker_frame(0, &worker_frame(0)).unwrap();
        log.roll(2, 0);
        log.append_worker_frame(0, &worker_frame(2)).unwrap();
        log.append_coord_frame(&CoordFrame {
            superstep: 2,
            num_vertices: 1,
            num_edges: 0,
            aggregators: vec![],
            mutations_applied: 0,
        })
        .unwrap();
        log.roll(4, 2);
        assert_eq!(log.segment(), 4);
        // Segment 0 fell off the retention window; segment 2 remains.
        let gone: Vec<Frame> = log.read_worker_frames(0, 0).unwrap();
        assert!(gone.is_empty());
        let kept: Vec<Frame> = log.read_worker_frames(0, 2).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(log.read_coord_frames(2).unwrap().len(), 1);
    }

    #[test]
    fn reset_drops_current_and_later_segments() {
        let log = log();
        log.append_worker_frame(0, &worker_frame(0)).unwrap();
        log.roll(2, 0);
        log.append_worker_frame(0, &worker_frame(2)).unwrap();
        log.reset_to(2).unwrap();
        assert_eq!(log.segment(), 2);
        // Segment 2 was dropped (the restart replays it); segment 0 kept.
        let dropped: Vec<Frame> = log.read_worker_frames(0, 2).unwrap();
        assert!(dropped.is_empty());
        let kept: Vec<Frame> = log.read_worker_frames(0, 0).unwrap();
        assert_eq!(kept.len(), 1);
        // Re-appending after the reset recreates the segment file.
        log.append_worker_frame(0, &worker_frame(2)).unwrap();
        let again: Vec<Frame> = log.read_worker_frames(0, 2).unwrap();
        assert_eq!(again.len(), 1);
    }

    #[test]
    fn byte_accounting_tracks_appends_and_truncation() {
        let log = log();
        let first = log.append_worker_frame(0, &worker_frame(0)).unwrap();
        assert!(first > 0);
        assert_eq!(log.disk_bytes(), first);
        let second = log.append_worker_frame(0, &worker_frame(1)).unwrap();
        assert_eq!(log.disk_bytes(), first + second);
        // Truncation shrinks the bytes on disk.
        log.roll(2, 2);
        assert_eq!(log.disk_bytes(), 0);
    }

    #[test]
    fn stale_root_is_cleared_on_creation() {
        let fs: Arc<InMemoryFs> = Arc::new(InMemoryFs::new());
        fs.write_all("/ckpt/msglog/w0/seg_0.log", b"stale").unwrap();
        let log = MsgLog::new(fs.clone(), "/ckpt/msglog".to_string());
        assert_eq!(log.disk_bytes(), 0);
        assert!(!fs.exists("/ckpt/msglog/w0/seg_0.log"));
    }
}
