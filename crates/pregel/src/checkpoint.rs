//! Superstep checkpointing to the simulated DFS.
//!
//! Every k supersteps (including superstep 0, so a committed checkpoint
//! exists before any fault can fire) the engine snapshots the complete
//! job state — per-vertex values, adjacency, halted flags, pending
//! (already-delivered) messages, and the aggregator values — to the
//! configured file system. A partition is written as its columns: the
//! framed topology part, then the framed state part (`partition.rs`).
//!
//! Layout under [`CheckpointConfig::root`]:
//!
//! ```text
//! <root>/cp_<s>/part_<p>.ckpt  partition p's topology + state parts
//! <root>/cp_<s>/manifest.bin   superstep, partition count, aggregators
//! <root>/cp_<s>/COMMIT         written last; its presence marks the
//!                              checkpoint complete and loadable
//! ```
//!
//! The `COMMIT` marker makes the checkpoint atomic: a crash mid-write
//! leaves an uncommitted directory that recovery skips. Restore walks
//! committed checkpoints newest-first and loads the first one that reads
//! back fully, so a checkpoint stranded on dead datanodes falls back to
//! the previous one.
//!
//! Determinism note: columns are written in slot order, tombstones
//! dropped, and restored in file order, which preserves the compute
//! order, the message staging order, and therefore the combiner fold
//! order. That is what makes replayed runs byte-identical to failure-free
//! runs even for non-associative-in-floating-point folds like PageRank's
//! rank sum.

use std::fmt;
use std::sync::Arc;

use graft_dfs::FileSystem;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::aggregators::AggValue;
use crate::computation::Computation;
use crate::partition::Partition;

/// How the engine recovers from a recoverable worker fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryMode {
    /// Roll every partition back to the last committed checkpoint and
    /// recompute all supersteps from there (PR 2 behavior).
    #[default]
    Restart,
    /// Sender-side message logging plus confined recovery: only the
    /// failed partitions restore from the checkpoint and replay forward,
    /// fed by the survivors' logged outgoing batches, while survivors
    /// stay parked at the current superstep. Falls back to [`RecoveryMode::Restart`]
    /// whenever the logs cannot prove an identical replay.
    LogReplay,
}

impl RecoveryMode {
    /// The CLI / config-facts spelling of this mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryMode::Restart => "restart",
            RecoveryMode::LogReplay => "log-replay",
        }
    }
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RecoveryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "restart" => Ok(RecoveryMode::Restart),
            "log-replay" | "logreplay" => Ok(RecoveryMode::LogReplay),
            other => Err(format!("unknown recovery mode {other:?} (expected restart|log-replay)")),
        }
    }
}

/// Where and how often the engine checkpoints.
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Checkpoint before every superstep `s` with `s % every == 0`.
    /// `0` disables checkpointing (and draws analyzer lint GA0011 when it
    /// reaches a trace's config facts).
    pub every: u64,
    /// Directory on the checkpoint file system that holds `cp_<s>/`
    /// subdirectories.
    pub root: String,
    /// How many committed checkpoints to retain; older ones are pruned
    /// after each successful write. Minimum 1.
    pub keep: usize,
    /// How many restore-and-replay attempts the engine makes before
    /// giving up and surfacing the original error.
    pub max_recoveries: u64,
    /// What a recoverable fault rolls back: everything ([`RecoveryMode::Restart`])
    /// or only the failed partitions ([`RecoveryMode::LogReplay`]).
    pub recovery: RecoveryMode,
}

impl CheckpointConfig {
    /// Checkpoints every `every` supersteps under `root`, keeping the two
    /// most recent checkpoints and allowing up to 8 recoveries.
    pub fn new(every: u64, root: impl Into<String>) -> Self {
        Self {
            every,
            root: root.into(),
            keep: 2,
            max_recoveries: 8,
            recovery: RecoveryMode::default(),
        }
    }

    /// Overrides the number of retained checkpoints.
    pub fn keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// Overrides the recovery attempt limit.
    pub fn max_recoveries(mut self, n: u64) -> Self {
        self.max_recoveries = n;
        self
    }

    /// Overrides the recovery mode.
    pub fn recovery_mode(mut self, mode: RecoveryMode) -> Self {
        self.recovery = mode;
        self
    }

    /// Directory on the checkpoint file system that holds the per-worker
    /// message-log segments used by [`RecoveryMode::LogReplay`].
    pub(crate) fn msglog_root(&self) -> String {
        format!("{}/msglog", self.root.trim_end_matches('/'))
    }

    /// Whether a checkpoint is due at the top of `superstep`.
    pub(crate) fn due_at(&self, superstep: u64) -> bool {
        self.every > 0 && superstep.is_multiple_of(self.every)
    }

    fn dir(&self, superstep: u64) -> String {
        format!("{}/cp_{superstep}", self.root.trim_end_matches('/'))
    }
}

impl fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointConfig")
            .field("every", &self.every)
            .field("root", &self.root)
            .field("keep", &self.keep)
            .field("max_recoveries", &self.max_recoveries)
            .field("recovery", &self.recovery)
            .finish()
    }
}

/// A checkpoint read or write failure.
#[derive(Debug)]
pub struct CheckpointError {
    /// What the engine was doing.
    pub context: String,
    /// The underlying failure, rendered.
    pub cause: String,
}

impl CheckpointError {
    pub(crate) fn new(context: impl Into<String>, cause: impl fmt::Display) -> Self {
        Self { context: context.into(), cause: cause.to_string() }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.cause)
    }
}

impl std::error::Error for CheckpointError {}

/// Partition `p`'s checkpoint file: its topology part, then its state
/// part. A spilled partition's two segment files concatenate to exactly
/// these bytes.
pub(crate) fn encode_partition<C: Computation>(
    partition: &mut Partition<C>,
    p: usize,
) -> Result<Vec<u8>, CheckpointError> {
    let mut encode = || -> Result<Vec<u8>, graft_codec::Error> {
        let mut bytes = partition.encode_topology()?;
        partition.encode_state(&mut bytes)?;
        Ok(bytes)
    };
    encode().map_err(|e| CheckpointError::new(format!("encoding partition {p}"), e))
}

/// Checkpoint-wide metadata, written after all partition files.
#[derive(Serialize, Deserialize)]
struct Manifest {
    superstep: u64,
    num_partitions: usize,
    aggregators: Vec<(String, AggValue)>,
}

/// A fully loaded checkpoint, ready to resume from.
pub(crate) struct RestoredState<C: Computation> {
    pub(crate) superstep: u64,
    pub(crate) partitions: Vec<Partition<C>>,
    pub(crate) aggregators: Vec<(String, AggValue)>,
}

/// Writes partition `p`'s file — `bytes`, the output of
/// [`encode_partition`] — into a checkpoint directory, in one write.
/// Taking bytes rather than a partition is what lets the out-of-core
/// engine checkpoint a spilled partition from the parts already on disk.
pub(crate) fn write_checkpoint_partition(
    fs: &Arc<dyn FileSystem>,
    dir: &str,
    p: usize,
    bytes: &[u8],
) -> Result<u64, CheckpointError> {
    let path = format!("{dir}/part_{p}.ckpt");
    fs.write_all(&path, bytes).map_err(|e| CheckpointError::new(format!("writing {path}"), e))?;
    Ok(bytes.len() as u64)
}

/// Encodes and writes every partition's file from memory; returns the
/// bytes written. The engine's `write_partitions` when no budget is set.
pub(crate) fn write_resident_partitions<C: Computation>(
    fs: &Arc<dyn FileSystem>,
    dir: &str,
    partitions: impl Iterator<Item = impl std::ops::DerefMut<Target = Partition<C>>>,
) -> Result<u64, CheckpointError> {
    let mut bytes_written = 0u64;
    for (p, mut partition) in partitions.enumerate() {
        let bytes = encode_partition(&mut partition, p)?;
        bytes_written += write_checkpoint_partition(fs, dir, p, &bytes)?;
    }
    Ok(bytes_written)
}

/// Writes a committed checkpoint for `superstep` and prunes old ones.
/// `write_partitions` is handed the fresh checkpoint directory and
/// writes the partition files into it, however the partitions are held.
/// Returns the number of payload bytes written (partition frames,
/// manifest, and commit marker).
pub(crate) fn write_checkpoint(
    fs: &Arc<dyn FileSystem>,
    config: &CheckpointConfig,
    superstep: u64,
    num_partitions: usize,
    aggregators: Vec<(String, AggValue)>,
    write_partitions: impl FnOnce(&str) -> Result<u64, CheckpointError>,
) -> Result<u64, CheckpointError> {
    let dir = config.dir(superstep);
    // A leftover directory from a crashed earlier attempt (or from the run
    // this one recovered from) is stale; rewrite it from scratch.
    if fs.exists(&dir) {
        fs.delete(&dir, true)
            .map_err(|e| CheckpointError::new(format!("clearing stale checkpoint {dir}"), e))?;
    }
    fs.mkdirs(&dir)
        .map_err(|e| CheckpointError::new(format!("creating checkpoint dir {dir}"), e))?;
    let mut bytes_written = write_partitions(&dir)?;

    let manifest = Manifest { superstep, num_partitions, aggregators };
    let bytes =
        graft_codec::to_vec(&manifest).map_err(|e| CheckpointError::new("encoding manifest", e))?;
    bytes_written += bytes.len() as u64;
    fs.write_all(&format!("{dir}/manifest.bin"), &bytes)
        .map_err(|e| CheckpointError::new(format!("writing {dir}/manifest.bin"), e))?;

    // Written last, so its presence certifies every file before it.
    let marker = superstep.to_string();
    bytes_written += marker.len() as u64;
    fs.write_all(&format!("{dir}/COMMIT"), marker.as_bytes())
        .map_err(|e| CheckpointError::new(format!("committing {dir}"), e))?;

    prune(fs, config);
    Ok(bytes_written)
}

/// Restores the newest committed checkpoint that loads fully, or `None`
/// when no committed checkpoint exists.
pub(crate) fn restore_latest<C: Computation>(
    fs: &Arc<dyn FileSystem>,
    config: &CheckpointConfig,
) -> Result<Option<RestoredState<C>>, CheckpointError> {
    let mut candidates = committed_supersteps(fs, config);
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    let mut last_err = None;
    for superstep in candidates {
        match load_checkpoint::<C>(fs, &config.dir(superstep)) {
            Ok(state) => return Ok(Some(state)),
            // A committed checkpoint can still be unreadable when all
            // replicas of one of its blocks are down; fall back to the
            // next older one.
            Err(e) => last_err = Some(e),
        }
    }
    match last_err {
        Some(e) => Err(e),
        None => Ok(None),
    }
}

fn load_checkpoint<C: Computation>(
    fs: &Arc<dyn FileSystem>,
    dir: &str,
) -> Result<RestoredState<C>, CheckpointError> {
    let manifest = load_manifest(fs, dir)?;
    let mut partitions = Vec::with_capacity(manifest.num_partitions);
    for p in 0..manifest.num_partitions {
        partitions.push(load_partition::<C>(fs, dir, p)?);
    }
    Ok(RestoredState {
        superstep: manifest.superstep,
        partitions,
        aggregators: manifest.aggregators,
    })
}

fn load_manifest(fs: &Arc<dyn FileSystem>, dir: &str) -> Result<Manifest, CheckpointError> {
    let manifest_bytes = fs
        .read_all(&format!("{dir}/manifest.bin"))
        .map_err(|e| CheckpointError::new(format!("reading {dir}/manifest.bin"), e))?;
    decode_one(&manifest_bytes)
        .map_err(|e| CheckpointError::new(format!("decoding {dir}/manifest.bin"), e))
}

fn load_partition<C: Computation>(
    fs: &Arc<dyn FileSystem>,
    dir: &str,
    p: usize,
) -> Result<Partition<C>, CheckpointError> {
    let path = format!("{dir}/part_{p}.ckpt");
    let bytes =
        fs.read_all(&path).map_err(|e| CheckpointError::new(format!("reading {path}"), e))?;
    Partition::decode_file(&bytes).map_err(|e| CheckpointError::new(format!("decoding {path}"), e))
}

/// The named partitions plus the manifest's aggregator snapshot, as
/// loaded by [`restore_partitions`].
pub(crate) type RestoredPartitions<C> = (Vec<(usize, Partition<C>)>, Vec<(String, AggValue)>);

/// Loads only the named partitions (plus the manifest's aggregator
/// snapshot) from the committed checkpoint at `superstep`. Used by
/// confined recovery, which leaves the surviving partitions in place.
pub(crate) fn restore_partitions<C: Computation>(
    fs: &Arc<dyn FileSystem>,
    config: &CheckpointConfig,
    superstep: u64,
    parts: &[usize],
) -> Result<RestoredPartitions<C>, CheckpointError> {
    let dir = config.dir(superstep);
    if !fs.exists(&format!("{dir}/COMMIT")) {
        return Err(CheckpointError::new(
            format!("restoring partitions from {dir}"),
            "checkpoint is not committed",
        ));
    }
    let manifest = load_manifest(fs, &dir)?;
    let mut out = Vec::with_capacity(parts.len());
    for &p in parts {
        out.push((p, load_partition::<C>(fs, &dir, p)?));
    }
    Ok((out, manifest.aggregators))
}

fn decode_one<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, graft_codec::Error> {
    graft_codec::from_slice(bytes)
}

/// Supersteps with a committed checkpoint directory, unordered.
pub(crate) fn committed_supersteps(
    fs: &Arc<dyn FileSystem>,
    config: &CheckpointConfig,
) -> Vec<u64> {
    let root = config.root.trim_end_matches('/');
    let Ok(entries) = fs.list(root) else { return Vec::new() };
    entries
        .iter()
        .filter_map(|entry| {
            let name = entry.path.rsplit('/').next()?;
            let superstep: u64 = name.strip_prefix("cp_")?.parse().ok()?;
            fs.exists(&format!("{}/COMMIT", entry.path)).then_some(superstep)
        })
        .collect()
}

/// Deletes committed checkpoints beyond the `keep` newest. Best-effort:
/// pruning failures never fail the job.
fn prune(fs: &Arc<dyn FileSystem>, config: &CheckpointConfig) {
    let mut committed = committed_supersteps(fs, config);
    committed.sort_unstable_by(|a, b| b.cmp(a));
    for &superstep in committed.iter().skip(config.keep.max(1)) {
        let _ = fs.delete(&config.dir(superstep), true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::tests::{sample_partitions, Noop};
    use crate::types::Edge;
    use graft_dfs::InMemoryFs;

    fn fs() -> Arc<dyn FileSystem> {
        Arc::new(InMemoryFs::new())
    }

    fn write_checkpoint(
        fs: &Arc<dyn FileSystem>,
        config: &CheckpointConfig,
        superstep: u64,
        partitions: &mut [Partition<Noop>],
        aggregators: Vec<(String, AggValue)>,
    ) -> Result<u64, CheckpointError> {
        super::write_checkpoint(fs, config, superstep, partitions.len(), aggregators, |dir| {
            write_resident_partitions(fs, dir, partitions.iter_mut())
        })
    }

    #[test]
    fn roundtrip_preserves_state_and_order() {
        let fs = fs();
        let config = CheckpointConfig::new(2, "/ckpt");
        let aggs = vec![("sum".to_string(), AggValue::Long(42))];
        let mut partitions = sample_partitions();
        write_checkpoint(&fs, &config, 4, &mut partitions, aggs.clone()).unwrap();

        let restored = restore_latest::<Noop>(&fs, &config).unwrap().unwrap();
        assert_eq!(restored.superstep, 4);
        assert_eq!(restored.aggregators, aggs);
        assert_eq!(restored.partitions.len(), 2);
        assert_eq!(
            restored.partitions[0].dump(),
            vec![(1, 10, vec![Edge::new(2, ())], false, vec![7, 8]), (3, 30, vec![], true, vec![])]
        );
        let ids = |p: &Partition<Noop>| p.dump().into_iter().map(|v| v.0).collect::<Vec<_>>();
        assert_eq!(ids(&restored.partitions[1]), vec![2, 4, 8]);
    }

    #[test]
    fn restore_picks_newest_committed() {
        let fs = fs();
        let config = CheckpointConfig::new(2, "/ckpt").keep(10);
        let mut partitions = sample_partitions();
        write_checkpoint(&fs, &config, 0, &mut partitions, vec![]).unwrap();
        write_checkpoint(&fs, &config, 2, &mut partitions, vec![]).unwrap();
        // A later, uncommitted (crashed mid-write) checkpoint is ignored.
        fs.write_all("/ckpt/cp_4/part_0.ckpt", b"torn").unwrap();
        let restored = restore_latest::<Noop>(&fs, &config).unwrap().unwrap();
        assert_eq!(restored.superstep, 2);
    }

    #[test]
    fn no_checkpoint_restores_none() {
        let fs = fs();
        let config = CheckpointConfig::new(2, "/ckpt");
        assert!(restore_latest::<Noop>(&fs, &config).unwrap().is_none());
    }

    #[test]
    fn pruning_keeps_newest_k() {
        let fs = fs();
        let config = CheckpointConfig::new(2, "/ckpt").keep(2);
        let mut partitions = sample_partitions();
        for s in [0, 2, 4, 6] {
            write_checkpoint(&fs, &config, s, &mut partitions, vec![]).unwrap();
        }
        assert!(!fs.exists("/ckpt/cp_0"));
        assert!(!fs.exists("/ckpt/cp_2"));
        assert!(fs.exists("/ckpt/cp_4/COMMIT"));
        assert!(fs.exists("/ckpt/cp_6/COMMIT"));
    }

    #[test]
    fn partial_restore_loads_only_named_partitions() {
        let fs = fs();
        let config = CheckpointConfig::new(2, "/ckpt");
        let aggs = vec![("sum".to_string(), AggValue::Long(42))];
        let mut partitions = sample_partitions();
        write_checkpoint(&fs, &config, 4, &mut partitions, aggs.clone()).unwrap();

        let (restored, agg) = restore_partitions::<Noop>(&fs, &config, 4, &[1]).unwrap();
        assert_eq!(agg, aggs);
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].0, 1);
        assert_eq!(restored[0].1.dump(), partitions[1].dump());

        // An uncommitted checkpoint is not a restore point.
        fs.write_all("/ckpt/cp_6/part_0.ckpt", b"torn").unwrap();
        assert!(restore_partitions::<Noop>(&fs, &config, 6, &[0]).is_err());
    }

    #[test]
    fn frames_size_matches_written_bytes_and_roundtrips() {
        // Ids in compute order (the sweep empties the inbox, so last).
        let visits = |p: &mut Partition<Noop>| {
            let mut ids = Vec::new();
            p.compute_scheduled(|vertex, _| ids.push(vertex.id()));
            ids
        };
        let mut partitions = sample_partitions();
        assert_eq!(partitions[1].counts(), (3, 1, 2));
        for partition in &mut partitions {
            let (topology, state) = partition.charge().unwrap();
            let bytes = encode_partition(partition, 0).unwrap();
            assert_eq!(topology + state, bytes.len() as u64);
            let mut back = Partition::<Noop>::decode_file(&bytes).unwrap();
            assert_eq!(encode_partition(&mut back, 0).unwrap(), bytes);
            assert_eq!((back.dump(), back.counts()), (partition.dump(), partition.counts()));
            assert_eq!(visits(&mut back), visits(partition));
        }
        assert_eq!(visits(&mut sample_partitions().remove(1)), vec![2, 4, 8]);
    }

    #[test]
    fn recovery_mode_parses_and_displays() {
        assert_eq!("restart".parse::<RecoveryMode>().unwrap(), RecoveryMode::Restart);
        assert_eq!("log-replay".parse::<RecoveryMode>().unwrap(), RecoveryMode::LogReplay);
        assert!("other".parse::<RecoveryMode>().is_err());
        assert_eq!(RecoveryMode::LogReplay.to_string(), "log-replay");
        assert_eq!(RecoveryMode::default(), RecoveryMode::Restart);
    }

    #[test]
    fn due_at_schedule() {
        let c = CheckpointConfig::new(3, "/c");
        assert!(c.due_at(0));
        assert!(!c.due_at(2));
        assert!(c.due_at(3));
        let disabled = CheckpointConfig::new(0, "/c");
        assert!(!disabled.due_at(0));
    }
}
