//! Out-of-core execution: partitions and shuffle batches under a
//! memory budget.
//!
//! The engine's working set — partition state and staged shuffle
//! batches — normally lives entirely in memory. With a budget attached
//! ([`crate::Engine::with_memory_budget`]) a `SpillStore` accounts
//! every partition's serialized footprint and every staged batch's
//! serialized size against `budget_bytes`, spilling the least recently
//! used unpinned partitions to `graft-dfs` segments when the budget
//! would be exceeded and loading them back on demand.
//!
//! ## Accounting model
//!
//! The unit of charge is *serialized bytes*: the exact parts a spill
//! would write (`partition.rs`), counted by the serializer a spill
//! writes them with (`graft_codec::framed_size`), so no bytes are kept.
//! A partition's charge is its topology part — sized once per topology
//! version — plus its state part, re-sized each time its pin is
//! released; a staged in-memory shuffle batch is charged at ship time
//! and released at delivery.
//!
//! ## Pin/evict lifecycle
//!
//! Workers pin their own partition for the duration of a compute or
//! delivery phase (a `PinGuard` releases on drop, including during a
//! panic unwind, so an injected fault can never strand waiters).
//! Pinned partitions are never evicted. A pin of a spilled partition
//! evicts least-recently-used unpinned partitions until the load fits;
//! if nothing is evictable and some other worker still holds a pin, the
//! pin waits for a release. If nothing is evictable and nothing is
//! pinned, the load proceeds over budget — counted in
//! `ooc_budget_overruns_total` — because waiting could not help. This is
//! what guarantees progress when the budget is smaller than a single
//! partition (execution degrades to one partition at a time; analyzer
//! lint GA0018 warns about exactly that configuration).
//!
//! ## Spill-segment layout
//!
//! ```text
//! <root>/parts/p<idx>.topo         the partition's topology part: written
//!                                  when it is evicted with a topology the
//!                                  file does not hold, kept across loads
//! <root>/parts/p<idx>.seg          its state part: written at every
//!                                  eviction, deleted on load
//! <root>/shuffle/s<s>/p<t>_w<w>.seg  one framed LoggedBatch from worker
//!                                  w to partition t at superstep s;
//!                                  deleted at delivery
//! ```
//!
//! A partition whose topology no mutation or edge edit touched since its
//! last load spills its state alone: for PageRank that is the values and
//! the inbox, not the ids and edges. A load decodes both parts into
//! columns in slot order, so compute order, staging order and combiner
//! fold order survive (see `checkpoint.rs` docs). The whole root is
//! deleted when the job completes, so a budgeted run leaves the same
//! files behind as an unbounded one.
//!
//! The two parts concatenated are the partition's checkpoint file, which
//! is how a checkpoint is taken under a budget
//! (`SpillStore::checkpoint_partitions`): a spilled partition's files
//! are *copied* to `cp_<s>/part_<p>.ckpt` — no load, no decode, no
//! encode. They cannot change until the partition is loaded, and a load
//! needs the store lock the copy holds.
//!
//! Time spent loading, spilling and sizing partitions accumulates on the
//! obs clock in `ooc_load_nanos_total`, `ooc_spill_nanos_total` and
//! `ooc_charge_nanos_total`; with obs off nothing is timed.
//!
//! Lock order is strictly store → partition. Any partition mutex taken
//! while holding the store lock belongs to an unpinned partition (whose
//! lock no worker holds — workers only lock partitions they pinned) or
//! to the caller's own released guard, so the order can never cycle.

use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use graft_dfs::FileSystem;
use graft_obs::{Obs, Scope};

use crate::checkpoint::{encode_partition, write_checkpoint_partition, CheckpointError};
use crate::computation::Computation;
use crate::graph::Graph;
use crate::partition::{max_split_charge, Partition};
use graft_sched::sync::Mutex as SchedMutex;

/// Out-of-core configuration: the byte budget and where spill segments
/// live on the spill file system.
#[derive(Clone, Debug)]
pub struct OocConfig {
    /// The memory budget, in serialized bytes, shared by resident
    /// partitions and in-memory staged shuffle batches.
    pub budget_bytes: u64,
    /// Directory on the spill file system that holds `parts/` and
    /// `shuffle/` subdirectories. Deleted when the job completes.
    pub root: String,
}

impl OocConfig {
    /// A budget of `budget_bytes` with spill segments under `root`.
    pub fn new(budget_bytes: u64, root: impl Into<String>) -> Self {
        Self { budget_bytes, root: root.into() }
    }
}

/// One partition's residency state.
enum Slot {
    /// In memory, charged `bytes` (both parts); `pins` holders forbid
    /// eviction.
    Resident { bytes: u64, pins: u32 },
    /// On disk as its two parts; the in-memory partition is empty.
    Spilled { topology: u64, state: u64 },
}

struct StoreState {
    slots: Vec<Slot>,
    /// Resident unpinned partitions, least recently used first.
    lru: Vec<usize>,
    /// Total charged bytes of resident partitions.
    partition_bytes: u64,
    /// Total charged bytes of in-memory staged shuffle batches.
    shuffle_bytes: u64,
    /// Charge per staged batch, keyed by `(target partition, source
    /// worker)` so delivery can release exactly what shipping charged.
    shuffle_charges: crate::hash::FxHashMap<(usize, usize), u64>,
    /// Size of each partition's topology file, 0 while it has none.
    topology_files: Vec<u64>,
    /// Bytes currently on disk (topology and state parts + shuffle
    /// segments); exported as the `live_spill_bytes` gauge.
    disk_bytes: u64,
}

impl StoreState {
    fn charged(&self) -> u64 {
        self.partition_bytes + self.shuffle_bytes
    }

    fn total_pins(&self) -> u32 {
        self.slots
            .iter()
            .map(|s| match s {
                Slot::Resident { pins, .. } => *pins,
                Slot::Spilled { .. } => 0,
            })
            .sum()
    }
}

/// The memory-budget accountant and partition spill manager for one job.
pub(crate) struct SpillStore<C: Computation> {
    fs: Arc<dyn FileSystem>,
    budget: u64,
    root: String,
    obs: Arc<Obs>,
    state: StdMutex<StoreState>,
    cond: Condvar,
    _marker: std::marker::PhantomData<fn() -> C>,
}

/// An RAII pin on a resident partition. Dropping releases the pin —
/// refreshing the partition's charge from its current contents — and
/// wakes budget waiters. Drop runs during panic unwinds too, so a
/// fault-injected worker cannot strand other workers on the condvar.
pub(crate) struct PinGuard<'a, C: Computation> {
    store: &'a SpillStore<C>,
    partitions: &'a [SchedMutex<Partition<C>>],
    idx: usize,
}

impl<C: Computation> Drop for PinGuard<'_, C> {
    fn drop(&mut self) {
        self.store.release(self.partitions, self.idx);
    }
}

impl<C: Computation> SpillStore<C> {
    pub(crate) fn new(
        fs: Arc<dyn FileSystem>,
        config: &OocConfig,
        obs: Arc<Obs>,
        num_partitions: usize,
    ) -> Self {
        Self {
            fs,
            budget: config.budget_bytes,
            root: config.root.trim_end_matches('/').to_string(),
            obs,
            state: StdMutex::new(StoreState {
                slots: (0..num_partitions).map(|_| Slot::Resident { bytes: 0, pins: 0 }).collect(),
                lru: Vec::new(),
                partition_bytes: 0,
                shuffle_bytes: 0,
                shuffle_charges: crate::hash::FxHashMap::default(),
                topology_files: vec![0; num_partitions],
                disk_bytes: 0,
            }),
            cond: Condvar::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The store mutex, with poison recovered: accounting must survive a
    /// fault-injected panic on a worker thread (the panic already
    /// surfaced through the engine's result slots).
    fn state_lock(&self) -> StdMutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn publish_disk_gauge(&self, st: &StoreState) {
        self.obs.registry().set_gauge("live_spill_bytes", Scope::GLOBAL, st.disk_bytes as i64);
    }

    /// Runs `f`, adding its duration on the obs clock to `counter`.
    fn timed<T>(&self, counter: &str, f: impl FnOnce() -> T) -> T {
        let timer = self.obs.timer();
        let out = f();
        self.obs.registry().inc(counter, Scope::GLOBAL, timer.stop());
        out
    }

    /// Sizes a resident partition: the bytes its two parts would spill.
    fn charge(&self, partition: &mut Partition<C>, idx: usize) -> Result<u64, CheckpointError> {
        self.timed("ooc_charge_nanos_total", || partition.charge())
            .map(|(topology, state)| topology + state)
            .map_err(|e| CheckpointError::new(format!("sizing partition {idx}"), e))
    }

    fn part_path(&self, idx: usize) -> String {
        format!("{}/parts/p{idx}.seg", self.root)
    }

    fn topology_path(&self, idx: usize) -> String {
        format!("{}/parts/p{idx}.topo", self.root)
    }

    /// Takes ownership of the freshly built partitions: charges each
    /// one's serialized footprint, then evicts down to the budget.
    pub(crate) fn adopt(
        &self,
        partitions: &[SchedMutex<Partition<C>>],
    ) -> Result<(), CheckpointError> {
        let parts = format!("{}/parts", self.root);
        self.fs.mkdirs(&parts).map_err(|e| CheckpointError::new(format!("creating {parts}"), e))?;
        let mut st = self.state_lock();
        st.partition_bytes = 0;
        st.lru.clear();
        for (idx, partition) in partitions.iter().enumerate() {
            let bytes = self.charge(&mut partition.lock(), idx)?;
            st.slots[idx] = Slot::Resident { bytes, pins: 0 };
            st.lru.push(idx);
            st.partition_bytes += bytes;
        }
        self.evict_to_budget(&mut st, partitions)
    }

    /// Pins partition `idx` resident, loading (and evicting others) as
    /// needed. With `wait`, blocks while over budget as long as some
    /// other pin is outstanding; without it (coordinator phases, which
    /// are exclusive and would only be waiting on themselves), proceeds
    /// over budget immediately.
    pub(crate) fn pin<'a>(
        &'a self,
        partitions: &'a [SchedMutex<Partition<C>>],
        idx: usize,
        wait: bool,
    ) -> Result<PinGuard<'a, C>, CheckpointError> {
        let mut st = self.state_lock();
        loop {
            match st.slots[idx] {
                Slot::Resident { pins, .. } => {
                    if pins == 0 {
                        st.lru.retain(|&i| i != idx);
                    }
                    if let Slot::Resident { pins, .. } = &mut st.slots[idx] {
                        *pins += 1;
                    }
                    return Ok(PinGuard { store: self, partitions, idx });
                }
                Slot::Spilled { topology, state } => {
                    let need = topology + state;
                    while st.charged() + need > self.budget && !st.lru.is_empty() {
                        self.evict_one(&mut st, partitions)?;
                    }
                    if st.charged() + need > self.budget {
                        if wait && st.total_pins() > 0 {
                            // Some worker will release its pin and notify;
                            // re-examine the world then.
                            st = self.cond.wait(st).unwrap_or_else(|p| p.into_inner());
                            continue;
                        }
                        self.obs.registry().inc("ooc_budget_overruns_total", Scope::GLOBAL, 1);
                    }
                    self.load(&mut st, partitions, idx)?;
                    return Ok(PinGuard { store: self, partitions, idx });
                }
            }
        }
    }

    /// Pins every partition (mutation phases touch arbitrary targets).
    /// Never waits — the coordinator is the only actor between phases —
    /// so a budget below the graph size simply overruns, counted.
    pub(crate) fn pin_all<'a>(
        &'a self,
        partitions: &'a [SchedMutex<Partition<C>>],
    ) -> Result<Vec<PinGuard<'a, C>>, CheckpointError> {
        (0..partitions.len()).map(|idx| self.pin(partitions, idx, false)).collect()
    }

    /// Releases a pin: refresh the partition's charge from its current
    /// contents, return it to the LRU, opportunistically evict back down
    /// to the budget, and wake waiters.
    fn release(&self, partitions: &[SchedMutex<Partition<C>>], idx: usize) {
        // Sized before the store lock is taken, so other workers do not
        // queue behind the walk (still pinned, it cannot be evicted). A
        // size error (practically impossible) keeps the previous charge.
        let refreshed = self.charge(&mut partitions[idx].lock(), idx).ok();
        let mut st = self.state_lock();
        if let Slot::Resident { bytes, pins } = &mut st.slots[idx] {
            let old = *bytes;
            if let Some(new) = refreshed {
                *bytes = new;
            }
            let new = *bytes;
            *pins = pins.saturating_sub(1);
            let unpinned = *pins == 0;
            st.partition_bytes = st.partition_bytes - old + new;
            if unpinned {
                st.lru.push(idx);
            }
        }
        // Lazy enforcement: growth during the phase (mutations, inbox
        // fill) is trimmed here rather than blocking the worker. A drop
        // cannot return a failed spill, so it is counted.
        if self.evict_to_budget(&mut st, partitions).is_err() {
            self.obs.registry().inc("ooc_spill_errors_total", Scope::GLOBAL, 1);
        }
        drop(st);
        self.cond.notify_all();
    }

    fn evict_to_budget(
        &self,
        st: &mut StoreState,
        partitions: &[SchedMutex<Partition<C>>],
    ) -> Result<(), CheckpointError> {
        while st.charged() > self.budget && !st.lru.is_empty() {
            self.evict_one(st, partitions)?;
        }
        Ok(())
    }

    /// Spills the least recently used unpinned partition — its state part,
    /// and its topology part unless the topology file already holds it —
    /// and replaces the in-memory partition with an empty one.
    fn evict_one(
        &self,
        st: &mut StoreState,
        partitions: &[SchedMutex<Partition<C>>],
    ) -> Result<(), CheckpointError> {
        // Popped only once both parts are written: on failure the victim
        // stays resident at the front of the LRU.
        let victim = st.lru[0];
        let Slot::Resident { bytes: charged, .. } = st.slots[victim] else {
            unreachable!("the LRU holds resident partitions only")
        };
        let (state, written) = self.timed("ooc_spill_nanos_total", || {
            let mut guard = partitions[victim].lock();
            let written = self.write_parts(st, &mut guard, victim)?;
            *guard = Partition::new();
            Ok::<_, CheckpointError>(written)
        })?;
        st.lru.remove(0);
        st.partition_bytes -= charged;
        st.slots[victim] = Slot::Spilled { topology: st.topology_files[victim], state };
        st.disk_bytes += state;
        self.obs.registry().inc("ooc_spills_total", Scope::GLOBAL, 1);
        self.obs.registry().inc("ooc_spill_bytes_total", Scope::GLOBAL, written);
        self.publish_disk_gauge(st);
        Ok(())
    }

    /// Writes `partition`'s parts; returns the state part's size and the
    /// bytes written.
    fn write_parts(
        &self,
        st: &mut StoreState,
        partition: &mut Partition<C>,
        idx: usize,
    ) -> Result<(u64, u64), CheckpointError> {
        let write = |path: String, bytes: Result<Vec<u8>, graft_codec::Error>| {
            let bytes = bytes.map_err(|e| CheckpointError::new(format!("encoding {path}"), e))?;
            self.fs
                .write_all(&path, &bytes)
                .map_err(|e| CheckpointError::new(format!("writing {path}"), e))?;
            Ok::<_, CheckpointError>(bytes.len() as u64)
        };
        let mut written = 0;
        if !partition.topology_spilled {
            let topology = write(self.topology_path(idx), partition.encode_topology())?;
            st.disk_bytes = st.disk_bytes - st.topology_files[idx] + topology;
            st.topology_files[idx] = topology;
            partition.topology_spilled = true;
            written += topology;
        }
        let mut state = Vec::new();
        let state = write(self.part_path(idx), partition.encode_state(&mut state).map(|()| state))?;
        Ok((state, written + state))
    }

    /// Loads a spilled partition back into memory (deleting its state
    /// part) and pins it.
    fn load(
        &self,
        st: &mut StoreState,
        partitions: &[SchedMutex<Partition<C>>],
        idx: usize,
    ) -> Result<(), CheckpointError> {
        let Slot::Spilled { topology, state } = st.slots[idx] else {
            unreachable!("only spilled partitions are loaded")
        };
        let path = self.part_path(idx);
        self.timed("ooc_load_nanos_total", || {
            let (topology_part, state_part) = self.read_parts(st, idx)?;
            let mut partition = Partition::decode(&topology_part, &state_part)
                .map_err(|e| CheckpointError::new(format!("decoding {path}"), e))?;
            partition.topology_bytes = Some(topology);
            partition.topology_spilled = true;
            *partitions[idx].lock() = partition;
            Ok::<_, CheckpointError>(())
        })?;
        let _ = self.fs.delete(&path, false);
        st.slots[idx] = Slot::Resident { bytes: topology + state, pins: 1 };
        st.partition_bytes += topology + state;
        st.disk_bytes = st.disk_bytes.saturating_sub(state);
        self.obs.registry().inc("ooc_loads_total", Scope::GLOBAL, 1);
        self.obs.registry().inc("ooc_load_bytes_total", Scope::GLOBAL, topology + state);
        self.publish_disk_gauge(st);
        Ok(())
    }

    /// Reads a spilled slot's topology and state parts whole. A part that
    /// is not the length that was spilled is an error here, before it can
    /// decode into a partition missing vertices or be copied into a
    /// checkpoint.
    fn read_parts(
        &self,
        st: &StoreState,
        idx: usize,
    ) -> Result<(Vec<u8>, Vec<u8>), CheckpointError> {
        let Slot::Spilled { topology, state } = st.slots[idx] else {
            unreachable!("only spilled partitions have a segment")
        };
        let read = |path: String, spilled: u64| {
            let bytes = self
                .fs
                .read_all(&path)
                .map_err(|e| CheckpointError::new(format!("reading {path}"), e))?;
            if bytes.len() as u64 != spilled {
                let cause = format!("segment holds {} of the {spilled} bytes spilled", bytes.len());
                return Err(CheckpointError::new(format!("reading {path}"), cause));
            }
            Ok(bytes)
        };
        Ok((read(self.topology_path(idx), topology)?, read(self.part_path(idx), state)?))
    }

    /// Writes every partition's file into the checkpoint directory `dir`
    /// on `ckpt_fs` and returns the bytes written: a resident partition
    /// encoded from memory, a spilled one's two parts copied as they are.
    /// Runs on the coordinator between phases (no pin is outstanding) with
    /// the store lock held, so no slot changes residency under it.
    pub(crate) fn checkpoint_partitions(
        &self,
        partitions: &[SchedMutex<Partition<C>>],
        ckpt_fs: &Arc<dyn FileSystem>,
        dir: &str,
    ) -> Result<u64, CheckpointError> {
        let st = self.state_lock();
        let mut total = 0u64;
        for (idx, slot) in st.slots.iter().enumerate() {
            let bytes = match *slot {
                Slot::Resident { .. } => encode_partition(&mut partitions[idx].lock(), idx)?,
                Slot::Spilled { .. } => {
                    let (mut bytes, state) = self.read_parts(&st, idx)?;
                    bytes.extend_from_slice(&state);
                    bytes
                }
            };
            total += write_checkpoint_partition(ckpt_fs, dir, idx, &bytes)?;
        }
        Ok(total)
    }

    /// Re-adopts all partitions after a full checkpoint restore replaced
    /// every in-memory partition: both parts of every partition and the
    /// shuffle spills from the failed attempt are deleted, charges are
    /// rebuilt from the restored contents, and the store evicts back down
    /// to the budget.
    pub(crate) fn reset(
        &self,
        partitions: &[SchedMutex<Partition<C>>],
    ) -> Result<(), CheckpointError> {
        {
            let mut st = self.state_lock();
            st.shuffle_bytes = 0;
            st.shuffle_charges.clear();
            st.disk_bytes = 0;
            st.topology_files.iter_mut().for_each(|bytes| *bytes = 0);
            let _ = self.fs.delete(&format!("{}/parts", self.root), true);
            let _ = self.fs.delete(&format!("{}/shuffle", self.root), true);
            self.publish_disk_gauge(&st);
        }
        self.adopt(partitions)
    }

    /// Marks one partition resident after confined recovery replaced its
    /// in-memory contents, deleting any stale state part; the restored
    /// partition does not claim the topology file, so its next eviction
    /// rewrites that too.
    pub(crate) fn mark_resident(
        &self,
        partitions: &[SchedMutex<Partition<C>>],
        idx: usize,
    ) -> Result<(), CheckpointError> {
        let mut st = self.state_lock();
        let bytes = self.charge(&mut partitions[idx].lock(), idx)?;
        match st.slots[idx] {
            Slot::Resident { bytes: old, .. } => {
                st.partition_bytes -= old;
                st.lru.retain(|&i| i != idx);
            }
            Slot::Spilled { state, .. } => {
                let _ = self.fs.delete(&self.part_path(idx), false);
                st.disk_bytes = st.disk_bytes.saturating_sub(state);
            }
        }
        st.slots[idx] = Slot::Resident { bytes, pins: 0 };
        st.partition_bytes += bytes;
        st.lru.push(idx);
        let result = self.evict_to_budget(&mut st, partitions);
        self.publish_disk_gauge(&st);
        result
    }

    /// Loads every spilled partition back (the final graph rebuild needs
    /// them all) and removes the spill root, so a budgeted run leaves
    /// the file system exactly as an unbounded one would.
    pub(crate) fn finish(
        &self,
        partitions: &[SchedMutex<Partition<C>>],
    ) -> Result<(), CheckpointError> {
        let mut st = self.state_lock();
        for idx in 0..st.slots.len() {
            if matches!(st.slots[idx], Slot::Spilled { .. }) {
                self.load(&mut st, partitions, idx)?;
                if let Slot::Resident { pins, .. } = &mut st.slots[idx] {
                    *pins = 0;
                }
                st.lru.push(idx);
            }
        }
        let _ = self.fs.delete(&self.root, true);
        st.disk_bytes = 0;
        self.publish_disk_gauge(&st);
        Ok(())
    }

    /// Charges an in-memory staged shuffle batch if it fits the budget.
    /// Returns `false` — never blocks, never overruns — when it does
    /// not; the caller spills the batch instead.
    pub(crate) fn try_charge_shuffle(&self, target: usize, source: usize, bytes: u64) -> bool {
        let mut st = self.state_lock();
        if st.charged() + bytes > self.budget {
            return false;
        }
        if let Some(old) = st.shuffle_charges.insert((target, source), bytes) {
            st.shuffle_bytes -= old;
        }
        st.shuffle_bytes += bytes;
        true
    }

    /// Releases the charge taken by [`try_charge_shuffle`] once the
    /// batch has been delivered (or discarded).
    pub(crate) fn release_shuffle(&self, target: usize, source: usize) {
        let mut st = self.state_lock();
        if let Some(bytes) = st.shuffle_charges.remove(&(target, source)) {
            st.shuffle_bytes -= bytes;
        }
        drop(st);
        self.cond.notify_all();
    }

    /// Writes one spilled shuffle batch (already framed) to its segment
    /// and returns the path for the staged `Outbox::Spilled`.
    pub(crate) fn write_shuffle(
        &self,
        superstep: u64,
        target: usize,
        source: usize,
        frame: &[u8],
    ) -> Result<String, CheckpointError> {
        let dir = format!("{}/shuffle/s{superstep}", self.root);
        let path = format!("{dir}/p{target}_w{source}.seg");
        self.fs
            .mkdirs(&dir)
            .and_then(|()| self.fs.write_all(&path, frame))
            .map_err(|e| CheckpointError::new(format!("writing {path}"), e))?;
        let mut st = self.state_lock();
        st.disk_bytes += frame.len() as u64;
        self.obs.registry().inc("ooc_shuffle_spills_total", Scope::GLOBAL, 1);
        self.obs.registry().inc("ooc_shuffle_spill_bytes_total", Scope::GLOBAL, frame.len() as u64);
        self.publish_disk_gauge(&st);
        Ok(path)
    }

    /// Reads one spilled shuffle segment back for delivery and deletes
    /// it.
    pub(crate) fn read_shuffle(&self, path: &str) -> Result<Vec<u8>, CheckpointError> {
        let bytes = self
            .fs
            .read_all(path)
            .map_err(|e| CheckpointError::new(format!("reading {path}"), e))?;
        let _ = self.fs.delete(path, false);
        let mut st = self.state_lock();
        st.disk_bytes = st.disk_bytes.saturating_sub(bytes.len() as u64);
        self.obs.registry().inc("ooc_shuffle_loads_total", Scope::GLOBAL, 1);
        self.publish_disk_gauge(&st);
        Ok(bytes)
    }
}

/// Serialized footprint of the largest partition `graph` splits into
/// under `num_partitions`-way hash partitioning: exactly what the
/// out-of-core store charges that partition when it adopts it (both
/// parts, empty inboxes, nothing halted). This is the number analyzer
/// lint GA0018 compares a memory budget against — a budget below it
/// forces the engine to run one partition at a time.
pub fn estimate_max_partition_bytes<C: Computation>(
    graph: &Graph<C::Id, C::VValue, C::EValue>,
    num_partitions: usize,
) -> u64 {
    max_split_charge::<C>(graph, num_partitions.max(1))
}
