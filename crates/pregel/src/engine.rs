//! The BSP execution engine: hash partitioning, message shuffle with
//! sender-side combining, aggregator merge, topology mutations, and
//! halting.
//!
//! "Workers" are hash partitions of the vertices (`num_workers` of them).
//! Every superstep runs in phases, exactly as in Pregel:
//!
//! 1. the optional master computation runs (it may halt the job),
//! 2. every partition computes its active vertices, staging outgoing
//!    messages into per-destination-partition shuffle buffers,
//! 3. aggregator partials are merged,
//! 4. every partition takes delivery of its messages (with optional
//!    combining),
//! 5. requested topology mutations are applied,
//! 6. the halting condition is evaluated: the job stops when every vertex
//!    has voted to halt and no messages are in flight.
//!
//! # Execution
//!
//! Partitions are not threads. Results, stats, trace files and the
//! bit-identity contract depend on the partition count alone; a job runs
//! on `threads = min(partitions, CPUs this process may use)`
//! (`graft_sched::thread::parallelism`), which the code works out and no
//! caller sets. In phases 2 and 4 thread `t` runs partitions `t`,
//! `t + threads`, … in ascending order through `guarded_compute` /
//! `guarded_deliver` and parks each outcome in the *partition's* result
//! slot, so nothing a partition does can tell which thread ran it.
//!
//! Thread 0 is the coordinator, which would otherwise sleep through both
//! phases; `threads - 1` more are spawned once per job and meet it on two
//! reusable `Barrier`s (`threads` participants each) around a command word:
//!
//! 1. the coordinator stores the phase command (`Compute(global)`,
//!    `Deliver`, or `Exit`) and waits on the *start* barrier;
//! 2. every thread, the coordinator included, runs its share of the phase;
//! 3. all meet at the *done* barrier, after which the coordinator owns all
//!    partitions again and collects the result slots in partition order.
//!
//! With one thread nothing is spawned, no barrier is waited on and a
//! dispatch is a loop: on one CPU the engine *is* a sequential runner, and
//! a superstep costs its work, not four rendezvous of threads that could
//! not have overlapped anyway.
//!
//! `Exit` releases the spawned threads without a done-barrier rendezvous;
//! the coordinator sends it unconditionally (success, failure or its own
//! panic) before leaving the job scope, so they can never outlive a job.
//! Phase bodies run under `catch_unwind`, so an injected fault or a panic
//! escaping user code surfaces as an error in the result slot while the
//! thread, the coordinator too, survives to serve the recovery replay —
//! fault injection stays deterministic across restores.
//!
//! # Shuffle and combining
//!
//! Messages travel from compute workers to delivery workers through
//! per-partition staging slots (`incoming[partition][source_worker]`),
//! drained in source-worker order so the shuffle is deterministic.
//! Without a combiner a slot holds the raw `(target, message)` stream in
//! send order and delivery appends it to the inboxes. With a combiner
//! each worker folds per target *at send time*, so one combined message
//! (plus the raw count, which keeps the stats exact) crosses the shuffle
//! per `(target, source worker)`, and delivery merges those partials
//! into the inbox in source-worker order. The fold tree is therefore
//! fixed by the partition count alone: a target's inbox is
//! `combine_all` over the per-source-partition `combine_all` partials,
//! each partial folded in send order. [`crate::reference`] is that
//! definition in executable form. Results are bit-identical for a fixed
//! partition count; they are invariant across partition counts only when
//! `combine` is exact (min, integer sum), not for floating-point sums
//! like PageRank's.
//!
//! # Buffer reuse
//!
//! Shuffle buffers (raw `Vec`s and combining maps) are recycled through
//! a shared buffer pool instead of reallocated every superstep: compute
//! workers take buffers, delivery workers drain them and put them back.
//! A partition's inbox is one arena that keeps its capacity across
//! supersteps (see [`crate::partition`]). Recycled buffers retain
//! capacity, never contents, so reuse is invisible to results and traces.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use graft_dfs::FileSystem;
use graft_obs::{Obs, Scope};
// The schedule-checkable sync shims: plain passthroughs in a normal
// run, deterministic-scheduler yield points plus happens-before edges
// under `graft-cli check-sched` (see DESIGN.md "Concurrency model").
use graft_sched::sync::{Barrier, Mutex, RwLock};
use graft_sched::thread as sched_thread;
use graft_sched::TrackedCell;
use serde::Serialize;

use crate::aggregators::{AggregatorRegistry, WorkerAggregators};
use crate::checkpoint::{self, CheckpointConfig, CheckpointError, RecoveryMode};
use crate::computation::Computation;
use crate::fault::{ArmedFaults, FaultPlan};
use crate::msglog::{CoordFrame, LoggedBatch, MsgLog, WorkerFrame};
use crate::ooc::{OocConfig, SpillStore};
use crate::partition::Partition;

type MutationOf<C> =
    Mutation<<C as Computation>::Id, <C as Computation>::VValue, <C as Computation>::EValue>;

/// A raw (uncombined) shuffle batch: `(target, message)` pairs in send
/// order.
type RawBatch<C> = Vec<(<C as Computation>::Id, <C as Computation>::Message)>;

/// A sender-combined shuffle batch: per target, the folded message plus
/// the raw message count it stands for (so delivery stats stay exact).
type CombinedBatch<C> = FxHashMap<<C as Computation>::Id, (<C as Computation>::Message, u64)>;

use crate::context::{ComputeContext, Mutation};
use crate::error::{panic_message, EngineError};
use crate::graph::Graph;
use crate::hash::{partition_for, FxHashMap};
use crate::master::{MasterComputation, MasterContext};
use crate::observer::{JobEnd, JobObserver};
use crate::stats::{HaltReason, JobOutcome, JobStats, SuperstepStats};
use crate::types::GlobalData;

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Hash partitions ("workers"): what results, stats and trace files
    /// depend on; the engine runs them on `min(num_workers, CPUs it may
    /// use)` threads. Defaults to those CPUs capped at 8, overridable with
    /// the `GRAFT_NUM_WORKERS` env var.
    pub num_workers: usize,
    /// Safety limit on supersteps; the job reports
    /// [`HaltReason::MaxSuperstepsReached`] when hit.
    pub max_supersteps: u64,
    /// Straggler detection: a worker whose per-superstep compute time
    /// exceeds this multiple of the median across workers is flagged
    /// with a `straggler.detected` event and counted in
    /// `live_stragglers_total`. `0.0` disables detection. Under the
    /// deterministic tick clock all workers report identical times, so
    /// detection can never fire there.
    pub straggler_threshold: f64,
}

impl EngineConfig {
    /// Parses a `GRAFT_NUM_WORKERS` override, clamped to `1..=64`.
    /// `None` when unset or unparsable (the hardware default applies).
    pub fn worker_override(raw: Option<&str>) -> Option<usize> {
        let n: usize = raw?.trim().parse().ok()?;
        Some(n.clamp(1, 64))
    }

    /// The default worker count: `GRAFT_NUM_WORKERS` if set and valid,
    /// otherwise available parallelism capped at 8.
    pub fn default_num_workers() -> usize {
        Self::worker_override(std::env::var("GRAFT_NUM_WORKERS").ok().as_deref())
            .unwrap_or_else(|| sched_thread::parallelism(8))
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            num_workers: Self::default_num_workers(),
            max_supersteps: 100_000,
            straggler_threshold: 4.0,
        }
    }
}

/// The Pregel engine for one computation.
pub struct Engine<C: Computation> {
    computation: Arc<C>,
    master: Option<Arc<dyn MasterComputation<C>>>,
    observers: Vec<Arc<dyn JobObserver<C>>>,
    config: EngineConfig,
    fault_plan: Option<FaultPlan>,
    checkpoints: Option<(Arc<dyn FileSystem>, CheckpointConfig)>,
    ooc: Option<(Arc<dyn FileSystem>, OocConfig)>,
    obs: Option<Arc<Obs>>,
}

impl<C: Computation> Engine<C> {
    /// Creates an engine running `computation` with default configuration.
    pub fn new(computation: C) -> Self {
        Self::from_arc(Arc::new(computation))
    }

    /// Creates an engine from a shared computation (the Graft runner uses
    /// this to keep a handle on its instrumented wrapper).
    pub fn from_arc(computation: Arc<C>) -> Self {
        Self {
            computation,
            master: None,
            observers: Vec::new(),
            config: EngineConfig::default(),
            fault_plan: None,
            checkpoints: None,
            ooc: None,
            obs: None,
        }
    }

    /// Attaches a master computation.
    pub fn with_master<M: MasterComputation<C>>(mut self, master: M) -> Self {
        self.master = Some(Arc::new(master));
        self
    }

    /// Attaches a shared master computation.
    pub fn with_master_arc(mut self, master: Arc<dyn MasterComputation<C>>) -> Self {
        self.master = Some(master);
        self
    }

    /// Registers a lifecycle observer.
    pub fn with_observer(mut self, observer: Arc<dyn JobObserver<C>>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the worker/partition count.
    pub fn num_workers(mut self, n: usize) -> Self {
        self.config.num_workers = n.max(1);
        self
    }

    /// Sets the superstep safety limit.
    pub fn max_supersteps(mut self, n: u64) -> Self {
        self.config.max_supersteps = n;
        self
    }

    /// Sets the straggler-detection threshold (multiple of the median
    /// per-worker compute time; `0.0` disables detection).
    pub fn straggler_threshold(mut self, threshold: f64) -> Self {
        self.config.straggler_threshold = threshold.max(0.0);
        self
    }

    /// Schedules deterministic fault injection (worker crashes and
    /// compute panics; datanode kills in the plan are ignored here — the
    /// Graft runner maps those onto its cluster).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables checkpoint/restart fault tolerance: job state snapshots to
    /// `fs` on the schedule in `config`, and worker failures trigger
    /// restore-and-replay from the latest committed checkpoint instead of
    /// failing the job.
    pub fn with_checkpoints(mut self, fs: Arc<dyn FileSystem>, config: CheckpointConfig) -> Self {
        self.checkpoints = Some((fs, config));
        self
    }

    /// Enables out-of-core execution: partition state and staged shuffle
    /// batches are accounted against `config.budget_bytes`, with the
    /// least recently used partitions spilled to `fs` under
    /// `config.root` when the budget would be exceeded. Results are
    /// bit-identical to an unbounded run (see the `ooc` module docs).
    pub fn with_memory_budget(mut self, fs: Arc<dyn FileSystem>, config: OocConfig) -> Self {
        self.ooc = Some((fs, config));
        self
    }

    /// Attaches an observability handle: the engine emits span events for
    /// the job, every superstep and its phases, checkpoint writes and
    /// restores, and records per-superstep counters plus phase/worker
    /// timing histograms into its registry.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The computation this engine runs.
    pub fn computation(&self) -> &Arc<C> {
        &self.computation
    }

    /// Executes the job to completion.
    pub fn run(
        &self,
        graph: Graph<C::Id, C::VValue, C::EValue>,
    ) -> Result<JobOutcome<C>, EngineError> {
        self.run_on(graph, sched_thread::parallelism(self.config.num_workers.max(1)))
    }

    /// [`Engine::run`] on `threads` threads (clamped to `1..=partitions`):
    /// the count is the platform's, and only in-crate tests pick one.
    pub(crate) fn run_on(
        &self,
        graph: Graph<C::Id, C::VValue, C::EValue>,
        threads: usize,
    ) -> Result<JobOutcome<C>, EngineError> {
        let job_begin = self.obs.as_ref().map(|o| o.begin("job", None, None));
        let result = self.run_inner(graph, threads);
        let supersteps_executed = match &result {
            Ok(outcome) => outcome.stats.superstep_count(),
            Err((supersteps, _)) => *supersteps,
        };
        if let (Some(obs), Some(begin)) = (&self.obs, job_begin) {
            let mut attrs = vec![("supersteps", supersteps_executed.to_string())];
            match &result {
                Ok(outcome) => attrs.extend([
                    ("recoveries", outcome.stats.recoveries.to_string()),
                    ("halt", format!("{:?}", outcome.halt_reason)),
                ]),
                Err((_, err)) => attrs.push(("error", err.to_string())),
            }
            obs.end("job", None, None, begin, &attrs);
        }
        let error = result.as_ref().err().map(|(_, err)| err.to_string());
        let end = JobEnd { supersteps_executed, error };
        for obs in &self.observers {
            obs.on_job_end(&end);
        }
        result.map_err(|(_, err)| err)
    }

    fn run_inner(
        &self,
        graph: Graph<C::Id, C::VValue, C::EValue>,
        threads: usize,
    ) -> Result<JobOutcome<C>, (u64, EngineError)> {
        let job_start = Instant::now();
        let num_partitions = self.config.num_workers.max(1);
        let shared =
            SharedState::new(Partition::split(graph, num_partitions), self.fresh_registry());

        let (num_vertices, num_edges, _) = census(shared.partitions.iter().map(lock));

        let initial_global = GlobalData { superstep: 0, num_vertices, num_edges };
        for obs in &self.observers {
            obs.on_job_start(&initial_global, num_partitions);
        }

        // The out-of-core store adopts the partitions up front: everything
        // is charged, then evicted down to the budget before superstep 0.
        let spill_store = match &self.ooc {
            Some((fs, config)) => {
                let store = SpillStore::new(fs.clone(), config, self.obs.clone(), num_partitions);
                store.adopt(&shared.partitions).map_err(|e| (0, EngineError::Spill(e)))?;
                Some(store)
            }
            None => None,
        };

        // Fire-once fault state lives outside the recovery loop so a
        // fault consumed before a restore does not re-fire in the replay.
        let faults = self.fault_plan.as_ref().map(ArmedFaults::new);

        let mut state = LoopState {
            superstep: 0,
            all_stats: Vec::new(),
            num_vertices,
            num_edges,
            recoveries: 0,
            last_checkpoint: None,
            staged: Vec::new(),
        };

        // Sender-side message logging backs confined recovery; it only
        // exists when checkpointing is on and the mode asks for it.
        let msglog = match &self.checkpoints {
            Some((fs, ckpt)) if ckpt.recovery == RecoveryMode::LogReplay && ckpt.every > 0 => {
                Some(MsgLog::new(fs.clone(), ckpt.msglog_root()))
            }
            _ => None,
        };

        let ctx = EngineCtx {
            computation: self.computation.as_ref(),
            shared: &shared,
            faults: faults.as_ref(),
            obs: self.obs.as_deref(),
            msglog: msglog.as_ref(),
            spill: spill_store.as_ref(),
            num_partitions,
        };

        let pool = PoolSync::<C>::new(num_partitions, threads.clamp(1, num_partitions));
        let halt_reason = std::thread::scope(|scope| {
            // The coordinator is thread 0; see the module docs.
            let mut tokens = Vec::with_capacity(pool.threads - 1);
            for thread in 1..pool.threads {
                let pool = &pool;
                let forked = sched_thread::fork(format!("pool-worker-{thread}"));
                tokens.push(forked.token());
                scope.spawn(forked.wrap(move || pool_worker(ctx, pool, thread)));
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| self.drive(&mut state, &pool, ctx)));
            // Unconditional shutdown: workers must be released before the
            // scope joins them, on success, failure or a coordinator panic.
            if pool.threads > 1 {
                pool.command.set(PoolCommand::Exit);
                pool.start.wait();
            }
            // Under a schedule session the scope's implicit joins would
            // block the scheduler token; wait for each worker at a
            // schedulable point first.
            for token in &tokens {
                token.join_point();
            }
            outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })?;

        // Everything spilled must come home before the final graph is
        // rebuilt; `finish` also removes the spill root, so a budgeted
        // run's output directory matches an unbounded one's.
        if let Some(store) = &spill_store {
            store
                .finish(&shared.partitions)
                .map_err(|e| (state.superstep, EngineError::Spill(e)))?;
        }

        let graph =
            Partition::concat(shared.partitions.into_iter().map(Mutex::into_inner).collect());
        Ok(JobOutcome {
            graph,
            stats: JobStats {
                supersteps: state.all_stats,
                total_wall_time: job_start.elapsed(),
                recoveries: state.recoveries,
            },
            halt_reason,
        })
    }

    /// The superstep loop: checkpoint when due, execute, recover from
    /// recoverable failures — confined log replay first when the mode
    /// allows it, full restore-and-replay of the latest committed
    /// checkpoint otherwise.
    fn drive(
        &self,
        state: &mut LoopState<C>,
        pool: &PoolSync<C>,
        ctx: EngineCtx<'_, C>,
    ) -> Result<HaltReason, (u64, EngineError)> {
        let shared = ctx.shared;
        loop {
            if let Some((fs, ckpt)) = &self.checkpoints {
                if ckpt.due_at(state.superstep) && state.last_checkpoint != Some(state.superstep) {
                    let begin = self
                        .obs
                        .as_ref()
                        .map(|o| o.begin("checkpoint.write", Some(state.superstep), None));
                    let bytes = checkpoint::write_checkpoint(
                        fs,
                        ckpt,
                        state.superstep,
                        ctx.num_partitions,
                        read(&shared.registry).snapshot(),
                        |dir| match ctx.spill {
                            // Under a budget most partitions may be on
                            // disk: the store writes each by its
                            // residency, encoded from memory or its spill
                            // segment copied as it is.
                            Some(store) => store.checkpoint_partitions(&shared.partitions, fs, dir),
                            None => checkpoint::write_resident_partitions(
                                fs,
                                dir,
                                shared.partitions.iter().map(lock),
                            ),
                        },
                    )
                    .map_err(|e| (state.superstep, EngineError::Checkpoint(e)))?;
                    if let (Some(obs), Some(begin)) = (&self.obs, begin) {
                        let dur = obs.end(
                            "checkpoint.write",
                            Some(state.superstep),
                            None,
                            begin,
                            &[("bytes", bytes.to_string())],
                        );
                        let reg = obs.registry();
                        reg.inc("pregel_checkpoints_total", Scope::GLOBAL, 1);
                        reg.inc("checkpoint_bytes_total", Scope::GLOBAL, bytes);
                        reg.observe_bytes("checkpoint_write_bytes", Scope::GLOBAL, bytes);
                        reg.observe_time("checkpoint_write_nanos", Scope::GLOBAL, dur);
                    }
                    state.last_checkpoint = Some(state.superstep);
                    // Checkpoint commit is the log truncation point: roll
                    // to a segment named after this checkpoint and drop
                    // segments no retained checkpoint can replay from.
                    if let Some(log) = ctx.msglog {
                        let mut committed = checkpoint::committed_supersteps(fs, ckpt);
                        committed.sort_unstable_by(|a, b| b.cmp(a));
                        let oldest_retained = committed
                            .iter()
                            .take(ckpt.keep.max(1))
                            .next_back()
                            .copied()
                            .unwrap_or(state.superstep);
                        log.roll(state.superstep, oldest_retained);
                        if let Some(o) = &self.obs {
                            o.registry().set_gauge(
                                "pregel_msglog_disk_bytes",
                                Scope::GLOBAL,
                                log.disk_bytes() as i64,
                            );
                        }
                    }
                    for obs in &self.observers {
                        obs.on_checkpoint(state.superstep);
                    }
                }
            }

            match self.execute_superstep(state, pool, ctx) {
                Ok(Some(reason)) => return Ok(reason),
                Ok(None) => {}
                Err(failure) => {
                    let failed_at = state.superstep;
                    let StepFailure { error, compute } = failure;
                    let Some((fs, ckpt)) = &self.checkpoints else {
                        return Err((failed_at, error));
                    };
                    let mut err =
                        may_recover(error, state.recoveries, ckpt).map_err(|e| (failed_at, e))?;

                    // Rung one of the fallback ladder: confined recovery,
                    // when the mode logs messages and the failure is a
                    // compute failure the logs can heal.
                    if let (Some(log), Some(compute_failure)) = (ctx.msglog, compute) {
                        match self.confined_recover(
                            state,
                            pool,
                            ctx,
                            fs,
                            ckpt,
                            log,
                            *compute_failure,
                            &err,
                        ) {
                            Ok(Confined::Done(Some(reason))) => return Ok(reason),
                            Ok(Confined::Done(None)) => continue,
                            // Preconditions failed; nothing was touched.
                            // Fall to the full restart below.
                            Ok(Confined::FellThrough) => {}
                            Err(second) => {
                                // A second fault fired during the confined
                                // replay: descend to a full restart if it
                                // is itself recoverable.
                                err = may_recover(second.error, state.recoveries, ckpt)
                                    .map_err(|e| (failed_at, e))?;
                            }
                        }
                    }

                    let begin =
                        self.obs.as_ref().map(|o| o.begin("checkpoint.restore", None, None));
                    let restored = match checkpoint::restore_latest::<C>(fs, ckpt) {
                        Ok(Some(restored)) => restored,
                        // No committed checkpoint to fall back to: the
                        // original failure stands.
                        Ok(None) => return Err((failed_at, err)),
                        Err(ck) => return Err((failed_at, EngineError::Checkpoint(ck))),
                    };
                    state.recoveries += 1;
                    let resumed_at = restored.superstep;
                    self.resume_from(state, shared, restored);
                    if let Some(store) = ctx.spill {
                        // Every partition was just replaced in memory;
                        // stale spill segments and shuffle charges from
                        // the failed attempt are dropped and the store is
                        // evicted back down to the budget.
                        store
                            .reset(&shared.partitions)
                            .map_err(|e| (failed_at, EngineError::Spill(e)))?;
                    }
                    if let Some(log) = ctx.msglog {
                        // Drop every frame from the failed attempt: the
                        // replay re-appends identical ones, and a stale
                        // leftover would shadow them in a later confined
                        // recovery.
                        log.reset_to(resumed_at)
                            .map_err(|e| (failed_at, EngineError::MessageLog(e)))?;
                    }
                    if let (Some(obs), Some(begin)) = (&self.obs, begin) {
                        let dur = obs.end(
                            "checkpoint.restore",
                            None,
                            None,
                            begin,
                            &[
                                ("failed_superstep", failed_at.to_string()),
                                ("resumed_superstep", resumed_at.to_string()),
                            ],
                        );
                        obs.point(
                            "recovery",
                            None,
                            None,
                            &[
                                ("attempt", state.recoveries.to_string()),
                                ("failed_superstep", failed_at.to_string()),
                                ("resumed_superstep", resumed_at.to_string()),
                                ("error", err.to_string()),
                            ],
                        );
                        let reg = obs.registry();
                        reg.inc("pregel_recoveries_total", Scope::GLOBAL, 1);
                        reg.observe_time("checkpoint_restore_nanos", Scope::GLOBAL, dur);
                    }
                    // The restored superstep's checkpoint is the one we
                    // just loaded; don't rewrite it before the replay.
                    state.last_checkpoint = Some(resumed_at);
                    for obs in &self.observers {
                        obs.on_restore(resumed_at);
                    }
                }
            }
        }
    }

    /// A registry with the computation's (and master's) aggregators
    /// registered and all values at their identities.
    fn fresh_registry(&self) -> AggregatorRegistry {
        let mut registry = AggregatorRegistry::new();
        self.computation.register_aggregators(&mut registry);
        if let Some(master) = &self.master {
            master.register_aggregators(&mut registry);
        }
        registry
    }

    /// Rewinds the job to a restored checkpoint: partitions and registry
    /// are replaced in place (pooled workers keep their shared borrows),
    /// and any shuffle batches staged by the failed superstep's partial
    /// compute phase are discarded back to the buffer pool.
    fn resume_from(
        &self,
        state: &mut LoopState<C>,
        shared: &SharedState<C>,
        restored: checkpoint::RestoredState<C>,
    ) {
        let mut registry = self.fresh_registry();
        for (name, value) in restored.aggregators {
            // Aggregators in the checkpoint but no longer registered
            // cannot occur within one run; the guard keeps restore total.
            if registry.contains(&name) {
                registry.set(&name, value);
            }
        }
        for (slot, partition) in shared.partitions.iter().zip(restored.partitions) {
            *lock(slot) = partition;
        }
        *write(&shared.registry) = registry;
        shared.clear_incoming();
        state.superstep = restored.superstep;
        (state.num_vertices, state.num_edges, _) = census(shared.partitions.iter().map(lock));
        // One entry per completed superstep, so entry i is superstep i:
        // drop everything the replay will re-execute.
        state.all_stats.truncate(restored.superstep as usize);
    }

    /// Runs one full superstep (phases 1–6) against `state`.
    ///
    /// Returns `Ok(Some(reason))` when the job halted, `Ok(None)` when it
    /// should continue with the next superstep, and `Err` on a failure.
    /// When the failure is confined to the compute phase, the error
    /// carries everything confined recovery needs: the survivors'
    /// finished outputs and the failed-worker list.
    fn execute_superstep(
        &self,
        state: &mut LoopState<C>,
        pool: &PoolSync<C>,
        ctx: EngineCtx<'_, C>,
    ) -> Result<Option<HaltReason>, StepFailure<C>> {
        let shared = ctx.shared;
        let superstep = state.superstep;
        let global =
            GlobalData { superstep, num_vertices: state.num_vertices, num_edges: state.num_edges };
        let obs = self.obs.as_deref();
        let ss_begin = obs.map(|o| o.begin("superstep", Some(superstep), None));

        // Phase 1: master computation (beginning of superstep).
        if let Some(master) = &self.master {
            let master_begin = obs.map(|o| o.begin("phase.master", Some(superstep), None));
            let halted = {
                let mut registry = write(&shared.registry);
                let mut mctx = MasterContext::new(global, &mut registry);
                let result = catch_unwind(AssertUnwindSafe(|| master.compute(&mut mctx)));
                if let Err(payload) = result {
                    return Err(StepFailure::fatal(EngineError::MasterPanic {
                        superstep,
                        message: panic_message(&*payload),
                    }));
                }
                mctx.is_halted()
            };
            if let (Some(o), Some(begin)) = (obs, master_begin) {
                let dur = o.end(
                    "phase.master",
                    Some(superstep),
                    None,
                    begin,
                    &[("halted", halted.to_string())],
                );
                o.registry().observe_time("phase_master_nanos", Scope::GLOBAL, dur);
            }
            let snapshot = read(&shared.registry).snapshot();
            for obs in &self.observers {
                obs.on_master_computed(superstep, &global, &snapshot, halted);
            }
            if halted {
                return Ok(Some(HaltReason::MasterHalted));
            }
        }

        let compute_start = Instant::now();
        let compute_begin = obs.map(|o| o.begin("phase.compute", Some(superstep), None));

        // Phase 2: parallel vertex computation. Every worker's result is
        // collected — confined recovery needs the survivors' outputs and
        // the full failed-worker list, not just the first error.
        pool.dispatch(ctx, PoolCommand::Compute(global), &mut state.staged);
        let mut failed: Vec<usize> = Vec::new();
        let mut first_err: Option<EngineError> = None;
        let outputs: Vec<Option<WorkerOutput<C>>> = collect(&pool.compute_results)
            .into_iter()
            .enumerate()
            .map(|(worker, result)| {
                let note = |err| {
                    failed.push(worker);
                    first_err.get_or_insert(err);
                };
                result.map_err(note).ok()
            })
            .collect();
        if let Some(error) = first_err {
            return Err(StepFailure {
                error,
                compute: Some(Box::new(ComputeFailure { global, failed, outputs })),
            });
        }
        let outputs: Vec<WorkerOutput<C>> =
            outputs.into_iter().map(|o| o.expect("no error implies output")).collect();

        self.finish_superstep(
            state,
            pool,
            ctx,
            global,
            outputs,
            compute_start,
            ss_begin,
            compute_begin,
        )
    }

    /// Phases 3–6 of a superstep whose compute phase fully succeeded:
    /// aggregator merge, delivery, mutations, the coordinator log frame,
    /// stats, and the halting check. Shared by the normal path and the
    /// tail of a confined recovery.
    #[allow(clippy::too_many_arguments)]
    fn finish_superstep(
        &self,
        state: &mut LoopState<C>,
        pool: &PoolSync<C>,
        ctx: EngineCtx<'_, C>,
        global: GlobalData,
        mut outputs: Vec<WorkerOutput<C>>,
        compute_start: Instant,
        ss_begin: Option<u64>,
        compute_begin: Option<u64>,
    ) -> Result<Option<HaltReason>, StepFailure<C>> {
        let shared = ctx.shared;
        let superstep = global.superstep;
        let obs = self.obs.as_deref();

        let compute_calls: u64 = outputs.iter().map(|o| o.compute_calls).sum();
        let messages_sent: u64 = outputs.iter().map(|o| o.messages_sent).sum();
        let messages_shuffled: u64 = outputs.iter().map(|o| o.messages_shuffled).sum();

        if let (Some(o), Some(begin)) = (obs, compute_begin) {
            let worker_nanos: Vec<String> =
                outputs.iter().enumerate().map(|(w, out)| format!("{w}:{}", out.nanos)).collect();
            let dur = o.end(
                "phase.compute",
                Some(superstep),
                None,
                begin,
                &[
                    ("compute_calls", compute_calls.to_string()),
                    ("messages_sent", messages_sent.to_string()),
                    ("worker_nanos", worker_nanos.join(";")),
                ],
            );
            let reg = o.registry();
            reg.observe_time("phase_compute_nanos", Scope::GLOBAL, dur);
            reg.inc("pregel_messages_shuffled", Scope::superstep(superstep), messages_shuffled);
            for (w, out) in outputs.iter().enumerate() {
                reg.observe_time("worker_compute_nanos", Scope::worker(w as u64), out.nanos);
                reg.inc(
                    "pregel_worker_compute_calls",
                    Scope::at(w as u64, superstep),
                    out.compute_calls,
                );
            }
            // GiViP-style skew watch: flag workers whose compute time
            // blows past the median, for the live monitoring views.
            let nanos: Vec<u64> = outputs.iter().map(|out| out.nanos).collect();
            for (w, nanos, median) in detect_stragglers(&nanos, self.config.straggler_threshold) {
                o.point(
                    graft_obs::STRAGGLER_EVENT,
                    Some(superstep),
                    Some(w as u64),
                    &[("nanos", nanos.to_string()), ("median_nanos", median.to_string())],
                );
                reg.inc(graft_obs::STRAGGLERS_COUNTER, Scope::GLOBAL, 1);
                reg.inc(graft_obs::STRAGGLERS_COUNTER, Scope::at(w as u64, superstep), 1);
            }
        }

        // In log-replay mode, snapshot the registry before the merge:
        // this post-master, pre-merge state is what this superstep's
        // `compute()` calls observed, and what a confined replay of them
        // must observe again.
        let coord_aggs = ctx.msglog.map(|_| read(&shared.registry).snapshot());

        // Phase 3: merge aggregator partials.
        let aggregate_begin = obs.map(|o| o.begin("phase.aggregate", Some(superstep), None));
        write(&shared.registry)
            .merge_superstep(outputs.iter_mut().map(|o| std::mem::take(&mut o.aggs)).collect());
        if let (Some(o), Some(begin)) = (obs, aggregate_begin) {
            let dur = o.end("phase.aggregate", Some(superstep), None, begin, &[]);
            o.registry().observe_time("phase_aggregate_nanos", Scope::GLOBAL, dur);
        }
        let compute_time = compute_start.elapsed();

        let delivery_start = Instant::now();
        let delivery_begin = obs.map(|o| o.begin("phase.delivery", Some(superstep), None));

        // Phase 4: parallel message delivery from the staged shuffle.
        pool.dispatch(ctx, PoolCommand::Deliver { superstep }, &mut state.staged);
        // A delivery failure is not confined-recoverable: inboxes may be
        // half-updated, which only a full restore heals.
        let delivery: Vec<DeliveryCounts> = collect(&pool.deliver_results)
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(StepFailure::fatal)?;

        let messages_delivered: u64 = delivery.iter().map(|d| d.delivered).sum();
        let messages_to_missing: u64 = delivery.iter().map(|d| d.missing).sum();
        let mut active_vertices: u64 = delivery.iter().map(|d| d.active).sum();
        state.num_edges = delivery.iter().map(|d| d.edges).sum();

        if let (Some(o), Some(begin)) = (obs, delivery_begin) {
            let worker_nanos: Vec<String> =
                delivery.iter().enumerate().map(|(w, d)| format!("{w}:{}", d.nanos)).collect();
            let dur = o.end(
                "phase.delivery",
                Some(superstep),
                None,
                begin,
                &[
                    ("delivered", messages_delivered.to_string()),
                    ("missing", messages_to_missing.to_string()),
                    ("worker_nanos", worker_nanos.join(";")),
                ],
            );
            let reg = o.registry();
            reg.observe_time("phase_delivery_nanos", Scope::GLOBAL, dur);
            for (w, d) in delivery.iter().enumerate() {
                reg.observe_time("worker_delivery_nanos", Scope::worker(w as u64), d.nanos);
            }
        }

        // Phase 5: apply topology mutations.
        let mutations: Vec<MutationOf<C>> = outputs.into_iter().flat_map(|o| o.mutations).collect();
        let mutations_applied = if mutations.is_empty() {
            0
        } else {
            let mutate_begin = obs.map(|o| o.begin("phase.mutate", Some(superstep), None));
            let applied = {
                // Mutations can touch any partition; bring everything
                // resident first. Declared before the lock guards so the
                // pins release only after the locks drop.
                let _pins = match ctx.spill {
                    Some(store) => Some(
                        store
                            .pin_all(&shared.partitions)
                            .map_err(|e| StepFailure::fatal(EngineError::Spill(e)))?,
                    ),
                    None => None,
                };
                let mut guards: Vec<_> = shared.partitions.iter().map(lock).collect();
                let applied = apply_mutations::<C, _>(&mut guards, mutations);
                (state.num_vertices, state.num_edges, active_vertices) =
                    census(guards.iter().map(|g| &**g));
                applied
            };
            if let (Some(o), Some(begin)) = (obs, mutate_begin) {
                let dur = o.end(
                    "phase.mutate",
                    Some(superstep),
                    None,
                    begin,
                    &[("applied", applied.to_string())],
                );
                o.registry().observe_time("phase_mutate_nanos", Scope::GLOBAL, dur);
            }
            applied
        };
        let delivery_time = delivery_start.elapsed();

        // The coordinator frame closes the superstep's log record; a
        // replay cannot start from a superstep whose frame is missing.
        if let Some(log) = ctx.msglog {
            let frame = CoordFrame {
                superstep,
                num_vertices: global.num_vertices,
                num_edges: global.num_edges,
                aggregators: coord_aggs.unwrap_or_default(),
                mutations_applied,
            };
            let bytes = log
                .append_coord_frame(&frame)
                .map_err(|e| StepFailure::fatal(EngineError::MessageLog(e)))?;
            if let Some(o) = obs {
                o.registry().inc("pregel_msglog_bytes_total", Scope::GLOBAL, bytes);
            }
        }

        let stats = SuperstepStats {
            superstep,
            compute_calls,
            active_vertices,
            messages_sent,
            messages_delivered,
            messages_to_missing,
            mutations_applied,
            compute_time,
            delivery_time,
            wall_time: compute_time + delivery_time,
        };
        if let (Some(o), Some(begin)) = (obs, ss_begin) {
            let dur = o.end(
                "superstep",
                Some(superstep),
                None,
                begin,
                &[
                    ("compute_calls", compute_calls.to_string()),
                    ("messages_sent", messages_sent.to_string()),
                    ("messages_delivered", messages_delivered.to_string()),
                    ("active_vertices", active_vertices.to_string()),
                ],
            );
            let reg = o.registry();
            reg.inc("pregel_supersteps_total", Scope::GLOBAL, 1);
            reg.inc("pregel_compute_calls", Scope::superstep(superstep), compute_calls);
            reg.inc("pregel_messages_sent", Scope::superstep(superstep), messages_sent);
            reg.inc("pregel_messages_delivered", Scope::superstep(superstep), messages_delivered);
            if messages_to_missing > 0 {
                reg.inc(
                    "pregel_messages_to_missing",
                    Scope::superstep(superstep),
                    messages_to_missing,
                );
            }
            if mutations_applied > 0 {
                reg.inc("pregel_mutations_applied", Scope::superstep(superstep), mutations_applied);
            }
            reg.set_gauge(
                "pregel_active_vertices",
                Scope::superstep(superstep),
                active_vertices as i64,
            );
            reg.max_gauge("pregel_peak_active_vertices", Scope::GLOBAL, active_vertices as i64);
            reg.observe_time("superstep_wall_nanos", Scope::GLOBAL, dur);
        }
        for obs in &self.observers {
            obs.on_superstep_end(&stats);
        }
        state.all_stats.push(stats);
        state.superstep += 1;

        // Phase 6: halting check.
        if active_vertices == 0 && messages_delivered == 0 {
            return Ok(Some(HaltReason::AllVerticesHalted));
        }
        if state.superstep >= self.config.max_supersteps {
            return Ok(Some(HaltReason::MaxSuperstepsReached));
        }
        Ok(None)
    }

    /// Confined recovery: restore *only* the failed workers' partitions
    /// from the last committed checkpoint and replay them forward against
    /// the message log while survivors keep their current state, then
    /// re-run the failed superstep's compute for the failed workers and
    /// finish the superstep normally.
    ///
    /// Returns [`Confined::FellThrough`] — with nothing mutated — when a
    /// precondition fails (no checkpoint, no survivors, a mutation in the
    /// replay window, a torn log); the caller then falls back to a full
    /// restart. An `Err` means the replay itself failed after state was
    /// already touched; the caller must not continue without restoring.
    #[allow(clippy::too_many_arguments)]
    fn confined_recover(
        &self,
        state: &mut LoopState<C>,
        pool: &PoolSync<C>,
        ctx: EngineCtx<'_, C>,
        fs: &Arc<dyn FileSystem>,
        ckpt: &CheckpointConfig,
        log: &MsgLog,
        failure: ComputeFailure<C>,
        err: &EngineError,
    ) -> Result<Confined, StepFailure<C>> {
        let shared = ctx.shared;
        let failed_at = state.superstep;
        let ComputeFailure { global, failed, mut outputs } = failure;

        // Preconditions, all checked before anything is mutated.
        let Some(cp) = state.last_checkpoint else { return Ok(Confined::FellThrough) };
        if failed.is_empty() || failed.len() >= ctx.num_partitions {
            return Ok(Confined::FellThrough);
        }
        // One coordinator frame per superstep since the checkpoint, none
        // of which may carry topology mutations (mutations can touch any
        // partition; the log cannot confine their replay).
        let Ok(coord_frames) = log.read_coord_frames(cp) else {
            return Ok(Confined::FellThrough);
        };
        let replayed = (failed_at - cp) as usize;
        if coord_frames.len() != replayed
            || coord_frames
                .iter()
                .enumerate()
                .any(|(i, f)| f.superstep != cp + i as u64 || f.mutations_applied != 0)
        {
            return Ok(Confined::FellThrough);
        }
        // Every survivor must have logged a frame for every replayed
        // superstep; a gap is a torn log.
        let survivors: Vec<usize> =
            (0..ctx.num_partitions).filter(|w| !failed.contains(w)).collect();
        let mut survivor_frames: FxHashMap<(usize, u64), _> = FxHashMap::default();
        for &w in &survivors {
            let Ok(frames) = log.read_worker_frames::<C::Id, C::Message>(w, cp) else {
                return Ok(Confined::FellThrough);
            };
            for frame in frames {
                survivor_frames.insert((w, frame.superstep), frame);
            }
            if (cp..failed_at).any(|s| !survivor_frames.contains_key(&(w, s))) {
                return Ok(Confined::FellThrough);
            }
        }
        // Load the failed partitions before committing, so a checkpoint
        // read failure still leaves the full restart available.
        let Ok((restored, _)) = checkpoint::restore_partitions::<C>(fs, ckpt, cp, &failed) else {
            return Ok(Confined::FellThrough);
        };

        // Commit point: from here on, state is mutated and any failure
        // must surface as an error, not a fall-through.
        state.recoveries += 1;
        let begin = self.obs.as_ref().map(|o| o.begin("recovery.confined", None, None));
        for obs in &self.observers {
            obs.on_confined_restore(cp, &failed);
        }
        for (p, partition) in restored {
            *lock(&shared.partitions[p]) = partition;
        }
        // Under a budget, the replay below locks the failed partitions
        // directly (bypassing the worker pin path), so they must be made
        // resident and pinned first — an eviction mid-replay would feed
        // the replay an empty partition. Pinning one at a time keeps each
        // already-pinned partition safe from the next one's evictions.
        // The pins must NOT outlive the replay: the re-compute and the
        // deliver phase below pin through the worker path with wait=true,
        // and a waiting worker only ever wakes when an outstanding pin
        // releases — a coordinator pin held across `finish_superstep`
        // would deadlock the whole pool on a tight budget.
        let confined_pins = match ctx.spill {
            Some(store) => {
                let mut pins = Vec::with_capacity(failed.len());
                for &p in &failed {
                    store
                        .mark_resident(&shared.partitions, p)
                        .map_err(|e| StepFailure::fatal(EngineError::Spill(e)))?;
                    pins.push(
                        store
                            .pin(&shared.partitions, p, false)
                            .map_err(|e| StepFailure::fatal(EngineError::Spill(e)))?,
                    );
                }
                Some(pins)
            }
            None => None,
        };

        // Replay supersteps cp..failed_at on the failed partitions only.
        // Each superstep: recompute against the logged aggregator
        // snapshot and global data, then deliver — survivors' batches
        // come from their logs, failed workers' from the recomputation —
        // in source-worker order, exactly as a live superstep merges.
        let replay = (|| -> Result<(), EngineError> {
            for s in cp..failed_at {
                let frame = &coord_frames[(s - cp) as usize];
                let mut registry = self.fresh_registry();
                for (name, value) in &frame.aggregators {
                    if registry.contains(name) {
                        registry.set(name, value.clone());
                    }
                }
                let replay_global = GlobalData {
                    superstep: s,
                    num_vertices: frame.num_vertices,
                    num_edges: frame.num_edges,
                };
                let mut regenerated: FxHashMap<(usize, usize), Outbox<C>> = FxHashMap::default();
                for &w in &failed {
                    let outboxes = match catch_unwind(AssertUnwindSafe(|| {
                        worker_compute_core(ctx, w, replay_global, &mut Vec::new(), &registry)
                    })) {
                        Ok(Ok((_, outboxes))) => outboxes,
                        Ok(Err(e)) => return Err(e),
                        Err(_) => {
                            return Err(EngineError::WorkerCrashed { worker: w, superstep: s })
                        }
                    };
                    for (p, outbox) in outboxes.into_iter().enumerate() {
                        // Batches aimed at survivors were already
                        // delivered in the original run; only those bound
                        // for failed partitions are replayed.
                        if !outbox.is_empty() && failed.contains(&p) {
                            regenerated.insert((w, p), outbox);
                        } else {
                            shared.buffers.put(outbox);
                        }
                    }
                }
                for &p in &failed {
                    let mut partition_guard = lock(&shared.partitions[p]);
                    let partition = &mut *partition_guard;
                    let mut delivered = 0u64;
                    let mut missing = 0u64;
                    for w in 0..ctx.num_partitions {
                        let batch = if failed.contains(&w) {
                            match regenerated.remove(&(w, p)) {
                                Some(batch) => batch,
                                None => continue,
                            }
                        } else {
                            let frame = &survivor_frames[&(w, s)];
                            match frame.batches.iter().find(|(target, _)| *target == p) {
                                Some((_, batch)) => unlog_batch::<C>(batch),
                                None => continue,
                            }
                        };
                        apply_batch(
                            ctx.computation,
                            partition,
                            batch,
                            &mut delivered,
                            &mut missing,
                            &shared.buffers,
                        );
                    }
                }
            }
            Ok(())
        })();
        drop(confined_pins);

        // Re-run the failed superstep's compute for the failed workers
        // only; the wrapper path re-logs and ships their frames, so the
        // log and the staging slots end up exactly as if the superstep
        // had never failed. Survivors' batches are already staged.
        let mut recover_err = replay.err();
        if recover_err.is_none() {
            for &w in &failed {
                match guarded_compute(ctx, w, global, &mut Vec::new()) {
                    Ok(output) => outputs[w] = Some(output),
                    Err(e) => {
                        recover_err = Some(e);
                        break;
                    }
                }
            }
        }

        if let (Some(obs), Some(begin)) = (&self.obs, begin) {
            let mut attrs = vec![
                ("failed_superstep", failed_at.to_string()),
                ("checkpoint", cp.to_string()),
                ("workers", failed.iter().map(|w| w.to_string()).collect::<Vec<_>>().join(";")),
                ("error", err.to_string()),
            ];
            if let Some(e) = &recover_err {
                attrs.push(("replay_error", e.to_string()));
            }
            let dur = obs.end("recovery.confined", None, None, begin, &attrs);
            let reg = obs.registry();
            reg.inc("pregel_confined_recoveries_total", Scope::GLOBAL, 1);
            reg.observe_time("recovery_confined_nanos", Scope::GLOBAL, dur);
        }
        if let Some(e) = recover_err {
            return Err(StepFailure::fatal(e));
        }
        let outputs: Vec<WorkerOutput<C>> = outputs
            .into_iter()
            .map(|o| o.expect("confined recovery fills every failed worker's output"))
            .collect();

        // The failed attempt's superstep spans never closed; open fresh
        // tokens so the recovered superstep is observable like any other.
        let obs = self.obs.as_deref();
        let ss_begin = obs.map(|o| o.begin("superstep", Some(failed_at), None));
        let compute_begin = obs.map(|o| o.begin("phase.compute", Some(failed_at), None));
        self.finish_superstep(
            state,
            pool,
            ctx,
            global,
            outputs,
            Instant::now(),
            ss_begin,
            compute_begin,
        )
        .map(Confined::Done)
    }
}

/// Coordinator-side loop bookkeeping. The graph state itself lives in
/// [`SharedState`], where both the coordinator and the workers can reach
/// it between barriers.
struct LoopState<C: Computation> {
    superstep: u64,
    all_stats: Vec<SuperstepStats>,
    num_vertices: u64,
    num_edges: u64,
    recoveries: u64,
    last_checkpoint: Option<u64>,
    /// Thread 0's staged-send buffer (see [`pool_worker`]).
    staged: RawBatch<C>,
}

/// A failed superstep: the error plus — when the failure was confined to
/// the compute phase — everything confined recovery needs to heal it.
struct StepFailure<C: Computation> {
    error: EngineError,
    compute: Option<Box<ComputeFailure<C>>>,
}

impl<C: Computation> StepFailure<C> {
    /// A failure confined recovery cannot heal (master panic, delivery
    /// failure, log or checkpoint I/O): the error alone.
    fn fatal(error: EngineError) -> Self {
        Self { error, compute: None }
    }
}

/// The compute phase's full outcome at a failed superstep: the finished
/// outputs (indexed by worker, `None` exactly at the failed workers) and
/// the failed-worker list.
struct ComputeFailure<C: Computation> {
    global: GlobalData,
    failed: Vec<usize>,
    outputs: Vec<Option<WorkerOutput<C>>>,
}

/// Outcome of a confined recovery attempt that did not itself fail.
enum Confined {
    /// The failed superstep finished; the payload is
    /// `execute_superstep`'s continue/halt result.
    Done(Option<HaltReason>),
    /// A precondition failed before anything was mutated; the caller
    /// falls back to a full restart.
    FellThrough,
}

/// `err` back when one more restore-and-replay may heal it, else the
/// error the job fails with. Master panics are not healed: the master
/// is the coordinator itself (its failure kills a Pregel job), and a
/// deterministic master panic would simply re-fire every replay.
fn may_recover(
    err: EngineError,
    recoveries: u64,
    ckpt: &CheckpointConfig,
) -> Result<EngineError, EngineError> {
    if !matches!(err, EngineError::VertexPanic { .. } | EngineError::WorkerCrashed { .. }) {
        return Err(err);
    }
    if recoveries < ckpt.max_recoveries {
        return Ok(err);
    }
    Err(EngineError::RecoveryExhausted { attempts: recoveries, last_error: Box::new(err) })
}

/// Locks a mutex. Worker phases run under `catch_unwind`, so a panicked
/// phase must not cascade into poisoned-lock panics on healthy threads;
/// the shim recovers poison centrally (the panic already surfaced as an
/// error through a result slot). `#[track_caller]` keeps check-sched
/// replay traces pointing at the real call sites.
#[track_caller]
fn lock<T>(mutex: &Mutex<T>) -> graft_sched::sync::MutexGuard<'_, T> {
    mutex.lock()
}

#[track_caller]
fn read<T>(rwlock: &RwLock<T>) -> graft_sched::sync::RwLockReadGuard<'_, T> {
    rwlock.read()
}

#[track_caller]
fn write<T>(rwlock: &RwLock<T>) -> graft_sched::sync::RwLockWriteGuard<'_, T> {
    rwlock.write()
}

/// The live path's per-superstep skew detector: workers whose compute
/// time exceeds `threshold ×` the median of `worker_nanos`, as
/// `(worker, nanos, median)` triples in worker order. A non-positive
/// threshold, fewer than two workers, or a zero median (nothing
/// measured yet) yields no stragglers.
pub fn detect_stragglers(worker_nanos: &[u64], threshold: f64) -> Vec<(usize, u64, u64)> {
    if threshold <= 0.0 || worker_nanos.len() < 2 {
        return Vec::new();
    }
    let mut sorted: Vec<u64> = worker_nanos.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    if median == 0 {
        return Vec::new();
    }
    worker_nanos
        .iter()
        .enumerate()
        .filter(|(_, &nanos)| nanos as f64 > median as f64 * threshold)
        .map(|(w, &nanos)| (w, nanos, median))
        .collect()
}

/// Job state shared between the coordinator and the worker threads.
/// Workers lock only their own partition (and briefly the staging slots
/// they ship batches to); the coordinator locks between phases, when the
/// barriers guarantee every worker is parked.
struct SharedState<C: Computation> {
    partitions: Vec<Mutex<Partition<C>>>,
    /// Shuffle staging: `incoming[partition][source_worker]` holds the
    /// batch worker `source_worker` produced for `partition` this
    /// superstep. Slot order makes delivery merge in worker-index order.
    incoming: Vec<Mutex<Vec<Option<Outbox<C>>>>>,
    buffers: BufferPool<C>,
    registry: RwLock<AggregatorRegistry>,
}

impl<C: Computation> SharedState<C> {
    fn new(partitions: Vec<Partition<C>>, registry: AggregatorRegistry) -> Self {
        let n = partitions.len();
        Self {
            partitions: partitions.into_iter().map(Mutex::new).collect(),
            incoming: (0..n).map(|_| Mutex::new((0..n).map(|_| None).collect())).collect(),
            buffers: BufferPool::new(),
            registry: RwLock::new(registry),
        }
    }

    /// Discards any staged shuffle batches (a failed superstep leaves
    /// behind the batches of the workers that succeeded).
    fn clear_incoming(&self) {
        for slots in &self.incoming {
            for slot in lock(slots).iter_mut() {
                if let Some(batch) = slot.take() {
                    self.buffers.put(batch);
                }
            }
        }
    }
}

/// `(vertices, edges, active vertices)` from the partitions' carried counts.
pub(crate) fn census<C: Computation, P: std::ops::Deref<Target = Partition<C>>>(
    partitions: impl Iterator<Item = P>,
) -> (u64, u64, u64) {
    partitions.fold((0, 0, 0), |(vertices, edges, active), p| {
        let (v, e, a) = p.counts();
        debug_assert_eq!(e, p.count_edges());
        (vertices + v, edges + e, active + a)
    })
}

/// One shuffle batch in flight from a compute worker to a delivery
/// worker.
enum Outbox<C: Computation> {
    /// The raw `(target, message)` stream, in send order.
    Raw(RawBatch<C>),
    /// Sender-combined: one folded message (plus raw count) per target.
    Combined(CombinedBatch<C>),
    /// A batch that exceeded the memory budget at ship time: its framed
    /// `LoggedBatch` encoding lives in a spill segment, streamed back at
    /// delivery. Never staged empty, never logged (logging precedes
    /// shipping), never pooled.
    Spilled {
        path: String,
        /// Entry count of the batch on disk, for shuffle stats.
        entries: usize,
    },
}

impl<C: Computation> Outbox<C> {
    fn is_empty(&self) -> bool {
        match self {
            Outbox::Raw(v) => v.is_empty(),
            Outbox::Combined(m) => m.is_empty(),
            Outbox::Spilled { entries, .. } => *entries == 0,
        }
    }

    /// Entries that physically cross the shuffle.
    fn len(&self) -> usize {
        match self {
            Outbox::Raw(v) => v.len(),
            Outbox::Combined(m) => m.len(),
            Outbox::Spilled { entries, .. } => *entries,
        }
    }
}

/// Recycles shuffle buffers across supersteps. Buffers migrate between
/// threads (filled by compute workers, drained and returned by delivery
/// workers), so the free lists are shared. Returned buffers are cleared;
/// only capacity is reused.
struct BufferPool<C: Computation> {
    raw: Mutex<Vec<RawBatch<C>>>,
    combined: Mutex<Vec<CombinedBatch<C>>>,
}

impl<C: Computation> BufferPool<C> {
    fn new() -> Self {
        Self { raw: Mutex::new(Vec::new()), combined: Mutex::new(Vec::new()) }
    }

    fn take(&self, combined: bool) -> Outbox<C> {
        if combined {
            Outbox::Combined(lock(&self.combined).pop().unwrap_or_default())
        } else {
            Outbox::Raw(lock(&self.raw).pop().unwrap_or_default())
        }
    }

    fn put(&self, outbox: Outbox<C>) {
        match outbox {
            Outbox::Raw(mut v) => {
                v.clear();
                lock(&self.raw).push(v);
            }
            Outbox::Combined(mut m) => {
                m.clear();
                lock(&self.combined).push(m);
            }
            // No in-memory buffer to recycle.
            Outbox::Spilled { .. } => {}
        }
    }
}

/// Everything a worker phase needs, bundled so it can be copied into
/// the pool threads.
struct EngineCtx<'a, C: Computation> {
    computation: &'a C,
    shared: &'a SharedState<C>,
    faults: Option<&'a ArmedFaults>,
    obs: Option<&'a Obs>,
    msglog: Option<&'a MsgLog>,
    spill: Option<&'a SpillStore<C>>,
    num_partitions: usize,
}

impl<C: Computation> Clone for EngineCtx<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C: Computation> Copy for EngineCtx<'_, C> {}

struct WorkerOutput<C: Computation> {
    aggs: WorkerAggregators,
    mutations: Vec<MutationOf<C>>,
    compute_calls: u64,
    messages_sent: u64,
    /// Entries that physically crossed the shuffle (== `messages_sent`
    /// for raw batches, less when sender-side combining collapsed them).
    messages_shuffled: u64,
    /// Observability-clock nanoseconds this worker spent in phase 2
    /// (zero when the engine runs without an [`Obs`] handle).
    nanos: u64,
}

struct DeliveryCounts {
    delivered: u64,
    missing: u64,
    active: u64,
    edges: u64,
    /// Observability-clock nanoseconds this worker spent delivering.
    nanos: u64,
}

/// Folds one `(target, message)` send into a worker's combining map, in
/// send order. The count tracks raw messages so delivery stats stay
/// exact.
fn fold_entry<C: Computation>(
    computation: &C,
    map: &mut CombinedBatch<C>,
    target: C::Id,
    message: C::Message,
) {
    use std::collections::hash_map::Entry;
    match map.entry(target) {
        Entry::Occupied(mut entry) => {
            let (acc, count) = entry.get_mut();
            *acc = computation.combine(acc, &message);
            *count += 1;
        }
        Entry::Vacant(entry) => {
            entry.insert((message, 1));
        }
    }
}

/// Phase 2 for one worker: compute the partition (the core), then — in
/// log-replay mode — append the outgoing frame to the message log, and
/// finally ship the non-empty outboxes to the staging slots.
///
/// Logging strictly precedes shipping: once any batch of a superstep is
/// observable by another partition, the log provably holds all of them.
fn worker_compute<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
    global: GlobalData,
    staged: &mut RawBatch<C>,
) -> Result<WorkerOutput<C>, EngineError> {
    // Under a budget, bring this worker's partition resident and keep it
    // pinned for the whole phase; released (and its charge refreshed)
    // when the guard drops, even if compute fails.
    let _pin = match ctx.spill {
        Some(store) => {
            Some(store.pin(&ctx.shared.partitions, worker_id, true).map_err(EngineError::Spill)?)
        }
        None => None,
    };
    let (mut output, outboxes) = {
        let registry = read(&ctx.shared.registry);
        worker_compute_core(ctx, worker_id, global, staged, &registry)?
    };

    if let Some(log) = ctx.msglog {
        // A frame every superstep, including empty ones: a gap reads as
        // a torn log and disables confined replay for its segment.
        let frame = WorkerFrame {
            superstep: global.superstep,
            batches: outboxes
                .iter()
                .enumerate()
                .filter(|(_, o)| !o.is_empty())
                .map(|(p, o)| (p, OutboxRef(o)))
                .collect(),
        };
        let bytes = log.append_worker_frame(worker_id, &frame).map_err(EngineError::MessageLog)?;
        if let Some(o) = ctx.obs {
            o.registry().inc("pregel_msglog_bytes_total", Scope::GLOBAL, bytes);
        }
    }

    let mut messages_shuffled = 0u64;
    for (p, outbox) in outboxes.into_iter().enumerate() {
        if outbox.is_empty() {
            ctx.shared.buffers.put(outbox);
            continue;
        }
        messages_shuffled += outbox.len() as u64;
        let staged = stage_outbox(ctx, worker_id, global.superstep, p, outbox)?;
        lock(&ctx.shared.incoming[p])[worker_id] = Some(staged);
    }
    output.messages_shuffled = messages_shuffled;
    Ok(output)
}

/// Stages one non-empty outbox for delivery. Without a budget (or when
/// the batch's serialized size still fits) the batch stays in memory,
/// charged against the budget. Past the budget, its framed
/// `LoggedBatch` encoding is written to a per-target spill segment and
/// only the path crosses the shuffle.
fn stage_outbox<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
    superstep: u64,
    target: usize,
    outbox: Outbox<C>,
) -> Result<Outbox<C>, EngineError> {
    let Some(store) = ctx.spill else { return Ok(outbox) };
    let size = graft_codec::framed_size(&OutboxRef(&outbox))
        .map_err(|e| EngineError::Spill(CheckpointError::new("sizing shuffle batch", e)))?;
    if store.try_charge_shuffle(target, worker_id, size) {
        return Ok(outbox);
    }
    let entries = outbox.len();
    let mut frame = Vec::with_capacity(size as usize);
    graft_codec::write_framed(&mut frame, &OutboxRef(&outbox))
        .map_err(|e| EngineError::Spill(CheckpointError::new("encoding shuffle batch", e)))?;
    ctx.shared.buffers.put(outbox);
    let path =
        store.write_shuffle(superstep, target, worker_id, &frame).map_err(EngineError::Spill)?;
    Ok(Outbox::Spilled { path, entries })
}

/// The compute loop proper: runs every active vertex of the worker's
/// partition against an explicit aggregator registry, returning the
/// filled outboxes *unshipped* (with `messages_shuffled` still zero).
/// Confined replay calls this directly with a registry rebuilt from a
/// logged snapshot, bypassing both the log append and the shuffle.
fn worker_compute_core<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
    global: GlobalData,
    staged: &mut RawBatch<C>,
    registry: &AggregatorRegistry,
) -> Result<(WorkerOutput<C>, Vec<Outbox<C>>), EngineError> {
    let timer = ctx.obs.map(|o| o.timer());
    // Injected crash: the worker dies before computing any of its
    // vertices, leaving the superstep unfinished.
    if let Some(faults) = ctx.faults {
        if faults.take_worker_crash(worker_id, global.superstep) {
            return Err(EngineError::WorkerCrashed {
                worker: worker_id,
                superstep: global.superstep,
            });
        }
    }
    let computation = ctx.computation;
    let use_combiner = computation.use_combiner();
    let mut outboxes: Vec<Outbox<C>> =
        (0..ctx.num_partitions).map(|_| ctx.shared.buffers.take(use_combiner)).collect();

    let mut worker_aggs = WorkerAggregators::for_registry(registry);
    let mut mutations: Vec<MutationOf<C>> = Vec::new();
    let mut compute_calls = 0u64;
    let mut messages_sent = 0u64;
    let mut partition_guard = lock(&ctx.shared.partitions[worker_id]);
    let partition = &mut *partition_guard;

    // One panic guard for the sweep; `current` is the vertex in `compute`.
    let mut current: Option<C::Id> = None;
    let swept = catch_unwind(AssertUnwindSafe(|| {
        let mut cctx = ComputeContext::with_buffer(
            global,
            worker_id,
            registry,
            &mut worker_aggs,
            &mut mutations,
            std::mem::take(staged),
        );
        partition.compute_scheduled(|handle, messages| {
            compute_calls += 1;
            current = Some(handle.id());
            // Injected panic: raised outside the user's compute (so the
            // Graft instrumenter never records it as a vertex exception)
            // but attributed to the vertex like one of its own.
            if ctx.faults.is_some_and(|f| f.take_compute_panic(worker_id, global.superstep)) {
                panic!(
                    "injected fault: compute panic (worker {worker_id}, superstep {})",
                    global.superstep
                );
            }
            computation.compute(handle, messages, &mut cctx);
            current = None;
            for (target, message) in cctx.drain_staged() {
                messages_sent += 1;
                match &mut outboxes[partition_for(&target, ctx.num_partitions)] {
                    Outbox::Raw(buf) => buf.push((target, message)),
                    Outbox::Combined(map) => fold_entry(computation, map, target, message),
                    Outbox::Spilled { .. } => {
                        unreachable!("outboxes spill only at ship time")
                    }
                }
            }
        });
        *staged = cctx.into_buffer();
    }));
    if let Err(payload) = swept {
        // A panic between two vertices (a user `combine`, say) is not a
        // vertex's: it keeps unwinding to `guarded_compute`.
        let Some(id) = current else { std::panic::resume_unwind(payload) };
        return Err(EngineError::VertexPanic {
            vertex: id.to_string(),
            superstep: global.superstep,
            message: panic_message(&*payload),
        });
    }

    let nanos = timer.map(|t| t.stop()).unwrap_or(0);
    Ok((
        WorkerOutput {
            aggs: worker_aggs,
            mutations,
            compute_calls,
            messages_sent,
            messages_shuffled: 0,
            nanos,
        },
        outboxes,
    ))
}

/// Borrowing twin of [`LoggedBatch`] over an in-memory outbox: same
/// variant indices and entry layout, so it writes the bytes the owned
/// form decodes without cloning an entry. The message log and the
/// shuffle spill serialize it and the budget sizes it (`framed_size`),
/// so bytes and charge cannot drift.
struct OutboxRef<'a, C: Computation>(&'a Outbox<C>);

impl<C: Computation> Serialize for OutboxRef<'_, C> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.0 {
            Outbox::Raw(v) => serializer.serialize_newtype_variant("LoggedBatch", 0, "Raw", v),
            Outbox::Combined(m) => serializer.serialize_newtype_variant(
                "LoggedBatch",
                1,
                "Combined",
                &CombinedEntries::<C>(m),
            ),
            Outbox::Spilled { .. } => {
                unreachable!("batches are logged and sized before they spill")
            }
        }
    }
}

/// A combining map as `LoggedBatch::Combined`'s `(target, message,
/// count)` entries, in the map's iteration order.
struct CombinedEntries<'a, C: Computation>(&'a CombinedBatch<C>);

impl<C: Computation> Serialize for CombinedEntries<'_, C> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for (id, (msg, n)) in self.0 {
            seq.serialize_element(&(id, msg, n))?;
        }
        seq.end()
    }
}

/// Rehydrates a logged batch into a deliverable outbox. Deliberately
/// skips the buffer pool — replay is rare, and `apply_batch` returns the
/// buffer to the pool afterwards anyway.
fn unlog_batch<C: Computation>(batch: &LoggedBatch<C::Id, C::Message>) -> Outbox<C> {
    match batch {
        LoggedBatch::Raw(v) => Outbox::Raw(v.clone()),
        LoggedBatch::Combined(v) => {
            Outbox::Combined(v.iter().map(|(id, msg, n)| (*id, (msg.clone(), *n))).collect())
        }
    }
}

/// Phase 4 for one worker: drain the staging slots for its partition in
/// source-worker order and apply each batch to the inboxes, returning
/// every drained buffer to the pool.
fn worker_deliver<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
) -> Result<DeliveryCounts, EngineError> {
    let timer = ctx.obs.map(|o| o.timer());
    // Same pin discipline as the compute phase: the partition whose
    // inboxes are being filled must stay resident throughout.
    let _pin = match ctx.spill {
        Some(store) => {
            Some(store.pin(&ctx.shared.partitions, worker_id, true).map_err(EngineError::Spill)?)
        }
        None => None,
    };
    let mut partition_guard = lock(&ctx.shared.partitions[worker_id]);
    let partition = &mut *partition_guard;
    let mut delivered = 0u64;
    let mut missing = 0u64;

    let mut slots = lock(&ctx.shared.incoming[worker_id]);
    for (source, source_slot) in slots.iter_mut().enumerate() {
        let Some(batch) = source_slot.take() else { continue };
        // Rehydrate spilled batches from their segments; release the
        // budget charge of in-memory ones now that they're consumed.
        let batch = match batch {
            Outbox::Spilled { path, .. } => {
                let store = ctx.spill.expect("spilled batch implies a spill store");
                let bytes = store.read_shuffle(&path).map_err(EngineError::Spill)?;
                let (logged, _) =
                    graft_codec::from_framed_slice::<LoggedBatch<C::Id, C::Message>>(&bytes)
                        .map_err(|e| {
                            EngineError::Spill(CheckpointError::new(
                                format!("decoding shuffle segment {path}"),
                                e,
                            ))
                        })?;
                unlog_batch::<C>(&logged)
            }
            other => {
                if let Some(store) = ctx.spill {
                    store.release_shuffle(worker_id, source);
                }
                other
            }
        };
        apply_batch(
            ctx.computation,
            partition,
            batch,
            &mut delivered,
            &mut missing,
            &ctx.shared.buffers,
        );
    }
    drop(slots);

    let (_, edges, active) = partition.counts();
    Ok(DeliveryCounts {
        delivered,
        missing,
        active,
        edges,
        nanos: timer.map(|t| t.stop()).unwrap_or(0),
    })
}

/// Applies one shuffle batch to a partition's inboxes: the single
/// delivery code path shared by live supersteps and confined replay,
/// which is what makes a replayed inbox bit-identical to the original.
fn apply_batch<C: Computation>(
    computation: &C,
    partition: &mut Partition<C>,
    batch: Outbox<C>,
    delivered: &mut u64,
    missing: &mut u64,
    buffers: &BufferPool<C>,
) {
    match batch {
        Outbox::Raw(mut buf) => {
            debug_assert!(
                !computation.use_combiner(),
                "a combiner job ships, logs and spills only combined batches"
            );
            for (target, message) in buf.drain(..) {
                match partition.deliver(&target, message, None) {
                    true => *delivered += 1,
                    false => *missing += 1,
                }
            }
            buffers.put(Outbox::Raw(buf));
        }
        Outbox::Combined(mut map) => {
            // Partials arrive in source-worker order, so the cross-worker
            // fold is deterministic; within a batch, targets are
            // independent.
            for (target, (message, count)) in map.drain() {
                match partition.deliver(&target, message, Some(computation)) {
                    true => *delivered += count,
                    false => *missing += count,
                }
            }
            buffers.put(Outbox::Combined(map));
        }
        Outbox::Spilled { .. } => {
            unreachable!("spilled batches are rehydrated before delivery")
        }
    }
}

/// Runs `worker_compute` under a panic guard so a worker thread can
/// never die (or deadlock a barrier) on a panic that is no vertex's
/// own — e.g. one raised inside a user `combine`.
fn guarded_compute<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
    global: GlobalData,
    staged: &mut RawBatch<C>,
) -> Result<WorkerOutput<C>, EngineError> {
    match catch_unwind(AssertUnwindSafe(|| worker_compute(ctx, worker_id, global, staged))) {
        Ok(result) => result,
        Err(_) => {
            Err(EngineError::WorkerCrashed { worker: worker_id, superstep: global.superstep })
        }
    }
}

/// Runs `worker_deliver` under the same panic guard as
/// [`guarded_compute`].
fn guarded_deliver<C: Computation>(
    ctx: EngineCtx<'_, C>,
    worker_id: usize,
    superstep: u64,
) -> Result<DeliveryCounts, EngineError> {
    match catch_unwind(AssertUnwindSafe(|| worker_deliver(ctx, worker_id))) {
        Ok(result) => result,
        Err(_) => Err(EngineError::WorkerCrashed { worker: worker_id, superstep }),
    }
}

/// What the coordinator asks the pool to do next; see the module docs
/// for the barrier protocol.
#[derive(Clone, Copy)]
enum PoolCommand {
    /// Run phase 2 under the given global data.
    Compute(GlobalData),
    /// Run phase 4 (the superstep is only used to label panic errors).
    Deliver { superstep: u64 },
    /// Return from the worker loop. Also the initial value.
    Exit,
}

/// A per-partition parking slot for one phase's result.
///
/// Deliberately a [`TrackedCell`], not a mutex: the slot's safety rests
/// entirely on the barrier protocol (the partition's thread writes
/// strictly between `start` and `done`, the coordinator reads strictly
/// outside that window), so under `check-sched` any protocol slip — a
/// missing or mis-sized barrier — surfaces as a reported race on the
/// slot instead of silently serializing through a lock.
type ResultSlot<T> = TrackedCell<Option<Result<T, EngineError>>>;

/// The shared rendezvous state of the job's threads.
struct PoolSync<C: Computation> {
    /// Threads the partitions are dealt to, the coordinator included.
    threads: usize,
    /// The command word is barrier-protected, like the result slots.
    command: TrackedCell<PoolCommand>,
    start: Barrier,
    done: Barrier,
    compute_results: Vec<ResultSlot<WorkerOutput<C>>>,
    deliver_results: Vec<ResultSlot<DeliveryCounts>>,
}

impl<C: Computation> PoolSync<C> {
    fn new(partitions: usize, threads: usize) -> Self {
        Self {
            threads,
            command: TrackedCell::new("pool-command", PoolCommand::Exit),
            start: Barrier::new(threads),
            done: Barrier::new(threads),
            compute_results: (0..partitions)
                .map(|p| TrackedCell::new(format!("compute-result-{p}"), None))
                .collect(),
            deliver_results: (0..partitions)
                .map(|p| TrackedCell::new(format!("deliver-result-{p}"), None))
                .collect(),
        }
    }

    /// `thread`'s share of one phase: its partitions in ascending order,
    /// each result parked in the partition's slot.
    fn run_share(
        &self,
        ctx: EngineCtx<'_, C>,
        thread: usize,
        command: PoolCommand,
        staged: &mut RawBatch<C>,
    ) {
        for p in (thread..ctx.num_partitions).step_by(self.threads) {
            match command {
                PoolCommand::Compute(global) => {
                    self.compute_results[p].set(Some(guarded_compute(ctx, p, global, staged)));
                }
                PoolCommand::Deliver { superstep } => {
                    self.deliver_results[p].set(Some(guarded_deliver(ctx, p, superstep)));
                }
                PoolCommand::Exit => {}
            }
        }
    }

    /// Runs one phase on every partition, the caller taking thread 0's
    /// share, and returns once every thread is parked again.
    fn dispatch(&self, ctx: EngineCtx<'_, C>, command: PoolCommand, staged: &mut RawBatch<C>) {
        if self.threads == 1 {
            return self.run_share(ctx, 0, command, staged);
        }
        self.command.set(command);
        self.start.wait();
        self.run_share(ctx, 0, command, staged);
        self.done.wait();
    }
}

/// A finished phase's results, in partition order.
fn collect<T>(slots: &[ResultSlot<T>]) -> Vec<Result<T, EngineError>> {
    slots.iter().map(|slot| slot.take().expect("every partition parks a result")).collect()
}

/// The body of one spawned thread: wait at the start barrier, read the
/// command, run this thread's share of the phase, meet at the done
/// barrier. The staged-send buffer threaded through [`ComputeContext`]
/// lives here across supersteps, so only its capacity is ever reused.
fn pool_worker<C: Computation>(ctx: EngineCtx<'_, C>, pool: &PoolSync<C>, thread: usize) {
    let mut staged = Vec::new();
    loop {
        pool.start.wait();
        let command = pool.command.get();
        if matches!(command, PoolCommand::Exit) {
            return;
        }
        pool.run_share(ctx, thread, command, &mut staged);
        pool.done.wait();
    }
}

pub(crate) fn apply_mutations<C: Computation, P: std::ops::DerefMut<Target = Partition<C>>>(
    partitions: &mut [P],
    mutations: Vec<MutationOf<C>>,
) -> u64 {
    let mut applied = 0u64;
    let mut removals_edge = Vec::new();
    let mut removals_vertex = Vec::new();
    let mut additions_vertex = Vec::new();
    let mut additions_edge = Vec::new();
    for mutation in mutations {
        match mutation {
            Mutation::RemoveEdge(src, dst) => removals_edge.push((src, dst)),
            Mutation::RemoveVertex(id) => removals_vertex.push(id),
            Mutation::AddVertex(id, value) => additions_vertex.push((id, value)),
            Mutation::AddEdge(src, edge) => additions_edge.push((src, edge)),
        }
    }

    // Pregel resolution order: removals before additions.
    let n = partitions.len();
    for (src, dst) in removals_edge {
        applied += u64::from(partitions[partition_for(&src, n)].edit_edges(&src, |edges| {
            let before = edges.len();
            edges.retain(|e| e.target != dst);
            edges.len() != before
        }));
    }
    for id in removals_vertex {
        applied += u64::from(partitions[partition_for(&id, n)].remove_vertex(&id));
    }
    for (id, value) in additions_vertex {
        applied += u64::from(partitions[partition_for(&id, n)].add_vertex(id, value));
    }
    for (src, edge) in additions_edge {
        // An AddEdge whose source does not exist is dropped; Giraph would
        // create the source with a default value, which a generic engine
        // cannot do without a `Default` bound.
        applied += u64::from(partitions[partition_for(&src, n)].edit_edges(&src, |edges| {
            edges.push(edge);
            true
        }));
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::computation::{ContextOf, VertexHandleOf};

    struct Noop;

    impl Computation for Noop {
        type Id = u64;
        type VValue = ();
        type EValue = ();
        type Message = f64;

        fn compute(
            &self,
            _: &mut VertexHandleOf<'_, Self>,
            _: &[f64],
            _: &mut ContextOf<'_, Self>,
        ) {
        }
    }

    /// The borrowing twin must write exactly what the owned logged form
    /// decodes, and be sized at exactly what it writes: the log, the
    /// shuffle spill and the budget charge all lean on it.
    #[test]
    fn outbox_ref_writes_the_frame_a_logged_batch_decodes() {
        let raw: Outbox<Noop> = Outbox::Raw(vec![(7, 0.5), (1 << 40, -0.25), (7, 1.0)]);
        let combined: Outbox<Noop> =
            Outbox::Combined((0..300u64).map(|id| (id * 977, (id as f64 / 3.0, id % 5))).collect());
        for outbox in [&raw, &combined, &Outbox::Raw(Vec::new())] {
            let mut frame = Vec::new();
            graft_codec::write_framed(&mut frame, &OutboxRef(outbox)).unwrap();
            assert_eq!(graft_codec::framed_size(&OutboxRef(outbox)).unwrap(), frame.len() as u64);
            let (logged, used) =
                graft_codec::from_framed_slice::<LoggedBatch<u64, f64>>(&frame).unwrap();
            assert_eq!(used, frame.len());
            let owned = match outbox {
                Outbox::Raw(v) => LoggedBatch::Raw(v.clone()),
                Outbox::Combined(m) => {
                    LoggedBatch::Combined(m.iter().map(|(id, (msg, n))| (*id, *msg, *n)).collect())
                }
                Outbox::Spilled { .. } => unreachable!(),
            };
            assert_eq!(logged, owned);
            let mut reencoded = Vec::new();
            graft_codec::write_framed(&mut reencoded, &owned).unwrap();
            assert_eq!(reencoded, frame);
        }
    }

    // `worker_override` is pure in its input precisely so it can be
    // tested without mutating the process environment.
    #[test]
    fn worker_override_parses_and_clamps() {
        assert_eq!(EngineConfig::worker_override(None), None);
        assert_eq!(EngineConfig::worker_override(Some("")), None);
        assert_eq!(EngineConfig::worker_override(Some("six")), None);
        assert_eq!(EngineConfig::worker_override(Some("-3")), None);
        assert_eq!(EngineConfig::worker_override(Some("6")), Some(6));
        assert_eq!(EngineConfig::worker_override(Some(" 12 ")), Some(12));
        assert_eq!(EngineConfig::worker_override(Some("0")), Some(1));
        assert_eq!(EngineConfig::worker_override(Some("4096")), Some(64));
    }

    #[test]
    fn detect_stragglers_flags_only_workers_past_the_median_multiple() {
        // One worker 10x the median of [10, 10, 10, 100] = 10.
        assert_eq!(detect_stragglers(&[10, 10, 100, 10], 4.0), vec![(2, 100, 10)]);
        // Exactly at the threshold is not a straggler (strictly greater).
        assert_eq!(detect_stragglers(&[10, 10, 40, 10], 4.0), vec![]);
        // Several workers can exceed the median at once.
        assert_eq!(detect_stragglers(&[5, 100, 5, 90, 5], 4.0), vec![(1, 100, 5), (3, 90, 5)]);
        // A zero threshold disables detection entirely.
        assert_eq!(detect_stragglers(&[10, 1_000], 0.0), vec![]);
        // A single worker has no peers to be slower than.
        assert_eq!(detect_stragglers(&[1_000_000], 2.0), vec![]);
        // Idle clusters (median 0) never flag anyone.
        assert_eq!(detect_stragglers(&[0, 0, 0, 50], 2.0), vec![]);
        // Identical timings — the deterministic-clock case — are quiet.
        assert_eq!(detect_stragglers(&[7, 7, 7, 7], 1.5), vec![]);
    }
}
