//! `GraftRunner`: submit a computation + `DebugConfig`, get back the job
//! outcome plus a trace directory ready for the debug session.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use graft_dfs::{ClusterFs, FileSystem, FsError, InMemoryFs};
use graft_obs::{DfsMetrics, Obs};
use graft_pregel::hash::FxHashSet;
use graft_pregel::{
    CheckpointConfig, Computation, Engine, EngineError, FaultPlan, Graph, JobObserver, JobOutcome,
    MasterComputation, MasterContext, OocConfig, SuperstepStats,
};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::config::DebugConfig;
use crate::instrument::{CaptureSets, GraftObserver, Instrumented};
use crate::session::{DebugSession, SessionError};
use crate::sink::TraceSink;
use crate::trace::{meta_path, JobMeta};

/// Errors from setting up a Graft run (engine errors are reported inside
/// [`GraftRun::outcome`] instead, because a failed job still has traces
/// worth inspecting).
#[derive(Debug)]
pub enum GraftError {
    /// The trace file system failed.
    Fs(FsError),
    /// Metadata could not be serialized.
    Meta(String),
}

impl std::fmt::Display for GraftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraftError::Fs(e) => write!(f, "trace file system error: {e}"),
            GraftError::Meta(e) => write!(f, "metadata error: {e}"),
        }
    }
}

impl std::error::Error for GraftError {}

impl From<FsError> for GraftError {
    fn from(e: FsError) -> Self {
        GraftError::Fs(e)
    }
}

/// Adapter lifting a user's `MasterComputation<C>` to run alongside
/// `Instrumented<C>` (the marker type parameter is all that differs).
struct MasterAdapter<C, M> {
    inner: M,
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<C, M> MasterComputation<Instrumented<C>> for MasterAdapter<C, M>
where
    C: Computation,
    M: MasterComputation<C>,
{
    fn compute(&self, master: &mut MasterContext<'_>) {
        self.inner.compute(master);
    }

    fn register_aggregators(&self, registry: &mut graft_pregel::AggregatorRegistry) {
        self.inner.register_aggregators(registry);
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The entry point for debugging a computation with Graft.
///
/// ```ignore
/// let run = GraftRunner::new(GraphColoring::new(), config)
///     .num_workers(4)
///     .run(graph, "/traces/gc-debug")?;
/// let session = run.session()?;
/// ```
pub struct GraftRunner<C: Computation> {
    computation: Arc<C>,
    config: DebugConfig<C>,
    master: Option<Arc<dyn MasterComputation<Instrumented<C>>>>,
    master_name: Option<String>,
    fs: Arc<dyn FileSystem>,
    cluster: Option<ClusterFs>,
    num_workers: usize,
    max_supersteps: u64,
    checkpoint_every: Option<u64>,
    recovery_mode: graft_pregel::RecoveryMode,
    fault_plan: Option<FaultPlan>,
    memory_budget: Option<u64>,
    obs: Option<Arc<Obs>>,
    live_flush: bool,
    pace: Option<std::time::Duration>,
    straggler_threshold: Option<f64>,
}

/// Observer that kills datanodes of the trace cluster at planned
/// supersteps — the DFS half of a [`FaultPlan`]. Superstep-`s` kills fire
/// right before superstep `s` starts computing; each fires at most once,
/// so replayed supersteps after a recovery do not re-kill revived nodes.
struct DatanodeChaos {
    cluster: ClusterFs,
    kills: Vec<(usize, u64, AtomicBool)>,
}

impl DatanodeChaos {
    fn new(cluster: ClusterFs, plan: &FaultPlan) -> Self {
        let kills = plan
            .datanode_kills()
            .into_iter()
            .map(|(node, superstep)| (node, superstep, AtomicBool::new(false)))
            .collect();
        Self { cluster, kills }
    }

    fn fire(&self, superstep: u64) {
        for (node, at, fired) in &self.kills {
            if *at == superstep
                && fired.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
            {
                let _ = self.cluster.kill_datanode(*node);
            }
        }
    }
}

impl<C: Computation> JobObserver<C> for DatanodeChaos {
    fn on_job_start(&self, _global: &graft_pregel::GlobalData, _num_workers: usize) {
        self.fire(0);
    }

    fn on_superstep_end(&self, stats: &SuperstepStats) {
        self.fire(stats.superstep + 1);
    }
}

impl<C: Computation> GraftRunner<C> {
    /// Creates a runner over an in-memory trace file system.
    pub fn new(computation: C, config: DebugConfig<C>) -> Self {
        let engine_defaults = graft_pregel::EngineConfig::default();
        Self {
            computation: Arc::new(computation),
            config,
            master: None,
            master_name: None,
            fs: Arc::new(InMemoryFs::new()),
            cluster: None,
            num_workers: engine_defaults.num_workers,
            max_supersteps: engine_defaults.max_supersteps,
            checkpoint_every: None,
            recovery_mode: graft_pregel::RecoveryMode::default(),
            fault_plan: None,
            memory_budget: None,
            obs: None,
            live_flush: false,
            pace: None,
            straggler_threshold: None,
        }
    }

    /// Stores traces on the given file system (e.g. the `ClusterFs` HDFS
    /// simulation, or `LocalFs` for durable traces).
    pub fn with_fs(mut self, fs: Arc<dyn FileSystem>) -> Self {
        self.fs = fs;
        self
    }

    /// Stores traces (and checkpoints) on the given simulated HDFS
    /// cluster *and* enables datanode chaos: `kill-datanode` entries of a
    /// fault plan only take effect when the runner knows the cluster.
    pub fn with_cluster(mut self, cluster: ClusterFs) -> Self {
        if let Some(obs) = &self.obs {
            cluster.add_observer(Arc::new(DfsMetrics::new(Arc::clone(obs))));
        }
        self.fs = Arc::new(cluster.clone());
        self.cluster = Some(cluster);
        self
    }

    /// Attaches an observability handle: the engine, the trace sink, the
    /// instrumenter, and the cluster DFS (when one is attached) all
    /// record into it, and the run exports `events.jsonl`,
    /// `metrics.prom`, and `metrics.json` under `<trace_root>/obs/`.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        if let Some(cluster) = &self.cluster {
            cluster.add_observer(Arc::new(DfsMetrics::new(Arc::clone(&obs))));
        }
        self.obs = Some(obs);
        self
    }

    /// Streams live observability while the job runs: every superstep
    /// boundary appends the event-log delta to `obs/events.jsonl` and
    /// commits a `obs/live/snapshot_<seq>.json` document, so monitoring
    /// clients (`graft-server --follow`, `graft-cli watch`) can tail the
    /// job in flight. Requires [`GraftRunner::with_obs`] to have any
    /// effect — without an obs handle there is nothing to stream, which
    /// analyzer lint GA0017 flags.
    pub fn live_flush(mut self, enabled: bool) -> Self {
        self.live_flush = enabled;
        self
    }

    /// Sleeps this long after each superstep — a demo/test knob that
    /// slows a job down enough for a live tail to observe intermediate
    /// states. Has no effect on traces or metrics under the
    /// deterministic clock.
    pub fn pace_supersteps(mut self, pace: std::time::Duration) -> Self {
        self.pace = Some(pace);
        self
    }

    /// Flags workers whose per-superstep compute time exceeds this
    /// multiple of the across-worker median (engine default: 4.0).
    pub fn straggler_threshold(mut self, threshold: f64) -> Self {
        self.straggler_threshold = Some(threshold);
        self
    }

    /// Enables checkpoint/restart fault tolerance: vertex state,
    /// messages, and aggregators are snapshotted to
    /// `<trace_root>/checkpoints` every `every` supersteps, and the trace
    /// sink learns to rewind with the engine on restore.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Selects how the engine recovers from worker faults: full restart
    /// from the last checkpoint (the default), or confined log-replay,
    /// where only the failed partitions rewind and survivors re-serve
    /// logged messages. Takes effect only when
    /// [`GraftRunner::checkpoint_every`] enables checkpointing.
    pub fn recovery_mode(mut self, mode: graft_pregel::RecoveryMode) -> Self {
        self.recovery_mode = mode;
        self
    }

    /// Caps resident memory (partitions + staged shuffle batches) at
    /// `bytes`: when the accounted footprint would exceed the budget,
    /// the engine spills partitions and outbound message batches to
    /// `<trace_root>/ooc` on the trace file system and streams them
    /// back on demand. Results stay bit-identical to the unbounded run;
    /// the spill directory is removed when the job finishes. Lint
    /// GA0018 flags budgets smaller than the largest single partition's
    /// estimated footprint.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Injects deterministic faults (worker kills, compute panics,
    /// datanode kills) into the run. Worker faults need
    /// [`GraftRunner::checkpoint_every`] to be survivable; datanode kills
    /// need [`GraftRunner::with_cluster`] to have a cluster to kill in.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches the user's master computation.
    pub fn with_master<M: MasterComputation<C>>(mut self, master: M) -> Self {
        self.master_name = Some(master.name());
        self.master =
            Some(Arc::new(MasterAdapter { inner: master, _marker: std::marker::PhantomData }));
        self
    }

    /// Sets the engine worker count.
    pub fn num_workers(mut self, n: usize) -> Self {
        self.num_workers = n.max(1);
        self
    }

    /// Sets the engine superstep limit.
    pub fn max_supersteps(mut self, n: u64) -> Self {
        self.max_supersteps = n;
        self
    }

    /// The trace file system.
    pub fn fs(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }

    /// Resolves the pre-selected capture sets for `graph`: the listed
    /// ids, a deterministic random sample, and (optionally) the
    /// out-neighbors of both.
    pub fn resolve_capture_sets(
        &self,
        graph: &Graph<C::Id, C::VValue, C::EValue>,
    ) -> CaptureSets<C::Id> {
        let specified: FxHashSet<C::Id> =
            self.config.capture_ids.iter().copied().filter(|id| graph.contains(*id)).collect();

        let mut random: FxHashSet<C::Id> = FxHashSet::default();
        if self.config.num_random > 0 && graph.num_vertices() > 0 {
            let n = self.config.num_random.min(graph.num_vertices());
            let mut rng = StdRng::seed_from_u64(self.config.random_seed);
            for idx in sample(&mut rng, graph.num_vertices(), n) {
                let id = graph.vertex_ids()[idx];
                if !specified.contains(&id) {
                    random.insert(id);
                }
            }
        }

        let mut neighbors: FxHashSet<C::Id> = FxHashSet::default();
        if self.config.capture_neighbors {
            for id in specified.iter().chain(random.iter()) {
                if let Some(edges) = graph.out_edges(*id) {
                    for edge in edges {
                        if !specified.contains(&edge.target) && !random.contains(&edge.target) {
                            neighbors.insert(edge.target);
                        }
                    }
                }
            }
        }

        CaptureSets { specified, random, neighbors }
    }

    /// Runs the instrumented job, writing traces under `trace_root`.
    ///
    /// Setup failures return `Err`; a failing *job* (vertex panic with
    /// `ExceptionPolicy::Abort`) returns `Ok` with the engine error inside
    /// [`GraftRun::outcome`] — its traces are still complete and
    /// inspectable, which is the whole point of the tool.
    pub fn run(
        &self,
        graph: Graph<C::Id, C::VValue, C::EValue>,
        trace_root: &str,
    ) -> Result<GraftRun<C>, GraftError> {
        let sets = self.resolve_capture_sets(&graph);
        let sink = Arc::new(TraceSink::new(
            self.fs.clone(),
            trace_root,
            self.config.codec,
            self.config.max_captures,
            self.num_workers,
        )?);

        let meta = JobMeta {
            computation: self.computation.name(),
            computation_type: std::any::type_name::<C>().to_string(),
            master: self.master_name.clone(),
            value_types: (
                std::any::type_name::<C::Id>().to_string(),
                std::any::type_name::<C::VValue>().to_string(),
                std::any::type_name::<C::EValue>().to_string(),
                std::any::type_name::<C::Message>().to_string(),
            ),
            num_workers: self.num_workers,
            trace_format: Some(self.config.codec),
            config: self.config.describe(),
            facts: Some({
                let mut facts = self.config.facts();
                facts.max_supersteps = Some(self.max_supersteps);
                facts.checkpoint_every = self.checkpoint_every;
                facts.num_workers = Some(self.num_workers);
                facts.fault_plan = self.fault_plan.as_ref().map(|p| p.to_string());
                facts.recovery_mode = Some(self.recovery_mode.as_str().to_string());
                facts.live_flush = Some(self.live_flush);
                facts.obs_enabled = Some(self.obs.is_some());
                facts.memory_budget = self.memory_budget;
                facts.est_max_partition_bytes = self.memory_budget.map(|_| {
                    graft_pregel::estimate_max_partition_bytes::<C>(&graph, self.num_workers)
                });
                facts
            }),
        };
        let meta_bytes =
            serde_json::to_vec_pretty(&meta).map_err(|e| GraftError::Meta(e.to_string()))?;
        self.fs.write_all(&meta_path(trace_root), &meta_bytes)?;

        let mut instrumented = Instrumented::new(
            Arc::clone(&self.computation),
            self.config.clone(),
            sets,
            Arc::clone(&sink),
        );
        let mut observer = GraftObserver::new(
            Arc::clone(&sink),
            self.config.capture_master && self.master.is_some(),
        );
        let obs_dir = format!("{}/obs", trace_root.trim_end_matches('/'));
        let mut live = None;
        if let Some(obs) = &self.obs {
            instrumented = instrumented.with_obs(Arc::clone(obs));
            observer = observer.with_obs(Arc::clone(obs));
            if self.live_flush {
                let writer = Arc::new(parking_lot::Mutex::new(graft_obs::LiveWriter::new(
                    self.fs.clone(),
                    Arc::clone(obs),
                    &obs_dir,
                )));
                observer = observer.with_live(Arc::clone(&writer));
                live = Some(writer);
            }
        }
        if let Some(pace) = self.pace {
            observer = observer.with_pace(pace);
        }
        let instrumented = Arc::new(instrumented);

        let mut engine = Engine::from_arc(Arc::clone(&instrumented))
            .with_observer(Arc::new(observer))
            .num_workers(self.num_workers)
            .max_supersteps(self.max_supersteps);
        if let Some(threshold) = self.straggler_threshold {
            engine = engine.straggler_threshold(threshold);
        }
        if let Some(obs) = &self.obs {
            engine = engine.with_obs(Arc::clone(obs));
        }
        if let Some(master) = &self.master {
            engine = engine.with_master_arc(Arc::clone(master));
        }
        if let Some(every) = self.checkpoint_every {
            let root = format!("{}/checkpoints", trace_root.trim_end_matches('/'));
            engine = engine.with_checkpoints(
                self.fs.clone(),
                CheckpointConfig::new(every, root).recovery_mode(self.recovery_mode),
            );
        }
        if let Some(bytes) = self.memory_budget {
            let root = format!("{}/ooc", trace_root.trim_end_matches('/'));
            engine = engine.with_memory_budget(self.fs.clone(), OocConfig::new(bytes, root));
        }
        if let Some(plan) = &self.fault_plan {
            engine = engine.with_fault_plan(plan.clone());
            if let Some(cluster) = &self.cluster {
                if !plan.datanode_kills().is_empty() {
                    engine =
                        engine.with_observer(Arc::new(DatanodeChaos::new(cluster.clone(), plan)));
                }
            }
        }

        let outcome = engine.run(graph).map(|outcome| JobOutcome::<C> {
            graph: outcome.graph,
            stats: outcome.stats,
            halt_reason: outcome.halt_reason,
        });

        if let Some(obs) = &self.obs {
            match &live {
                // In live mode the event log was appended all along —
                // `finalize` commits the terminal snapshot and the metrics
                // artifacts without ever rewriting `events.jsonl`, so a
                // tail watcher never observes a truncation.
                Some(live) => {
                    let status = if outcome.is_ok() {
                        graft_obs::STATUS_FINISHED
                    } else {
                        graft_obs::STATUS_FAILED
                    };
                    live.lock().finalize(status)?;
                }
                None => obs.write_artifacts(self.fs.as_ref(), &obs_dir)?,
            }
        }

        Ok(GraftRun {
            outcome,
            captures: sink.captures(),
            violations: sink.violations(),
            exceptions: sink.exceptions(),
            capture_limit_hit: sink.limit_hit(),
            trace_root: trace_root.to_string(),
            fs: self.fs.clone(),
        })
    }
}

/// The result of an instrumented run: the job outcome plus capture
/// counters and a handle for opening the debug session.
pub struct GraftRun<C: Computation> {
    /// The engine outcome — `Err` when a vertex panicked under the
    /// `Abort` exception policy (the traces survive either way).
    pub outcome: Result<JobOutcome<C>, EngineError>,
    /// Vertex contexts captured.
    pub captures: u64,
    /// Constraint violations recorded.
    pub violations: u64,
    /// Exceptions recorded.
    pub exceptions: u64,
    /// Whether the capture safety net tripped.
    pub capture_limit_hit: bool,
    /// Where the traces live.
    pub trace_root: String,
    fs: Arc<dyn FileSystem>,
}

impl<C: Computation> GraftRun<C> {
    /// Opens the debug session over this run's traces.
    pub fn session(&self) -> Result<DebugSession<C>, SessionError> {
        DebugSession::open(self.fs.clone(), &self.trace_root)
    }

    /// The trace file system.
    pub fn fs(&self) -> &Arc<dyn FileSystem> {
        &self.fs
    }
}
