//! Thread-count invariance: a job's partitions are dealt to however many
//! threads the platform gives it, and nothing observable may depend on
//! that number. In-crate because the count is not public — only
//! `Engine::run_on` takes one.
//!
//! Three groups: the computations of `tests/reference_differential.rs`
//! at every (partitions, threads) pair against each other and against
//! `reference::run_sequential`; an out-of-core and a log-replay recovery
//! job at 1 and 2 threads, down to checkpoint and coordinator-log bytes;
//! and what must not change now that partition 0 runs on the
//! coordinating thread (kills, panics, a coordinator panic), again at 1
//! thread — no pool, no `Exit` to send — and at 2. One explored job puts
//! a thread that owns two partitions in front of the schedule checker.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use graft_dfs::{FileSystem, InMemoryFs};
use graft_sched::{explore, render_trace, run_schedule, ExploreConfig, StrategyKind};
use rand::SeedableRng;

use crate::msglog::{LoggedBatch, WorkerFrame};
use crate::reference::run_sequential;
use crate::{
    partition_for, CheckpointConfig, Computation, ContextOf, Edge, Engine, EngineError, FaultPlan,
    Graph, JobObserver, JobOutcome, OocConfig, RecoveryMode, SuperstepStats, VertexHandleOf,
};

#[path = "../tests/support/computations.rs"]
mod computations;
use computations::{weight, Churn, Digraph, MinLabel, PanicsAt, Sleeper};

const PARTITIONS: [usize; 4] = [1, 2, 4, 7];
const MAX_SUPERSTEPS: u64 = 60;

/// graft-algorithms' PageRank, restated: that crate links the non-test
/// build of this one, whose `Computation` is a different trait. The
/// combiner is switchable; a floating-point sum shows any change of fold
/// order in the low bits either way.
struct PageRank {
    iterations: u64,
    combiner: bool,
}

impl Computation for PageRank {
    type Id = u64;
    type VValue = f64;
    type EValue = ();
    type Message = f64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[f64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let n = ctx.num_vertices() as f64;
        let received: f64 = messages.iter().sum();
        vertex.set_value(if ctx.superstep() == 0 { 1.0 / n } else { 0.15 / n + 0.85 * received });
        if ctx.superstep() < self.iterations {
            let share = *vertex.value() / vertex.num_edges().max(1) as f64;
            ctx.send_message_to_all_edges(vertex, share);
        } else {
            vertex.vote_to_halt();
        }
    }

    fn use_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
}

/// graft-algorithms' ShortestPaths, restated for the same reason.
struct ShortestPaths {
    source: u64,
    combiner: bool,
}

impl Computation for ShortestPaths {
    type Id = u64;
    type VValue = f64;
    type EValue = f64;
    type Message = f64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[f64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let candidate = if ctx.superstep() == 0 && vertex.id() == self.source {
            0.0
        } else {
            messages.iter().copied().fold(f64::INFINITY, f64::min)
        };
        if candidate < *vertex.value() {
            vertex.set_value(candidate);
            for edge in vertex.edges() {
                ctx.send_message(edge.target, candidate + edge.value);
            }
        }
        vertex.vote_to_halt();
    }

    fn use_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a.min(*b)
    }
}

/// Runs `inner` and notes, per partition, the `(superstep, vertex)` of
/// every compute call in the order they were made.
struct Recording<C> {
    inner: C,
    calls: Mutex<Vec<Vec<(u64, u64)>>>,
}

impl<C: Computation<Id = u64>> Recording<C> {
    fn new(inner: C) -> Self {
        Self { inner, calls: Mutex::new(Vec::new()) }
    }

    /// The calls since the last take, one list per partition.
    fn take(&self, partitions: usize) -> Vec<Vec<(u64, u64)>> {
        let mut calls = std::mem::take(&mut *self.calls.lock().unwrap());
        calls.resize(partitions, Vec::new());
        calls
    }
}

impl<C: Computation<Id = u64>> Computation for Recording<C> {
    type Id = u64;
    type VValue = C::VValue;
    type EValue = C::EValue;
    type Message = C::Message;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[C::Message],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        {
            let mut calls = self.calls.lock().unwrap();
            if calls.len() <= ctx.worker_id() {
                calls.resize(ctx.worker_id() + 1, Vec::new());
            }
            calls[ctx.worker_id()].push((ctx.superstep(), vertex.id()));
        }
        self.inner.compute(vertex, messages, ctx);
    }

    fn use_combiner(&self) -> bool {
        self.inner.use_combiner()
    }

    fn combine(&self, a: &C::Message, b: &C::Message) -> C::Message {
        self.inner.combine(a, b)
    }

    fn register_aggregators(&self, registry: &mut crate::AggregatorRegistry) {
        self.inner.register_aggregators(registry);
    }
}

/// `(id, value bits, out-edges)` of every vertex, by id.
type Fingerprint<C, B> = Vec<(u64, B, Vec<Edge<u64, <C as Computation>::EValue>>)>;

fn fingerprint<C: Computation<Id = u64>, B>(
    outcome: &JobOutcome<C>,
    bits: &impl Fn(&C::VValue) -> B,
) -> Fingerprint<C, B> {
    let mut out: Fingerprint<C, B> =
        outcome.graph.iter().map(|(id, v, edges)| (id, bits(v), edges.to_vec())).collect();
    out.sort_by_key(|(id, ..)| *id);
    out
}

fn counters<C: Computation>(outcome: &JobOutcome<C>) -> (Vec<[u64; 7]>, u64) {
    (
        outcome.stats.supersteps.iter().map(SuperstepStats::counters).collect(),
        outcome.stats.recoveries,
    )
}

/// Every partition's outboxes, superstep by superstep, as its message
/// log holds them: `(target partition, batch)` in target order, a raw
/// batch in send order. A combined batch is listed in its map's
/// iteration order, which depends on which recycled map the partition
/// happened to draw and means nothing (see `LoggedBatch`), so those are
/// sorted by target vertex.
type Outboxes<M> = Vec<Vec<(u64, Vec<(usize, LoggedBatch<u64, M>)>)>>;

fn logged_outboxes<M: serde::de::DeserializeOwned>(
    fs: &InMemoryFs,
    partitions: usize,
) -> Outboxes<M> {
    (0..partitions)
        .map(|p| {
            let log = format!("{}/w{p}/seg_0.log", logging().msglog_root());
            let bytes = fs.read_all(&log).unwrap();
            graft_codec::framed_records::<WorkerFrame<LoggedBatch<u64, M>>>(&bytes)
                .map(|frame| {
                    let mut frame = frame.unwrap();
                    for (_, batch) in &mut frame.batches {
                        if let LoggedBatch::Combined(entries) = batch {
                            entries.sort_by_key(|(target, ..)| *target);
                        }
                    }
                    (frame.superstep, frame.batches)
                })
                .collect()
        })
        .collect()
}

/// One checkpoint at superstep 0 and every superstep's frames in one
/// log segment: the run leaves all its outboxes behind.
fn logging() -> CheckpointConfig {
    CheckpointConfig::new(1_000, "/ckpt").recovery_mode(RecoveryMode::LogReplay)
}

/// Runs `computation` at every partition count on 1, 2 and `partitions`
/// threads: final graph, every counter, the halt reason and every
/// partition's compute order must equal the oracle's, and the outboxes
/// each other's.
fn assert_thread_invariant<C, B>(
    label: &str,
    computation: C,
    graph: &Graph<u64, C::VValue, C::EValue>,
    bits: impl Fn(&C::VValue) -> B,
) where
    C: Computation<Id = u64>,
    C::Message: PartialEq + Debug,
    B: PartialEq + Debug,
{
    let recording = Arc::new(Recording::new(computation));
    for partitions in PARTITIONS {
        let oracle = run_sequential(&*recording, None, graph.clone(), partitions, MAX_SUPERSTEPS);
        let oracle_order = recording.take(partitions);
        let mut first_outboxes: Option<Outboxes<C::Message>> = None;
        let mut thread_counts = vec![1, 2.min(partitions), partitions];
        thread_counts.dedup();
        for threads in thread_counts {
            let fs = InMemoryFs::new();
            let engine = Engine::from_arc(Arc::clone(&recording))
                .num_workers(partitions)
                .max_supersteps(MAX_SUPERSTEPS)
                .with_checkpoints(Arc::new(fs.clone()), logging())
                .run_on(graph.clone(), threads)
                .unwrap();
            let at = format!("{label}: {partitions} partitions on {threads} threads");
            assert_eq!(fingerprint(&engine, &bits), fingerprint(&oracle, &bits), "{at}: graph");
            assert_eq!(counters(&engine), counters(&oracle), "{at}: counters");
            assert_eq!(engine.halt_reason, oracle.halt_reason, "{at}: halt reason");
            assert_eq!(recording.take(partitions), oracle_order, "{at}: compute order");
            let outboxes = logged_outboxes::<C::Message>(&fs, partitions);
            for logged in &outboxes {
                let supersteps: Vec<u64> = logged.iter().map(|(s, _)| *s).collect();
                let run: Vec<u64> = (0..engine.stats.superstep_count()).collect();
                assert_eq!(supersteps, run, "{at}: one logged frame per superstep");
            }
            match &first_outboxes {
                None => first_outboxes = Some(outboxes),
                Some(first) => assert_eq!(&outboxes, first, "{at}: outboxes"),
            }
        }
    }
}

fn assert_all_thread_invariant(label: &str, g: &Digraph, seed: u64) {
    for combiner in [false, true] {
        let at = |name: &str| format!("{label}/{name}/combiner={combiner}");
        let ranks = g.build(|_| 0.0, |_, _| ());
        assert_thread_invariant(
            &at("pagerank"),
            PageRank { iterations: 6, combiner },
            &ranks,
            |v| v.to_bits(),
        );
        let distances = g.build(|_| f64::INFINITY, weight);
        let sssp = ShortestPaths { source: 0, combiner };
        assert_thread_invariant(&at("sssp"), sssp, &distances, |v| v.to_bits());
        let ids = g.build(|v| v, |_, _| ());
        assert_thread_invariant(&at("sleeper"), Sleeper { combiner, seed }, &ids, |v| *v);
        assert_thread_invariant(&at("churn"), Churn { combiner }, &ids, |v| *v);
    }
}

#[test]
fn every_differential_computation_is_the_same_job_on_any_thread_count() {
    assert_all_thread_invariant("chords", &Digraph::chords(40), 1);
    let budget = if cfg!(debug_assertions) { 4 } else { 24 };
    for seed in (0..budget).map(|i| 0x7EAD_0001u64 + i) {
        let g = Digraph::random(&mut rand::rngs::StdRng::seed_from_u64(seed));
        assert_all_thread_invariant(&format!("seed {seed:#x}"), &g, seed);
    }
}

/// Irregular in-degrees, so ranks differ and their sums round.
fn rank_graph() -> Graph<u64, f64, ()> {
    let mut g = Digraph::chords(64);
    g.edges.extend((0..64).step_by(3).map(|v| (v, (v * v + 1) % 64)));
    g.build(|_| 0.0, |_, _| ())
}

fn rank_bits(outcome: &JobOutcome<PageRank>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> =
        outcome.graph.iter().map(|(id, v, _)| (id, v.to_bits())).collect();
    out.sort_unstable();
    out
}

/// Every file under `dir`, with its bytes.
fn files_under(fs: &InMemoryFs, dir: &str) -> Vec<(String, Vec<u8>)> {
    let files = fs.list_files_recursive(dir).unwrap();
    files.into_iter().map(|f| (f.path.clone(), fs.read_all(&f.path).unwrap())).collect()
}

/// Budget below one partition: every pin evicts, and with one thread
/// there is never a second pin to wait for.
#[test]
fn out_of_core_below_one_partition_is_the_same_job_on_one_thread_and_two() {
    let rank = || PageRank { iterations: 9, combiner: true };
    let unbounded = Engine::new(rank()).num_workers(4).run_on(rank_graph(), 2).unwrap();
    let budget = crate::estimate_max_partition_bytes::<PageRank>(&rank_graph(), 4) / 2;
    for threads in [1, 2] {
        let fs = InMemoryFs::new();
        let obs = graft_obs::Obs::wall();
        let bounded = Engine::new(rank())
            .num_workers(4)
            .with_obs(Arc::clone(&obs))
            .with_memory_budget(Arc::new(fs.clone()), OocConfig::new(budget, "/spill"))
            .run_on(rank_graph(), threads)
            .unwrap();
        assert_eq!(rank_bits(&bounded), rank_bits(&unbounded), "{threads} threads: ranks");
        assert_eq!(counters(&bounded), counters(&unbounded), "{threads} threads: counters");
        let spilled =
            obs.registry().counter_value("ooc_spill_bytes_total", graft_obs::Scope::GLOBAL);
        assert!(spilled > 0, "{threads} threads: nothing spilled under half a partition");
        assert_eq!(fs.file_count(), 0, "{threads} threads: the spill root outlived the job");
    }
}

/// What a recovered job leaves in its checkpoint root, minus the
/// per-partition message logs (a combined batch is logged in map order).
fn checkpoints_and_coordinator_log(fs: &InMemoryFs) -> Vec<(String, Vec<u8>)> {
    let mut files = files_under(fs, "/ckpt");
    files.retain(|(path, _)| !path.starts_with("/ckpt/msglog/w"));
    assert!(files.iter().any(|(path, _)| path.starts_with("/ckpt/msglog/coord/")));
    assert!(files.iter().any(|(path, _)| path.contains("/cp_") && path.ends_with(".ckpt")));
    files
}

#[derive(Default)]
struct Restores {
    confined: Mutex<Vec<(u64, Vec<usize>)>>,
    full: Mutex<Vec<u64>>,
}

impl<C: Computation> JobObserver<C> for Restores {
    fn on_restore(&self, superstep: u64) {
        self.full.lock().unwrap().push(superstep);
    }

    fn on_confined_restore(&self, superstep: u64, workers: &[usize]) {
        self.confined.lock().unwrap().push((superstep, workers.to_vec()));
    }
}

/// A checkpointed PageRank under `plan`, on `threads` threads; returns
/// the outcome, what was restored and how, and the checkpoint root.
fn recovered(
    plan: &str,
    mode: RecoveryMode,
    threads: usize,
) -> (JobOutcome<PageRank>, Arc<Restores>, InMemoryFs) {
    let fs = InMemoryFs::new();
    let restores = Arc::new(Restores::default());
    let outcome = Engine::new(PageRank { iterations: 9, combiner: true })
        .num_workers(4)
        .with_observer(restores.clone())
        .with_fault_plan(FaultPlan::parse(plan).unwrap())
        .with_checkpoints(
            Arc::new(fs.clone()),
            CheckpointConfig::new(3, "/ckpt").recovery_mode(mode),
        )
        .run_on(rank_graph(), threads)
        .unwrap();
    (outcome, restores, fs)
}

#[test]
fn log_replay_recovery_leaves_the_same_bytes_on_one_thread_and_two() {
    let clean = Engine::new(PageRank { iterations: 9, combiner: true })
        .num_workers(4)
        .run_on(rank_graph(), 1)
        .unwrap();
    let mut left_behind = Vec::new();
    for threads in [1, 2] {
        // Partition 3 is thread 1's second partition when there are two.
        let (outcome, restores, fs) =
            recovered("kill-worker:3@5", RecoveryMode::LogReplay, threads);
        assert_eq!(rank_bits(&outcome), rank_bits(&clean), "{threads} threads: ranks");
        assert_eq!(counters(&outcome), (counters(&clean).0, 1), "{threads} threads: counters");
        assert_eq!(*restores.confined.lock().unwrap(), [(3, vec![3])], "{threads} threads");
        left_behind.push(checkpoints_and_coordinator_log(&fs));
    }
    assert_eq!(left_behind[0], left_behind[1], "cp_<s>/ and coordinator-log bytes");
}

/// Partition 0 is computed by the thread that also coordinates: killing
/// it must cost one recovery of the usual kind and change no result.
#[test]
fn killing_partition_zero_recovers_like_any_other_partition() {
    let clean = Engine::new(PageRank { iterations: 9, combiner: true })
        .num_workers(4)
        .run_on(rank_graph(), 1)
        .unwrap();
    for threads in [1, 2] {
        for mode in [RecoveryMode::Restart, RecoveryMode::LogReplay] {
            let (outcome, restores, _) = recovered("kill-worker:0@4", mode, threads);
            let at = format!("{mode} on {threads} threads");
            assert_eq!(rank_bits(&outcome), rank_bits(&clean), "{at}: ranks");
            assert_eq!(counters(&outcome), (counters(&clean).0, 1), "{at}: counters");
            let (confined, full) =
                (restores.confined.lock().unwrap().clone(), restores.full.lock().unwrap().clone());
            match mode {
                RecoveryMode::Restart => assert_eq!((confined, full), (vec![], vec![3]), "{at}"),
                RecoveryMode::LogReplay => {
                    assert_eq!((confined, full), (vec![(3, vec![0])], vec![]), "{at}")
                }
            }
        }
    }
}

fn isolated(n: u64) -> Graph<u64, u64, ()> {
    Digraph { n, edges: Vec::new() }.build(|_| 0, |_, _| ())
}

#[test]
fn panics_in_partition_zero_are_reported_as_before() {
    let culprit = (0..130).rev().find(|v| partition_for(v, 2) == 0).unwrap();
    for threads in [1, 2] {
        let run = |computation: PanicsAt| {
            let engine = Engine::new(computation).num_workers(2).max_supersteps(10);
            engine.run_on(isolated(130), threads).map(|_| ()).unwrap_err()
        };
        match run(PanicsAt(culprit, false)) {
            EngineError::VertexPanic { vertex, superstep, message } => {
                assert_eq!(vertex, culprit.to_string());
                assert_eq!(superstep, 2);
                assert_eq!(message, format!("boom on vertex {culprit}"));
            }
            other => panic!("{threads} threads: unexpected error {other}"),
        }
        // Every partition folds its second send to vertex 0; partition 0's
        // failure is the one reported.
        let err = run(PanicsAt(u64::MAX, true));
        assert!(
            matches!(err, EngineError::WorkerCrashed { worker: 0, superstep: 0 }),
            "{threads} threads: got {err}"
        );
    }
}

/// An observer is coordinator code running between two phases.
struct PanicsAfterSuperstep(u64);

impl<C: Computation> JobObserver<C> for PanicsAfterSuperstep {
    fn on_superstep_end(&self, stats: &SuperstepStats) {
        if stats.superstep == self.0 {
            panic!("coordinator panic after superstep {}", self.0);
        }
    }
}

/// The panic must come out of `run` as it went in, with every spawned
/// thread released and joined first; a missing `Exit` would leave the
/// scope waiting on them forever, which the watchdog turns into a failure.
#[test]
fn a_coordinator_panic_between_phases_releases_every_thread() {
    for threads in [1, 2, 3] {
        let (done, finished) = mpsc::channel();
        let job = std::thread::spawn(move || {
            let engine = Engine::new(PageRank { iterations: 9, combiner: true })
                .num_workers(3)
                .with_observer(Arc::new(PanicsAfterSuperstep(1)));
            let unwound = catch_unwind(AssertUnwindSafe(|| engine.run_on(rank_graph(), threads)));
            done.send(()).unwrap();
            unwound.map(|outcome| outcome.map(|_| ()))
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{threads} threads: the job never came back"));
        let payload = job.join().unwrap().expect_err("the coordinator's panic was swallowed");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert_eq!(message, "coordinator panic after superstep 1", "{threads} threads");
    }
}

fn three_partitions_on_two_threads() {
    let ring = Digraph { n: 6, edges: (0..6).map(|v| (v, (v + 1) % 6)).collect() };
    let graph = ring.build(|_| u64::MAX, |_, _| ());
    let outcome = Engine::new(MinLabel).num_workers(3).run_on(graph, 2).expect("job runs");
    for v in 0..6 {
        assert_eq!(outcome.graph.value(v), Some(&0), "vertex {v} in some interleaving");
    }
}

/// Inside a session `Engine::run` gives every partition a thread, so the
/// case of a thread owning two is put into the model here: thread 0
/// runs partitions 0 and 2 between the barriers, `pool-worker-1` runs
/// partition 1. No race on any result slot, no deadlock, right answers.
#[test]
fn a_thread_that_owns_two_partitions_is_clean_over_many_schedules() {
    let outcome =
        run_schedule(0xEA54, StrategyKind::Random, 200_000, three_partitions_on_two_threads);
    assert!(!outcome.failed(), "{}", render_trace(&outcome, 150));
    let mut writers: Vec<(&str, &str)> = outcome
        .trace
        .iter()
        .filter(|s| s.desc.starts_with("cell[compute-result-") && s.desc.ends_with(".write"))
        .filter(|s| s.location.contains("engine.rs"))
        .map(|s| (s.desc.as_str(), s.thread.as_str()))
        .collect();
    writers.sort_unstable();
    writers.dedup();
    // Each slot is written by its partition's thread and taken by `main`.
    assert!(writers.contains(&("cell[compute-result-0].write", "main")));
    assert!(writers.contains(&("cell[compute-result-2].write", "main")));
    assert!(writers.contains(&("cell[compute-result-1].write", "pool-worker-1")));
    assert!(!writers.contains(&("cell[compute-result-0].write", "pool-worker-1")));
    assert!(!writers.contains(&("cell[compute-result-2].write", "pool-worker-1")));

    let cfg = ExploreConfig { schedules: 30, seed: 0xEA55, ..ExploreConfig::default() };
    let report = explore(&cfg, three_partitions_on_two_threads);
    if let Some(failure) = &report.failure {
        panic!(
            "engine failed under schedule exploration (seed {:#x}):\n{}",
            failure.seed,
            render_trace(failure, 150)
        );
    }
    assert!(report.distinct >= 2, "exploration must produce distinct interleavings");
}
