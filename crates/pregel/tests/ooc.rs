//! Out-of-core execution at the engine level: a run under a tight
//! memory budget must spill (provably — the counters say so) and still
//! produce results bitwise identical to the unbounded in-memory run,
//! with mutations, and through checkpointed fault recovery.

use std::sync::Arc;

use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_obs::{Obs, Scope};
use graft_pregel::{
    estimate_max_partition_bytes, AggValue, AggregatorRegistry, CheckpointConfig, Computation,
    ContextOf, Engine, EngineError, Fault, FaultPlan, GlobalData, Graph, JobObserver, JobOutcome,
    MasterComputation, MasterContext, OocConfig, RecoveryMode, SuperstepStats, VertexHandleOf,
};

/// PageRank with a sum combiner: floating-point folds make any change
/// in compute or delivery order visible in the low bits of the result.
struct Rank {
    iterations: u64,
}

impl Computation for Rank {
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
        if ctx.superstep() == 0 {
            vertex.set_value(1.0 / ctx.num_vertices() as f64);
        } else {
            let sum: f64 = messages.iter().sum();
            vertex.set_value(0.15 / ctx.num_vertices() as f64 + 0.85 * sum);
        }
        if ctx.superstep() < self.iterations {
            let share = *vertex.value() / vertex.num_edges().max(1) as f64;
            ctx.send_message_to_all_edges(vertex, share);
        } else {
            vertex.vote_to_halt();
        }
    }

    fn use_combiner(&self) -> bool {
        true
    }

    fn combine(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn register_aggregators(&self, _registry: &mut AggregatorRegistry) {}
}

/// Min-label propagation with topology mutations: each vertex drops its
/// highest-target edge once, so the mutation phase (which pins all
/// partitions) runs under the budget too.
struct MutatingComponents;

impl Computation for MutatingComponents {
    type Id = u64;
    type VValue = u64;
    type EValue = ();
    type Message = u64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[u64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let best = messages.iter().copied().min().unwrap_or(u64::MAX);
        let mine = *vertex.value();
        let candidate = if ctx.superstep() == 0 { vertex.id() } else { best.min(mine) };
        if ctx.superstep() == 0 || candidate < mine {
            vertex.set_value(candidate);
            ctx.send_message_to_all_edges(vertex, candidate);
        }
        if ctx.superstep() == 1 {
            if let Some(max) = vertex.edges().iter().map(|e| e.target).max() {
                ctx.remove_edge_request(vertex.id(), max);
            }
        }
        vertex.vote_to_halt();
    }
}

fn ring_graph(n: u64) -> Graph<u64, f64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, 0.0).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, ()).unwrap();
        b.add_edge(v, (v * 7 + 3) % n, ()).unwrap();
    }
    b.build().unwrap()
}

fn assert_same_ranks(a: &JobOutcome<Rank>, b: &JobOutcome<Rank>, n: u64) {
    assert_eq!(a.stats.superstep_count(), b.stats.superstep_count());
    for v in 0..n {
        let (x, y) = (a.graph.value(v).unwrap(), b.graph.value(v).unwrap());
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {v}: {x} != {y}");
    }
    let totals = |o: &JobOutcome<Rank>| {
        o.stats
            .supersteps
            .iter()
            .map(|s| (s.compute_calls, s.messages_sent, s.messages_delivered, s.active_vertices))
            .collect::<Vec<_>>()
    };
    assert_eq!(totals(a), totals(b));
}

#[test]
fn budgeted_run_is_bitwise_identical_and_actually_spills() {
    let n = 200;
    let unbounded = Engine::new(Rank { iterations: 9 }).num_workers(4).run(ring_graph(n)).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    // A budget far below the graph's footprint: partitions must churn
    // through the store every superstep.
    let budgeted = Engine::new(Rank { iterations: 9 })
        .num_workers(4)
        .with_memory_budget(fs.clone(), OocConfig::new(2_000, "/ooc"))
        .with_obs(obs.clone())
        .run(ring_graph(n))
        .unwrap();
    assert_same_ranks(&unbounded, &budgeted, n);

    let reg = obs.registry();
    let spills = reg.counter_value("ooc_spills_total", Scope::GLOBAL);
    let loads = reg.counter_value("ooc_loads_total", Scope::GLOBAL);
    assert!(spills > 0, "no partition ever spilled");
    assert!(loads > 0, "no partition was ever loaded back");
    assert!(
        reg.counter_value("ooc_spill_bytes_total", Scope::GLOBAL) > 0,
        "spill bytes not accounted"
    );
    // The job is done: everything came home and the spill root is
    // gone, leaving the fs exactly as an unbounded run would.
    assert_eq!(reg.gauge_value("live_spill_bytes", Scope::GLOBAL), Some(0));
    assert!(!fs.exists("/ooc"), "spill root not cleaned up");
}

#[test]
fn shuffle_batches_spill_past_the_budget_and_rehydrate() {
    let n = 300;
    let unbounded = Engine::new(Rank { iterations: 6 }).num_workers(3).run(ring_graph(n)).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    // Budget so tight that staged shuffle batches can't be charged
    // either: they must take the spill-segment path.
    let budgeted = Engine::new(Rank { iterations: 6 })
        .num_workers(3)
        .with_memory_budget(fs.clone(), OocConfig::new(700, "/ooc"))
        .with_obs(obs.clone())
        .run(ring_graph(n))
        .unwrap();
    assert_same_ranks(&unbounded, &budgeted, n);

    let reg = obs.registry();
    assert!(
        reg.counter_value("ooc_shuffle_spills_total", Scope::GLOBAL) > 0,
        "no shuffle batch ever spilled"
    );
    assert_eq!(
        reg.counter_value("ooc_shuffle_spills_total", Scope::GLOBAL),
        reg.counter_value("ooc_shuffle_loads_total", Scope::GLOBAL),
        "every spilled batch must be read back exactly once"
    );
    assert!(!fs.exists("/ooc"));
}

#[test]
fn eviction_mid_frontier_keeps_who_sleeps_and_who_has_mail() {
    // SSSP along a two-way path: a frontier of one or two vertices, all
    // others halted. Every reload rederives the active set from the
    // spilled records; waking a sleeper or losing a halted vertex's mail
    // would show in `compute_calls` first.
    let path = || {
        let mut b = Graph::builder();
        for v in 0..60u64 {
            b.add_vertex(v, f64::INFINITY).unwrap();
        }
        for v in 0..59u64 {
            b.add_undirected_edge(v, v + 1, 1.0 + (v % 3) as f64).unwrap();
        }
        b.build().unwrap()
    };
    let unbounded = Engine::new(ShortestPaths::new(0)).num_workers(4).run(path()).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    let budgeted = Engine::new(ShortestPaths::new(0))
        .num_workers(4)
        .with_memory_budget(fs, OocConfig::new(600, "/ooc"))
        .with_obs(obs.clone())
        .run(path())
        .unwrap();

    let loads = obs.registry().counter_value("ooc_loads_total", Scope::GLOBAL);
    let supersteps = unbounded.stats.superstep_count();
    assert!(supersteps >= 60 && loads > supersteps, "{loads} loads in {supersteps} supersteps");
    let counters = |o: &JobOutcome<ShortestPaths>| -> Vec<[u64; 7]> {
        o.stats.supersteps.iter().map(|s| s.counters()).collect()
    };
    assert_eq!(counters(&budgeted), counters(&unbounded));
    assert!(unbounded.stats.supersteps[30].compute_calls <= 3, "superstep 30: not mid-frontier");
    assert_eq!(budgeted.graph.sorted_values(), unbounded.graph.sorted_values());
}

#[test]
fn mutations_run_under_the_budget() {
    let n: u64 = 120;
    let build = || {
        let mut b = Graph::builder();
        for v in 0..n {
            b.add_vertex(v, u64::MAX).unwrap();
        }
        for v in 0..n {
            b.add_undirected_edge(v, (v + 1) % n, ()).unwrap();
            b.add_edge(v, (v * 5 + 2) % n, ()).unwrap();
        }
        b.build().unwrap()
    };
    let unbounded = Engine::new(MutatingComponents).num_workers(4).run(build()).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    let budgeted = Engine::new(MutatingComponents)
        .num_workers(4)
        .with_memory_budget(fs, OocConfig::new(1_000, "/ooc"))
        .with_obs(obs.clone())
        .run(build())
        .unwrap();

    assert_eq!(unbounded.stats.superstep_count(), budgeted.stats.superstep_count());
    let applied = |o: &JobOutcome<MutatingComponents>| {
        o.stats.supersteps.iter().map(|s| s.mutations_applied).sum::<u64>()
    };
    assert_eq!(applied(&unbounded), applied(&budgeted));
    assert!(applied(&budgeted) > 0, "the mutation phase never ran");
    for v in 0..n {
        assert_eq!(unbounded.graph.value(v), budgeted.graph.value(v), "vertex {v}");
    }
    assert!(obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL) > 0);
}

/// Every file under `root`, with its bytes.
fn tree(fs: &Arc<dyn FileSystem>, root: &str) -> Vec<(String, Vec<u8>)> {
    let files = fs.list_files_recursive(root).unwrap();
    files.into_iter().map(|f| (f.path.clone(), fs.read_all(&f.path).unwrap())).collect()
}

/// 60% of the whole graph's footprint (some partitions resident at a
/// barrier, some spilled), about one partition of four, and less than
/// any partition (all spilled at every barrier).
fn budgets(n: u64) -> [u64; 3] {
    [estimate_max_partition_bytes::<Rank>(&ring_graph(n), 1) * 6 / 10, 1_100, 1]
}

#[test]
fn checkpoints_and_message_logs_are_byte_identical_at_every_budget() {
    let n = 160;
    let run = |budget: Option<u64>| {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let obs = Obs::deterministic(1);
        let ckpt =
            CheckpointConfig::new(2, "/ckpt").keep(16).recovery_mode(RecoveryMode::LogReplay);
        let mut engine = Engine::new(Rank { iterations: 9 })
            .num_workers(4)
            .with_checkpoints(fs.clone(), ckpt)
            .with_obs(obs.clone());
        if let Some(bytes) = budget {
            engine = engine.with_memory_budget(fs.clone(), OocConfig::new(bytes, "/ooc"));
        }
        engine.run(ring_graph(n)).unwrap();
        (tree(&fs, "/ckpt"), obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL))
    };
    let (unbounded, _) = run(None);
    let names: Vec<&str> = unbounded.iter().map(|(path, _)| path.as_str()).collect();
    assert!(names.contains(&"/ckpt/cp_8/part_3.ckpt"), "{names:?}");
    assert!(names.contains(&"/ckpt/msglog/w3/seg_8.log"), "{names:?}");
    for budget in budgets(n) {
        let (budgeted, spills) = run(Some(budget));
        assert!(spills > 0, "budget {budget}: nothing spilled");
        assert_eq!(budgeted.len(), unbounded.len(), "budget {budget}");
        for ((path, ours), (expected_path, expected)) in budgeted.iter().zip(&unbounded) {
            assert_eq!(path, expected_path, "budget {budget}");
            // A combined batch is logged in its map's iteration order,
            // which follows the recycled buffer's capacity and so the
            // budget; the order carries no meaning (see `LoggedBatch`).
            // Log segments therefore agree in length, checkpoints in bytes.
            if path.starts_with("/ckpt/msglog/w") {
                assert_eq!(ours.len(), expected.len(), "budget {budget}: {path}");
            } else {
                assert!(ours == expected, "budget {budget}: {path} differs");
            }
        }
    }
}

#[test]
fn kill_worker_recovery_is_identical_under_budget() {
    let n = 160;
    let clean = Engine::new(Rank { iterations: 9 }).num_workers(4).run(ring_graph(n)).unwrap();

    // The kill lands one superstep after the checkpoint of superstep 4,
    // which under these budgets is assembled partly or wholly from
    // copied spill segments: recovery restores from a copy.
    for (mode, budget) in [RecoveryMode::Restart, RecoveryMode::LogReplay]
        .into_iter()
        .flat_map(|mode| budgets(n).map(|budget| (mode, budget)))
    {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let obs = Obs::deterministic(1);
        let mut ckpt = CheckpointConfig::new(2, "/ckpt");
        ckpt.recovery = mode;
        // At about one partition of four, the post-recovery deliver phase
        // must wait on the pin condvar, which once deadlocked against
        // confined pins held across the replay.
        let recovered = Engine::new(Rank { iterations: 9 })
            .num_workers(4)
            .with_checkpoints(fs.clone(), ckpt)
            .with_memory_budget(fs.clone(), OocConfig::new(budget, "/ooc"))
            .with_fault_plan(FaultPlan::new().with(Fault::KillWorker { worker: 2, superstep: 5 }))
            .with_obs(obs.clone())
            .run(ring_graph(n))
            .unwrap();
        assert_eq!(recovered.stats.recoveries, 1, "{mode:?} at {budget}");
        assert_same_ranks(&clean, &recovered, n);
        assert!(obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL) > 0);
        assert!(!fs.exists("/ooc"), "{mode:?} at {budget}: spill root not cleaned up");
    }
}

/// Damages partition 0's spill segment once superstep 1 is over, just
/// before the checkpoint of superstep 2 would copy it.
struct DamageSegment {
    fs: Arc<dyn FileSystem>,
    truncate: bool,
}

impl JobObserver<Rank> for DamageSegment {
    fn on_superstep_end(&self, stats: &SuperstepStats) {
        if stats.superstep == 1 {
            let segment = self.fs.read_all("/ooc/parts/p0.seg").expect("partition 0 is spilled");
            self.fs.delete("/ooc/parts/p0.seg", false).unwrap();
            if self.truncate {
                self.fs.write_all("/ooc/parts/p0.seg", &segment[..segment.len() - 1]).unwrap();
            }
        }
    }
}

#[test]
fn a_damaged_segment_fails_the_checkpoint_instead_of_committing_it() {
    for truncate in [false, true] {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        // Below any partition: every partition is on disk at the barrier.
        let result = Engine::new(Rank { iterations: 9 })
            .num_workers(4)
            .with_checkpoints(fs.clone(), CheckpointConfig::new(2, "/ckpt"))
            .with_memory_budget(fs.clone(), OocConfig::new(1, "/ooc"))
            .with_observer(Arc::new(DamageSegment { fs: fs.clone(), truncate }))
            .run(ring_graph(100));
        let Err(EngineError::Checkpoint(err)) = result else {
            panic!("truncate={truncate}: expected a checkpoint error");
        };
        assert!(err.to_string().contains("/ooc/parts/p0.seg"), "{err}");
        assert!(fs.exists("/ckpt/cp_0/COMMIT"));
        assert!(!fs.exists("/ckpt/cp_2/COMMIT"), "truncate={truncate}: short checkpoint committed");
    }
}

/// Puts a file where the segment directory was, once the store has
/// adopted the partitions: every later spill fails. The hook it rides
/// on fires only for a job with a master, hence [`IdleMaster`].
struct BreakSpillDir(Arc<dyn FileSystem>);

struct IdleMaster;

impl MasterComputation<Rank> for IdleMaster {
    fn compute(&self, _: &mut MasterContext<'_>) {}
}

impl JobObserver<Rank> for BreakSpillDir {
    fn on_master_computed(
        &self,
        superstep: u64,
        _: &GlobalData,
        _: &[(String, AggValue)],
        _: bool,
    ) {
        if superstep == 0 {
            self.0.delete("/ooc/parts", true).unwrap();
            self.0.write_all("/ooc/parts", b"not a directory").unwrap();
        }
    }
}

#[test]
fn a_spill_that_fails_when_a_pin_is_released_is_counted() {
    let n = 200;
    let unbounded = Engine::new(Rank { iterations: 5 }).num_workers(4).run(ring_graph(n)).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    // Room for the graph as loaded but not for the inboxes the first
    // delivery fills: the first evictions happen as delivery pins drop.
    let budget = estimate_max_partition_bytes::<Rank>(&ring_graph(n), 1) + 64;
    let budgeted = Engine::new(Rank { iterations: 5 })
        .num_workers(4)
        .with_memory_budget(fs.clone(), OocConfig::new(budget, "/ooc"))
        .with_master(IdleMaster)
        .with_observer(Arc::new(BreakSpillDir(fs.clone())))
        .with_obs(obs.clone())
        .run(ring_graph(n))
        .unwrap();
    // Nothing could be evicted, so nothing was lost: the run finishes
    // over budget, and says so.
    assert_same_ranks(&unbounded, &budgeted, n);
    let reg = obs.registry();
    assert!(reg.counter_value("ooc_spill_errors_total", Scope::GLOBAL) > 0);
    assert_eq!(reg.counter_value("ooc_spills_total", Scope::GLOBAL), 0);
}

#[test]
fn budget_below_one_partition_still_completes_with_overruns() {
    let n = 100;
    let unbounded = Engine::new(Rank { iterations: 5 }).num_workers(4).run(ring_graph(n)).unwrap();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let obs = Obs::deterministic(1);
    // A budget no partition fits in: progress is guaranteed by counted
    // overruns (execution degrades to one partition at a time).
    let budgeted = Engine::new(Rank { iterations: 5 })
        .num_workers(4)
        .with_memory_budget(fs, OocConfig::new(1, "/ooc"))
        .with_obs(obs.clone())
        .run(ring_graph(n))
        .unwrap();
    assert_same_ranks(&unbounded, &budgeted, n);
    assert!(
        obs.registry().counter_value("ooc_budget_overruns_total", Scope::GLOBAL) > 0,
        "a sub-partition budget must overrun"
    );
}

#[test]
fn estimate_matches_hash_partitioning() {
    let graph = ring_graph(64);
    let est = estimate_max_partition_bytes::<Rank>(&graph, 4);
    // 64 vertices / 4 partitions, each record a handful of bytes: the
    // largest bucket must be positive and well below the whole graph.
    assert!(est > 0);
    let total = estimate_max_partition_bytes::<Rank>(&graph, 1);
    assert!(est < total, "one bucket cannot hold the whole graph ({est} vs {total})");
    // More partitions never grow the largest bucket.
    let est8 = estimate_max_partition_bytes::<Rank>(&graph, 8);
    assert!(est8 <= est);
}
