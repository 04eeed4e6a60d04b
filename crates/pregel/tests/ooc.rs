//! Out-of-core execution at the engine level: a run under a tight
//! memory budget must spill (provably — the counters say so) and still
//! produce results bitwise identical to the unbounded in-memory run,
//! with mutations, and through checkpointed fault recovery.

use std::sync::Arc;

use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_obs::{Obs, Scope};
use graft_pregel::{
    estimate_max_partition_bytes, AggregatorRegistry, CheckpointConfig, Computation, ContextOf,
    Engine, Fault, FaultPlan, Graph, JobOutcome, OocConfig, RecoveryMode, VertexHandleOf,
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

#[test]
fn kill_worker_recovery_is_identical_under_budget() {
    let n = 160;
    let clean = Engine::new(Rank { iterations: 9 }).num_workers(4).run(ring_graph(n)).unwrap();

    for mode in [RecoveryMode::Restart, RecoveryMode::LogReplay] {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let obs = Obs::deterministic(1);
        let mut ckpt = CheckpointConfig::new(2, "/ckpt");
        ckpt.recovery = mode;
        // A budget that holds roughly one of the four partitions: the
        // post-recovery deliver phase must wait on the pin condvar, which
        // once deadlocked against confined pins held across the replay.
        let recovered = Engine::new(Rank { iterations: 9 })
            .num_workers(4)
            .with_checkpoints(fs.clone(), ckpt)
            .with_memory_budget(fs.clone(), OocConfig::new(1_100, "/ooc"))
            .with_fault_plan(FaultPlan::new().with(Fault::KillWorker { worker: 2, superstep: 5 }))
            .with_obs(obs.clone())
            .run(ring_graph(n))
            .unwrap();
        assert_eq!(recovered.stats.recoveries, 1, "{mode:?}");
        assert_same_ranks(&clean, &recovered, n);
        assert!(obs.registry().counter_value("ooc_spills_total", Scope::GLOBAL) > 0);
        assert!(!fs.exists("/ooc"), "{mode:?}: spill root not cleaned up");
    }
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
