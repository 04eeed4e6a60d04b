//! Checkpoint/restart fault tolerance at the engine level: injected
//! worker crashes and compute panics must recover from the latest
//! committed checkpoint and converge to results identical to a
//! failure-free run — bitwise identical, even for floating-point
//! computations whose combiner folds are order-sensitive.

use std::sync::Arc;

use graft_algorithms::sssp::ShortestPaths;
use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, CheckpointConfig, Computation, ContextOf, Engine,
    EngineError, Fault, FaultPlan, Graph, HaltReason, JobObserver, JobOutcome, MasterComputation,
    MasterContext, RecoveryMode, VertexHandleOf,
};

/// A PageRank-style computation: f64 values, sum combiner, fixed
/// iteration count. Floating-point summation makes any change in message
/// fold order visible in the low bits of the result.
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

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register_persistent("rank-mass", AggOp::Sum, AggValue::Double(0.0));
    }
}

/// Master that accumulates into a persistent aggregator every superstep,
/// so a restore that forgot aggregator state would corrupt the total.
struct MassMaster;

impl MasterComputation<Rank> for MassMaster {
    fn compute(&self, ctx: &mut MasterContext<'_>) {
        let total = ctx.get_aggregated("rank-mass").and_then(|v| v.as_double()).unwrap_or(0.0);
        ctx.set_aggregated("rank-mass", AggValue::Double(total + 1.0));
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

fn engine(fs: &Arc<dyn FileSystem>, every: u64) -> Engine<Rank> {
    Engine::new(Rank { iterations: 9 })
        .with_master(MassMaster)
        .num_workers(4)
        .with_checkpoints(fs.clone(), CheckpointConfig::new(every, "/ckpt"))
}

fn log_engine(fs: &Arc<dyn FileSystem>, every: u64) -> Engine<Rank> {
    Engine::new(Rank { iterations: 9 }).with_master(MassMaster).num_workers(4).with_checkpoints(
        fs.clone(),
        CheckpointConfig::new(every, "/ckpt").recovery_mode(RecoveryMode::LogReplay),
    )
}

fn run_clean() -> JobOutcome<Rank> {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    engine(&fs, 3).run(ring_graph(64)).unwrap()
}

/// Records which recovery path the engine took: confined restores vs
/// full restores, with their rewind superstep and worker set.
#[derive(Default)]
struct RecoveryProbe {
    confined: std::sync::Mutex<Vec<(u64, Vec<usize>)>>,
    full: std::sync::Mutex<Vec<u64>>,
}

impl<C: Computation> JobObserver<C> for RecoveryProbe {
    fn on_restore(&self, superstep: u64) {
        self.full.lock().unwrap().push(superstep);
    }

    fn on_confined_restore(&self, superstep: u64, workers: &[usize]) {
        self.confined.lock().unwrap().push((superstep, workers.to_vec()));
    }
}

fn assert_bitwise_equal(a: &JobOutcome<Rank>, b: &JobOutcome<Rank>) {
    let va = a.graph.sorted_values();
    let vb = b.graph.sorted_values();
    assert_eq!(va.len(), vb.len());
    for ((ia, xa), (ib, xb)) in va.iter().zip(&vb) {
        assert_eq!(ia, ib);
        assert_eq!(xa.to_bits(), xb.to_bits(), "vertex {ia}: {xa} != {xb}");
    }
    assert_eq!(a.stats.superstep_count(), b.stats.superstep_count());
}

#[test]
fn worker_kill_recovers_bit_identical() {
    let clean = run_clean();
    assert_eq!(clean.stats.recoveries, 0);

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let plan = FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 5 });
    let outcome = engine(&fs, 3).with_fault_plan(plan).run(ring_graph(64)).unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_eq!(outcome.halt_reason, HaltReason::AllVerticesHalted);
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn compute_panic_recovers_bit_identical() {
    let clean = run_clean();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let plan = FaultPlan::new().with(Fault::ComputePanic { worker: None, superstep: 4 });
    let outcome = engine(&fs, 3).with_fault_plan(plan).run(ring_graph(64)).unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn multiple_faults_recover_with_multiple_restores() {
    let clean = run_clean();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let plan = FaultPlan::new()
        .with(Fault::KillWorker { worker: 0, superstep: 2 })
        .with(Fault::ComputePanic { worker: Some(3), superstep: 7 })
        .with(Fault::KillWorker { worker: 2, superstep: 8 });
    let outcome = engine(&fs, 3).with_fault_plan(plan).run(ring_graph(64)).unwrap();

    assert_eq!(outcome.stats.recoveries, 3);
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn fault_at_checkpoint_superstep_recovers() {
    // The failure fires in the same superstep a checkpoint was just
    // committed for; the restore rewinds to that very superstep.
    let clean = run_clean();

    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let plan = FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 6 });
    let outcome = engine(&fs, 3).with_fault_plan(plan).run(ring_graph(64)).unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn without_checkpoints_faults_are_fatal() {
    let plan = FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 5 });
    let err = Engine::new(Rank { iterations: 9 })
        .with_master(MassMaster)
        .num_workers(4)
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::WorkerCrashed { worker: 1, superstep: 5 }),
        "unexpected error: {err}"
    );
}

#[test]
fn recovery_limit_is_enforced() {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let plan = FaultPlan::new()
        .with(Fault::KillWorker { worker: 0, superstep: 4 })
        .with(Fault::KillWorker { worker: 1, superstep: 5 });
    let err = Engine::new(Rank { iterations: 9 })
        .with_master(MassMaster)
        .num_workers(4)
        .with_checkpoints(fs, CheckpointConfig::new(3, "/ckpt").max_recoveries(1))
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(
            &err,
            EngineError::RecoveryExhausted { attempts: 1, last_error }
                if matches!(**last_error, EngineError::WorkerCrashed { worker: 1, superstep: 5 })
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn checkpoints_are_pruned_on_dfs() {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let outcome = engine(&fs, 2).run(ring_graph(64)).unwrap();
    assert_eq!(outcome.stats.recoveries, 0);
    // 10 supersteps ran (0..=9); checkpoints at 0,2,4,6,8 with keep=2
    // leaves only the newest two.
    assert!(!fs.exists("/ckpt/cp_0"));
    assert!(!fs.exists("/ckpt/cp_4"));
    assert!(fs.exists("/ckpt/cp_6/COMMIT"));
    assert!(fs.exists("/ckpt/cp_8/COMMIT"));
}

#[test]
fn log_replay_worker_kill_recovers_confined_and_bit_identical() {
    let clean = run_clean();
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let probe = Arc::new(RecoveryProbe::default());
    let plan = FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 5 });
    let outcome = log_engine(&fs, 3)
        .with_observer(probe.clone())
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_eq!(outcome.halt_reason, HaltReason::AllVerticesHalted);
    // The recovery was confined: one partial restore from the
    // checkpoint at 3 covering only worker 1, and no full restore.
    assert_eq!(probe.confined.lock().unwrap().as_slice(), &[(3, vec![1])]);
    assert!(probe.full.lock().unwrap().is_empty());
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn log_replay_compute_panic_recovers_confined_and_bit_identical() {
    let clean = run_clean();
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let probe = Arc::new(RecoveryProbe::default());
    let plan = FaultPlan::new().with(Fault::ComputePanic { worker: Some(2), superstep: 4 });
    let outcome = log_engine(&fs, 3)
        .with_observer(probe.clone())
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_eq!(probe.confined.lock().unwrap().as_slice(), &[(3, vec![2])]);
    assert!(probe.full.lock().unwrap().is_empty());
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn log_replay_fault_at_checkpoint_superstep_recovers_confined() {
    // The failed superstep is the checkpointed one: the replay window is
    // empty and confined recovery reduces to restore-and-recompute of
    // the failed partition only.
    let clean = run_clean();
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let probe = Arc::new(RecoveryProbe::default());
    let plan = FaultPlan::new().with(Fault::KillWorker { worker: 3, superstep: 6 });
    let outcome = log_engine(&fs, 3)
        .with_observer(probe.clone())
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .unwrap();

    assert_eq!(outcome.stats.recoveries, 1);
    assert_eq!(probe.confined.lock().unwrap().as_slice(), &[(6, vec![3])]);
    assert!(probe.full.lock().unwrap().is_empty());
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn log_replay_second_fault_during_replay_falls_back_to_full_restart() {
    // A panic armed for the same worker and superstep as the kill fires
    // during the confined re-computation of the failed superstep; the
    // engine must descend the ladder to a full restart and still finish
    // bit-identical.
    let clean = run_clean();
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let probe = Arc::new(RecoveryProbe::default());
    let plan = FaultPlan::new()
        .with(Fault::KillWorker { worker: 1, superstep: 3 })
        .with(Fault::ComputePanic { worker: Some(1), superstep: 3 });
    let outcome = log_engine(&fs, 2)
        .with_observer(probe.clone())
        .with_fault_plan(plan)
        .run(ring_graph(64))
        .unwrap();

    assert_eq!(outcome.stats.recoveries, 2);
    assert_eq!(probe.confined.lock().unwrap().as_slice(), &[(2, vec![1])]);
    assert_eq!(probe.full.lock().unwrap().as_slice(), &[2]);
    assert_bitwise_equal(&clean, &outcome);
}

#[test]
fn log_replay_truncates_segments_at_checkpoint_commit() {
    // Over a long run the log must stay bounded: segments older than the
    // oldest retained checkpoint are dropped at every checkpoint commit.
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let outcome = Engine::new(Rank { iterations: 30 })
        .with_master(MassMaster)
        .num_workers(4)
        .with_checkpoints(
            fs.clone(),
            CheckpointConfig::new(2, "/ckpt").recovery_mode(RecoveryMode::LogReplay),
        )
        .run(ring_graph(64))
        .unwrap();
    assert_eq!(outcome.stats.recoveries, 0);
    // 31 supersteps (0..=30), checkpoints every 2 with keep=2: cp_28 and
    // cp_30 survive, and with them exactly the segments they can replay
    // from.
    assert!(fs.exists("/ckpt/cp_28/COMMIT"));
    assert!(fs.exists("/ckpt/cp_30/COMMIT"));
    assert!(fs.exists("/ckpt/msglog/w0/seg_28.log"));
    assert!(fs.exists("/ckpt/msglog/w3/seg_30.log"));
    assert!(fs.exists("/ckpt/msglog/coord/seg_28.log"));
    assert!(fs.exists("/ckpt/msglog/coord/seg_30.log"));
    assert!(!fs.exists("/ckpt/msglog/w0/seg_26.log"));
    assert!(!fs.exists("/ckpt/msglog/coord/seg_26.log"));
    assert!(!fs.exists("/ckpt/msglog/w0/seg_0.log"));
}

#[test]
fn deterministic_user_panic_exhausts_recovery() {
    // A genuine bug (not an injected fault) panics on every replay; the
    // engine must give up after max_recoveries instead of looping.
    struct AlwaysPanics;
    impl Computation for AlwaysPanics {
        type Id = u64;
        type VValue = ();
        type EValue = ();
        type Message = ();
        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[()],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            if ctx.superstep() == 2 && vertex.id() == 3 {
                panic!("deterministic bug");
            }
        }
    }
    let mut b = Graph::<u64, (), ()>::builder();
    for v in 0..8 {
        b.add_vertex(v, ()).unwrap();
    }
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let err = Engine::new(AlwaysPanics)
        .num_workers(2)
        .max_supersteps(5)
        .with_checkpoints(fs, CheckpointConfig::new(1, "/ckpt").max_recoveries(2))
        .run(b.build().unwrap())
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, EngineError::RecoveryExhausted { attempts: 2, .. }),
        "unexpected error: {err}"
    );
}

/// A `side` x `side` grid, every vertex linked to its right and lower
/// neighbour and back. SSSP from a corner is a frontier of at most
/// `side` vertices crossing it while everything behind has halted.
fn grid(side: u64) -> Graph<u64, f64, f64> {
    let mut b = Graph::builder();
    for v in 0..side * side {
        b.add_vertex(v, f64::INFINITY).unwrap();
    }
    for v in 0..side * side {
        if v % side + 1 < side {
            b.add_undirected_edge(v, v + 1, 1.0 + (v % 3) as f64).unwrap();
        }
        if v + side < side * side {
            b.add_undirected_edge(v, v + side, 1.0 + (v % 2) as f64).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn mid_frontier_kill_restores_who_sleeps_and_who_has_mail() {
    // Who computes in a superstep is derived state, not in the
    // checkpoint: a restore that woke a sleeper, or lost a halted
    // vertex's mail, would change `compute_calls` before any value.
    let calls = |o: &JobOutcome<ShortestPaths>| -> Vec<u64> {
        o.stats.supersteps.iter().map(|s| s.compute_calls).collect()
    };
    let clean = Engine::new(ShortestPaths::new(0)).num_workers(4).run(grid(10)).unwrap();
    let frontier = calls(&clean);
    assert!(frontier.len() > 12 && (1..30).contains(&frontier[8]), "{frontier:?}");

    for mode in [RecoveryMode::Restart, RecoveryMode::LogReplay] {
        let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
        let probe = Arc::new(RecoveryProbe::default());
        let outcome = Engine::new(ShortestPaths::new(0))
            .num_workers(4)
            .with_checkpoints(fs, CheckpointConfig::new(3, "/ckpt").recovery_mode(mode))
            .with_fault_plan(FaultPlan::new().with(Fault::KillWorker { worker: 1, superstep: 8 }))
            .with_observer(probe.clone())
            .run(grid(10))
            .unwrap();
        assert_eq!(outcome.stats.recoveries, 1, "{mode:?}");
        // Restart rewinds every partition to 6; log replay only worker 1.
        let confined = probe.confined.lock().unwrap().clone();
        assert_eq!(confined.is_empty(), mode == RecoveryMode::Restart, "{mode:?}: {confined:?}");
        assert_eq!(calls(&outcome), frontier, "{mode:?}");
        assert_eq!(outcome.graph.sorted_values(), clean.graph.sorted_values(), "{mode:?}");
    }
}
