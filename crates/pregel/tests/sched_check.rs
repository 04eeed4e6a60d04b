//! Model-check regression tests: the real engine and its threads,
//! driven through many distinct interleavings by the graft-sched
//! explorer. Every schedule must come back clean — no happens-before
//! race on the pool command word or the result slots, no deadlock in
//! the barrier protocol — and results must stay correct in every
//! interleaving. Inside a session the engine runs one thread per
//! partition whatever the host has (`graft_sched::thread::parallelism`):
//! the coordinator, which computes partition 0 itself, plus
//! `pool-worker-1..`. The case of a thread owning two partitions is
//! explored in-crate (`thread_invariance.rs`), where the thread count
//! can be set. A poison-recovery regression rides along: a panicked
//! compute phase must not wedge the locks a later superstep (or a later
//! job on the same engine) needs.

use std::sync::Arc;

use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{
    CheckpointConfig, Computation, ContextOf, Engine, EngineError, FaultPlan, Graph, VertexHandleOf,
};
use graft_sched::{explore, render_trace, run_schedule, ExploreConfig, StrategyKind};

#[path = "support/computations.rs"]
mod computations;
use computations::MinLabel;

fn ring(n: u64) -> Graph<u64, u64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, u64::MAX).unwrap();
    }
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, ()).unwrap();
    }
    b.build().unwrap()
}

/// Three partitions: the coordinator and two spawned workers, so both
/// coordinator–worker and worker–worker interleavings are in the model.
fn run_job() {
    let outcome = Engine::new(MinLabel).num_workers(3).run(ring(6)).expect("job runs");
    for v in 0..6 {
        assert_eq!(outcome.graph.value(v), Some(&0), "vertex {v} in some interleaving");
    }
}

#[test]
fn persistent_pool_engine_is_clean_over_many_schedules() {
    let cfg = ExploreConfig { schedules: 30, seed: 0xEA51, ..ExploreConfig::default() };
    let report = explore(&cfg, run_job);
    if let Some(failure) = &report.failure {
        panic!(
            "engine failed under schedule exploration (seed {:#x}):\n{}",
            failure.seed,
            render_trace(failure, 150)
        );
    }
    assert!(report.distinct >= 2, "exploration must produce distinct interleavings");
}

/// What is explored must not depend on the host: with 3 partitions the
/// cohort is the coordinator (`main`, which takes partition 0's phases
/// and so touches its result slot) and `pool-worker-1..=2` — on a
/// one-CPU runner too, where the same job outside a session spawns
/// nothing.
#[test]
fn explored_cohort_is_the_coordinator_plus_one_worker_per_further_partition() {
    let outcome = run_schedule(0xEA52, StrategyKind::Random, 200_000, run_job);
    assert!(!outcome.failed(), "{}", render_trace(&outcome, 150));
    let mut threads: Vec<&str> = outcome.trace.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads, ["main", "pool-worker-1", "pool-worker-2"]);
    let main_computes = outcome
        .trace
        .iter()
        .any(|s| s.thread == "main" && s.desc.starts_with("cell[compute-result-0].write"));
    assert!(main_computes, "the coordinator never parked partition 0's compute result");
}

/// A compute panic unwinds through shim guards mid-schedule; the engine
/// must still convert it to `VertexPanic` and keep every later lock
/// usable, in every explored interleaving.
#[test]
fn compute_panic_under_exploration_stays_contained() {
    struct PanicOnce;
    impl Computation for PanicOnce {
        type Id = u64;
        type VValue = u64;
        type EValue = ();
        type Message = u64;

        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[u64],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            if ctx.superstep() == 0 && vertex.id() == 0 {
                panic!("planted compute panic");
            }
            vertex.vote_to_halt();
        }
    }

    let cfg = ExploreConfig { schedules: 15, seed: 0xEA53, ..ExploreConfig::default() };
    let report = explore(&cfg, || {
        let err = Engine::new(PanicOnce)
            .num_workers(2)
            .run(ring(4))
            .map(|_| ())
            .expect_err("planted panic must surface as an error");
        assert!(matches!(err, EngineError::VertexPanic { superstep: 0, .. }), "got {err:?}");
    });
    if let Some(failure) = &report.failure {
        panic!("panic containment failed:\n{}", render_trace(failure, 150));
    }
}

/// Poison-recovery regression (no scheduler): a compute panic unwinds
/// through the pool's partition locks mid-job; after checkpoint
/// recovery the engine retries the superstep on the *same* pool and the
/// *same* locks. Before the shims recovered poison, this retry died on
/// a `PoisonError` instead of completing.
#[test]
fn post_panic_superstep_succeeds_on_the_same_pool() {
    let fs: Arc<dyn FileSystem> = Arc::new(InMemoryFs::new());
    let outcome = Engine::new(MinLabel)
        .num_workers(2)
        .with_fault_plan(FaultPlan::parse("panic@1").unwrap())
        .with_checkpoints(fs, CheckpointConfig::new(1, "/ckpt"))
        .run(ring(6))
        .expect("post-panic superstep succeeds after recovery");
    assert_eq!(outcome.stats.recoveries, 1, "exactly the planted panic was recovered");
    for v in 0..6 {
        assert_eq!(outcome.graph.value(v), Some(&0));
    }
}
