//! Model-check regression tests: the real engine and its worker pool,
//! driven through many distinct interleavings by the graft-sched
//! explorer. Every schedule must come back clean — no happens-before
//! race on the pool command word or the result slots, no deadlock in
//! the barrier protocol — and results must stay correct in every
//! interleaving. A poison-recovery regression rides along: a panicked
//! compute phase must not wedge the locks a later superstep (or a later
//! job on the same engine) needs.

use std::sync::Arc;

use graft_dfs::{FileSystem, InMemoryFs};
use graft_pregel::{
    CheckpointConfig, Computation, ContextOf, Engine, EngineError, FaultPlan, Graph, VertexHandleOf,
};
use graft_sched::{explore, render_trace, ExploreConfig};

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

/// Min-label propagation: every interleaving must converge to label 0
/// everywhere, which makes cross-schedule nondeterminism visible as an
/// assertion failure (and thus a failing schedule).
struct MinLabel;

impl Computation for MinLabel {
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
        let best = messages.iter().copied().chain([vertex.id(), *vertex.value()]).min().unwrap();
        if best < *vertex.value() {
            vertex.set_value(best);
            ctx.send_message_to_all_edges(vertex, best);
        }
        vertex.vote_to_halt();
    }
}

fn run_job() {
    let outcome = Engine::new(MinLabel).num_workers(2).run(ring(6)).expect("job runs");
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
