//! Engine-level semantics tests: superstep ordering, halting rules,
//! reactivation by message, combiners, aggregators, master coordination,
//! topology mutations, determinism across worker counts, and panic
//! handling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, Engine, EngineError, Graph,
    HaltReason, JobEnd, JobObserver, MasterComputation, MasterContext, SuperstepStats,
    VertexHandleOf,
};

#[path = "support/computations.rs"]
mod computations;
use computations::PanicsAt;

fn line_graph(n: u64) -> Graph<u64, u64, ()> {
    let mut b = Graph::builder();
    for v in 0..n {
        b.add_vertex(v, 0).unwrap();
    }
    for v in 0..n - 1 {
        b.add_undirected_edge(v, v + 1, ()).unwrap();
    }
    b.build().unwrap()
}

/// Forwards a token along a line graph: vertex 0 emits in superstep 0,
/// each vertex records the superstep it received the token.
struct TokenRelay;

impl Computation for TokenRelay {
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
        if ctx.superstep() == 0 {
            if vertex.id() == 0 {
                vertex.set_value(1);
                ctx.send_message(vertex.id() + 1, 1);
            }
        } else if let Some(&hops) = messages.iter().max() {
            vertex.set_value(hops + 1);
            let next = vertex.id() + 1;
            if next < ctx.num_vertices() {
                ctx.send_message(next, hops + 1);
            }
        }
        vertex.vote_to_halt();
    }
}

#[test]
fn messages_cross_exactly_one_superstep_boundary() {
    let n = 10;
    let outcome = Engine::new(TokenRelay).num_workers(3).run(line_graph(n)).unwrap();
    // Vertex k receives the token in superstep k, so value == k + 1.
    for v in 0..n {
        assert_eq!(outcome.graph.value(v), Some(&(v + 1)), "vertex {v}");
    }
    // One superstep per hop, plus the final all-halted superstep.
    assert_eq!(outcome.stats.superstep_count(), n);
    assert_eq!(outcome.halt_reason, HaltReason::AllVerticesHalted);
}

#[test]
fn halted_vertices_are_reactivated_only_by_messages() {
    let outcome = Engine::new(TokenRelay).num_workers(2).run(line_graph(6)).unwrap();
    let per_step: Vec<u64> = outcome.stats.supersteps.iter().map(|s| s.compute_calls).collect();
    // Superstep 0 computes all 6 vertices; afterwards exactly the single
    // reactivated vertex computes each superstep.
    assert_eq!(per_step[0], 6);
    for (i, &calls) in per_step.iter().enumerate().skip(1) {
        assert_eq!(calls, 1, "superstep {i} recomputed more than the reactivated vertex");
    }
}

/// Every vertex sends its id to all neighbours each superstep for a fixed
/// number of rounds; values accumulate received sums. Used to test
/// combiners and determinism.
struct SumRounds {
    rounds: u64,
}

impl Computation for SumRounds {
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
        let sum: u64 = messages.iter().sum();
        *vertex.value_mut() += sum;
        if ctx.superstep() < self.rounds {
            ctx.send_message_to_all_edges(vertex, vertex.id() + 1);
        } else {
            vertex.vote_to_halt();
        }
    }
}

struct CombinedSumRounds(SumRounds);

impl Computation for CombinedSumRounds {
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
        // Same kernel; the wrapper only switches the combiner on.
        let inner_vertex = vertex;
        let sum: u64 = messages.iter().sum();
        *inner_vertex.value_mut() += sum;
        if ctx.superstep() < self.0.rounds {
            ctx.send_message_to_all_edges(inner_vertex, inner_vertex.id() + 1);
        } else {
            inner_vertex.vote_to_halt();
        }
    }

    fn use_combiner(&self) -> bool {
        true
    }

    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

#[test]
fn sum_combiner_preserves_results_and_reduces_inbox_size() {
    let graph = line_graph(12);
    let plain = Engine::new(SumRounds { rounds: 4 }).num_workers(4).run(graph.clone()).unwrap();
    let combined =
        Engine::new(CombinedSumRounds(SumRounds { rounds: 4 })).num_workers(4).run(graph).unwrap();
    assert_eq!(plain.graph.sorted_values(), combined.graph.sorted_values());
    // Both runs *send* the same number of messages; combining happens at
    // delivery.
    assert_eq!(plain.stats.total_messages(), combined.stats.total_messages());
}

#[test]
fn results_are_identical_across_worker_counts() {
    let reference =
        Engine::new(SumRounds { rounds: 5 }).num_workers(1).run(line_graph(30)).unwrap();
    for workers in [2, 3, 7, 8] {
        let outcome =
            Engine::new(SumRounds { rounds: 5 }).num_workers(workers).run(line_graph(30)).unwrap();
        assert_eq!(
            outcome.graph.sorted_values(),
            reference.graph.sorted_values(),
            "{workers} workers diverged from single-worker run"
        );
        assert_eq!(outcome.stats.total_messages(), reference.stats.total_messages());
    }
}

/// Counts active vertices through an aggregator and lets the master halt
/// the job when a phase aggregator says so.
struct CountAndObey;

impl Computation for CountAndObey {
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
        ctx.aggregate("active", AggValue::Long(1));
        let phase = ctx
            .get_aggregated("phase")
            .and_then(|v| v.as_text().map(str::to_string))
            .unwrap_or_default();
        vertex.set_value(ctx.superstep());
        if phase == "DRAIN" {
            vertex.vote_to_halt();
        }
        // While phase is RUN, stay active (never vote, never send).
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register("active", AggOp::Sum, AggValue::Long(0));
    }
}

struct PhaseMaster {
    drain_at: u64,
}

impl MasterComputation<CountAndObey> for PhaseMaster {
    fn compute(&self, master: &mut MasterContext<'_>) {
        if master.superstep() >= self.drain_at {
            master.set_aggregated("phase", AggValue::Text("DRAIN".into()));
        }
        // Sanity: the "active" aggregator reflects the previous superstep.
        if master.superstep() > 0 {
            let active = master.get_aggregated("active").unwrap().as_long().unwrap();
            assert_eq!(active, 9, "all 9 vertices should aggregate each superstep");
        }
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register_persistent("phase", AggOp::Overwrite, AggValue::Text("RUN".into()));
    }
}

#[test]
fn master_phase_switch_drains_the_job() {
    let mut b = Graph::<u64, u64, ()>::builder();
    for v in 0..9 {
        b.add_vertex(v, 0).unwrap();
    }
    let outcome = Engine::new(CountAndObey)
        .with_master(PhaseMaster { drain_at: 3 })
        .num_workers(3)
        .run(b.build().unwrap())
        .unwrap();
    // Supersteps 0,1,2 run in phase RUN; master flips at the start of
    // superstep 3; every vertex votes in superstep 3 and the job halts.
    assert_eq!(outcome.stats.superstep_count(), 4);
    assert_eq!(outcome.halt_reason, HaltReason::AllVerticesHalted);
    for (_, value) in outcome.graph.sorted_values() {
        assert_eq!(value, 3);
    }
}

struct HaltImmediately;

impl MasterComputation<CountAndObey> for HaltImmediately {
    fn compute(&self, master: &mut MasterContext<'_>) {
        master.halt_computation();
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register_persistent("phase", AggOp::Overwrite, AggValue::Text("RUN".into()));
    }
}

#[test]
fn master_can_halt_before_superstep_zero() {
    let mut b = Graph::<u64, u64, ()>::builder();
    b.add_vertex(0, 99).unwrap();
    let outcome =
        Engine::new(CountAndObey).with_master(HaltImmediately).run(b.build().unwrap()).unwrap();
    assert_eq!(outcome.halt_reason, HaltReason::MasterHalted);
    assert_eq!(outcome.stats.superstep_count(), 0);
    // No compute ever ran: values untouched.
    assert_eq!(outcome.graph.value(0), Some(&99));
}

#[test]
fn max_supersteps_is_enforced() {
    struct Forever;
    impl Computation for Forever {
        type Id = u64;
        type VValue = u64;
        type EValue = ();
        type Message = u64;
        fn compute(
            &self,
            _vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[u64],
            _ctx: &mut ContextOf<'_, Self>,
        ) {
            // never votes to halt
        }
    }
    let mut b = Graph::<u64, u64, ()>::builder();
    b.add_vertex(0, 0).unwrap();
    let outcome = Engine::new(Forever).max_supersteps(7).run(b.build().unwrap()).unwrap();
    assert_eq!(outcome.halt_reason, HaltReason::MaxSuperstepsReached);
    assert_eq!(outcome.stats.superstep_count(), 7);
}

/// Removes odd vertices via mutation requests in superstep 0 and adds one
/// fresh vertex; checks global data updates.
struct Mutator;

impl Computation for Mutator {
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
        if ctx.superstep() == 0 {
            if vertex.id() % 2 == 1 {
                ctx.remove_vertex_request(vertex.id());
            }
            if vertex.id() == 0 {
                ctx.add_vertex_request(1000, 42);
                ctx.add_edge_request(0, 1000, ());
            }
        } else {
            // Global data must reflect the mutations from superstep 0.
            assert_eq!(ctx.num_vertices(), 6, "5 even survivors + added vertex");
            vertex.set_value(ctx.num_vertices());
        }
        if ctx.superstep() >= 1 {
            vertex.vote_to_halt();
        }
    }
}

#[test]
fn topology_mutations_apply_at_the_barrier() {
    let mut b = Graph::<u64, u64, ()>::builder();
    for v in 0..10 {
        b.add_vertex(v, 0).unwrap();
    }
    let outcome = Engine::new(Mutator).num_workers(4).run(b.build().unwrap()).unwrap();
    let graph = &outcome.graph;
    assert_eq!(graph.num_vertices(), 6);
    assert!(graph.contains(1000));
    assert!(!graph.contains(3));
    // The added vertex starts active, so it ran compute in superstep 1 and
    // set its value to the post-mutation vertex count.
    assert_eq!(graph.value(1000), Some(&6));
    assert_eq!(graph.out_edges(0).unwrap().len(), 1);
    assert!(outcome.stats.supersteps[0].mutations_applied >= 6);
}

#[test]
fn messages_to_missing_vertices_are_counted_not_fatal() {
    struct SendsToNowhere;
    impl Computation for SendsToNowhere {
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
            if ctx.superstep() == 0 {
                ctx.send_message(777, 1);
            }
            vertex.vote_to_halt();
        }
    }
    let mut b = Graph::<u64, u64, ()>::builder();
    b.add_vertex(0, 0).unwrap();
    let outcome = Engine::new(SendsToNowhere).run(b.build().unwrap()).unwrap();
    assert_eq!(outcome.stats.supersteps[0].messages_to_missing, 1);
    assert_eq!(outcome.stats.supersteps[0].messages_delivered, 0);
}

fn run_panicking(computation: PanicsAt, workers: usize) -> EngineError {
    let mut b = Graph::<u64, u64, ()>::builder();
    for v in 0..130 {
        b.add_vertex(v, 0).unwrap();
    }
    let run = Engine::new(computation).num_workers(workers).max_supersteps(10);
    run.run(b.build().unwrap()).map(|_| ()).unwrap_err()
}

#[test]
fn vertex_panic_fails_the_job_with_context() {
    // One panic guard covers a worker's whole sweep, with the vertex in
    // `compute` tracked beside it. With one worker a vertex's slot is its
    // id: the first and second slot of an active-set word, the last, and
    // two in a later word; then a vertex somewhere in a hashed partition.
    for (workers, culprit) in [(1, 0), (1, 1), (1, 63), (1, 65), (1, 129), (4, 7)] {
        match run_panicking(PanicsAt(culprit, false), workers) {
            EngineError::VertexPanic { vertex, superstep, message } => {
                assert_eq!(vertex, culprit.to_string());
                assert_eq!(superstep, 2);
                assert_eq!(message, format!("boom on vertex {culprit}"));
            }
            other => panic!("unexpected error {other}"),
        }
    }
}

#[test]
fn a_panic_in_combine_is_the_workers_not_a_vertexs() {
    // The second send to vertex 0 folds, between two `compute` calls.
    let err = run_panicking(PanicsAt(u64::MAX, true), 1);
    assert!(matches!(err, EngineError::WorkerCrashed { worker: 0, superstep: 0 }), "got {err}");
}

#[derive(Default)]
struct RecordingObserver {
    supersteps: AtomicU64,
    master_calls: AtomicU64,
    job_ends: AtomicU64,
    saw_error: AtomicU64,
}

impl<C: Computation> JobObserver<C> for RecordingObserver {
    fn on_master_computed(
        &self,
        _superstep: u64,
        _global: &graft_pregel::GlobalData,
        _aggs: &[(String, AggValue)],
        _halted: bool,
    ) {
        self.master_calls.fetch_add(1, Ordering::SeqCst);
    }

    fn on_superstep_end(&self, _stats: &SuperstepStats) {
        self.supersteps.fetch_add(1, Ordering::SeqCst);
    }

    fn on_job_end(&self, end: &JobEnd) {
        self.job_ends.fetch_add(1, Ordering::SeqCst);
        if end.error.is_some() {
            self.saw_error.fetch_add(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn observers_see_the_whole_lifecycle() {
    let obs = Arc::new(RecordingObserver::default());
    let outcome = Engine::new(TokenRelay)
        .with_observer(obs.clone())
        .num_workers(2)
        .run(line_graph(5))
        .unwrap();
    assert_eq!(obs.supersteps.load(Ordering::SeqCst), outcome.stats.superstep_count());
    assert_eq!(obs.job_ends.load(Ordering::SeqCst), 1);
    assert_eq!(obs.saw_error.load(Ordering::SeqCst), 0);
}

#[test]
fn observers_see_job_end_on_failure() {
    struct AlwaysPanics;
    impl Computation for AlwaysPanics {
        type Id = u64;
        type VValue = u64;
        type EValue = ();
        type Message = u64;
        fn compute(
            &self,
            _vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[u64],
            _ctx: &mut ContextOf<'_, Self>,
        ) {
            panic!("always");
        }
    }
    let obs = Arc::new(RecordingObserver::default());
    let mut b = Graph::<u64, u64, ()>::builder();
    b.add_vertex(0, 0).unwrap();
    let _ = Engine::new(AlwaysPanics).with_observer(obs.clone()).run(b.build().unwrap());
    assert_eq!(obs.job_ends.load(Ordering::SeqCst), 1);
    assert_eq!(obs.saw_error.load(Ordering::SeqCst), 1);
}

#[test]
fn empty_graph_halts_immediately() {
    let outcome = Engine::new(TokenRelay).run(Graph::new()).unwrap();
    assert_eq!(outcome.halt_reason, HaltReason::AllVerticesHalted);
    assert_eq!(outcome.stats.superstep_count(), 1);
    assert_eq!(outcome.stats.supersteps[0].compute_calls, 0);
}

#[test]
fn local_edge_mutations_take_effect_immediately() {
    struct EdgeEditor;
    impl Computation for EdgeEditor {
        type Id = u64;
        type VValue = u64;
        type EValue = u64;
        type Message = u64;
        fn compute(
            &self,
            vertex: &mut VertexHandleOf<'_, Self>,
            _messages: &[u64],
            ctx: &mut ContextOf<'_, Self>,
        ) {
            if ctx.superstep() == 0 && vertex.id() == 0 {
                vertex.add_edge(1, 5);
                vertex.add_edge(1, 6);
                assert_eq!(vertex.num_edges(), 2);
                assert!(vertex.remove_edge(1)); // removes the first (value 5)
                assert_eq!(vertex.edge_value(1), Some(&6));
                assert!(vertex.set_edge_value(1, 7));
            }
            vertex.set_value(vertex.num_edges() as u64);
            vertex.vote_to_halt();
        }
    }
    let mut b = Graph::<u64, u64, u64>::builder();
    b.add_vertex(0, 0).unwrap();
    b.add_vertex(1, 0).unwrap();
    let outcome = Engine::new(EdgeEditor).run(b.build().unwrap()).unwrap();
    assert_eq!(outcome.graph.value(0), Some(&1));
    assert_eq!(outcome.graph.out_edges(0).unwrap()[0].value, 7);
}
