//! End-to-end tests of the capture → visualize → reproduce cycle on a
//! small deterministic computation.

use std::sync::Arc;

use graft::testing::premade;
use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, ExceptionPolicy, GraftRunner, SearchQuery, SuperstepFilter, TraceFormat};
use graft_dfs::{ClusterFs, ClusterFsConfig, FileSystem, InMemoryFs};
use graft_pregel::{AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, VertexHandleOf};

/// Deterministic program: every vertex accumulates received values and
/// forwards `value + id` for `rounds` supersteps, aggregating a count.
struct Accumulate {
    rounds: u64,
}

impl Computation for Accumulate {
    type Id = u64;
    type VValue = i64;
    type EValue = ();
    type Message = i64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        messages: &[i64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        let sum: i64 = messages.iter().sum();
        *vertex.value_mut() += sum;
        ctx.aggregate("touched", AggValue::Long(1));
        if ctx.superstep() < self.rounds {
            ctx.send_message_to_all_edges(vertex, *vertex.value() + vertex.id() as i64);
        } else {
            vertex.vote_to_halt();
        }
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register("touched", AggOp::Sum, AggValue::Long(0));
    }
}

#[test]
fn capture_by_id_with_neighbors() {
    let config = DebugConfig::<Accumulate>::builder()
        .capture_ids([3])
        .capture_neighbors(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 3 }, config)
        .num_workers(3)
        .run(premade::cycle(8, 0i64), "/t/by-id")
        .unwrap();
    assert!(run.outcome.is_ok());

    let session = run.session().unwrap();
    // Vertex 3 and its cycle neighbors 2 and 4, every superstep (4 total).
    assert_eq!(session.supersteps(), vec![0, 1, 2, 3]);
    for superstep in session.supersteps() {
        let ids: Vec<u64> = session.captured_at(superstep).iter().map(|t| t.vertex).collect();
        assert_eq!(ids, vec![2, 3, 4], "superstep {superstep}");
    }
    assert_eq!(run.captures, 12);

    // Reasons distinguish the specified vertex from its neighbors.
    let t3 = session.vertex_at(3, 1).unwrap();
    assert_eq!(t3.reasons, vec![graft::CaptureReason::SpecifiedId]);
    let t2 = session.vertex_at(2, 1).unwrap();
    assert_eq!(t2.reasons, vec![graft::CaptureReason::NeighborOfCaptured]);

    // The captured context carries all five pieces of data.
    assert_eq!(t3.edges.len(), 2);
    assert_eq!(t3.incoming.len(), 2);
    assert_eq!(t3.outgoing.len(), 2);
    assert_eq!(t3.aggregators[0].0, "touched");
    assert_eq!(t3.aggregators[0].1, AggValue::Long(8), "all 8 vertices aggregated in ss 0");
    assert_eq!(t3.global.num_vertices, 8);
    assert_eq!(t3.global.num_edges, 16);
}

#[test]
fn random_capture_is_deterministic_and_sized() {
    for _ in 0..2 {
        let config = DebugConfig::<Accumulate>::builder()
            .capture_random(5, 1234)
            .catch_exceptions(false)
            .build();
        let run = GraftRunner::new(Accumulate { rounds: 0 }, config)
            .num_workers(4)
            .run(premade::cycle(100, 0i64), "/t/random")
            .unwrap();
        let session = run.session().unwrap();
        let ids: Vec<u64> = session.captured_at(0).iter().map(|t| t.vertex).collect();
        assert_eq!(ids.len(), 5);
        // Determinism: the same seed must sample the same vertices.
        let config2 = DebugConfig::<Accumulate>::builder()
            .capture_random(5, 1234)
            .catch_exceptions(false)
            .build();
        let run2 = GraftRunner::new(Accumulate { rounds: 0 }, config2)
            .num_workers(4)
            .run(premade::cycle(100, 0i64), "/t/random2")
            .unwrap();
        let ids2: Vec<u64> =
            run2.session().unwrap().captured_at(0).iter().map(|t| t.vertex).collect();
        assert_eq!(ids, ids2);
    }
}

#[test]
fn message_constraint_flags_offenders_only() {
    // Constraint: messages must stay below 100. With rounds=2 on a cycle
    // of 4, values grow; some sends exceed 100 eventually.
    let config = DebugConfig::<Accumulate>::builder()
        .message_constraint(|m, _s, _d, _ss| *m < 100)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 6 }, config)
        .num_workers(2)
        .run(premade::cycle(4, 10i64), "/t/msg")
        .unwrap();
    assert!(run.violations > 0, "values grow past 100 within 6 rounds");
    let session = run.session().unwrap();
    for trace in session.violations() {
        assert!(trace.reasons.contains(&graft::CaptureReason::MessageViolation));
        assert!(!trace.violations.is_empty());
        for violation in &trace.violations {
            assert_eq!(violation.kind, graft::ViolationKind::Message);
            let value: i64 = violation.detail.parse().unwrap();
            assert!(value >= 100, "flagged message {value} should violate");
        }
    }
    // The M indicator is red exactly in supersteps with violations.
    let violating_steps: std::collections::BTreeSet<u64> =
        session.violations().iter().map(|t| t.superstep).collect();
    for superstep in session.supersteps() {
        assert_eq!(
            session.indicators(superstep).message_violation,
            violating_steps.contains(&superstep)
        );
    }
}

#[test]
fn vertex_value_constraint_and_superstep_filter() {
    let config = DebugConfig::<Accumulate>::builder()
        .vertex_value_constraint(|value, _id, _ss| *value < 50)
        .supersteps(SuperstepFilter::After(3))
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 6 }, config)
        .num_workers(2)
        .run(premade::cycle(4, 10i64), "/t/vv")
        .unwrap();
    let session = run.session().unwrap();
    assert!(session.total_captures() > 0);
    for superstep in session.supersteps() {
        assert!(superstep >= 3, "filter must suppress captures before superstep 3");
        assert!(session.indicators(superstep).value_violation);
    }
}

struct PanicsOnVertex {
    victim: u64,
    at_superstep: u64,
}

impl Computation for PanicsOnVertex {
    type Id = u64;
    type VValue = i64;
    type EValue = ();
    type Message = i64;

    fn compute(
        &self,
        vertex: &mut VertexHandleOf<'_, Self>,
        _messages: &[i64],
        ctx: &mut ContextOf<'_, Self>,
    ) {
        if vertex.id() == self.victim && ctx.superstep() == self.at_superstep {
            panic!("injected failure on vertex {}", self.victim);
        }
        if ctx.superstep() >= 3 {
            vertex.vote_to_halt();
        }
    }
}

#[test]
fn exception_capture_with_abort_policy_preserves_traces() {
    let config = DebugConfig::<PanicsOnVertex>::builder().build();
    let run = GraftRunner::new(PanicsOnVertex { victim: 5, at_superstep: 2 }, config)
        .num_workers(2)
        .run(premade::cycle(8, 0i64), "/t/panic-abort")
        .unwrap();
    // The job failed...
    assert!(run.outcome.is_err());
    assert_eq!(run.exceptions, 1);
    // ...but the capture survived, with message, location, and backtrace.
    let session = run.session().unwrap();
    let exceptions = session.exceptions();
    assert_eq!(exceptions.len(), 1);
    let trace = exceptions[0];
    assert_eq!(trace.vertex, 5);
    assert_eq!(trace.superstep, 2);
    let info = trace.exception.as_ref().unwrap();
    assert!(info.message.contains("injected failure on vertex 5"));
    assert!(info.message.contains("capture_cycle.rs"), "panic location: {}", info.message);
    assert!(info.backtrace.is_some());
    assert!(session.indicators(2).exception);
    // result.json records the failure.
    let result = session.result().unwrap();
    assert!(result.error.as_ref().unwrap().contains("vertex 5"));
}

#[test]
fn exception_capture_with_suppress_policy_lets_job_finish() {
    let config = DebugConfig::<PanicsOnVertex>::builder()
        .exception_policy(ExceptionPolicy::SuppressAndHalt)
        .build();
    let run = GraftRunner::new(PanicsOnVertex { victim: 5, at_superstep: 2 }, config)
        .num_workers(2)
        .run(premade::cycle(8, 0i64), "/t/panic-suppress")
        .unwrap();
    assert!(run.outcome.is_ok(), "suppressed exception must not fail the job");
    assert_eq!(run.exceptions, 1);
    let session = run.session().unwrap();
    assert_eq!(session.exceptions().len(), 1);
    assert!(session.result().unwrap().error.is_none());
}

#[test]
fn capture_all_active_and_max_captures_safety_net() {
    let config = DebugConfig::<Accumulate>::builder()
        .capture_all_active(true)
        .catch_exceptions(false)
        .max_captures(10)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 5 }, config)
        .num_workers(2)
        .run(premade::cycle(8, 0i64), "/t/all")
        .unwrap();
    assert_eq!(run.captures, 10, "safety net caps captures");
    assert!(run.capture_limit_hit);
    let session = run.session().unwrap();
    assert_eq!(session.total_captures(), 10);
    assert!(session.result().unwrap().capture_limit_hit);
}

#[test]
fn replay_reproduces_the_exact_context() {
    let config =
        DebugConfig::<Accumulate>::builder().capture_ids([2, 5]).catch_exceptions(false).build();
    let run = GraftRunner::new(Accumulate { rounds: 4 }, config)
        .num_workers(3)
        .run(premade::cycle(8, 3i64), "/t/replay")
        .unwrap();
    let session = run.session().unwrap();
    for superstep in session.supersteps() {
        for vertex in [2u64, 5] {
            let reproduced = session.reproduce_vertex(vertex, superstep).unwrap();
            let report = reproduced.verify_fidelity(Accumulate { rounds: 4 });
            assert!(
                report.is_faithful(),
                "vertex {vertex} superstep {superstep}: {:?}",
                report.diffs
            );
        }
    }
}

#[test]
fn generated_test_source_contains_the_context() {
    let config =
        DebugConfig::<Accumulate>::builder().capture_ids([2]).catch_exceptions(false).build();
    let run = GraftRunner::new(Accumulate { rounds: 2 }, config)
        .num_workers(2)
        .run(premade::cycle(4, 3i64), "/t/codegen")
        .unwrap();
    let session = run.session().unwrap();
    let source = session.reproduce_vertex(2, 1).unwrap().generate_test_source();
    assert!(source.contains("pub fn reproduce_vertex_2_superstep_1<C>"));
    assert!(source.contains(".superstep(1)"));
    assert!(source.contains(".graph_totals(4, 8)"));
    assert!(source.contains(".vertex(2, "));
    assert!(source.contains(".incoming(vec!["));
    assert!(source.contains("Id = u64"));
    assert!(source.contains("VValue = i64"));
    assert!(source.contains(".aggregator(\"touched\", AggValue::Long(4))"));
    assert!(source.contains("assert_eq!(result.value_after,"));
}

#[test]
fn views_render_the_captured_world() {
    let config = DebugConfig::<Accumulate>::builder()
        .capture_ids([1])
        .capture_neighbors(true)
        .message_constraint(|m, _s, _d, _ss| *m < 100)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 4 }, config)
        .num_workers(2)
        .run(premade::cycle(6, 5i64), "/t/views")
        .unwrap();
    let session = run.session().unwrap();

    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).unwrap();

    let node_link = vj::node_link_json(&views, 1);
    // 1, 0, 2 captured; stubs 5 and 3 (neighbors of 0 and 2).
    assert_eq!(node_link.nodes.iter().filter(|n| n.captured).count(), 3);
    assert_eq!(node_link.nodes.iter().filter(|n| !n.captured).count(), 2);
    assert_eq!(node_link.links.len(), 6);
    let text = node_link.to_text();
    assert!(text.contains("superstep 1"));
    let dot = node_link.to_dot();
    assert!(dot.starts_with("digraph superstep_1"));
    assert!(dot.contains("shape=point"), "stub neighbors drawn small");
    let html = node_link.to_html();
    assert!(html.contains("<svg"));
    assert!(html.contains("Node-link view"));

    // Stepping.
    assert_eq!(session.next_superstep(1), Some(2));
    assert_eq!(session.prev_superstep(1), Some(0));

    // Tabular view, and search over the typed records.
    let tabular = vj::tabular_json(&views, 1, None, 1, 50);
    assert_eq!(tabular.rows.len(), 3);
    assert!(tabular.to_text().contains("Tabular view — superstep 1"));
    let row = tabular.rows.iter().find(|row| row.vertex == "1").unwrap();
    assert_eq!(row.incoming, 2);
    assert_eq!(session.search(Some(1), &SearchQuery::by_id(1u64)).len(), 1);
    // Captured vertices adjacent to 0 in the 6-cycle: vertices 1 and 5 —
    // but 5 is not captured, so only vertex 1 matches.
    assert_eq!(session.search(Some(1), &SearchQuery::by_neighbor(0u64)).len(), 1);

    // Violations view.
    let text = vj::violations_json(&views, None).to_text();
    assert!(text.contains("Violations and Exceptions"));
}

#[test]
fn binary_codec_roundtrips_through_the_session() {
    let config =
        DebugConfig::<Accumulate>::builder().capture_ids([2]).catch_exceptions(false).build();
    let run = GraftRunner::new(Accumulate { rounds: 2 }, config)
        .num_workers(2)
        .run(premade::cycle(4, 1i64), "/t/binary")
        .unwrap();
    let session = run.session().unwrap();
    assert_eq!(session.meta().format(), TraceFormat::BinaryV3);
    assert_eq!(session.total_captures(), 3);
    assert!(session.vertex_at(2, 1).is_some());
}

#[test]
fn traces_survive_on_the_cluster_fs_with_failures() {
    let cluster = Arc::new(ClusterFs::new(ClusterFsConfig {
        num_datanodes: 4,
        replication: 2,
        block_size: 512,
    }));
    let config = DebugConfig::<Accumulate>::builder()
        .capture_all_active(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(Accumulate { rounds: 3 }, config)
        .with_fs(cluster.clone())
        .num_workers(2)
        .run(premade::cycle(10, 0i64), "/traces/on-hdfs")
        .unwrap();
    assert!(run.captures > 0);
    // Kill one datanode: with replication 2 the traces must still load.
    cluster.kill_datanode(0).unwrap();
    let session = run.session().unwrap();
    assert_eq!(session.total_captures() as u64, run.captures);
}

#[test]
fn history_walks_a_vertex_across_supersteps() {
    let config =
        DebugConfig::<Accumulate>::builder().capture_ids([4]).catch_exceptions(false).build();
    let run = GraftRunner::new(Accumulate { rounds: 5 }, config)
        .num_workers(2)
        .run(premade::cycle(8, 1i64), "/t/history")
        .unwrap();
    let session = run.session().unwrap();
    let history = session.history(4);
    assert_eq!(history.len(), 6);
    // Superstep chaining: value_after at step s == value_before at s+1.
    for pair in history.windows(2) {
        assert_eq!(pair[0].value_after, pair[1].value_before);
        assert_eq!(pair[0].superstep + 1, pair[1].superstep);
    }
}

#[test]
fn meta_json_is_human_readable_on_the_fs() {
    let fs = Arc::new(InMemoryFs::new());
    let config = DebugConfig::<Accumulate>::builder().capture_ids([1]).build();
    let _run = GraftRunner::new(Accumulate { rounds: 1 }, config)
        .with_fs(fs.clone())
        .num_workers(2)
        .run(premade::cycle(3, 0i64), "/t/meta")
        .unwrap();
    let meta_text = String::from_utf8(fs.read_all("/t/meta/meta.json").unwrap()).unwrap();
    assert!(meta_text.contains("\"computation\": \"Accumulate\""));
    assert!(meta_text.contains("captures 1 specified vertices"));
}
