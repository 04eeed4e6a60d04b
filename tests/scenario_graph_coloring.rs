//! Paper Scenario 4.1 — the Graph Coloring debugging session.
//!
//! "We run our implementation on the bipartite-1M-3M graph and use Graft
//! to capture a random set of 10 vertices. We then go to the final
//! superstep from the GUI … we see that some vertices and their
//! neighbors are assigned the same color … We generate a JUnit test case
//! from the GUI replicating the lines of code that executed for vertex
//! 672 in superstep 41. During line-by-line replay inside an IDE, we
//! identify the buggy code that incorrectly puts vertex 672 into the
//! MIS."
//!
//! The test replays that whole workflow at 1/2000 scale.

use graft::{DebugConfig, GraftRunner, SearchQuery};
use graft_algorithms::coloring::{GCState, GraphColoring, GraphColoringMaster};
use graft_datasets::Dataset;

type Session = graft::DebugSession<GraphColoring>;

/// Runs the buggy GC under Graft with 10 random captures + neighbors and
/// returns the session and the final graph.
fn run_buggy(
    seed: u64,
) -> (Session, graft_pregel::Graph<u64, graft_algorithms::coloring::GCValue, ()>) {
    let dataset = Dataset::by_name("bipartite-1M-3M").unwrap();
    let graph = dataset.generate(2000, 7).to_graph(graft_algorithms::coloring::GCValue::default());

    let config = DebugConfig::<GraphColoring>::builder()
        .capture_random(10, seed)
        .capture_neighbors(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(GraphColoring::buggy(seed), config)
        .with_master(GraphColoringMaster)
        .num_workers(4)
        .max_supersteps(2000)
        .run(graph, "/traces/gc-buggy")
        .unwrap();
    let outcome = run.outcome.as_ref().expect("the buggy GC still terminates");
    let graph = outcome.graph.clone();
    (run.session().unwrap(), graph)
}

/// Finds a captured vertex and a captured neighbor with the same final
/// color (the "672 and 673" of the paper).
fn find_conflicting_pair(session: &Session) -> Option<(u64, u64)> {
    let last = session.last_superstep()?;
    // Walk back from the final superstep looking at captured colors.
    let mut superstep = Some(last);
    while let Some(s) = superstep {
        for trace in session.captured_at(s) {
            let Some(color) = trace.value_after.color else { continue };
            for (neighbor, _) in &trace.edges {
                if let Some(neighbor_trace) =
                    session.history(*neighbor).iter().rev().find(|t| t.value_after.color.is_some())
                {
                    if neighbor_trace.value_after.color == Some(color) {
                        return Some((trace.vertex, *neighbor));
                    }
                }
            }
        }
        superstep = session.prev_superstep(s);
    }
    None
}

#[test]
fn scenario_4_1_graph_coloring_debugging_cycle() {
    // Step 1: capture. The bug is widespread, so a small random sample
    // plus neighbors exposes it; we allow a few sample seeds like a user
    // rerunning with a different random capture set.
    let mut found = None;
    for seed in 0..8 {
        let (session, graph) = run_buggy(seed);
        // The final output really is wrong (ground truth for the test).
        assert!(
            graft_algorithms::reference::validate_coloring(&graph).is_err(),
            "seed {seed}: the buggy GC should miscolor this graph"
        );
        if let Some(pair) = find_conflicting_pair(&session) {
            found = Some((session, pair));
            break;
        }
    }
    let (session, (u, v)) =
        found.expect("10 random captures + neighbors should expose the bug within a few seeds");

    // Step 2: visualize. Replay superstep by superstep and find where
    // both vertices entered the MIS (state == InSet after compute).
    let conflict_superstep = session
        .supersteps()
        .into_iter()
        .find(|&s| {
            let u_in = session.vertex_at(u, s).is_some_and(|t| {
                t.value_after.state == GCState::InSet && t.value_before.state != GCState::InSet
            });
            let v_in = session.vertex_at(v, s).is_some_and(|t| {
                t.value_after.state == GCState::InSet && t.value_before.state != GCState::InSet
            });
            u_in && v_in
        })
        .expect("both vertices enter the MIS in the same conflict-resolution superstep");

    // The GUI would show the phase aggregator as CONFLICT-RESOLUTION.
    let trace = session.vertex_at(u, conflict_superstep).unwrap();
    let phase = trace
        .aggregators
        .iter()
        .find(|(name, _)| name == "phase")
        .and_then(|(_, value)| value.as_text().map(str::to_string))
        .unwrap();
    assert_eq!(phase, "CONFLICT-RESOLUTION");

    // The session searches for the suspicious vertex (the tabular view's box).
    let rows = session.search(Some(conflict_superstep), &SearchQuery::by_id(u));
    assert_eq!(rows.len(), 1);

    // Step 3: reproduce. Generate the test file (Figure 6 analogue)...
    let reproduced = session.reproduce_vertex(u, conflict_superstep).unwrap();
    let source = reproduced.generate_test_source();
    assert!(source.contains(&format!("reproduce_vertex_{u}_superstep_{conflict_superstep}")));
    assert!(source.contains("CONFLICT-RESOLUTION"), "the captured phase is mocked");

    // ...and replay in-process: under the buggy computation the vertex
    // enters the MIS exactly as recorded...
    let seed_used = 0; // replay uses the same computation; seed only
                       // affects SELECTION, and this is CONFLICT-RESOLUTION.
    let replay = reproduced.replay(GraphColoring::buggy(seed_used));
    assert_eq!(replay.value_after.state, GCState::InSet);
    let report = reproduced.verify_fidelity(GraphColoring::buggy(seed_used));
    assert!(report.is_faithful(), "diffs: {:?}", report.diffs);

    // ...while under the *fixed* tie-break, fed the identical captured
    // context, at least one of the two conflicting vertices loses the
    // tie and stays out of the MIS — pinpointing the buggy comparison.
    let u_fixed = session
        .reproduce_vertex(u, conflict_superstep)
        .unwrap()
        .replay(GraphColoring::new(seed_used));
    let v_fixed = session
        .reproduce_vertex(v, conflict_superstep)
        .unwrap()
        .replay(GraphColoring::new(seed_used));
    assert!(
        u_fixed.value_after.state != GCState::InSet || v_fixed.value_after.state != GCState::InSet,
        "with a strict tie-break the two adjacent vertices cannot both win"
    );
}

#[test]
fn correct_coloring_passes_the_same_inspection() {
    let dataset = Dataset::by_name("bipartite-1M-3M").unwrap();
    let graph = dataset.generate(2000, 7).to_graph(graft_algorithms::coloring::GCValue::default());
    let config = DebugConfig::<GraphColoring>::builder()
        .capture_random(10, 3)
        .capture_neighbors(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(GraphColoring::new(3), config)
        .with_master(GraphColoringMaster)
        .num_workers(4)
        .max_supersteps(2000)
        .run(graph, "/traces/gc-correct")
        .unwrap();
    let outcome = run.outcome.as_ref().unwrap();
    graft_algorithms::reference::validate_coloring(&outcome.graph).unwrap();
    let session = run.session().unwrap();
    assert!(find_conflicting_pair(&session).is_none());
}
