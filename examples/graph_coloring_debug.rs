//! Scenario 4.1 — debugging a buggy graph-coloring implementation.
//!
//! Runs the buggy MIS coloring on a scaled bipartite-1M-3M graph,
//! captures 10 random vertices and their neighbors, steps back from the
//! final superstep to find adjacent same-color vertices, pinpoints the
//! conflict-resolution superstep where both entered the MIS, renders the
//! views, and generates the reproduction test file.
//!
//! ```text
//! cargo run -p graft-core --release --example graph_coloring_debug
//! ```

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner};
use graft_algorithms::coloring::{GCState, GCValue, GraphColoring, GraphColoringMaster};
use graft_datasets::Dataset;

fn main() {
    let seed = 4;
    let graph =
        Dataset::by_name("bipartite-1M-3M").unwrap().generate(1000, 7).to_graph(GCValue::default());
    println!(
        "bipartite graph at 1/1000 scale: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let config = DebugConfig::<GraphColoring>::builder()
        .capture_random(10, seed)
        .capture_neighbors(true)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(GraphColoring::buggy(seed), config)
        .with_master(GraphColoringMaster)
        .num_workers(4)
        .max_supersteps(2000)
        .run(graph, "/traces/gc-demo")
        .expect("trace setup succeeds");
    let outcome = run.outcome.as_ref().expect("the buggy GC still terminates");
    println!(
        "job finished in {} supersteps; {} vertex contexts captured",
        outcome.stats.superstep_count(),
        run.captures
    );

    match graft_algorithms::reference::validate_coloring(&outcome.graph) {
        Ok(colors) => {
            println!("output validates with {colors} colors (bug not triggered; try another seed)")
        }
        Err(problem) => println!("output is WRONG: {problem}"),
    }

    let session = run.session().expect("traces load");
    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).expect("traces load");

    // "We then go to the final superstep from the GUI…"
    let last = session.last_superstep().unwrap();
    println!("\n{}", vj::tabular_json(&views, last, None, 1, 50).to_text());

    // Find a captured pair of adjacent vertices with the same color.
    let mut conflict = None;
    'search: for trace in session.captured_at(last) {
        let Some(color) = trace.value_after.color else { continue };
        for (neighbor, _) in &trace.edges {
            if let Some(other) = session.vertex_at(*neighbor, last) {
                if other.value_after.color == Some(color) {
                    conflict = Some((trace.vertex, *neighbor, color));
                    break 'search;
                }
            }
        }
    }
    let Some((u, v, color)) = conflict else {
        println!("no captured conflict pair this seed — rerun with another capture seed");
        return;
    };
    println!("captured vertices {u} and {v} are adjacent and share color {color}");

    // "…replay the computation superstep by superstep…": find where both
    // entered the MIS.
    let conflict_superstep = session
        .supersteps()
        .into_iter()
        .find(|&s| {
            [u, v].iter().all(|&x| {
                session.vertex_at(x, s).is_some_and(|t| {
                    t.value_after.state == GCState::InSet && t.value_before.state != GCState::InSet
                })
            })
        })
        .expect("both vertices entered the MIS somewhere");
    println!("both entered the MIS in superstep {conflict_superstep}");

    // Node-link view of the suspicious superstep (Figure 3).
    println!("\n{}", vj::node_link_json(&views, conflict_superstep).to_text());

    // "Reproduce Vertex Context" (Figure 6).
    let reproduced = session.reproduce_vertex(u, conflict_superstep).unwrap();
    println!("--- generated reproduction test for vertex {u} ---");
    println!("{}", reproduced.generate_test_source());

    // In-process replay: buggy computation reproduces the bad decision;
    // the fixed tie-break keeps the vertex out.
    let buggy_replay = reproduced.replay(GraphColoring::buggy(seed));
    let fixed_replay =
        session.reproduce_vertex(u, conflict_superstep).unwrap().replay(GraphColoring::new(seed));
    println!(
        "replay: buggy tie-break => {:?}; fixed tie-break => {:?}",
        buggy_replay.value_after.state, fixed_replay.value_after.state
    );
}
