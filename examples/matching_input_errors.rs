//! Scenario 4.3 — using Graft to find errors in the *input graph*.
//!
//! Corrupts a fraction of the symmetric edge weights of a scaled
//! soc-Epinions graph, watches maximum-weight matching fail to converge,
//! then captures all active vertices late in the run and spots the
//! asymmetric weights in the captured contexts.
//!
//! ```text
//! cargo run -p graft-core --release --example matching_input_errors
//! ```

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner, SuperstepFilter};
use graft_algorithms::matching::{MWMValue, MaxWeightMatching};
use graft_datasets::weighted::{asymmetric_weight_pairs, corrupt_weights, weight_graph};
use graft_datasets::Dataset;
use graft_pregel::HaltReason;

fn main() {
    let list = Dataset::by_name("soc-Epinions").unwrap().generate_undirected(100, 3);

    // Not every random corruption wedges the proposal pointers; scan
    // corruption seeds until we hit an input that does — the paper had
    // one specific broken input file.
    let mut wedged = None;
    for corruption_seed in 0..20 {
        let clean = weight_graph(&list, 21, MWMValue::default());
        let (graph, corrupted) = corrupt_weights(clean, 0.05, corruption_seed);
        let plain = graft_pregel::Engine::new(MaxWeightMatching::new())
            .num_workers(4)
            .max_supersteps(120)
            .run(graph.clone())
            .unwrap();
        if plain.halt_reason == HaltReason::MaxSuperstepsReached {
            println!(
                "soc-Epinions at 1/100 scale: {} vertices, {} edges; {corrupted} weights                  corrupted (corruption seed {corruption_seed})",
                graph.num_vertices(),
                graph.num_edges()
            );
            println!(
                "plain run: still spinning after {} supersteps — an apparent infinite loop",
                plain.stats.superstep_count()
            );
            wedged = Some(graph);
            break;
        }
    }
    let graph = wedged.expect("some corruption pattern prevents convergence");

    // Rerun under Graft, capturing all active vertices after superstep
    // 60 (the paper uses 500 at full scale), when the live tail is small.
    let config = DebugConfig::<MaxWeightMatching>::builder()
        .capture_all_active(true)
        .supersteps(SuperstepFilter::After(60))
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(MaxWeightMatching::new(), config)
        .num_workers(4)
        .max_supersteps(120)
        .run(graph.clone(), "/traces/mwm-demo")
        .expect("trace setup succeeds");
    let session = run.session().expect("traces load");
    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).expect("traces load");

    let last = session.last_superstep().unwrap();
    let tail = session.captured_at(last);
    println!(
        "superstep {last}: {} vertices still active (of {})",
        tail.len(),
        graph.num_vertices()
    );
    println!("\n{}", vj::tabular_json(&views, last, None, 1, 50).to_text());

    // Inspect the captured contexts for asymmetric weights.
    let mut reported = 0;
    for trace in tail {
        for (neighbor, weight) in &trace.edges {
            if let Some(other) = session.vertex_at(*neighbor, last) {
                if let Some((_, back)) = other.edges.iter().find(|(t, _)| *t == trace.vertex) {
                    if (back - weight).abs() > 1e-12 && trace.vertex < *neighbor {
                        println!(
                            "ASYMMETRY: weight({} -> {}) = {weight} but weight({} -> {}) = {back}",
                            trace.vertex, neighbor, neighbor, trace.vertex
                        );
                        reported += 1;
                        if reported >= 5 {
                            break;
                        }
                    }
                }
            }
        }
        if reported >= 5 {
            break;
        }
    }
    println!(
        "found {reported} asymmetric pair(s) among the stuck vertices \
         (ground truth: {} corrupted pairs in the whole graph)",
        asymmetric_weight_pairs(&graph).len()
    );
}
