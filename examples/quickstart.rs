//! Quickstart: write a vertex-centric program, run it under Graft with
//! the paper's Figure 2 DebugConfig (random captures + neighbors + a
//! message constraint), and walk the captured supersteps.
//!
//! ```text
//! cargo run -p graft-core --release --example quickstart
//! ```

use graft::testing::premade;
use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner};
use graft_algorithms::pagerank::PageRank;

fn main() {
    // A small premade graph from the GUI's offline-mode menu.
    let graph = premade::grid(6, 4, 0.0f64);
    println!(
        "input graph: {} vertices, {} directed edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // The Figure 2 DebugConfig: 5 random vertices with their neighbors,
    // and a message constraint (PageRank shares must stay positive).
    let config = DebugConfig::<PageRank>::builder()
        .capture_random(5, 42)
        .capture_neighbors(true)
        .message_constraint(|share, _src, _dst, _superstep| *share >= 0.0)
        .build();

    let run = GraftRunner::new(PageRank::new(10), config)
        .num_workers(4)
        .run(graph, "/traces/quickstart")
        .expect("trace setup succeeds");
    let outcome = run.outcome.as_ref().expect("PageRank does not fail");
    println!(
        "job finished: {} supersteps, {} messages, {} contexts captured",
        outcome.stats.superstep_count(),
        outcome.stats.total_messages(),
        run.captures,
    );

    // Open the debug session and step through the supersteps, exactly
    // like pressing Next superstep in the GUI; the views are the
    // documents the debug server sends.
    let session = run.session().expect("traces load");
    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).expect("traces load");
    let mut superstep = session.first_superstep();
    while let Some(ss) = superstep {
        let view = vj::node_link_json(&views, ss);
        let indicators = view.indicators;
        println!(
            "superstep {ss:>2}: {:>2} nodes ({} captured), {:>2} links, M={} V={} E={}",
            view.nodes.len(),
            view.nodes.iter().filter(|n| n.captured).count(),
            view.links.len(),
            if indicators.message_violation { "RED" } else { "ok" },
            if indicators.value_violation { "RED" } else { "ok" },
            if indicators.exception { "RED" } else { "ok" },
        );
        superstep = session.next_superstep(ss);
    }

    // Show the tabular view of one superstep.
    println!("\n{}", vj::tabular_json(&views, 3, None, 1, 50).to_text());

    // Reproduce one captured vertex in-process and confirm fidelity.
    let trace = &session.captured_at(3)[0];
    let reproduced = session.reproduce_vertex(trace.vertex, 3).unwrap();
    let report = reproduced.verify_fidelity(PageRank::new(10));
    println!("replayed vertex {} superstep 3: faithful = {}", trace.vertex, report.is_faithful());

    // And emit the standalone reproduction test (Figure 6 analogue).
    println!("\n--- generated reproduction test ---");
    println!("{}", reproduced.generate_test_source());
}
