//! Scenario 4.2 — catching a 16-bit counter overflow with a message
//! constraint.
//!
//! Runs the short-counter random walk on a scaled web-BS graph with the
//! constraint "messages are non-negative", shows the red M indicator and
//! the Violations & Exceptions view, and replays an offending vertex
//! with both the buggy and the fixed counter width.
//!
//! ```text
//! cargo run -p graft-core --release --example random_walk_overflow
//! ```

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner};
use graft_algorithms::random_walk::{RWValue, RandomWalk};
use graft_datasets::Dataset;

fn main() {
    let graph = Dataset::by_name("web-BS")
        .unwrap()
        .generate_undirected(200, 5)
        .to_graph(RWValue::default());
    println!(
        "web-BS at 1/200 scale: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let buggy = RandomWalk::new(11, 8).initial_walkers(50_000).with_short_counters();
    let config = DebugConfig::<RandomWalk>::builder()
        .message_constraint(|walkers, _src, _dst, _superstep| *walkers >= 0)
        .catch_exceptions(false)
        .build();
    let run = GraftRunner::new(buggy, config)
        .num_workers(4)
        .run(graph, "/traces/rw-demo")
        .expect("trace setup succeeds");
    println!(
        "job finished; {} message-constraint violations across {} captures",
        run.violations, run.captures
    );

    let session = run.session().expect("traces load");

    // The M indicator across supersteps.
    print!("message indicator by superstep:");
    for superstep in session.supersteps() {
        if session.indicators(superstep).message_violation {
            print!(" {superstep}:RED");
        }
    }
    println!();

    // The Violations and Exceptions view (Figure 5).
    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).expect("traces load");
    let view = vj::violations_json(&views, None);
    println!("\n{}", view.to_text());
    let rows = view.rows;

    // Reproduce an offender.
    let offender = &rows[0];
    let vertex: u64 = offender.vertex.parse().unwrap();
    let reproduced = session.reproduce_vertex(vertex, offender.superstep).unwrap();
    println!("--- generated reproduction test for vertex {vertex} ---");
    println!("{}", reproduced.generate_test_source());

    let buggy_replay =
        reproduced.replay(RandomWalk::new(11, 8).initial_walkers(50_000).with_short_counters());
    let negative_sends = buggy_replay.outgoing.iter().filter(|(_, count)| *count < 0).count();
    let fixed_replay = session
        .reproduce_vertex(vertex, offender.superstep)
        .unwrap()
        .replay(RandomWalk::new(11, 8).initial_walkers(50_000));
    let fixed_negative = fixed_replay.outgoing.iter().filter(|(_, count)| *count < 0).count();
    println!(
        "replay: 16-bit counters send {negative_sends} negative message(s); \
         64-bit counters send {fixed_negative} — the overflow is the bug"
    );
}
