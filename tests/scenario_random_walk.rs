//! Paper Scenario 4.2 — the Random Walk debugging session.
//!
//! "To detect this bug using Graft, we run RW on the web-BS graph with a
//! simple message value constraint that messages are non-negative. After
//! the run we see that the message value constraint icon is red in some
//! supersteps, and in the Violations and Exceptions View we identify
//! which vertices are sending negative messages. We generate a JUnit
//! test case from a vertex v that has sent a negative message, and
//! detect that the bug is due to overflowing of the short type
//! counters."

use graft::untyped::UntypedSession;
use graft::views::json as vj;
use graft::{DebugConfig, GraftRunner};
use graft_algorithms::random_walk::RandomWalk;
use graft_datasets::Dataset;

const SCALE: u64 = 200;

fn web_bs_graph() -> graft_pregel::Graph<u64, graft_algorithms::random_walk::RWValue, ()> {
    Dataset::by_name("web-BS")
        .unwrap()
        .generate_undirected(SCALE, 5)
        .to_graph(graft_algorithms::random_walk::RWValue::default())
}

fn run_rw(computation: RandomWalk, root: &str) -> graft::GraftRun<RandomWalk> {
    // Figure 2's DebugConfig: message values must be non-negative.
    let config = DebugConfig::<RandomWalk>::builder()
        .message_constraint(|walkers, _src, _dst, _superstep| *walkers >= 0)
        .catch_exceptions(false)
        .build();
    GraftRunner::new(computation, config).num_workers(4).run(web_bs_graph(), root).unwrap()
}

#[test]
fn scenario_4_2_short_overflow_found_by_message_constraint() {
    // Boost the walker load so the scaled-down graph pushes a per-edge
    // count past 32767, as hub pages do at full scale.
    let buggy = RandomWalk::new(11, 8).initial_walkers(50_000).with_short_counters();
    let run = run_rw(buggy, "/traces/rw-buggy");
    assert!(run.outcome.is_ok());
    assert!(run.violations > 0, "the overflow must trip the message constraint");

    let session = run.session().unwrap();

    // The M indicator is red in some superstep.
    let red_supersteps: Vec<u64> = session
        .supersteps()
        .into_iter()
        .filter(|&s| session.indicators(s).message_violation)
        .collect();
    assert!(!red_supersteps.is_empty());

    // The Violations and Exceptions view identifies the offenders.
    let views = UntypedSession::open(run.fs().clone(), &run.trace_root).unwrap();
    let rows = vj::violations_json(&views, None).rows;
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|row| row.kind == "message"));
    let offender = &rows[0];
    let negative: i64 = offender.detail.parse().unwrap();
    assert!(negative < 0, "the flagged message value is negative: {negative}");

    // Reproduce the offender's context: the replay is exact (the walk's
    // randomness is a pure function of (seed, vertex, superstep))...
    let vertex: u64 = offender.vertex.parse().unwrap();
    let reproduced = session.reproduce_vertex(vertex, offender.superstep).unwrap();
    let buggy_again = RandomWalk::new(11, 8).initial_walkers(50_000).with_short_counters();
    let report = reproduced.verify_fidelity(buggy_again);
    assert!(report.is_faithful(), "diffs: {:?}", report.diffs);

    // ...and the replayed messages contain the negative count.
    let buggy_again = RandomWalk::new(11, 8).initial_walkers(50_000).with_short_counters();
    let replay = reproduced.replay(buggy_again);
    assert!(replay.outgoing.iter().any(|(_, count)| *count < 0));

    // Swapping in the fixed (64-bit counter) computation under the very
    // same context sends only non-negative counts — the "short overflow"
    // diagnosis of the paper.
    let fixed = RandomWalk::new(11, 8).initial_walkers(50_000);
    let replay_fixed = session.reproduce_vertex(vertex, offender.superstep).unwrap().replay(fixed);
    assert!(replay_fixed.outgoing.iter().all(|(_, count)| *count >= 0));
    // Same number of walkers moved; only the counter width differs.
    let moved_fixed: i64 = replay_fixed.outgoing.iter().map(|(_, c)| *c).sum();
    let walkers_in: i64 = reproduced.trace().incoming.iter().sum();
    let walkers_held = if reproduced.trace().superstep == 0 { 50_000 } else { walkers_in };
    assert_eq!(moved_fixed, walkers_held.max(0));
}

#[test]
fn correct_counters_never_violate_the_constraint() {
    let run = run_rw(RandomWalk::new(11, 8).initial_walkers(50_000), "/traces/rw-ok");
    assert!(run.outcome.is_ok());
    assert_eq!(run.violations, 0);
    assert_eq!(run.captures, 0, "nothing to capture in a clean run");
    let session = run.session().unwrap();
    assert!(session.supersteps().is_empty());
}
