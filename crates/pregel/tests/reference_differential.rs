//! Oracle differential suite: the engine must equal
//! `graft_pregel::reference::run_sequential` — final values bit-for-bit,
//! final topology, every `SuperstepStats` counter, and the halt reason —
//! at every partition count, for the real algorithms and for a
//! computation built to make every ordering rule observable.

use std::sync::Arc;

use graft_algorithms::coloring::{GCValue, GraphColoring, GraphColoringMaster};
use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::matching::{MWMValue, MaxWeightMatching};
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::random_walk::{RWValue, RandomWalk};
use graft_algorithms::sssp::ShortestPaths;
use graft_pregel::reference::run_sequential;
use graft_pregel::{Computation, Edge, Engine, Graph, HaltReason, JobOutcome, MasterComputation};
use rand::SeedableRng;

#[path = "support/computations.rs"]
mod computations;
use computations::{weight, Churn, Digraph, Sleeper};

const PARTITIONS: [usize; 4] = [1, 2, 4, 7];
const MAX_SUPERSTEPS: u64 = 60;

/// `(id, value bits, out-edges)` of every vertex, by id.
type Fingerprint<C, B> = Vec<(u64, B, Vec<Edge<u64, <C as Computation>::EValue>>)>;

fn fingerprint<C: Computation<Id = u64>, B>(
    outcome: &JobOutcome<C>,
    bits: impl Fn(&C::VValue) -> B,
) -> Fingerprint<C, B> {
    let mut out: Fingerprint<C, B> =
        outcome.graph.iter().map(|(id, v, edges)| (id, bits(v), edges.to_vec())).collect();
    out.sort_by_key(|(id, ..)| *id);
    out
}

/// Runs `computation` through the engine and the oracle at every
/// partition count and asserts they agree.
fn assert_agree<C, B>(
    label: &str,
    computation: C,
    master: Option<Arc<dyn MasterComputation<C>>>,
    graph: &Graph<u64, C::VValue, C::EValue>,
    bits: impl Fn(&C::VValue) -> B,
) where
    C: Computation<Id = u64>,
    B: PartialEq + std::fmt::Debug,
{
    let computation = Arc::new(computation);
    for partitions in PARTITIONS {
        let mut engine = Engine::from_arc(Arc::clone(&computation))
            .num_workers(partitions)
            .max_supersteps(MAX_SUPERSTEPS);
        if let Some(master) = &master {
            engine = engine.with_master_arc(Arc::clone(master));
        }
        let engine = engine.run(graph.clone()).unwrap();
        let oracle = run_sequential(
            &*computation,
            master.as_deref(),
            graph.clone(),
            partitions,
            MAX_SUPERSTEPS,
        );
        let at = format!("{label} at {partitions} partitions");
        assert_eq!(fingerprint(&engine, &bits), fingerprint(&oracle, &bits), "{at}: graphs");
        let counters = |o: &JobOutcome<C>| -> Vec<[u64; 7]> {
            o.stats.supersteps.iter().map(|s| s.counters()).collect()
        };
        assert_eq!(counters(&engine), counters(&oracle), "{at}: counters");
        assert_eq!(engine.halt_reason, oracle.halt_reason, "{at}: halt reason");
    }
}

fn assert_churn_agrees(label: &str, digraph: &Digraph) {
    for combiner in [false, true] {
        let graph = digraph.build(|v| v, |_, _| ());
        assert_agree(
            &format!("{label}/combiner={combiner}"),
            Churn { combiner },
            None,
            &graph,
            |v| *v,
        );
    }
}

fn assert_sleeper_agrees(label: &str, digraph: &Digraph, seed: u64) {
    for combiner in [false, true] {
        let graph = digraph.build(|v| v, |_, _| ());
        let sleeper = Sleeper { combiner, seed };
        assert_agree(&format!("{label}/combiner={combiner}"), sleeper, None, &graph, |v| *v);
    }
}

#[test]
fn pagerank_sssp_and_components_agree_with_the_oracle() {
    let g = Digraph::chords(60);
    assert_agree("pagerank", PageRank::new(12), None, &g.build(|_| 0.0, |_, _| ()), |v| {
        v.to_bits()
    });
    let sssp = g.build(|_| f64::INFINITY, weight);
    assert_agree("sssp", ShortestPaths::new(0), None, &sssp, |v| v.to_bits());
    assert_agree("components", ConnectedComponents::new(), None, &g.build(|v| v, |_, _| ()), |v| {
        *v
    });
}

#[test]
fn coloring_with_its_master_agrees_with_the_oracle() {
    let graph = Digraph::chords(48).symmetric().build(|_| GCValue::default(), |_, _| ());
    let master: Arc<dyn MasterComputation<GraphColoring>> = Arc::new(GraphColoringMaster);
    assert_agree("coloring", GraphColoring::new(7), Some(master), &graph, |v| *v);
}

#[test]
fn matching_and_random_walk_agree_with_the_oracle() {
    let g = Digraph::chords(48);
    let matching = g.symmetric().build(|_| MWMValue::default(), weight);
    assert_agree("matching", MaxWeightMatching::new(), None, &matching, |v| *v);
    let walk = g.build(|_| RWValue::default(), |_, _| ());
    assert_agree("random-walk", RandomWalk::new(11, 8), None, &walk, |v| *v);
}

#[test]
fn mutations_and_messages_to_missing_vertices_agree_with_the_oracle() {
    assert_churn_agrees("churn", &Digraph::chords(40));
}

/// The scenario in `Sleeper`'s table really happens on the fixed graph:
/// the oracle and the engine could otherwise agree on a run that never
/// reached it.
#[test]
fn sleeper_wakes_removes_and_re_adds_and_agrees_with_the_oracle() {
    let g = Digraph::chords(40);
    for seed in 1..=4 {
        assert_sleeper_agrees(&format!("sleeper/seed {seed}"), &g, seed);
    }
    let sleeper = Sleeper { combiner: false, seed: 1 };
    let run = run_sequential(&sleeper, None, g.build(|v| v, |_, _| ()), 2, MAX_SUPERSTEPS);
    let steps = &run.stats.supersteps;
    assert_eq!(run.halt_reason, HaltReason::AllVerticesHalted);
    // Eight ids go at superstep 2 and come back at superstep 4.
    assert_eq!((steps[2].mutations_applied, steps[4].mutations_applied), (8, 8));
    assert!(steps[3].messages_to_missing >= 8, "no mail reached a tombstone");
    assert!(steps[5].compute_calls >= 16, "the re-added ids never computed");
    // Woken after halting: more calls in a superstep than the one before
    // left active, so some of them went to vertices that were asleep.
    assert!(
        (1..steps.len()).any(|s| steps[s].compute_calls > steps[s - 1].active_vertices),
        "no halted vertex was ever woken"
    );
    // From superstep 6 on only in-place edge edits move `num_edges`.
    assert!(steps[6..].iter().all(|s| s.mutations_applied == 0));
}

#[test]
fn random_digraphs_agree_with_the_oracle() {
    // A fixed budget of seeds, so a failure reproduces with the same
    // command; a release build (CI's fuzz-smoke job) runs ten times more.
    let budget = if cfg!(debug_assertions) { 30 } else { 300 };
    for seed in (0..budget).map(|i| 0xD1FF_0001u64 + i) {
        let g = Digraph::random(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let label = |name: &str| format!("{name}/seed {seed:#x}");
        assert_agree(
            &label("pagerank"),
            PageRank::new(6),
            None,
            &g.build(|_| 0.0, |_, _| ()),
            |v| v.to_bits(),
        );
        let sssp = g.build(|_| f64::INFINITY, weight);
        assert_agree(&label("sssp"), ShortestPaths::new(0), None, &sssp, |v| v.to_bits());
        let walk = g.build(|_| RWValue::default(), |_, _| ());
        assert_agree(&label("random-walk"), RandomWalk::new(seed, 5), None, &walk, |v| *v);
        assert_churn_agrees(&label("churn"), &g);
        assert_sleeper_agrees(&label("sleeper"), &g, seed);
    }
}
