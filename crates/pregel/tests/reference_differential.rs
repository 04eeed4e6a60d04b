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
use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, Edge, Engine, Graph, HaltReason,
    JobOutcome, MasterComputation, Value, VertexHandleOf,
};
use rand::{Rng, SeedableRng};

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

/// A digraph as `(vertex count, edges)`; ids are `0..n`.
struct Digraph {
    n: u64,
    edges: Vec<(u64, u64)>,
}

impl Digraph {
    /// Ring with chords: every vertex has in- and out-degree two.
    fn chords(n: u64) -> Self {
        Self { n, edges: (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v * 7 + 3) % n)]).collect() }
    }

    /// A random digraph on at most 40 vertices with self-loops, a hub
    /// of in-degree at least 8, and a tail of isolated vertices.
    fn random(rng: &mut rand::rngs::StdRng) -> Self {
        let connected = rng.gen_range(9u64..36);
        let mut edges: Vec<(u64, u64)> = (0..rng.gen_range(0..120usize))
            .map(|_| (rng.gen_range(0..connected), rng.gen_range(0..connected)))
            .collect();
        let hub = rng.gen_range(0..connected);
        edges.extend((0..connected).filter(|v| *v != hub).take(8).map(|v| (v, hub)));
        edges.push((hub, hub));
        Self { n: connected + rng.gen_range(1u64..5), edges }
    }

    /// Both directions of every non-loop edge, once each.
    fn symmetric(&self) -> Self {
        let mut edges: Vec<(u64, u64)> = self
            .edges
            .iter()
            .filter(|(a, b)| a != b)
            .flat_map(|&(a, b)| [(a, b), (b, a)])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Self { n: self.n, edges }
    }

    fn build<V: Value, E: Value>(
        &self,
        value: impl Fn(u64) -> V,
        weight: impl Fn(u64, u64) -> E,
    ) -> Graph<u64, V, E> {
        let mut b = Graph::builder();
        for v in 0..self.n {
            b.add_vertex(v, value(v)).unwrap();
        }
        for &(a, z) in &self.edges {
            b.add_edge(a, z, weight(a, z)).unwrap();
        }
        b.build().unwrap()
    }
}

/// Symmetric, so the undirected algorithms see consistent weights.
fn weight(a: u64, b: u64) -> f64 {
    1.0 + ((a + b) % 5) as f64 + (a * b % 3) as f64 / 4.0
}

/// Makes every ordering rule of the engine observable in final values:
/// an order-sensitive `combine` (or, without the combiner, an
/// order-sensitive fold over the inbox), first-request-wins vertex
/// additions, all four mutation requests, re-adding a removed id, and
/// messages to vertices that never existed, were just removed, or are
/// only just being added.
struct Churn {
    combiner: bool,
}

fn mix(a: u64, b: u64) -> u64 {
    a.wrapping_mul(31).wrapping_add(b)
}

impl Computation for Churn {
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
        let id = vertex.id();
        let seen = ctx.get_aggregated("sum").and_then(AggValue::as_long).unwrap_or(0) as u64;
        let folded = messages.iter().fold(*vertex.value(), |acc, m| mix(acc, *m));
        vertex.set_value(mix(folded, seen));
        ctx.aggregate("sum", AggValue::Long(id as i64 + 1));
        match ctx.superstep() {
            0 => {
                ctx.send_message_to_all_edges(vertex, id + 1);
                ctx.send_message(id + 10_000, 1);
                if id % 3 == 1 {
                    ctx.remove_vertex_request(id);
                }
                if id % 4 == 0 {
                    // Contended: the first request in partition order wins.
                    ctx.add_vertex_request(2000, id);
                    ctx.add_vertex_request(1000 + id, 7);
                    ctx.add_edge_request(id, 1000 + id, ());
                    ctx.add_edge_request(3000 + id, id, ());
                }
                if let Some(first) = vertex.edges().first().map(|e| e.target) {
                    ctx.remove_edge_request(id, first);
                }
            }
            1 => {
                ctx.send_message_to_all_edges(vertex, *vertex.value());
                ctx.send_message(2000, id);
                if id % 3 == 2 {
                    ctx.add_vertex_request(id - 1, 99);
                    ctx.send_message(id - 1, 5);
                }
            }
            _ => vertex.vote_to_halt(),
        }
    }

    fn use_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, a: &u64, b: &u64) -> u64 {
        mix(*a, *b)
    }

    fn register_aggregators(&self, registry: &mut AggregatorRegistry) {
        registry.register("sum", AggOp::Sum, AggValue::Long(0));
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

/// Wake-after-halt together with mutations, which `Churn` (everything
/// halts at superstep 2 and nothing wakes) never reaches. Vertices vote
/// to halt on a seeded schedule and are woken again by later messages;
/// they edit their own edges inside `compute`, and fold `num_edges` and
/// `num_vertices` into their values so the carried counts are observable.
/// Around that, for every id `t` with `t % 5 == 2` its neighbour `t - 1`
/// (which never sleeps before superstep 6) drives this sequence:
///
/// | superstep | `t - 1` does | so that |
/// |---|---|---|
/// | 2 | messages `t`, requests its removal | `t`, which votes to halt whenever it runs and now holds mail, is removed |
/// | 3 | messages `t` again | mail arrives for a tombstoned slot and counts as missing |
/// | 4 | requests `t` back with value 77 | the id is re-added, in a new slot, while its neighbours sleep |
/// | 5 | messages `t` | the new slot, not the tombstone, gets the mail |
struct Sleeper {
    combiner: bool,
    seed: u64,
}

const SLEEPER_LAST_SEND: u64 = 9;

impl Computation for Sleeper {
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
        let (id, superstep) = (vertex.id(), ctx.superstep());
        let folded = messages.iter().fold(*vertex.value(), |acc, m| mix(acc, *m));
        vertex.set_value(mix(mix(folded, ctx.num_edges()), ctx.num_vertices()));
        let roll = mix(mix(self.seed, id), superstep) >> 3;

        // Local edge edits: they move `num_edges` with no mutation phase.
        match roll % 6 {
            0 => vertex.add_edge((id * 3 + superstep) % 41, ()),
            1 => {
                if let Some(first) = vertex.edges().first().map(|e| e.target) {
                    vertex.remove_edge(first);
                }
            }
            _ => {}
        }
        if superstep <= SLEEPER_LAST_SEND && !(roll >> 4).is_multiple_of(3) {
            ctx.send_message_to_all_edges(vertex, *vertex.value() % 997);
        }

        let driver = id % 5 == 1;
        if driver && (2..=5).contains(&superstep) {
            if superstep != 4 {
                ctx.send_message(id + 1, superstep);
            }
            match superstep {
                2 => ctx.remove_vertex_request(id + 1),
                4 => ctx.add_vertex_request(id + 1, 77),
                _ => {}
            }
        }
        // Requests from the sleepy vertices too, whenever they happen to
        // be awake: edges out of, and into, ids that come and go.
        if id % 5 == 3 && superstep == 3 {
            ctx.add_edge_request(id, id - 1, ());
            ctx.add_edge_request(id - 1, id, ());
            if let Some(first) = vertex.edges().first().map(|e| e.target) {
                ctx.remove_edge_request(id, first);
            }
        }

        // Driven ids always vote, drivers not before superstep 6.
        let dozes = if driver && superstep < 6 { false } else { (roll >> 8).is_multiple_of(2) };
        if superstep > SLEEPER_LAST_SEND || id % 5 == 2 || dozes {
            vertex.vote_to_halt();
        }
    }

    fn use_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, a: &u64, b: &u64) -> u64 {
        mix(*a, *b)
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
