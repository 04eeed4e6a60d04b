//! Test computations and graphs that more than one suite runs: the
//! differential ones of `reference_differential.rs` (engine against the
//! sequential oracle), `sched_check.rs`'s `MinLabel` and
//! `engine_semantics.rs`'s `PanicsAt` — each also run, through `#[path]`,
//! by the in-crate `thread_invariance` tests (the same jobs across thread
//! counts, which only the crate can set). Every includer uses a subset.
#![allow(dead_code)]

use graft_pregel::{
    AggOp, AggValue, AggregatorRegistry, Computation, ContextOf, Graph, Value, VertexHandleOf,
};
use rand::Rng;

/// A digraph as `(vertex count, edges)`; ids are `0..n`.
pub struct Digraph {
    pub n: u64,
    pub edges: Vec<(u64, u64)>,
}

impl Digraph {
    /// Ring with chords: every vertex has in- and out-degree two.
    pub fn chords(n: u64) -> Self {
        Self { n, edges: (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v * 7 + 3) % n)]).collect() }
    }

    /// A random digraph on at most 40 vertices with self-loops, a hub
    /// of in-degree at least 8, and a tail of isolated vertices.
    pub fn random(rng: &mut rand::rngs::StdRng) -> Self {
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
    pub fn symmetric(&self) -> Self {
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

    pub fn build<V: Value, E: Value>(
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
pub fn weight(a: u64, b: u64) -> f64 {
    1.0 + ((a + b) % 5) as f64 + (a * b % 3) as f64 / 4.0
}

/// Makes every ordering rule of the engine observable in final values:
/// an order-sensitive `combine` (or, without the combiner, an
/// order-sensitive fold over the inbox), first-request-wins vertex
/// additions, all four mutation requests, re-adding a removed id, and
/// messages to vertices that never existed, were just removed, or are
/// only just being added.
pub struct Churn {
    pub combiner: bool,
}

pub fn mix(a: u64, b: u64) -> u64 {
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
                if id.is_multiple_of(4) {
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
pub struct Sleeper {
    pub combiner: bool,
    pub seed: u64,
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

/// Min-label propagation: every interleaving must converge to label 0
/// everywhere, which makes cross-schedule nondeterminism visible as an
/// assertion failure (and thus a failing schedule).
pub struct MinLabel;

impl Computation for MinLabel {
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
        let best = messages.iter().copied().chain([vertex.id(), *vertex.value()]).min().unwrap();
        if best < *vertex.value() {
            vertex.set_value(best);
            ctx.send_message_to_all_edges(vertex, best);
        }
        vertex.vote_to_halt();
    }
}

/// Panics in `compute` at vertex `self.0`, and in `combine` if `self.1`.
pub struct PanicsAt(pub u64, pub bool);

impl Computation for PanicsAt {
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
        if vertex.id() == self.0 && ctx.superstep() == 2 {
            panic!("boom on vertex {}", self.0);
        }
        ctx.send_message(0, 1);
    }

    fn use_combiner(&self) -> bool {
        self.1
    }

    fn combine(&self, _a: &u64, _b: &u64) -> u64 {
        panic!("boom in combine")
    }
}
