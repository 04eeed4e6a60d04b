//! The sequential reference runner: the engine's documented semantics
//! executed literally, on one thread, with ordered maps and no reuse of
//! anything.
//!
//! [`run_sequential`] is the oracle the differential tests hold the
//! engine to — final values bit-for-bit, every [`SuperstepStats`]
//! counter, and the halt reason — and the honest single-thread baseline
//! for scalability comparisons. It shares only *definitions* with the
//! engine (the partition function, the compute and master contexts, the
//! aggregator registry, [`Computation::combine_all`]) and none of its
//! machinery, and it has no checkpoint, spill, fault or observability
//! hooks: a panic in user code simply propagates.
//!
//! One superstep, in order:
//!
//! 1. the master computation runs and may halt the job;
//! 2. partitions `0..P` are visited in turn, each partition's vertices
//!    in the order they joined it; a vertex computes unless it has
//!    halted and has no messages, and `ctx.worker_id()` is the partition
//!    index;
//! 3. the partitions' aggregator partials are merged in partition order;
//! 4. messages are delivered: for every source partition in order, the
//!    sends are grouped by target (send order kept within a group) and
//!    each group is appended to its target's inbox — after being folded
//!    with `combine_all` when the computation uses a combiner, in which
//!    case the inbox, now one partial per source partition, is itself
//!    folded with `combine_all`. Messages to a vertex that does not
//!    exist are counted and dropped;
//! 5. requested mutations are applied, removals before additions;
//! 6. the job halts when no vertex is active and nothing was delivered,
//!    or when the superstep limit is reached.
//!
//! `num_partitions` is a semantic parameter, not a tuning knob: with a
//! combiner the fold tree of step 4 has one partial per source
//! partition, so a floating-point `combine` gives different bits at
//! different partition counts — here exactly as in the engine.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::aggregators::{AggregatorRegistry, WorkerAggregators};
use crate::computation::{Computation, VertexHandle};
use crate::context::{ComputeContext, Mutation};
use crate::graph::Graph;
use crate::hash::partition_for;
use crate::master::{MasterComputation, MasterContext};
use crate::stats::{HaltReason, JobOutcome, JobStats, SuperstepStats};
use crate::types::{Edge, GlobalData};

struct Vertex<C: Computation> {
    value: C::VValue,
    edges: Vec<Edge<C::Id, C::EValue>>,
    halted: bool,
    inbox: Vec<C::Message>,
}

/// One hash partition: its vertices, and the order they joined it in.
struct Partition<C: Computation> {
    order: Vec<C::Id>,
    vertices: BTreeMap<C::Id, Vertex<C>>,
}

/// The whole graph, split by [`partition_for`].
struct Partitions<C: Computation>(Vec<Partition<C>>);

impl<C: Computation> Partitions<C> {
    fn home(&mut self, id: &C::Id) -> &mut Partition<C> {
        let p = partition_for(id, self.0.len());
        &mut self.0[p]
    }

    fn vertex(&mut self, id: &C::Id) -> Option<&mut Vertex<C>> {
        self.home(id).vertices.get_mut(id)
    }

    /// Adds a vertex unless the id is taken; returns whether it was added.
    fn insert(&mut self, id: C::Id, value: C::VValue, edges: Vec<Edge<C::Id, C::EValue>>) -> bool {
        let home = self.home(&id);
        if home.vertices.contains_key(&id) {
            return false;
        }
        home.order.push(id);
        home.vertices.insert(id, Vertex { value, edges, halted: false, inbox: Vec::new() });
        true
    }

    fn all(&self) -> impl Iterator<Item = &Vertex<C>> {
        self.0.iter().flat_map(|p| p.vertices.values())
    }

    fn global(&self, superstep: u64) -> GlobalData {
        GlobalData {
            superstep,
            num_vertices: self.all().count() as u64,
            num_edges: self.all().map(|v| v.edges.len() as u64).sum(),
        }
    }

    /// Step 5. Returns how many requests changed the graph.
    fn apply(&mut self, mut mutations: Vec<Mutation<C::Id, C::VValue, C::EValue>>) -> u64 {
        // Pregel resolution order; the stable sort keeps request order
        // within each kind.
        mutations.sort_by_key(|m| match m {
            Mutation::RemoveEdge(..) => 0,
            Mutation::RemoveVertex(..) => 1,
            Mutation::AddVertex(..) => 2,
            Mutation::AddEdge(..) => 3,
        });
        let mut applied = 0;
        for mutation in mutations {
            let changed = match mutation {
                Mutation::RemoveEdge(source, target) => self.vertex(&source).is_some_and(|v| {
                    let before = v.edges.len();
                    v.edges.retain(|e| e.target != target);
                    v.edges.len() != before
                }),
                Mutation::RemoveVertex(id) => {
                    let home = self.home(&id);
                    home.order.retain(|other| *other != id);
                    home.vertices.remove(&id).is_some()
                }
                Mutation::AddVertex(id, value) => self.insert(id, value, Vec::new()),
                // An edge from a missing source is dropped.
                Mutation::AddEdge(source, edge) => {
                    self.vertex(&source).map(|v| v.edges.push(edge)).is_some()
                }
            };
            applied += u64::from(changed);
        }
        applied
    }
}

/// Runs `computation` (and `master`, if any) over `graph` to completion,
/// sequentially, with the vertices hash-split into `num_partitions`
/// partitions. See the module docs for the exact semantics; the engine
/// at `num_workers == num_partitions` must agree with the outcome
/// bit-for-bit.
pub fn run_sequential<C: Computation>(
    computation: &C,
    master: Option<&dyn MasterComputation<C>>,
    graph: Graph<C::Id, C::VValue, C::EValue>,
    num_partitions: usize,
    max_supersteps: u64,
) -> JobOutcome<C> {
    let started = Instant::now();
    let mut registry = AggregatorRegistry::new();
    computation.register_aggregators(&mut registry);
    if let Some(master) = master {
        master.register_aggregators(&mut registry);
    }

    let mut parts = Partitions::<C>(
        (0..num_partitions.max(1))
            .map(|_| Partition { order: Vec::new(), vertices: BTreeMap::new() })
            .collect(),
    );
    let (ids, values, adjacency) = graph.into_parts();
    for ((id, value), edges) in ids.into_iter().zip(values).zip(adjacency) {
        parts.insert(id, value, edges);
    }

    let use_combiner = computation.use_combiner();
    let fold = |messages: Vec<C::Message>| -> Vec<C::Message> {
        if use_combiner {
            computation.combine_all(&messages).into_iter().collect()
        } else {
            messages
        }
    };

    let mut supersteps: Vec<SuperstepStats> = Vec::new();
    let halt_reason = loop {
        let superstep = supersteps.len() as u64;
        let global = parts.global(superstep);
        let mut stats = SuperstepStats { superstep, ..Default::default() };

        // 1. Master.
        if let Some(master) = master {
            let mut mctx = MasterContext::new(global, &mut registry);
            master.compute(&mut mctx);
            if mctx.is_halted() {
                break HaltReason::MasterHalted;
            }
        }

        // 2. Compute, partition by partition.
        let mut sent: Vec<Vec<(C::Id, C::Message)>> = Vec::new();
        let mut partials: Vec<WorkerAggregators> = Vec::new();
        let mut mutations = Vec::new();
        for (p, partition) in parts.0.iter_mut().enumerate() {
            let mut aggs = WorkerAggregators::for_registry(&registry);
            let mut sends = Vec::new();
            let mut ctx = ComputeContext::new(global, p, &registry, &mut aggs, &mut mutations);
            for id in &partition.order {
                let vertex = partition.vertices.get_mut(id).expect("ordered ids are present");
                let messages = std::mem::take(&mut vertex.inbox);
                if vertex.halted && messages.is_empty() {
                    continue;
                }
                let mut handle = VertexHandle::new(*id, &mut vertex.value, &mut vertex.edges);
                computation.compute(&mut handle, &messages, &mut ctx);
                vertex.halted = handle.has_voted_halt();
                stats.compute_calls += 1;
                sends.extend(ctx.drain_staged());
            }
            stats.messages_sent += sends.len() as u64;
            sent.push(sends);
            partials.push(aggs);
        }

        // 3. Aggregators.
        registry.merge_superstep(partials);

        // 4. Delivery, source partition by source partition.
        for sends in sent {
            let mut groups: BTreeMap<C::Id, Vec<C::Message>> = BTreeMap::new();
            for (target, message) in sends {
                groups.entry(target).or_default().push(message);
            }
            for (target, group) in groups {
                let count = group.len() as u64;
                match parts.vertex(&target) {
                    Some(vertex) => {
                        vertex.inbox.extend(fold(group));
                        stats.messages_delivered += count;
                    }
                    None => stats.messages_to_missing += count,
                }
            }
        }
        for vertex in parts.0.iter_mut().flat_map(|p| p.vertices.values_mut()) {
            vertex.inbox = fold(std::mem::take(&mut vertex.inbox));
        }

        // 5. Mutations.
        stats.mutations_applied = parts.apply(mutations);

        // 6. Halting.
        stats.active_vertices = parts.all().filter(|v| !v.halted).count() as u64;
        let quiescent = stats.active_vertices == 0 && stats.messages_delivered == 0;
        supersteps.push(stats);
        if quiescent {
            break HaltReason::AllVerticesHalted;
        }
        if supersteps.len() as u64 >= max_supersteps {
            break HaltReason::MaxSuperstepsReached;
        }
    };

    let mut ids = Vec::new();
    let mut values = Vec::new();
    let mut adjacency = Vec::new();
    for mut partition in parts.0 {
        for id in partition.order {
            let vertex = partition.vertices.remove(&id).expect("ordered ids are present");
            ids.push(id);
            values.push(vertex.value);
            adjacency.push(vertex.edges);
        }
    }
    JobOutcome {
        graph: Graph::from_parts(ids, values, adjacency),
        stats: JobStats { supersteps, total_wall_time: started.elapsed(), recoveries: 0 },
        halt_reason,
    }
}
