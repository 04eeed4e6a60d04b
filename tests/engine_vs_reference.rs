//! Cross-crate correctness: the vertex-centric algorithms running on the
//! full engine over generated datasets must agree with sequential
//! reference implementations.

use graft_algorithms::components::ConnectedComponents;
use graft_algorithms::pagerank::PageRank;
use graft_algorithms::reference::{dijkstra, pagerank_reference, union_find_components};
use graft_algorithms::sssp::ShortestPaths;
use graft_datasets::{weighted, Dataset};
use graft_pregel::reference::run_sequential;
use graft_pregel::{Engine, JobOutcome};

#[test]
fn connected_components_on_scaled_epinions() {
    let list = Dataset::by_name("soc-Epinions").unwrap().generate_undirected(100, 17);
    let expected = union_find_components(list.num_vertices, &list.edges);
    let outcome = Engine::new(ConnectedComponents::new())
        .num_workers(4)
        .run(list.to_graph(u64::MAX))
        .unwrap();
    for (vertex, label) in outcome.graph.sorted_values() {
        assert_eq!(label, expected[vertex as usize], "vertex {vertex}");
    }
}

#[test]
fn pagerank_on_scaled_web_bs() {
    let mut list = Dataset::by_name("web-BS").unwrap().generate(500, 23);
    list.dedupe();
    let outcome = Engine::new(PageRank::new(20)).num_workers(4).run(list.to_graph(0.0f64)).unwrap();
    let expected = pagerank_reference(list.num_vertices, &list.edges, 20, 0.85);
    for (vertex, rank) in outcome.graph.sorted_values() {
        let want = expected[vertex as usize];
        assert!((rank - want).abs() < 1e-9, "vertex {vertex}: engine {rank} vs reference {want}");
    }
}

#[test]
fn sssp_on_weighted_bipartite() {
    let list = Dataset::by_name("bipartite-1M-3M").unwrap().generate(1000, 29);
    let graph = weighted::weight_graph(&list, 31, f64::INFINITY);
    let weighted_edges: Vec<(u64, u64, f64)> =
        list.edges.iter().map(|&(a, b)| (a, b, weighted::symmetric_weight(31, a, b))).collect();
    let expected = dijkstra(list.num_vertices, &weighted_edges, 0);
    let outcome = Engine::new(ShortestPaths::new(0)).num_workers(4).run(graph).unwrap();
    for (vertex, dist) in outcome.graph.sorted_values() {
        let want = expected[vertex as usize];
        assert!(
            (dist.is_infinite() && want.is_infinite()) || (dist - want).abs() < 1e-9,
            "vertex {vertex}: engine {dist} vs dijkstra {want}"
        );
    }
}

/// The worker-count contract: results are bit-identical for a fixed
/// partition count, and invariant across counts only when `combine` is
/// exact — the fold tree has one partial per source partition.
#[test]
fn worker_count_changes_only_inexact_combiner_output() {
    const COUNTS: [usize; 4] = [1, 2, 5, 8];

    // Exact combiners (integer min, float min): invariant across counts.
    let list = Dataset::by_name("soc-Epinions").unwrap().generate_undirected(200, 41);
    let components = |workers| {
        let engine = Engine::new(ConnectedComponents::new()).num_workers(workers);
        engine.run(list.to_graph(u64::MAX)).unwrap().graph.sorted_values()
    };
    let sssp = |workers| {
        let graph = weighted::weight_graph(&list, 31, f64::INFINITY);
        let outcome = Engine::new(ShortestPaths::new(0)).num_workers(workers).run(graph).unwrap();
        outcome.graph.sorted_values().into_iter().map(|(id, d)| (id, d.to_bits())).collect()
    };
    let (components_at_1, sssp_at_1): (_, Vec<(u64, u64)>) = (components(1), sssp(1));
    for workers in &COUNTS[1..] {
        assert_eq!(components(*workers), components_at_1, "components, {workers} workers");
        assert_eq!(sssp(*workers), sssp_at_1, "sssp, {workers} workers");
    }

    // PageRank's floating-point sum: within rounding across counts, and
    // bit-identical to the sequential oracle at each count.
    let mut list = Dataset::by_name("web-BS").unwrap().generate(500, 23);
    list.dedupe();
    let ranks = |outcome: JobOutcome<PageRank>| outcome.graph.sorted_values();
    let at_1 =
        ranks(Engine::new(PageRank::new(20)).num_workers(1).run(list.to_graph(0.0)).unwrap());
    for workers in COUNTS {
        let engine = Engine::new(PageRank::new(20)).num_workers(workers);
        let engine = ranks(engine.run(list.to_graph(0.0)).unwrap());
        let oracle = run_sequential(&PageRank::new(20), None, list.to_graph(0.0), workers, 100_000);
        for ((vertex, rank), (_, want)) in engine.iter().zip(ranks(oracle)) {
            assert_eq!(rank.to_bits(), want.to_bits(), "vertex {vertex}, {workers} workers");
        }
        for ((vertex, rank), (_, base)) in engine.iter().zip(&at_1) {
            assert!((rank - base).abs() < 1e-9, "vertex {vertex}: {workers} workers vs 1");
        }
    }
}
