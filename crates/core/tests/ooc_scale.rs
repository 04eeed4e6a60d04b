//! Out-of-core at scale: RMAT PageRank at every decade of vertices from
//! 10^4 up, under a memory budget of a third of the graph's footprint,
//! spilling to real files. Each tier must go out of core for real —
//! spill and load back — and reproduce the unbounded run's result bit for
//! bit. A debug build runs the 10^4 tier; a release build (CI's ooc-smoke
//! job) runs every tier to 10^6.

use std::sync::Arc;

use graft_algorithms::pagerank::PageRank;
use graft_datasets::rmat::{self, RmatParams};
use graft_dfs::{FileSystem, LocalFs};
use graft_obs::{Obs, Scope};
use graft_pregel::{estimate_max_partition_bytes, Engine, Graph, OocConfig};

fn value_bits(graph: &Graph<u64, f64, ()>) -> Vec<(u64, u64)> {
    graph.sorted_values().into_iter().map(|(id, value)| (id, value.to_bits())).collect()
}

#[test]
fn rmat_pagerank_spills_under_a_third_of_its_footprint_and_matches_unbounded() {
    let largest = if cfg!(debug_assertions) { 10_000 } else { 1_000_000 };
    let dir = std::env::temp_dir().join(format!("graft-ooc-scale-{}", std::process::id()));
    let fs: Arc<dyn FileSystem> = Arc::new(LocalFs::new(&dir).unwrap());
    let mut vertices = 10_000u64;
    while vertices <= largest {
        let list = rmat::generate("rmat", vertices, vertices * 4, RmatParams::default(), 42);
        let graph = list.to_graph(0.0f64);
        let budget = estimate_max_partition_bytes::<PageRank>(&graph, 1) / 3;
        let unbounded = Engine::new(PageRank::new(3)).num_workers(4).run(graph.clone()).unwrap();

        let obs = Obs::wall();
        let budgeted = Engine::new(PageRank::new(3))
            .num_workers(4)
            .with_memory_budget(fs.clone(), OocConfig::new(budget, format!("/v{vertices}")))
            .with_obs(obs.clone())
            .run(graph)
            .unwrap();
        let reg = obs.registry();
        assert!(reg.counter_value("ooc_spills_total", Scope::GLOBAL) > 0, "{vertices}: no spill");
        assert!(reg.counter_value("ooc_loads_total", Scope::GLOBAL) > 0, "{vertices}: no load");
        assert!(
            value_bits(&unbounded.graph) == value_bits(&budgeted.graph),
            "{vertices} vertices: the budgeted ranks differ from the unbounded ones"
        );
        vertices *= 10;
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
