//! Seeded input generation owned by the benchmark: a small PRNG, the
//! weighted grid of `sssp_sparse`, and capture-id selection. The RMAT
//! and catalog generators are `graft-datasets`' own, seeded from here.

use graft_datasets::EdgeList;
use graft_pregel::Graph;

/// SplitMix64: tiny, seedable, and independent of any product crate, so
/// a change to the vendored `rand` cannot silently change the inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is irrelevant
    /// at the bounds used here.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A `side × side` four-neighbour grid with vertex `v = row * side + col`
/// and symmetric edge weights `1 + (min(u, v) + seed) % 5`, as directed
/// `(source, target, weight)` triples in ascending order.
///
/// The topology does not depend on the seed, only the weights do: the
/// point of the grid is a fixed long diameter (hundreds of supersteps
/// with a thin frontier), which a random topology would not guarantee.
pub fn grid_edges(side: u64, seed: u64) -> Vec<(u64, u64, f64)> {
    let weight = |a: u64, b: u64| 1.0 + ((a.min(b) + seed) % 5) as f64;
    let mut edges = Vec::with_capacity((4 * side * side) as usize);
    for row in 0..side {
        for col in 0..side {
            let v = row * side + col;
            let mut link = |u: u64| edges.push((v, u, weight(v, u)));
            if row > 0 {
                link(v - side);
            }
            if col > 0 {
                link(v - 1);
            }
            if col + 1 < side {
                link(v + 1);
            }
            if row + 1 < side {
                link(v + side);
            }
        }
    }
    edges
}

/// Builds the SSSP input graph from the output of [`grid_edges`].
pub fn grid_graph(side: u64, edges: &[(u64, u64, f64)]) -> Graph<u64, f64, f64> {
    let mut builder = Graph::builder();
    for v in 0..side * side {
        builder.add_vertex(v, f64::INFINITY).expect("grid ids are distinct");
    }
    for &(a, b, w) in edges {
        builder.add_edge(a, b, w).expect("grid endpoints exist");
    }
    builder.build().expect("grid is a valid graph")
}

/// Candidate id sets [`pick_capture_ids`] draws before keeping the one
/// of typical capture volume.
const CANDIDATE_SETS: usize = 65;

/// Picks `count` distinct capture targets from a seeded draw.
///
/// A captured record carries the vertex's edges and outgoing messages,
/// so its size follows the vertex's out-degree, and the trace volume of
/// "capture these ids" would swing by ±12% between seeds — and `open_ms`
/// and every view with it. Which ids are captured follows the seed; how
/// much they weigh must not:
///
/// - without neighbours, only vertices of exactly the graph's average
///   out-degree are drawn, so every seed captures the same volume;
/// - with neighbours there is no such closed form (a hub's whole
///   neighbourhood captured every superstep would turn a "few specified
///   vertices" configuration into capture-all). Single draws are kept to
///   between one edge and twice the average, the draw is made
///   [`CANDIDATE_SETS`] times, and the set whose volume — the sum of
///   `1 + out-degree` over everything it captures — is the median of the
///   candidates' is kept.
pub fn pick_capture_ids(
    list: &EdgeList,
    count: usize,
    with_neighbors: bool,
    rng: &mut SplitMix64,
) -> Vec<u64> {
    let degrees = list.out_degrees();
    let neighbors: Vec<Vec<u64>> = if with_neighbors {
        let mut adjacency = vec![Vec::new(); list.num_vertices as usize];
        for &(a, b) in &list.edges {
            adjacency[a as usize].push(b);
        }
        adjacency
    } else {
        Vec::new()
    };
    let average = (list.num_edges() / list.num_vertices.max(1)).max(1);
    let typical = if with_neighbors { 1..=2 * average } else { average..=average };
    let candidates: Vec<(u64, Vec<u64>)> = (0..CANDIDATE_SETS)
        .map(|_| {
            let mut picked = Vec::with_capacity(count);
            let mut draws = 0u64;
            while picked.len() < count {
                let candidate = rng.below(list.num_vertices);
                draws += 1;
                let degree = degrees[candidate as usize];
                // After many rejections (degenerate degree distribution)
                // take anything distinct.
                let acceptable = typical.contains(&degree) || draws > 1024 * count as u64;
                if acceptable && !picked.contains(&candidate) {
                    picked.push(candidate);
                }
            }
            let mut captured: Vec<u64> = picked.clone();
            if with_neighbors {
                captured
                    .extend(picked.iter().flat_map(|&id| neighbors[id as usize].iter().copied()));
                captured.sort_unstable();
                captured.dedup();
            }
            let volume = captured.iter().map(|&v| 1 + degrees[v as usize]).sum();
            (volume, picked)
        })
        .collect();
    let target = if with_neighbors {
        let mut volumes: Vec<u64> = candidates.iter().map(|(volume, _)| *volume).collect();
        volumes.sort_unstable();
        volumes[CANDIDATE_SETS / 2]
    } else {
        count as u64 * (1 + list.num_edges() / list.num_vertices.max(1))
    };
    // `min_by_key` keeps the first of equally good candidates.
    candidates.into_iter().min_by_key(|(volume, _)| volume.abs_diff(target)).expect("candidates").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn grid_counts_and_symmetry() {
        let side = 7;
        let edges = grid_edges(side, 1);
        // Each of the 2 * side * (side - 1) undirected links appears in
        // both directions.
        assert_eq!(edges.len() as u64, 4 * side * (side - 1));
        let set: BTreeSet<(u64, u64, u64)> =
            edges.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect();
        assert_eq!(set.len(), edges.len(), "no duplicate edges");
        for &(a, b, w) in &edges {
            assert!(set.contains(&(b, a, w.to_bits())), "edge {a}->{b} has its reverse");
            assert!((1.0..=5.0).contains(&w));
            assert!(a < side * side && b < side * side && a != b);
        }
        let graph = grid_graph(side, &edges);
        assert_eq!(graph.num_vertices() as u64, side * side);
        assert_eq!(graph.num_edges(), edges.len() as u64);
        assert_eq!(graph.out_degree(0), Some(2), "corners have two neighbours");
        assert_eq!(graph.out_degree(side + 1), Some(4), "interior vertices have four");
    }

    #[test]
    fn grid_is_deterministic_in_the_seed() {
        assert_eq!(grid_edges(9, 4), grid_edges(9, 4));
        assert_ne!(grid_edges(9, 4), grid_edges(9, 5), "weights follow the seed");
        let topology = |seed| -> Vec<(u64, u64)> {
            grid_edges(9, seed).into_iter().map(|(a, b, _)| (a, b)).collect()
        };
        assert_eq!(topology(4), topology(5), "topology does not");
    }

    #[test]
    fn rng_and_capture_ids_repeat_per_seed() {
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        assert_eq!(a.next_u64(), b.next_u64());
        let list = EdgeList::new("ring", 50, (0..50).map(|v| (v, (v + 1) % 50)).collect());
        for with_neighbors in [false, true] {
            let pick =
                |seed| pick_capture_ids(&list, 5, with_neighbors, &mut SplitMix64::new(seed));
            assert_eq!(pick(9), pick(9));
            assert_ne!(pick(9), pick(10));
            assert_eq!(pick(9).iter().collect::<BTreeSet<_>>().len(), 5, "ids are distinct");
        }
    }

    #[test]
    fn capture_ids_have_typical_volume() {
        // A star plus a ring: vertex 0 has degree 40, the rest degree 1–2.
        let mut edges: Vec<(u64, u64)> = (1..41).map(|v| (0, v)).collect();
        edges.extend((1..200).map(|v| (v, v % 199 + 1)));
        let list = EdgeList::new("star-ring", 200, edges);
        let degrees = list.out_degrees();
        for seed in 0..20 {
            let ids = pick_capture_ids(&list, 3, false, &mut SplitMix64::new(seed));
            assert!(!ids.contains(&0), "the hub is never a typical pick");
            assert!(ids.iter().all(|&id| degrees[id as usize] >= 1));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<u32> = (0..100).collect();
        SplitMix64::new(1).shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
