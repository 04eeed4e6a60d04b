//! Input graph representation and builder.

use crate::hash::FxHashMap;
use crate::types::{Edge, Value, VertexId};

/// A graph's columns: ids, values, edge offsets (one more than ids, from
/// 0) and the edge array.
type Columns<I, V, E> = (Vec<I>, Vec<V>, Vec<usize>, Vec<Edge<I, E>>);

/// One vertex's out-edges as a list of their own.
type Edges<I, E> = Vec<Edge<I, E>>;

/// An in-memory directed graph: the input to (and final output of) a
/// Pregel job.
///
/// Stored as columns over dense vertex positions in insertion order: ids,
/// values, and the out-edges as one array where vertex `i`'s edges are
/// `edges[offsets[i]..offsets[i + 1]]` — no allocation per vertex.
/// Undirected graphs are represented, as in Giraph, by symmetric directed
/// edges (see [`GraphBuilder::add_undirected_edge`]).
#[derive(Clone, Debug)]
pub struct Graph<I, V, E> {
    ids: Vec<I>,
    values: Vec<V>,
    offsets: Vec<usize>,
    edges: Vec<Edge<I, E>>,
    index: FxHashMap<I, usize>,
}

impl<I: VertexId, V: Value, E: Value> Default for Graph<I, V, E> {
    fn default() -> Self {
        Self::from_columns(Vec::new(), Vec::new(), vec![0], Vec::new())
    }
}

impl<I: VertexId, V: Value, E: Value> Graph<I, V, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts an incremental builder.
    pub fn builder() -> GraphBuilder<I, V, E> {
        GraphBuilder { graph: Graph::new(), sources: Vec::new(), strict: false }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.ids.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether `id` is a vertex of this graph.
    pub fn contains(&self, id: I) -> bool {
        self.index.contains_key(&id)
    }

    /// The value of vertex `id`, if present.
    pub fn value(&self, id: I) -> Option<&V> {
        self.index.get(&id).map(|&i| &self.values[i])
    }

    /// The outgoing edges of vertex `id`, if present.
    pub fn out_edges(&self, id: I) -> Option<&[Edge<I, E>]> {
        self.index.get(&id).map(|&i| self.edges_at(i))
    }

    /// Out-degree of vertex `id`, if present.
    pub fn out_degree(&self, id: I) -> Option<usize> {
        self.index.get(&id).map(|&i| self.offsets[i + 1] - self.offsets[i])
    }

    /// Iterates `(id, value, out-edges)` triples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &V, &[Edge<I, E>])> {
        self.ids.iter().zip(&self.values).enumerate().map(|(i, (id, v))| (*id, v, self.edges_at(i)))
    }

    /// All vertex ids in insertion order.
    pub fn vertex_ids(&self) -> &[I] {
        &self.ids
    }

    /// Sorted `(id, value)` pairs — convenient for comparing job outputs.
    pub fn sorted_values(&self) -> Vec<(I, V)> {
        let mut out: Vec<(I, V)> =
            self.ids.iter().copied().zip(self.values.iter().cloned()).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Checks that every edge target is a vertex of the graph; returns the
    /// dangling `(source, target)` pairs.
    pub fn dangling_edges(&self) -> Vec<(I, I)> {
        let mut out = Vec::new();
        for (src, _, adj) in self.iter() {
            for e in adj {
                if !self.index.contains_key(&e.target) {
                    out.push((src, e.target));
                }
            }
        }
        out
    }

    /// Returns the `(source, target)` pairs that have no reverse edge —
    /// empty exactly when the graph is symmetric (undirected).
    pub fn asymmetric_edges(&self) -> Vec<(I, I)> {
        let mut out = Vec::new();
        for (src, _, adj) in self.iter() {
            for e in adj {
                let has_reverse = self
                    .out_edges(e.target)
                    .is_some_and(|back| back.iter().any(|b| b.target == src));
                if !has_reverse {
                    out.push((src, e.target));
                }
            }
        }
        out
    }

    /// Summary statistics used by dataset tables and sanity tests.
    pub fn stats(&self) -> GraphStats {
        let degrees = self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64);
        GraphStats {
            num_vertices: self.ids.len() as u64,
            num_edges: self.num_edges(),
            max_out_degree: degrees.clone().max().unwrap_or(0),
            min_out_degree: degrees.min().unwrap_or(0),
        }
    }

    fn edges_at(&self, i: usize) -> &[Edge<I, E>] {
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }

    pub(crate) fn into_columns(self) -> Columns<I, V, E> {
        (self.ids, self.values, self.offsets, self.edges)
    }

    pub(crate) fn from_columns(
        ids: Vec<I>,
        values: Vec<V>,
        offsets: Vec<usize>,
        edges: Vec<Edge<I, E>>,
    ) -> Self {
        let mut index = FxHashMap::with_capacity_and_hasher(ids.len(), Default::default());
        index.extend(ids.iter().enumerate().map(|(i, id)| (*id, i)));
        Self { ids, values, offsets, edges, index }
    }

    /// Per-vertex edge lists, for the sequential oracle
    /// ([`crate::reference`]), which keeps vertices as records.
    pub(crate) fn into_parts(self) -> (Vec<I>, Vec<V>, Vec<Edges<I, E>>) {
        let mut edges = self.edges.into_iter();
        let lists = self.offsets.windows(2).map(|w| edges.by_ref().take(w[1] - w[0]).collect());
        (self.ids, self.values, lists.collect())
    }

    pub(crate) fn from_parts(ids: Vec<I>, values: Vec<V>, lists: Vec<Edges<I, E>>) -> Self {
        let offsets = std::iter::once(0)
            .chain(lists.iter().scan(0, |end, list| {
                *end += list.len();
                Some(*end)
            }))
            .collect();
        Self::from_columns(ids, values, offsets, lists.into_iter().flatten().collect())
    }
}

/// Degree and size summary of a [`Graph`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GraphStats {
    /// Vertex count.
    pub num_vertices: u64,
    /// Directed edge count.
    pub num_edges: u64,
    /// Largest out-degree.
    pub max_out_degree: u64,
    /// Smallest out-degree.
    pub min_out_degree: u64,
}

/// Incremental constructor for [`Graph`].
///
/// By default the builder is lenient: adding an edge whose endpoints are
/// missing is an error only at [`GraphBuilder::build`] time if `strict`
/// was requested; otherwise dangling targets are permitted (Giraph
/// tolerates them until a message is sent to a missing vertex).
#[derive(Debug)]
pub struct GraphBuilder<I, V, E> {
    /// Edges wait in insertion order until [`GraphBuilder::build`]
    /// buckets them by source.
    graph: Graph<I, V, E>,
    /// The source position of each edge.
    sources: Vec<usize>,
    strict: bool,
}

/// Errors from graph construction.
#[derive(Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The same vertex id was added twice.
    DuplicateVertex(String),
    /// An edge references a vertex that was never added (strict mode).
    DanglingEdge {
        /// Source vertex of the offending edge.
        source: String,
        /// Missing target vertex.
        target: String,
    },
    /// An edge was added from a vertex that does not exist.
    NoSuchVertex(String),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DuplicateVertex(id) => write!(f, "duplicate vertex {id}"),
            GraphError::DanglingEdge { source, target } => {
                write!(f, "edge {source} -> {target} has no target vertex")
            }
            GraphError::NoSuchVertex(id) => write!(f, "no such vertex {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl<I: VertexId, V: Value, E: Value> GraphBuilder<I, V, E> {
    /// Makes [`GraphBuilder::build`] reject dangling edge targets.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Adds a vertex with an initial value.
    pub fn add_vertex(&mut self, id: I, value: V) -> Result<&mut Self, GraphError> {
        if self.graph.index.contains_key(&id) {
            return Err(GraphError::DuplicateVertex(id.to_string()));
        }
        self.graph.index.insert(id, self.graph.ids.len());
        self.graph.ids.push(id);
        self.graph.values.push(value);
        Ok(self)
    }

    /// Adds a directed edge; the source must already exist.
    pub fn add_edge(&mut self, source: I, target: I, value: E) -> Result<&mut Self, GraphError> {
        let &i = self
            .graph
            .index
            .get(&source)
            .ok_or_else(|| GraphError::NoSuchVertex(source.to_string()))?;
        self.sources.push(i);
        self.graph.edges.push(Edge::new(target, value));
        Ok(self)
    }

    /// Adds a pair of symmetric directed edges, the Giraph encoding of an
    /// undirected edge.
    pub fn add_undirected_edge(&mut self, a: I, b: I, value: E) -> Result<&mut Self, GraphError> {
        self.add_edge(a, b, value.clone())?;
        self.add_edge(b, a, value)?;
        Ok(self)
    }

    /// Finishes construction: buckets the edges by source, stably, so each
    /// vertex keeps its edges in insertion order.
    pub fn build(self) -> Result<Graph<I, V, E>, GraphError> {
        let Self { mut graph, sources, strict } = self;
        let offsets = &mut graph.offsets;
        offsets.resize(graph.ids.len() + 1, 0);
        for &source in &sources {
            offsets[source + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        // Edges added in source order are bucketed already. Otherwise a
        // counting pass orders edge positions by source, and the edges are
        // gathered in that order: the input is read at random once, the
        // output written in order, and the source list is freed first.
        if !sources.is_sorted() {
            let mut next = offsets.clone();
            let mut order = vec![0; sources.len()];
            for (k, &source) in sources.iter().enumerate() {
                order[next[source]] = k;
                next[source] += 1;
            }
            drop(sources);
            graph.edges = order.iter().map(|&k| graph.edges[k].clone()).collect();
        }
        if strict {
            if let Some((source, target)) = graph.dangling_edges().into_iter().next() {
                return Err(GraphError::DanglingEdge {
                    source: source.to_string(),
                    target: target.to_string(),
                });
            }
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph<u64, i32, ()> {
        let mut b = Graph::builder();
        for v in 0..3u64 {
            b.add_vertex(v, 0).unwrap();
        }
        b.add_undirected_edge(0, 1, ()).unwrap();
        b.add_undirected_edge(1, 2, ()).unwrap();
        b.add_undirected_edge(2, 0, ()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_degree(0), Some(2));
        // Added out of source order; each vertex keeps insertion order.
        assert_eq!(g.out_edges(2), Some(&[Edge::from(1), Edge::from(0)][..]));
        assert_eq!(g.value(1), Some(&0));
        assert!(g.contains(2));
        assert!(!g.contains(9));
        assert!(g.asymmetric_edges().is_empty());
    }

    #[test]
    fn duplicate_vertex_rejected() {
        let mut b = Graph::<u64, (), ()>::builder();
        b.add_vertex(1, ()).unwrap();
        assert_eq!(
            b.add_vertex(1, ()).map(|_| ()).unwrap_err(),
            GraphError::DuplicateVertex("1".into())
        );
    }

    #[test]
    fn strict_mode_rejects_dangling() {
        let mut b = Graph::<u64, (), ()>::builder().strict();
        b.add_vertex(1, ()).unwrap();
        b.add_edge(1, 99, ()).unwrap();
        assert!(matches!(b.build(), Err(GraphError::DanglingEdge { .. })));
    }

    #[test]
    fn lenient_mode_reports_dangling() {
        let mut b = Graph::<u64, (), ()>::builder();
        b.add_vertex(1, ()).unwrap();
        b.add_edge(1, 99, ()).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.dangling_edges(), vec![(1, 99)]);
    }

    #[test]
    fn edge_from_missing_source_rejected() {
        let mut b = Graph::<u64, (), ()>::builder();
        assert_eq!(
            b.add_edge(5, 6, ()).map(|_| ()).unwrap_err(),
            GraphError::NoSuchVertex("5".into())
        );
    }

    #[test]
    fn asymmetric_edges_detected() {
        let mut b = Graph::<u64, (), f32>::builder();
        b.add_vertex(1, ()).unwrap();
        b.add_vertex(2, ()).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.asymmetric_edges(), vec![(1, 2)]);
    }

    #[test]
    fn stats_and_sorted_values() {
        let g = triangle();
        let stats = g.stats();
        assert_eq!(stats.num_vertices, 3);
        assert_eq!(stats.num_edges, 6);
        assert_eq!(stats.max_out_degree, 2);
        assert_eq!(stats.min_out_degree, 2);
        assert_eq!(g.sorted_values(), vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn parts_roundtrip() {
        let g = triangle();
        let (ids, values, adj) = g.clone().into_parts();
        let g2 = Graph::from_parts(ids, values, adj);
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g2.sorted_values(), g.sorted_values());
    }
}
