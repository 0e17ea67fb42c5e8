//! Canonical edge-set representation of subgraphs.
//!
//! The result of a temporal simple path graph query, and every upper-bound
//! graph, is a subgraph of the input graph that is fully determined by its
//! edge set (the vertex set is induced by the edges — Definition 2). An
//! [`EdgeSet`] stores that edge set in canonical sorted order so that
//! subgraphs coming from different algorithms can be compared for equality,
//! intersected, and measured.

use crate::graph::TemporalGraph;
use crate::types::{TemporalEdge, Timestamp, VertexId};
use std::collections::BTreeSet;
use std::fmt;

/// A set of temporal edges in canonical `(time, src, dst)` order, together
/// with the vertex set they induce.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct EdgeSet {
    edges: Vec<TemporalEdge>,
}

impl EdgeSet {
    /// Creates an empty edge set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an edge set from arbitrary edges (sorted and de-duplicated).
    pub fn from_edges<I>(edges: I) -> Self
    where
        I: IntoIterator<Item = TemporalEdge>,
    {
        let mut edges: Vec<TemporalEdge> = edges.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        Self { edges }
    }

    /// The edge set of an entire graph.
    pub fn from_graph(graph: &TemporalGraph) -> Self {
        // Graph edges are already sorted and de-duplicated.
        Self { edges: graph.edges().to_vec() }
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the set contains no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges, sorted by `(time, src, dst)`.
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Returns `true` if the exact edge is in the set.
    pub fn contains(&self, edge: &TemporalEdge) -> bool {
        self.edges.binary_search(edge).is_ok()
    }

    /// Returns `true` if the edge `e(src, dst, time)` is in the set.
    pub fn contains_edge(&self, src: VertexId, dst: VertexId, time: Timestamp) -> bool {
        self.contains(&TemporalEdge::new(src, dst, time))
    }

    /// The vertices induced by the edges, ascending and de-duplicated.
    pub fn vertices(&self) -> Vec<VertexId> {
        let mut vs: BTreeSet<VertexId> = BTreeSet::new();
        for e in &self.edges {
            vs.insert(e.src);
            vs.insert(e.dst);
        }
        vs.into_iter().collect()
    }

    /// Number of induced vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertices().len()
    }

    /// Returns `true` if `vertex` is an endpoint of some edge in the set.
    pub fn contains_vertex(&self, vertex: VertexId) -> bool {
        self.edges.iter().any(|e| e.src == vertex || e.dst == vertex)
    }

    /// Inserts an edge, keeping the canonical order. Returns `true` if the
    /// edge was not already present.
    pub fn insert(&mut self, edge: TemporalEdge) -> bool {
        match self.edges.binary_search(&edge) {
            Ok(_) => false,
            Err(pos) => {
                self.edges.insert(pos, edge);
                true
            }
        }
    }

    /// Returns `true` if every edge of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        self.edges.iter().all(|e| other.contains(e))
    }

    /// Edges present in `self` but not in `other`.
    pub fn difference(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().copied().filter(|e| !other.contains(e)))
    }

    /// Edges present in both sets.
    pub fn intersection(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().copied().filter(|e| other.contains(e)))
    }

    /// Edges present in either set.
    pub fn union(&self, other: &EdgeSet) -> EdgeSet {
        EdgeSet::from_edges(self.edges.iter().chain(other.edges.iter()).copied())
    }

    /// Materialises the edge set as a [`TemporalGraph`] with the given vertex
    /// id space (use the parent graph's `num_vertices` to keep ids stable).
    pub fn to_graph(&self, num_vertices: usize) -> TemporalGraph {
        TemporalGraph::from_edges(num_vertices, self.edges.clone())
    }

    /// Materialises the edge set as a graph over *only* its induced
    /// vertices, renumbered `0..n` in ascending original-id order, and
    /// returns the compact-to-original mapping alongside (original vertex
    /// `mapping[i]` became compact vertex `i`).
    ///
    /// A tspG typically touches a vanishing fraction of the parent graph's
    /// vertices; algorithms whose working state scales with the vertex
    /// count (BFS labels, visited bitmaps) run on the compact graph in
    /// time proportional to the tspG instead of the parent graph. Use
    /// [`EdgeSet::to_graph`] when original ids must stay addressable.
    pub fn to_compact_graph(&self) -> (TemporalGraph, Vec<VertexId>) {
        let mapping = self.vertices();
        let compact = |v: VertexId| -> VertexId {
            mapping.binary_search(&v).expect("vertices() contains every endpoint") as VertexId
        };
        let edges: Vec<TemporalEdge> = self
            .edges
            .iter()
            .map(|e| TemporalEdge::new(compact(e.src), compact(e.dst), e.time))
            .collect();
        (TemporalGraph::from_edges(mapping.len(), edges), mapping)
    }

    /// Maps an edge set over compact vertex ids back to original ids in
    /// place: compact vertex `i` becomes `originals[i]`.
    ///
    /// `originals` must be strictly ascending — the order
    /// [`EdgeSet::to_compact_graph`] hands ids out in — so the renaming
    /// preserves the canonical `(time, src, dst)` order and no re-sort is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a compact vertex past `originals`.
    pub fn uncompact(&mut self, originals: &[VertexId]) {
        debug_assert!(originals.windows(2).all(|w| w[0] < w[1]), "originals must ascend");
        for e in &mut self.edges {
            e.src = originals[e.src as usize];
            e.dst = originals[e.dst as usize];
        }
    }

    /// Rough number of heap bytes used by the stored edges.
    pub fn approx_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<TemporalEdge>()
    }

    /// Ratio `|self| / |other|` of edge counts, the "upper-bound ratio" used
    /// by Table II when `self` is the result tspG and `other` is an
    /// upper-bound graph. Returns 1.0 when `other` is empty.
    pub fn edge_ratio(&self, other: &EdgeSet) -> f64 {
        if other.is_empty() {
            1.0
        } else {
            self.num_edges() as f64 / other.num_edges() as f64
        }
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("num_edges", &self.num_edges())
            .field("num_vertices", &self.num_vertices())
            .field("edges", &self.edges)
            .finish()
    }
}

impl FromIterator<TemporalEdge> for EdgeSet {
    fn from_iter<I: IntoIterator<Item = TemporalEdge>>(iter: I) -> Self {
        EdgeSet::from_edges(iter)
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = &'a TemporalEdge;
    type IntoIter = std::slice::Iter<'a, TemporalEdge>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EdgeSet {
        EdgeSet::from_edges(vec![
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(2, 3, 3),
            TemporalEdge::new(3, 7, 7),
            TemporalEdge::new(2, 7, 6),
        ])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let es = EdgeSet::from_edges(vec![
            TemporalEdge::new(1, 2, 9),
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 9),
        ]);
        assert_eq!(es.num_edges(), 2);
        assert_eq!(es.edges()[0], TemporalEdge::new(0, 1, 1));
    }

    #[test]
    fn membership_and_vertices() {
        let es = sample();
        assert!(es.contains_edge(0, 2, 2));
        assert!(!es.contains_edge(0, 2, 3));
        assert_eq!(es.vertices(), vec![0, 2, 3, 7]);
        assert_eq!(es.num_vertices(), 4);
        assert!(es.contains_vertex(3));
        assert!(!es.contains_vertex(5));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut es = EdgeSet::new();
        assert!(es.insert(TemporalEdge::new(1, 2, 3)));
        assert!(!es.insert(TemporalEdge::new(1, 2, 3)));
        assert_eq!(es.num_edges(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = sample();
        let b = EdgeSet::from_edges(vec![TemporalEdge::new(0, 2, 2), TemporalEdge::new(9, 9, 9)]);
        assert_eq!(a.intersection(&b).num_edges(), 1);
        assert_eq!(a.union(&b).num_edges(), 5);
        assert_eq!(a.difference(&b).num_edges(), 3);
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.intersection(&b).is_subset_of(&b));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&a.union(&b)));
    }

    #[test]
    fn graph_roundtrip() {
        let es = sample();
        let g = es.to_graph(8);
        assert_eq!(g.num_edges(), es.num_edges());
        assert_eq!(EdgeSet::from_graph(&g), es);
    }

    #[test]
    fn compact_graph_renumbers_and_roundtrips() {
        let es = sample(); // vertices {0, 2, 3, 7}
        let (g, mapping) = es.to_compact_graph();
        assert_eq!(mapping, vec![0, 2, 3, 7]);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), es.num_edges());
        // Mapping the compact edges back through `mapping` recovers the
        // original edge set exactly.
        let restored =
            EdgeSet::from_edges(g.edges().iter().map(|e| {
                TemporalEdge::new(mapping[e.src as usize], mapping[e.dst as usize], e.time)
            }));
        assert_eq!(restored, es);
        // `uncompact` does the same renaming in place, order intact.
        let mut in_place = EdgeSet::from_graph(&g);
        in_place.uncompact(&mapping);
        assert_eq!(in_place, es);
        assert!(in_place.edges().windows(2).all(|w| w[0] < w[1]));
        // Empty sets compact to the empty graph.
        let (empty, mapping) = EdgeSet::new().to_compact_graph();
        assert_eq!(empty.num_vertices(), 0);
        assert!(mapping.is_empty());
    }

    #[test]
    fn edge_ratio() {
        let tspg = sample();
        let mut ub = tspg.clone();
        ub.insert(TemporalEdge::new(5, 6, 4));
        ub.insert(TemporalEdge::new(5, 6, 5));
        let r = tspg.edge_ratio(&ub);
        assert!((r - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(EdgeSet::new().edge_ratio(&EdgeSet::new()), 1.0);
    }

    #[test]
    fn iteration() {
        let es = sample();
        let count = (&es).into_iter().count();
        assert_eq!(count, es.num_edges());
        let collected: EdgeSet = es.edges().iter().copied().collect();
        assert_eq!(collected, es);
    }
}
