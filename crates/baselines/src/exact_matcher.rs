//! Exact windowed subgraph matching — the SJ-tree stand-in for the Fig. 15 comparison.
//!
//! The paper compares GSS-based VF2 matching against SJ-tree, an exact continuous pattern
//! detector, on windows of the web-NotreDame stream.  SJ-tree's implementation is not
//! publicly available; for the reproduction its role — an exact oracle that says whether a
//! pattern instance occurs in the current window, at adjacency-list memory cost — is played
//! by [`ExactWindowMatcher`], which materialises each window as an exact
//! [`AdjacencyListGraph`] and runs the same VF2-style matcher used on the sketch.

use gss_graph::algorithms::{find_pattern_matches, PatternGraph};
use gss_graph::{AdjacencyListGraph, StreamEdge, SummaryRead, SummaryWrite, VertexId};

/// An exact matcher over a window of stream items.
#[derive(Debug, Clone)]
pub struct ExactWindowMatcher {
    graph: AdjacencyListGraph,
    vertices: Vec<VertexId>,
}

impl ExactWindowMatcher {
    /// Builds the exact graph of one stream window.
    pub fn from_window(window: &[StreamEdge]) -> Self {
        let mut graph = AdjacencyListGraph::new();
        for item in window {
            graph.insert(item.source, item.destination, item.weight);
        }
        let vertices = graph.vertices();
        Self { graph, vertices }
    }

    /// Number of distinct vertices in the window.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of distinct edges in the window.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The vertices of the window (the matching universe).
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Memory footprint of the underlying exact graph in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.graph.stats().bytes
    }

    /// Read access to the exact window graph.
    pub fn graph(&self) -> &AdjacencyListGraph {
        &self.graph
    }

    /// Returns `true` if the pattern has at least one exact match in the window.
    pub fn contains_pattern(&self, pattern: &PatternGraph) -> bool {
        !find_pattern_matches(&self.graph, pattern, &self.vertices, 1).is_empty()
    }

    /// Counts exact matches of the pattern, up to `limit`.
    pub fn count_matches(&self, pattern: &PatternGraph, limit: usize) -> usize {
        find_pattern_matches(&self.graph, pattern, &self.vertices, limit).len()
    }

    /// Extracts a pattern by random-walking `edge_count` edges of the window starting from
    /// `start`, mirroring how the paper generates query subgraphs ("generate 4 kinds of
    /// subgraphs with 6, 9, 12 and 15 edges … by random walk").  Returns `None` if the walk
    /// cannot reach the requested number of edges.
    pub fn random_walk_pattern(
        &self,
        start: VertexId,
        edge_count: usize,
        seed: u64,
    ) -> Option<PatternGraph> {
        let mut state = seed | 1;
        let mut next_random = move |bound: usize| -> usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % bound.max(1) as u64) as usize
        };
        let mut pattern = PatternGraph::new();
        let mut current = start;
        let mut guard = 0usize;
        while pattern.edge_count() < edge_count && guard < edge_count * 20 {
            guard += 1;
            let successors = self.graph.successors(current);
            let candidates: Vec<VertexId> = if successors.is_empty() {
                // Dead end: restart the walk from a random window vertex.
                current = self.vertices[next_random(self.vertices.len())];
                continue;
            } else {
                successors
            };
            let next = candidates[next_random(candidates.len())];
            pattern.add_edge(current, next);
            current = next;
        }
        if pattern.edge_count() == edge_count {
            Some(pattern)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Vec<StreamEdge> {
        vec![
            StreamEdge::new(1, 2, 0, 1),
            StreamEdge::new(2, 3, 1, 1),
            StreamEdge::new(3, 1, 2, 1),
            StreamEdge::new(3, 4, 3, 1),
            StreamEdge::new(4, 5, 4, 1),
            StreamEdge::new(5, 6, 5, 1),
        ]
    }

    #[test]
    fn window_materialisation_counts_vertices_and_edges() {
        let matcher = ExactWindowMatcher::from_window(&window());
        assert_eq!(matcher.vertex_count(), 6);
        assert_eq!(matcher.edge_count(), 6);
        assert!(matcher.memory_bytes() > 0);
        assert_eq!(matcher.graph().edge_weight(1, 2), Some(1));
    }

    #[test]
    fn detects_present_and_absent_patterns() {
        let matcher = ExactWindowMatcher::from_window(&window());
        let triangle = PatternGraph::from_edges(&[(10, 11), (11, 12), (12, 10)]);
        assert!(matcher.contains_pattern(&triangle));
        assert_eq!(matcher.count_matches(&triangle, 100), 3); // three rotations
        let square = PatternGraph::from_edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(!matcher.contains_pattern(&square));
        assert_eq!(matcher.count_matches(&square, 100), 0);
    }

    #[test]
    fn random_walk_patterns_are_subgraphs_of_the_window() {
        let matcher = ExactWindowMatcher::from_window(&window());
        let pattern = matcher.random_walk_pattern(1, 3, 42).expect("walk of length 3 exists");
        assert_eq!(pattern.edge_count(), 3);
        // A pattern extracted from the window must match in the window.
        assert!(matcher.contains_pattern(&pattern));
    }

    #[test]
    fn impossible_walk_length_returns_none() {
        let tiny = ExactWindowMatcher::from_window(&[StreamEdge::new(1, 2, 0, 1)]);
        assert!(tiny.random_walk_pattern(1, 5, 7).is_none());
    }

    #[test]
    fn empty_window_is_handled() {
        let matcher = ExactWindowMatcher::from_window(&[]);
        assert_eq!(matcher.vertex_count(), 0);
        assert_eq!(matcher.edge_count(), 0);
        let pattern = PatternGraph::from_edges(&[(0, 1)]);
        assert!(!matcher.contains_pattern(&pattern));
    }
}
