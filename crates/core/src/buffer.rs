//! The left-over edge buffer `B`.
//!
//! Edges whose candidate buckets are all occupied spill into an adjacency-list buffer
//! (Definition 5, item 4).  The paper stores it as plain adjacency lists; here the lists are
//! indexed by a map from source hash to list position — the same acceleration the paper
//! applies to its adjacency-list baseline — plus a reverse index for precursor queries.
//! With square hashing and two rooms per bucket the buffer is empty in almost every
//! experiment (Fig. 13), so none of this is on the hot path.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One buffered sketch edge: destination hash and accumulated weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct BufferedEdge {
    destination: u64,
    weight: i64,
}

/// Adjacency-list buffer for left-over edges, keyed by sketch-node hashes `H(v)`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LeftoverBuffer {
    /// Forward adjacency: source hash → buffered out-edges.
    forward: HashMap<u64, Vec<BufferedEdge>>,
    /// Reverse index: destination hash → source hashes with a buffered edge to it.
    reverse: HashMap<u64, Vec<u64>>,
    /// Number of distinct buffered edges.
    edges: usize,
    /// Accounted bytes, maintained incrementally on insert so [`bytes`](Self::bytes) is
    /// O(1) — experiments poll it per report via `memory_bytes()`, which used to recount
    /// every adjacency entry on every call.
    bytes: usize,
}

impl LeftoverBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct edges currently buffered.
    pub fn len(&self) -> usize {
        self.edges
    }

    /// Adds `weight` to the buffered edge `(source, destination)`, creating it if needed.
    pub fn insert(&mut self, source: u64, destination: u64, weight: i64) {
        let list = self.forward.entry(source).or_default();
        let new_source = list.is_empty();
        if let Some(entry) = list.iter_mut().find(|e| e.destination == destination) {
            entry.weight += weight;
            return;
        }
        list.push(BufferedEdge { destination, weight });
        // 8 bytes per new hash key, 16 per forward entry (destination + weight), 8 per
        // reverse entry — the same accounting `bytes()` used to recompute per call.
        self.bytes += 16 + 8 * usize::from(new_source);
        let reverse = self.reverse.entry(destination).or_default();
        self.bytes += 8 + 8 * usize::from(reverse.is_empty());
        reverse.push(source);
        self.edges += 1;
    }

    /// Returns the buffered weight of edge `(source, destination)`, if present.
    pub fn edge_weight(&self, source: u64, destination: u64) -> Option<i64> {
        self.forward.get(&source)?.iter().find(|e| e.destination == destination).map(|e| e.weight)
    }

    /// Destination hashes of all buffered edges leaving `source`.
    pub fn successors(&self, source: u64) -> Vec<u64> {
        self.forward
            .get(&source)
            .map(|list| list.iter().map(|e| e.destination).collect())
            .unwrap_or_default()
    }

    /// Source hashes of all buffered edges entering `destination`.
    pub fn precursors(&self, destination: u64) -> Vec<u64> {
        self.reverse.get(&destination).cloned().unwrap_or_default()
    }

    /// Iterates over all buffered edges as `(source, destination, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64, i64)> + '_ {
        self.forward
            .iter()
            .flat_map(|(&source, list)| list.iter().map(move |e| (source, e.destination, e.weight)))
    }

    /// Approximate heap usage in bytes (hash keys + adjacency entries), used by the memory
    /// accounting of the experiments.  O(1): the count is maintained on insert instead of
    /// being recomputed from every adjacency list per call.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LeftoverBuffer {
        /// Returns `true` if nothing is buffered.
        fn is_empty(&self) -> bool {
            self.edges == 0
        }
    }

    #[test]
    fn empty_buffer_reports_nothing() {
        let buffer = LeftoverBuffer::new();
        assert!(buffer.is_empty());
        assert_eq!(buffer.len(), 0);
        assert_eq!(buffer.edge_weight(1, 2), None);
        assert!(buffer.successors(1).is_empty());
        assert!(buffer.precursors(2).is_empty());
        assert_eq!(buffer.edges().count(), 0);
        assert_eq!(buffer.bytes(), 0);
    }

    #[test]
    fn insert_and_query_round_trip() {
        let mut buffer = LeftoverBuffer::new();
        buffer.insert(10, 20, 3);
        buffer.insert(10, 30, 4);
        buffer.insert(40, 20, 5);
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.edge_weight(10, 20), Some(3));
        assert_eq!(buffer.edge_weight(10, 30), Some(4));
        assert_eq!(buffer.edge_weight(40, 20), Some(5));
        assert_eq!(buffer.edge_weight(40, 30), None);
        let mut succ = buffer.successors(10);
        succ.sort_unstable();
        assert_eq!(succ, vec![20, 30]);
        let mut prec = buffer.precursors(20);
        prec.sort_unstable();
        assert_eq!(prec, vec![10, 40]);
    }

    #[test]
    fn repeated_inserts_accumulate_weight_without_duplicating_edges() {
        let mut buffer = LeftoverBuffer::new();
        buffer.insert(1, 2, 5);
        buffer.insert(1, 2, 7);
        assert_eq!(buffer.len(), 1);
        assert_eq!(buffer.edge_weight(1, 2), Some(12));
        assert_eq!(buffer.precursors(2), vec![1]);
    }

    #[test]
    fn negative_weights_act_as_deletions() {
        let mut buffer = LeftoverBuffer::new();
        buffer.insert(1, 2, 5);
        buffer.insert(1, 2, -5);
        assert_eq!(buffer.edge_weight(1, 2), Some(0));
    }

    #[test]
    fn edges_iterator_and_bytes_track_content() {
        let mut buffer = LeftoverBuffer::new();
        buffer.insert(1, 2, 3);
        buffer.insert(4, 5, 6);
        let collected: std::collections::HashSet<_> = buffer.edges().collect();
        assert_eq!(collected, [(1, 2, 3), (4, 5, 6)].into_iter().collect());
        assert!(buffer.bytes() > 0);
    }

    /// The pre-refactor accounting, recomputed from the adjacency lists.
    fn recounted_bytes(buffer: &LeftoverBuffer) -> usize {
        let forward_entries: usize = buffer.forward.values().map(Vec::len).sum();
        let reverse_entries: usize = buffer.reverse.values().map(Vec::len).sum();
        buffer.forward.len() * 8
            + forward_entries * (8 + 8)
            + buffer.reverse.len() * 8
            + reverse_entries * 8
    }

    #[test]
    fn incremental_bytes_match_a_full_recount() {
        let mut buffer = LeftoverBuffer::new();
        assert_eq!(buffer.bytes(), recounted_bytes(&buffer));
        let mut state = 0x000B_17E5_u64;
        for _ in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // A small universe forces shared sources/destinations and duplicate edges.
            buffer.insert((state >> 33) % 40, (state >> 17) % 40, (state % 9) as i64 - 4);
            assert_eq!(buffer.bytes(), recounted_bytes(&buffer));
        }
        assert!(buffer.bytes() > 0);
    }
}
