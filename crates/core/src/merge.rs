//! Merging of GSS sketches.
//!
//! Graph streams are often ingested by several workers (one per link, per shard, per
//! ingestion thread); each worker keeps its own sketch and the coordinator combines them.
//! Two GSS sketches built with the *same configuration* (same width, fingerprint length,
//! rooms, sequence length, hash seed) are mergeable: a given sketch edge maps to the same
//! candidate buckets in both, so replaying the other sketch's occupied rooms and buffer into
//! `self` produces exactly the sketch that a single worker would have built from the
//! concatenated streams (up to the order-independent placement of edges among their
//! candidate buckets).
//!
//! Merging is also how the paper's use of "multiple sketches" for distributed settings
//! (Section I cites GraphX/Pregel-style systems) is realised here.

use crate::config::GssConfig;
use crate::error::ConfigError;
use crate::sketch::GssSketch;
use crate::storage::RoomStore;
use gss_graph::Weight;

/// An edge extracted from a sketch in the *hashed* space, used as the unit of merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedEdge {
    /// Hash `H(s)` of the source sketch node.
    pub source_hash: u64,
    /// Hash `H(d)` of the destination sketch node.
    pub destination_hash: u64,
    /// Accumulated weight.
    pub weight: Weight,
}

impl GssSketch {
    /// Extracts every stored sketch edge (matrix rooms and buffered edges) in the hashed
    /// space, together with its accumulated weight: the rooms in `(row, column, slot)`
    /// order, then the buffered edges sorted by `(source, destination)` — a fixed order,
    /// because replaying them (as [`merge_from`](Self::merge_from) does) places edges
    /// in order.
    pub fn hashed_edges(&self) -> Vec<HashedEdge> {
        let mut edges = Vec::with_capacity(self.stored_edges());
        self.room_storage().scan_occupied(&mut |row, column, room| {
            edges.push(HashedEdge {
                source_hash: self.recover_hash(row, room.source_half()),
                destination_hash: self.recover_hash(column, room.destination_half()),
                weight: room.weight,
            });
        });
        // The buffer iterates in hash-map order, which differs between two equal buffers.
        let mut buffered: Vec<_> = self.buffer().edges().collect();
        buffered.sort_unstable();
        for (source_hash, destination_hash, weight) in buffered {
            edges.push(HashedEdge { source_hash, destination_hash, weight });
        }
        edges
    }

    /// Merges `other` into `self`.
    ///
    /// Both sketches must share the same configuration; otherwise the hash spaces differ and
    /// the merge would corrupt fingerprints.  Node-id tables are merged as well, so
    /// successor/precursor queries on the merged sketch keep answering in the original id
    /// space.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configurations differ.
    pub fn merge_from(&mut self, other: &GssSketch) -> Result<(), ConfigError> {
        if self.config() != other.config() {
            return Err(ConfigError::new(format!(
                "cannot merge sketches with different configurations ({:?} vs {:?})",
                self.config(),
                other.config()
            )));
        }
        // Replay the other sketch's edges through the normal insert path, in the hashed
        // space: we bypass re-hashing by inserting through a dedicated entry point.
        for edge in other.hashed_edges() {
            self.insert_hashed(edge.source_hash, edge.destination_hash, edge.weight);
        }
        // Carry the ⟨H(v), v⟩ table across so id translation keeps working.
        self.absorb_node_map(other);
        Ok(())
    }

    /// Merges a set of independently built sketches into a fresh one.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the sketches do not all share `config`.
    pub fn merge_all(config: GssConfig, sketches: &[GssSketch]) -> Result<GssSketch, ConfigError> {
        let mut merged = GssSketch::new(config)?;
        for sketch in sketches {
            merged.merge_from(sketch)?;
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{AdjacencyListGraph, SummaryRead, SummaryWrite};

    fn stream(seed: u64, items: usize) -> Vec<(u64, u64, i64)> {
        let mut state = seed | 1;
        (0..items)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 300, (state >> 17) % 300, (state % 7) as i64 + 1)
            })
            .collect()
    }

    #[test]
    fn merged_sketch_equals_single_sketch_over_concatenated_stream() {
        let config = GssConfig::paper_small(64);
        let stream_a = stream(1, 1500);
        let stream_b = stream(2, 1500);

        let mut sketch_a = GssSketch::new(config).unwrap();
        let mut sketch_b = GssSketch::new(config).unwrap();
        let mut reference = GssSketch::new(config).unwrap();
        let mut exact = AdjacencyListGraph::new();
        for &(s, d, w) in &stream_a {
            sketch_a.insert(s, d, w);
            reference.insert(s, d, w);
            exact.insert(s, d, w);
        }
        for &(s, d, w) in &stream_b {
            sketch_b.insert(s, d, w);
            reference.insert(s, d, w);
            exact.insert(s, d, w);
        }

        sketch_a.merge_from(&sketch_b).unwrap();
        // The merged sketch answers every edge query exactly like the reference sketch.
        for (key, _) in exact.edges() {
            assert_eq!(
                sketch_a.edge_weight(key.source, key.destination),
                reference.edge_weight(key.source, key.destination),
                "edge {key:?}"
            );
        }
        // And successor sets keep translating back to original ids.
        for v in exact.vertices().into_iter().take(100) {
            let merged = sketch_a.successors(v);
            for truth in exact.successors(v) {
                assert!(merged.contains(&truth), "missing successor {truth} of {v}");
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_configurations() {
        let mut a = GssSketch::new(GssConfig::paper_default(32)).unwrap();
        let b = GssSketch::new(GssConfig::paper_default(64)).unwrap();
        assert!(a.merge_from(&b).is_err());
        let c = GssSketch::new(GssConfig::paper_default(32).with_fingerprint_bits(12)).unwrap();
        assert!(a.merge_from(&c).is_err());
    }

    #[test]
    fn hashed_edges_cover_matrix_and_buffer() {
        // A deliberately overloaded 2x2 matrix forces buffered edges.
        let config = GssConfig {
            width: 2,
            rooms: 1,
            sequence_length: 2,
            candidates: 2,
            ..GssConfig::paper_default(2)
        };
        let mut sketch = GssSketch::new(config).unwrap();
        for (s, d, w) in stream(3, 200) {
            sketch.insert(s, d, w);
        }
        assert!(sketch.buffered_edges() > 0);
        assert_eq!(sketch.hashed_edges().len(), sketch.stored_edges());
    }

    /// `merge()` replays each shard's buffer through the insert path, where order decides
    /// placement: two stores fed the same stream must merge to the same bytes, whatever
    /// seeds their buffers' hash maps drew.  Failed at its parent commit for at least one
    /// of the four seeds on every run.
    #[test]
    fn merges_of_equal_sharded_inputs_are_byte_identical() {
        // Overloaded shards (8 × 8 × 1 rooms against ~400 edges each) keep buffers full.
        let build = || crate::GssSketch::builder().width(8).rooms(1).build_sharded(2).unwrap();
        for seed in 1..=4 {
            let items: Vec<_> = stream(seed, 800)
                .into_iter()
                .enumerate()
                .map(|(t, (s, d, w))| gss_graph::StreamEdge::new(s, d, t as u64, w))
                .collect();
            let (first, second) = (build(), build());
            first.insert_batch(&items);
            second.insert_batch(&items);
            let merged = first.merge();
            assert!(merged.buffered_edges() > 0, "seed {seed}: the merge replays a buffer");
            assert!(
                merged.to_snapshot() == second.merge().to_snapshot(),
                "seed {seed}: merged snapshots differ"
            );
        }
    }
}
