//! The read path: the edge lookup, the 1-hop neighbour scan (successors and precursors are
//! one procedure with rows and columns exchanged), and hash → vertex translation.

use super::ingest::{Candidate, MAX_CANDIDATES};
use super::GssSketch;
use crate::config::MAX_SEQUENCE_LENGTH;
use crate::hashing::HashedNode;
use crate::matrix::Room;
use crate::storage::RoomStorage;
use gss_graph::{SummaryRead, SummaryStats, VertexId, Weight};

impl GssSketch {
    /// Translates a set of sketch-node hashes to original vertex ids via the reverse table.
    /// Without id tracking the raw hashes are returned (documented fallback).
    fn hashes_to_vertices(&self, hashes: impl IntoIterator<Item = u64>) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = if self.config.track_node_ids {
            hashes.into_iter().flat_map(|h| self.node_map.vertices_for(h)).collect()
        } else {
            hashes.into_iter().collect()
        };
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The neighbour scan both 1-hop queries share, in the hashed space.  `scan` walks one
    /// line of the matrix (a row for successors, a column for precursors), `own` picks the
    /// half of a room's key that must name the queried node, `other` the half that names
    /// the neighbour; `buffered` are the neighbours the left-over buffer holds.  Generic
    /// over the three so the direction is resolved at the call site, once per query —
    /// the per-room visitor below compares and recovers with no branch on it.
    fn neighbour_hashes(
        &self,
        node: HashedNode,
        scan: impl Fn(&RoomStorage, usize, &mut dyn FnMut(usize, Room)),
        own: impl Fn(&Room) -> (u16, u8),
        other: impl Fn(&Room) -> (u16, u8),
        buffered: Vec<u64>,
    ) -> Vec<u64> {
        let mut result: Vec<u64> = Vec::new();
        let mut addresses = [0usize; MAX_SEQUENCE_LENGTH];
        let count = self.hasher.address_sequence_into(node, &mut addresses);
        for (index, &line) in addresses[..count].iter().enumerate() {
            let wanted = (node.fingerprint, index as u8);
            scan(&self.matrix, line, &mut |position, room| {
                if own(&room) == wanted {
                    let (fingerprint, index) = other(&room);
                    result.push(self.hasher.recover_hash(position, fingerprint, index.into()));
                }
            });
        }
        result.extend(buffered);
        result.sort_unstable();
        result.dedup();
        result
    }

    /// 1-hop successor query in the *hashed* space: the sketch-node hashes reported as
    /// out-neighbours of `H(v)`.  Exposed for analysis; most callers want
    /// [`successors`](SummaryRead::successors).
    pub fn successor_hashes(&self, vertex: VertexId) -> Vec<u64> {
        let node = self.hasher.hashed_node(vertex);
        let buffered = self.buffer.successors(node.hash);
        self.neighbour_hashes(
            node,
            RoomStorage::scan_row,
            Room::source_half,
            Room::destination_half,
            buffered,
        )
    }

    /// 1-hop precursor query in the hashed space: the same scan with rows and columns
    /// (and the two halves of the key) exchanged.
    pub fn precursor_hashes(&self, vertex: VertexId) -> Vec<u64> {
        let node = self.hasher.hashed_node(vertex);
        let buffered = self.buffer.precursors(node.hash);
        self.neighbour_hashes(
            node,
            RoomStorage::scan_column,
            Room::destination_half,
            Room::source_half,
            buffered,
        )
    }
}

impl SummaryRead for GssSketch {
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        let source = self.hasher.hashed_node(source);
        let destination = self.hasher.hashed_node(destination);
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        let count = self.collect_candidates(source, destination, &mut candidates);
        for candidate in &candidates[..count] {
            let key = candidate.key(source, destination);
            if let Some(weight) = self.matrix.weight_of(candidate.row, candidate.column, key) {
                return Some(weight);
            }
        }
        self.buffer.edge_weight(source.hash, destination.hash)
    }

    fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        self.hashes_to_vertices(self.successor_hashes(vertex))
    }

    fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        self.hashes_to_vertices(self.precursor_hashes(vertex))
    }

    fn stats(&self) -> SummaryStats {
        SummaryStats {
            bytes: self.memory_bytes(),
            items_inserted: self.items_inserted,
            slots: self.matrix.room_count(),
            occupied_slots: self.matrix.occupied_rooms(),
            buffered_edges: self.buffer.len(),
        }
    }

    fn name(&self) -> String {
        format!(
            "GSS(fsize={},w={},l={},r={},k={}{}{})",
            self.config.fingerprint_bits,
            self.config.width,
            self.config.rooms,
            self.config.sequence_length,
            self.config.candidates,
            if self.config.square_hashing { "" } else { ",basic" },
            if self.config.sampling { "" } else { ",no-sampling" },
        )
    }
}
