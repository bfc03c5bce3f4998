//! Detailed structural statistics of a GSS sketch.
//!
//! The buffer-percentage experiment (Fig. 13) and the memory accounting of the equal-memory
//! comparisons both read these numbers.  The runtime fields (`wal_bytes` onwards) of a
//! file-backed sketch are read from its store's one
//! [`StoreCounters`](crate::metrics::StoreCounters) set, plus the log size and health flag.

use serde::{Deserialize, Serialize};

/// A snapshot of a sketch's internal occupancy and memory usage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GssStats {
    /// Matrix side length `m`.
    pub width: usize,
    /// Rooms per bucket `l`.
    pub rooms_per_bucket: usize,
    /// Fingerprint length in bits.
    pub fingerprint_bits: u32,
    /// Stream items inserted so far.
    pub items_inserted: u64,
    /// Distinct sketch edges stored in the matrix.
    pub matrix_edges: usize,
    /// Distinct sketch edges stored in the left-over buffer.
    pub buffered_edges: usize,
    /// `buffered_edges / (matrix_edges + buffered_edges)`, the metric plotted in Fig. 13.
    pub buffer_percentage: f64,
    /// Fraction of matrix rooms occupied.
    pub matrix_load_factor: f64,
    /// Matrix bytes under the paper's storage layout.
    pub matrix_bytes: usize,
    /// Bytes of the bucket-occupancy bitmaps steering row/column scans (an acceleration
    /// structure outside the paper's layout, so excluded from equal-memory comparisons).
    pub occupancy_index_bytes: usize,
    /// Buffer bytes (adjacency lists + indices).
    pub buffer_bytes: usize,
    /// Heap bytes the `⟨H(v), v⟩` reverse table holds: its slot capacity × 16, the
    /// allocation itself rather than an estimate from the entry count (see
    /// [`NodeIdMap::bytes`](crate::node_map::NodeIdMap::bytes)).
    pub node_map_bytes: usize,
    /// Number of distinct original vertices registered in the reverse table.
    pub distinct_hashed_nodes: usize,
    /// Number of hash values shared by two or more original vertices (node collisions).
    pub colliding_hashes: usize,
    /// Current write-ahead-log bytes of a file-backed sketch (0 for in-memory).
    pub wal_bytes: u64,
    /// Drains of the write-ahead log's pending frames into the log file: one per
    /// group-commit round (a round carries the frames of every writer committing in
    /// its window, so this is at most — not exactly — one per insert or batch), plus
    /// one ahead of any page write-back the pending frames cover and one per checkpoint.
    pub wal_flushes: u64,
    /// Group-commit rounds this sketch's log led (each round drains the pending window
    /// of every committing writer in one positioned write).
    pub wal_group_commits: u64,
    /// Commits that parked behind an in-flight group-commit round instead of draining
    /// themselves — the group-commit batching win in one number.
    pub wal_group_waits: u64,
    /// `fdatasync` calls issued for this sketch's log by the group-commit cadence
    /// (`GroupCommit { max_delay_us, max_bytes }`) and by checkpoints.
    pub fsyncs: u64,
    /// Dirty pages written back to the sketch file — always on the calling thread, at
    /// eviction or checkpoint.
    pub pages_flushed: u64,
    /// Completed checkpoints of the sketch file.
    pub checkpoints: u64,
    /// Page-cache lookups of a file-backed sketch (0 for in-memory).
    pub page_lookups: u64,
    /// Page-cache lookups that missed and read the page from disk.
    pub page_faults: u64,
    /// Page-latch acquisitions that blocked behind another thread (contention between
    /// concurrent readers and the writer; 0 under a single thread).
    pub page_latch_waits: u64,
    /// Transient I/O errors (`EINTR`, short reads) absorbed by the pager's bounded
    /// retry loop instead of surfacing to callers.
    pub io_retries: u64,
    /// Faults injected by the deterministic fault plan ([`crate::pager::faults`]);
    /// always 0 outside fault-injection runs.
    pub injected_faults: u64,
    /// 1 when the store has fail-stopped (sticky poisoned state after an unrecoverable
    /// I/O failure), else 0; summed across shards it counts poisoned shards.
    pub store_poisoned: u64,
}

impl GssStats {
    /// Total bytes across matrix, occupancy index, buffer and reverse table.
    pub fn total_bytes(&self) -> usize {
        self.matrix_bytes + self.occupancy_index_bytes + self.buffer_bytes + self.node_map_bytes
    }

    /// The shard sum: counters and byte sizes add up, the geometry fields stay `self`'s
    /// (they are per shard), `buffer_percentage` is recomputed from the summed edge counts
    /// and `matrix_load_factor` is the room-weighted mean (`matrix_bytes` is proportional
    /// to the room count).  A vertex hashed in several shards is counted once per shard.
    pub fn merged_with(&self, other: &GssStats) -> GssStats {
        let (matrix_edges, buffered_edges) =
            (self.matrix_edges + other.matrix_edges, self.buffered_edges + other.buffered_edges);
        let stored = matrix_edges + buffered_edges;
        let (own_rooms, other_rooms) = (self.matrix_bytes as f64, other.matrix_bytes as f64);
        // A full literal on purpose (no `..`): a field added to the struct does not
        // compile here until the shard sum says what becomes of it.
        GssStats {
            width: self.width,
            rooms_per_bucket: self.rooms_per_bucket,
            fingerprint_bits: self.fingerprint_bits,
            matrix_edges,
            buffered_edges,
            buffer_percentage: if stored == 0 {
                0.0
            } else {
                buffered_edges as f64 / stored as f64
            },
            matrix_load_factor: if own_rooms + other_rooms == 0.0 {
                0.0
            } else {
                (self.matrix_load_factor * own_rooms + other.matrix_load_factor * other_rooms)
                    / (own_rooms + other_rooms)
            },
            items_inserted: self.items_inserted + other.items_inserted,
            matrix_bytes: self.matrix_bytes + other.matrix_bytes,
            occupancy_index_bytes: self.occupancy_index_bytes + other.occupancy_index_bytes,
            buffer_bytes: self.buffer_bytes + other.buffer_bytes,
            node_map_bytes: self.node_map_bytes + other.node_map_bytes,
            distinct_hashed_nodes: self.distinct_hashed_nodes + other.distinct_hashed_nodes,
            colliding_hashes: self.colliding_hashes + other.colliding_hashes,
            wal_bytes: self.wal_bytes + other.wal_bytes,
            wal_flushes: self.wal_flushes + other.wal_flushes,
            wal_group_commits: self.wal_group_commits + other.wal_group_commits,
            wal_group_waits: self.wal_group_waits + other.wal_group_waits,
            fsyncs: self.fsyncs + other.fsyncs,
            pages_flushed: self.pages_flushed + other.pages_flushed,
            checkpoints: self.checkpoints + other.checkpoints,
            page_lookups: self.page_lookups + other.page_lookups,
            page_faults: self.page_faults + other.page_faults,
            page_latch_waits: self.page_latch_waits + other.page_latch_waits,
            io_retries: self.io_retries + other.io_retries,
            injected_faults: self.injected_faults + other.injected_faults,
            store_poisoned: self.store_poisoned + other.store_poisoned,
        }
    }

    /// Fraction of original vertices involved in at least one hash collision, a cheap proxy
    /// for the `M ≫ |V|` requirement discussed in Section IV.
    pub fn node_collision_rate(&self) -> f64 {
        if self.distinct_hashed_nodes == 0 {
            0.0
        } else {
            self.colliding_hashes as f64 / self.distinct_hashed_nodes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GssStats {
        GssStats {
            width: 100,
            rooms_per_bucket: 2,
            fingerprint_bits: 16,
            items_inserted: 1000,
            matrix_edges: 900,
            buffered_edges: 100,
            buffer_percentage: 0.1,
            matrix_load_factor: 0.045,
            matrix_bytes: 260_000,
            occupancy_index_bytes: 3_200,
            buffer_bytes: 2_400,
            node_map_bytes: 16_000,
            distinct_hashed_nodes: 500,
            colliding_hashes: 5,
            wal_bytes: 4_096,
            wal_flushes: 12,
            wal_group_commits: 10,
            wal_group_waits: 2,
            fsyncs: 4,
            pages_flushed: 30,
            checkpoints: 2,
            page_lookups: 480,
            page_faults: 35,
            page_latch_waits: 0,
            io_retries: 1,
            injected_faults: 0,
            store_poisoned: 0,
        }
    }

    #[test]
    fn total_bytes_sums_components() {
        assert_eq!(sample().total_bytes(), 260_000 + 3_200 + 2_400 + 16_000);
    }

    #[test]
    fn merged_with_sums_counters_and_rederives_the_ratios() {
        let other = GssStats {
            matrix_edges: 100,
            buffered_edges: 300,
            matrix_load_factor: 0.005,
            checkpoints: 5,
            ..sample()
        };
        let total = sample().merged_with(&other);
        assert_eq!(total.width, 100, "geometry is per shard");
        assert_eq!(total.items_inserted, 2000);
        assert_eq!(total.matrix_edges, 1000);
        assert_eq!(total.buffered_edges, 400);
        assert_eq!(total.matrix_bytes, 520_000);
        assert_eq!(total.checkpoints, 7);
        assert_eq!(total.store_poisoned, 0);
        assert!((total.buffer_percentage - 400.0 / 1400.0).abs() < 1e-12);
        assert!((total.matrix_load_factor - 0.025).abs() < 1e-12, "equal shards: the mean");
    }

    #[test]
    fn node_collision_rate_is_fraction_of_nodes() {
        assert!((sample().node_collision_rate() - 0.01).abs() < 1e-12);
        let empty = GssStats { distinct_hashed_nodes: 0, colliding_hashes: 0, ..sample() };
        assert_eq!(empty.node_collision_rate(), 0.0);
    }
}
