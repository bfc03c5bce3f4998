//! The GSS sketch itself: insertion and the three query primitives.
//!
//! This is the full augmented structure of Section V — square hashing, candidate-bucket
//! sampling and multiple rooms — with the basic version of Section IV available by
//! constructing it from [`GssConfig::basic`].  The implementation follows the paper's
//! procedures closely:
//!
//! * **Edge updating** — map both endpoints with `H(·)`, derive the candidate buckets from
//!   the two address sequences, walk them in order, add the weight to a room holding the
//!   same fingerprint pair *and* index pair, otherwise claim the first free room, otherwise
//!   spill to the buffer.  Because rooms are never freed, stopping at the first free room
//!   can never split an edge across two rooms, so Theorem 1 (the storage of `G_h` is exact)
//!   holds — including under deletions, which set weights to zero but keep the room
//!   occupied.
//! * **Edge query** — probe the same candidates, then the buffer.
//! * **1-hop successor / precursor query** — scan the `r` rows (columns) of the node's
//!   address sequence, filter rooms by fingerprint and index, reverse the linear-congruential
//!   mapping to recover the neighbour's hash, then translate hashes back to original vertex
//!   ids through the `⟨H(v), v⟩` table.
//!
//! The module is split along the paper's procedures: this file holds the struct, its
//! construction / reopen / checkpoint lifecycle and the accessors; `ingest.rs` the write
//! path (candidate buckets, edge placement, the staged and batched inserts, WAL commit
//! and acknowledgement); `query.rs` the read path (edge lookup, the neighbour scan, hash
//! → vertex translation).

mod ingest;
mod query;

use crate::buffer::LeftoverBuffer;
use crate::config::{GroupCommit, GssConfig};
use crate::error::{ConfigError, DurabilityReport};
use crate::file_store::FileStore;
use crate::group_commit::GroupCommitter;
use crate::hashing::NodeHasher;
use crate::matrix::MemoryStore;
use crate::metrics::{self, StoreCounters};
use crate::node_map::NodeIdMap;
use crate::persistence::PersistenceError;
use crate::stats::GssStats;
use crate::storage::{RoomStorage, StorageBackend};
use std::path::Path;
use std::sync::Arc;

/// Graph Stream Sketch (GSS), the data structure proposed by the paper.
///
/// The room matrix lives behind the pluggable [`RoomStorage`] backend: dense in-memory by
/// default, or a paged sketch file ([`StorageBackend::File`]) for matrices larger than
/// RAM.  Cloning a file-backed sketch detaches the clone into memory; the file itself is
/// owned by the original and checkpointed by [`sync`](Self::sync) (also run on drop).
///
/// File-backed sketches are crash-consistent: every mutation is write-ahead logged
/// (see the `wal` module) and the log is drained before an insert returns, so a killed
/// process reopens its sketch file via [`open_file`](Self::open_file) having lost
/// nothing acknowledged.
#[derive(Debug, Clone)]
pub struct GssSketch {
    config: GssConfig,
    hasher: NodeHasher,
    matrix: RoomStorage,
    buffer: LeftoverBuffer,
    node_map: NodeIdMap,
    items_inserted: u64,
    /// Log size at which ingest checkpoints automatically (bounds WAL growth).
    wal_checkpoint_bytes: u64,
    /// Cleared by [`abandon`](Self::abandon) so drop simulates a crash.
    sync_on_drop: bool,
}

impl GssSketch {
    /// Builds an in-memory sketch from a validated configuration.
    pub fn new(config: GssConfig) -> Result<Self, ConfigError> {
        Self::with_storage(config, StorageBackend::Memory)
    }

    /// Builds a sketch from a validated configuration with an explicit storage backend.
    ///
    /// [`StorageBackend::File`] creates (truncating) a paged sketch file at the given
    /// path; use [`open_file`](Self::open_file) to reopen an existing one.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid or the sketch file
    /// cannot be created (the I/O failure is carried in the message).
    pub fn with_storage(config: GssConfig, storage: StorageBackend) -> Result<Self, ConfigError> {
        Self::with_storage_grouped(config, storage, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`with_storage`](Self::with_storage) against a caller-supplied group-commit
    /// coordinator, so several file-backed sketches — the shards of a
    /// [`crate::ShardedGss`] — share one fsync schedule: a single cadence sync covers
    /// every log that wrote since the last one.  Ignored by the in-memory backend.
    ///
    /// # Errors
    /// As [`with_storage`](Self::with_storage).
    pub(crate) fn with_storage_grouped(
        config: GssConfig,
        storage: StorageBackend,
        group: Arc<GroupCommitter>,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let matrix = match storage {
            StorageBackend::Memory => {
                RoomStorage::Memory(MemoryStore::new(config.width, config.rooms))
            }
            StorageBackend::File { path, cache_pages } => RoomStorage::File(Box::new(
                FileStore::create(&path, &config, cache_pages, group).map_err(|error| {
                    ConfigError::new(format!(
                        "cannot create sketch file {}: {error}",
                        path.display()
                    ))
                })?,
            )),
        };
        Ok(Self::from_parts(config, matrix))
    }

    /// Assembles a sketch around an existing store (shared by construction and reopen).
    fn from_parts(config: GssConfig, matrix: RoomStorage) -> Self {
        Self {
            hasher: NodeHasher::new(&config),
            matrix,
            buffer: LeftoverBuffer::new(),
            node_map: NodeIdMap::new(),
            items_inserted: 0,
            wal_checkpoint_bytes: crate::config::WAL_CHECKPOINT_BYTES,
            sync_on_drop: true,
            config,
        }
    }

    /// Reopens a file-backed sketch **in place**: the sketch file written by a previous
    /// file-backed run (and checkpointed by [`sync`](Self::sync) or drop) becomes this
    /// sketch's live storage with no per-room decode or insert pass — open streams the
    /// room region once to rebuild the in-memory bucket-occupancy index (sequential
    /// occupancy-flag reads), then decodes only the buffer and node table.
    ///
    /// An **unclean** file (the process died before its last checkpoint) is recovered by
    /// replaying the write-ahead log — see the `wal` module; only an unclean file with no
    /// usable log is rejected.
    ///
    /// The file (and its log) must not be open in any other process: recovery mutates,
    /// so opening a *live* ingester's file would corrupt it.  A second opener is refused
    /// with an I/O error naming the owning process while the first holds the file's
    /// `<path>.lock` sidecar.  Use snapshots to share live state.
    ///
    /// # Errors
    /// Returns a [`PersistenceError`] if the file is missing, truncated, from a different
    /// format version, unrecoverably unclean, or structurally inconsistent.
    pub fn open_file(path: impl AsRef<Path>, cache_pages: usize) -> Result<Self, PersistenceError> {
        Self::open_file_grouped(path, cache_pages, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`open_file`](Self::open_file) against a caller-supplied group-commit coordinator
    /// (see [`with_storage_grouped`](Self::with_storage_grouped)).
    ///
    /// # Errors
    /// As [`open_file`](Self::open_file).
    pub(crate) fn open_file_grouped(
        path: impl AsRef<Path>,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> Result<Self, PersistenceError> {
        // The store decoded the tail before returning, so nothing below can fail: a
        // rejected file never gets a half-built sketch whose drop would checkpoint over it.
        let (store, header) = FileStore::open(path.as_ref(), cache_pages, group)?;
        let mut sketch = Self::from_parts(header.config, RoomStorage::File(Box::new(store)));
        sketch.buffer = header.buffer;
        sketch.node_map = header.node_map;
        sketch.items_inserted = header.items_inserted;
        Ok(sketch)
    }

    /// Mutable access to the buffer and node table together (used by persistence to
    /// stream tail sections into a sketch it is restoring).  Nothing streamed in is
    /// logged: the restore must log a frame of its own before it syncs.
    pub(crate) fn tail_parts_mut(&mut self) -> (&mut LeftoverBuffer, &mut NodeIdMap) {
        (&mut self.buffer, &mut self.node_map)
    }

    /// Read access to the left-over buffer (used by persistence and merging).
    pub(crate) fn buffer(&self) -> &LeftoverBuffer {
        &self.buffer
    }

    /// Checkpoints a file-backed sketch: logs the tail image to the write-ahead log,
    /// flushes dirty pages, rewrites the tail, marks the file clean and truncates the
    /// log (see `FileStore::checkpoint`).  A sketch unchanged since its last checkpoint
    /// returns without touching the file; a no-op for in-memory sketches.  Runs
    /// automatically on drop (ignoring errors there — call `sync` explicitly when
    /// durability must be confirmed).
    ///
    /// # Errors
    /// Returns [`PersistenceError::Io`] if the file cannot be written.
    pub fn sync(&mut self) -> Result<(), PersistenceError> {
        if let RoomStorage::File(store) = &self.matrix {
            store
                .checkpoint(self.items_inserted, &self.buffer, &self.node_map)
                .map_err(|error| PersistenceError::Io(error.to_string()))?;
        }
        Ok(())
    }

    /// Drops the sketch **without** checkpointing: the backing file and its write-ahead
    /// log are left exactly as a `SIGKILL` at this point would leave them.  Crash tests
    /// and the `durability_cost` recovery bench use this; for in-memory sketches it is a
    /// plain drop.
    pub fn abandon(mut self) {
        self.sync_on_drop = false;
    }

    /// Which storage backend the matrix uses (`"memory"` or `"file"`).
    pub fn storage_backend(&self) -> &'static str {
        self.matrix.backend_name()
    }

    /// The room storage behind this sketch — white-box access for benches and equivalence
    /// tests (naive reference scans, page-cache statistics via
    /// [`RoomStorage::as_file`]).
    pub fn room_storage(&self) -> &RoomStorage {
        &self.matrix
    }

    /// The configuration this sketch was built with.
    pub fn config(&self) -> &GssConfig {
        &self.config
    }

    /// The node hasher (exposed for analysis and white-box tests).
    pub fn hasher(&self) -> &NodeHasher {
        &self.hasher
    }

    /// Number of stream items inserted so far.
    pub fn items_inserted(&self) -> u64 {
        self.items_inserted
    }

    /// Number of distinct sketch edges currently stored (matrix + buffer).
    pub fn stored_edges(&self) -> usize {
        self.matrix.occupied_rooms() + self.buffer.len()
    }

    /// Number of sketch edges that had to be stored in the left-over buffer.
    pub fn buffered_edges(&self) -> usize {
        self.buffer.len()
    }

    /// Buffer percentage as defined in Section VII-B: buffered edges divided by the total
    /// number of distinct edges stored.
    pub fn buffer_percentage(&self) -> f64 {
        let total = self.stored_edges();
        if total == 0 {
            0.0
        } else {
            self.buffer.len() as f64 / total as f64
        }
    }

    /// Detailed structural statistics.  The runtime fields of a file-backed sketch are
    /// read straight from its store's `StoreCounters`; an in-memory sketch has no
    /// store, so it reads an idle set and reports them all as 0.
    pub fn detailed_stats(&self) -> GssStats {
        let (file, idle) = (self.matrix.as_file(), StoreCounters::default());
        let counters = file.map_or(&idle, FileStore::counters);
        GssStats {
            wal_bytes: file.map_or(0, FileStore::wal_bytes),
            wal_flushes: metrics::get(&counters.wal_flushes),
            wal_group_commits: metrics::get(&counters.wal_group_commits),
            wal_group_waits: metrics::get(&counters.wal_group_waits),
            fsyncs: metrics::get(&counters.fsyncs),
            pages_flushed: metrics::get(&counters.pages_flushed),
            checkpoints: metrics::get(&counters.checkpoints),
            page_lookups: metrics::get(&counters.page_lookups),
            page_faults: metrics::get(&counters.page_faults),
            page_latch_waits: metrics::get(&counters.page_latch_waits),
            io_retries: metrics::get(&counters.io_retries),
            injected_faults: metrics::get(&counters.injected_faults),
            store_poisoned: u64::from(self.is_poisoned()),
            width: self.config.width,
            rooms_per_bucket: self.config.rooms,
            fingerprint_bits: self.config.fingerprint_bits,
            items_inserted: self.items_inserted,
            matrix_edges: self.matrix.occupied_rooms(),
            buffered_edges: self.buffer.len(),
            buffer_percentage: self.buffer_percentage(),
            matrix_load_factor: self.matrix.load_factor(),
            matrix_bytes: self.config.matrix_bytes(),
            occupancy_index_bytes: self.config.occupancy_index_bytes(),
            buffer_bytes: self.buffer.bytes(),
            node_map_bytes: self.node_map.bytes(),
            distinct_hashed_nodes: self.node_map.len(),
            colliding_hashes: self.node_map.colliding_hashes(),
        }
    }

    /// Memory footprint in bytes under the paper's storage layout (matrix + buffer,
    /// excluding the optional node-id table).  This is the quantity the equal-memory
    /// comparisons of Section VII are based on.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.config.matrix_bytes() + self.buffer.bytes()
    }

    /// Overrides the write-ahead-log size at which the sketch checkpoints itself during
    /// ingest (default `WAL_CHECKPOINT_BYTES`; clamped to at least 1).
    pub fn set_wal_checkpoint_bytes(&mut self, bytes: u64) {
        self.wal_checkpoint_bytes = bytes.max(1);
    }

    /// Read access to the `⟨H(v), v⟩` table (used by persistence).
    pub(crate) fn node_map(&self) -> &NodeIdMap {
        &self.node_map
    }

    /// Write access to the room storage (used by persistence to place the rooms of a
    /// sketch it is restoring).
    pub(crate) fn rooms_mut(&mut self) -> &mut RoomStorage {
        &mut self.matrix
    }

    /// Whether the backing store has fail-stopped (always `false` for in-memory
    /// sketches).
    pub fn is_poisoned(&self) -> bool {
        self.matrix.as_file().is_some_and(|store| store.health().is_poisoned())
    }

    /// The honest durability account of a file-backed sketch (all-zero for in-memory
    /// sketches): acknowledged items, items covered by a durable log image, and — after
    /// a fault — the acknowledged-but-possibly-lost difference.
    pub fn durability_report(&self) -> DurabilityReport {
        self.matrix.as_file().map(FileStore::durability_report).unwrap_or_default()
    }
}

/// File-backed sketches checkpoint themselves when dropped, so "build, fill, drop,
/// reopen" works without an explicit [`GssSketch::sync`].  Failures are ignored here
/// (drop cannot report them); sync explicitly when durability must be confirmed.
/// [`GssSketch::abandon`] suppresses the checkpoint to simulate a crash.
impl Drop for GssSketch {
    fn drop(&mut self) {
        if self.sync_on_drop {
            let _ = self.sync();
        }
    }
}

#[cfg(test)]
mod tests;
