//! Fluent construction of GSS sketches.
//!
//! [`GssBuilder`] is the documented entry point for building a sketch, replacing the
//! `GssConfig::paper_default` / `GssSketch::new` two-step: start from the paper's
//! evaluation defaults, override the knobs you care about, and `build()` — validation
//! happens once, at the end.
//!
//! ```
//! use gss_core::GssSketch;
//! use gss_graph::{SummaryRead, SummaryWrite};
//!
//! let mut sketch = GssSketch::builder()
//!     .width(256)
//!     .rooms(2)
//!     .fingerprint_bits(12)
//!     .build()
//!     .expect("valid configuration");
//! sketch.insert(1, 2, 3);
//! assert_eq!(sketch.edge_weight(1, 2), Some(3));
//! ```

use crate::concurrent::ShardedGss;
use crate::config::{Durability, GroupCommit, GssConfig};
use crate::error::ConfigError;
use crate::group_commit::GroupCommitter;
use crate::sketch::GssSketch;
use crate::storage::StorageBackend;
use std::path::PathBuf;

/// Fluent builder for [`GssSketch`] (and its sharded concurrent variant).
///
/// Obtained from [`GssSketch::builder`]; every knob defaults to the paper's Section VII
/// evaluation setting (`l = 2`, `r = k = 16`, 16-bit fingerprints, square hashing and
/// candidate sampling on, node-id tracking on) at a matrix width of 1000, with the room
/// matrix stored in memory.  Use [`storage`](Self::storage) /
/// [`storage_file`](Self::storage_file) to put the matrix in a paged sketch file instead.
#[derive(Debug, Clone)]
pub struct GssBuilder {
    config: GssConfig,
    storage: StorageBackend,
    wal_checkpoint_bytes: u64,
    group_commit: GroupCommit,
}

impl Default for GssBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GssBuilder {
    /// Starts from the paper's default configuration.
    pub fn new() -> Self {
        Self {
            config: GssConfig::default(),
            storage: StorageBackend::Memory,
            wal_checkpoint_bytes: crate::config::WAL_CHECKPOINT_BYTES,
            group_commit: GroupCommit::default(),
        }
    }

    /// Starts from an explicit configuration (e.g. [`GssConfig::paper_small`] or
    /// [`GssConfig::basic`]).
    pub fn from_config(config: GssConfig) -> Self {
        Self { config, ..Self::new() }
    }

    /// Matrix side length `m`.
    pub fn width(mut self, width: usize) -> Self {
        self.config.width = width;
        self
    }

    /// Rooms per bucket `l` (Section V-B2).
    pub fn rooms(mut self, rooms: usize) -> Self {
        self.config.rooms = rooms;
        self
    }

    /// Fingerprint length in bits (`F = 2^bits`; 12 and 16 in the paper).
    pub fn fingerprint_bits(mut self, bits: u32) -> Self {
        self.config.fingerprint_bits = bits;
        self
    }

    /// Length `r` of the square-hashing address sequence (Section V-A).
    pub fn sequence_length(mut self, r: usize) -> Self {
        self.config.sequence_length = r;
        self
    }

    /// Number `k` of sampled candidate buckets per edge (Section V-B1).
    pub fn candidates(mut self, k: usize) -> Self {
        self.config.candidates = k;
        self
    }

    /// Enables or disables square hashing.  Disabling it yields the basic version of
    /// Section IV (and normalises the dependent knobs, like
    /// [`GssConfig::with_square_hashing`]).
    pub fn square_hashing(mut self, enabled: bool) -> Self {
        self.config = self.config.with_square_hashing(enabled);
        self
    }

    /// Enables or disables candidate-bucket sampling.
    pub fn sampling(mut self, enabled: bool) -> Self {
        self.config.sampling = enabled;
        self
    }

    /// Enables or disables the `⟨H(v), v⟩` reverse table (required for successor/precursor
    /// answers in the original id space).
    pub fn track_node_ids(mut self, enabled: bool) -> Self {
        self.config.track_node_ids = enabled;
        self
    }

    /// Seed mixed into the node hash function.
    pub fn hash_seed(mut self, seed: u64) -> Self {
        self.config.hash_seed = seed;
        self
    }

    /// Where the room matrix lives: [`StorageBackend::Memory`] (default) or
    /// [`StorageBackend::File`] for a paged, larger-than-RAM sketch file.
    pub fn storage(mut self, storage: StorageBackend) -> Self {
        self.storage = storage;
        self
    }

    /// Shorthand for [`storage`](Self::storage) with a file backend at `path` and the
    /// default page-cache size.
    pub fn storage_file(self, path: impl Into<PathBuf>) -> Self {
        self.storage(StorageBackend::file(path))
    }

    /// Namespace-friendly file storage: the sketch file lives at `<dir>/<name>.gss`, so
    /// the file name carries the namespace name (which also makes
    /// [`crate::pager::faults`] path-token scoping line up with tenant names — the
    /// `gss-server` tenant layout and its isolation tests rely on this).  Sharded
    /// builds fan out to `<dir>/<name>.gss.shardN` as usual.
    pub fn storage_dir(self, dir: impl Into<PathBuf>, name: &str) -> Self {
        self.storage_file(dir.into().join(format!("{name}.gss")))
    }

    /// Accepts the durability policy of a file-backed sketch.  [`Durability`] has the
    /// single variant `Strict` — the write-ahead log drains and evicted pages are
    /// written back synchronously on the ingest path, zero acknowledged-item loss under
    /// `SIGKILL` — so this call changes nothing; it is kept for callers that spell the
    /// policy out.
    pub fn durability(self, _durability: Durability) -> Self {
        self
    }

    /// Write-ahead-log size at which a file-backed sketch checkpoints itself during
    /// ingest (default [`crate::config::WAL_CHECKPOINT_BYTES`], 64 MiB), bounding
    /// sidecar-log disk use and crash-recovery replay time for runs that never call
    /// [`GssSketch::sync`] explicitly.  Ignored by the in-memory backend.
    pub fn wal_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.wal_checkpoint_bytes = bytes;
        self
    }

    /// Scheduling knob of the write-ahead log's group-commit coordinator (default
    /// [`GroupCommit::default`]: sync every 256 KiB of drained log or 20 ms, whichever
    /// comes first).  A sharded build shares one coordinator across all shard logs, so
    /// a single cadence `fdatasync` covers every shard that wrote in the window.
    /// Zero in either field forces a sync on every drain round.  Ignored by the
    /// in-memory backend.
    pub fn group_commit(mut self, knob: GroupCommit) -> Self {
        self.group_commit = knob;
        self
    }

    /// The configuration accumulated so far (not yet validated).
    pub fn config(&self) -> GssConfig {
        self.config
    }

    /// Validates the configuration and builds the sketch on the selected storage backend.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] describing the first invalid knob, or carrying the I/O
    /// failure if a sketch file cannot be created.
    pub fn build(self) -> Result<GssSketch, ConfigError> {
        let mut sketch = GssSketch::with_storage_grouped(
            self.config,
            self.storage,
            GroupCommitter::new(self.group_commit),
        )?;
        sketch.set_wal_checkpoint_bytes(self.wal_checkpoint_bytes);
        Ok(sketch)
    }

    /// Validates the configuration and builds a [`ShardedGss`] with `shards` concurrent
    /// ingest shards on the selected storage backend (a file backend fans out to one
    /// file per shard).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid, `shards == 0`, or a
    /// shard file cannot be created.
    pub fn build_sharded(self, shards: usize) -> Result<ShardedGss, ConfigError> {
        let sharded = ShardedGss::with_storage_grouped(
            self.config,
            shards,
            &self.storage,
            self.group_commit,
        )?;
        sharded.set_wal_checkpoint_bytes(self.wal_checkpoint_bytes);
        Ok(sharded)
    }

    /// Like [`build_sharded`](Self::build_sharded), but holds **total** matrix memory at
    /// the budget of a single sketch by shrinking each shard's width to `width / √shards`
    /// ([`GssConfig::equal_memory_width`]) — the equal-memory comparison mode, and the one
    /// place the width rule meets shard construction.  The narrower per-shard matrix
    /// raises per-shard load factor, trading a little accuracy headroom for a fair budget.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid, `shards == 0`, or a
    /// shard file cannot be created.
    pub fn build_sharded_equal_memory(mut self, shards: usize) -> Result<ShardedGss, ConfigError> {
        self.config.width = self.config.equal_memory_width(shards);
        self.build_sharded(shards)
    }
}

impl GssSketch {
    /// Starts a fluent [`GssBuilder`] seeded with the paper's default parameters.
    pub fn builder() -> GssBuilder {
        GssBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gss_graph::{SummaryRead, SummaryWrite};

    #[test]
    fn builder_defaults_match_the_paper_configuration() {
        let sketch = GssSketch::builder().width(64).build().unwrap();
        assert_eq!(sketch.config(), &GssConfig::paper_default(64));
    }

    #[test]
    fn builder_overrides_every_knob() {
        let config = GssSketch::builder()
            .width(200)
            .rooms(3)
            .fingerprint_bits(12)
            .sequence_length(8)
            .candidates(8)
            .sampling(false)
            .track_node_ids(false)
            .hash_seed(42)
            .config();
        assert_eq!(config.width, 200);
        assert_eq!(config.rooms, 3);
        assert_eq!(config.fingerprint_bits, 12);
        assert_eq!(config.sequence_length, 8);
        assert_eq!(config.candidates, 8);
        assert!(!config.sampling);
        assert!(!config.track_node_ids);
        assert_eq!(config.hash_seed, 42);
    }

    #[test]
    fn disabling_square_hashing_normalises_dependent_knobs() {
        let config = GssSketch::builder().width(32).square_hashing(false).config();
        assert!(!config.square_hashing);
        assert_eq!(config.sequence_length, 1);
        assert_eq!(config.candidates, 1);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn invalid_configurations_surface_at_build_time() {
        assert!(GssSketch::builder().width(0).build().is_err());
        assert!(GssSketch::builder().fingerprint_bits(40).build().is_err());
        assert!(GssSketch::builder().width(16).build_sharded(0).is_err());
    }

    #[test]
    fn equal_memory_sharding_shrinks_per_shard_width() {
        let sharded = GssSketch::builder().width(100).build_sharded_equal_memory(4).unwrap();
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.config().width, 50);
        sharded.insert(1, 2, 3);
        assert_eq!(sharded.edge_weight(1, 2), Some(3));
        assert!(GssSketch::builder().width(100).build_sharded_equal_memory(0).is_err());
    }

    #[test]
    fn storage_dir_places_the_file_under_the_namespace_name() {
        let dir = std::env::temp_dir().join(format!("gss-builder-{}-ns", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut sketch =
            GssSketch::builder().width(32).storage_dir(&dir, "tenant-a").build().unwrap();
        sketch.insert(5, 6, 2);
        drop(sketch);
        let path = dir.join("tenant-a.gss");
        assert!(path.exists(), "sketch file must carry the namespace name");
        let reopened = GssSketch::open_file(&path, 8).unwrap();
        assert_eq!(reopened.edge_weight(5, 6), Some(2));
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_storage_builds_and_reports_backend() {
        let path =
            std::env::temp_dir().join(format!("gss-builder-{}-file.gss", std::process::id()));
        let mut sketch = GssSketch::builder().width(32).storage_file(&path).build().unwrap();
        assert_eq!(sketch.storage_backend(), "file");
        sketch.insert(1, 2, 9);
        assert_eq!(sketch.edge_weight(1, 2), Some(9));
        drop(sketch);
        let reopened = GssSketch::open_file(&path, 8).unwrap();
        assert_eq!(reopened.edge_weight(1, 2), Some(9));
        drop(reopened);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::wal::wal_path(&path)).ok();
        // An uncreatable path surfaces as a ConfigError carrying the I/O failure.
        let bad =
            GssSketch::builder().width(8).storage_file("/nonexistent-gss-dir/sketch.gss").build();
        assert!(bad.unwrap_err().to_string().contains("sketch file"));
    }

    #[test]
    fn group_commit_knob_reaches_the_shard_log() {
        let path =
            std::env::temp_dir().join(format!("gss-builder-{}-group.gss", std::process::id()));
        // A zero budget in either field forces a sync on every drain round, so two
        // strict inserts must show up as (at least) two group commits and two fsyncs.
        let mut sketch = GssSketch::builder()
            .width(32)
            .storage_file(&path)
            .group_commit(GroupCommit { max_delay_us: 0, max_bytes: 0 })
            .build()
            .unwrap();
        sketch.insert(1, 2, 1);
        sketch.insert(3, 4, 1);
        let stats = sketch.detailed_stats();
        assert!(stats.wal_group_commits >= 2, "strict inserts lead drain rounds: {stats:?}");
        assert!(stats.fsyncs >= 2, "zero budget must sync every round: {stats:?}");
        drop(sketch);
        std::fs::remove_file(crate::wal::wal_path(&path)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_checkpoint_bound_reaches_every_shard() {
        let path =
            std::env::temp_dir().join(format!("gss-builder-{}-ckpt.gss", std::process::id()));
        let sharded = GssSketch::builder()
            .width(32)
            .storage_file(&path)
            .wal_checkpoint_bytes(16 << 10)
            .build_sharded(2)
            .unwrap();
        // ~26 log bytes per item: 4 000 items take each shard's log past 16 KiB.
        let items: Vec<gss_graph::StreamEdge> =
            (0..4000u64).map(|i| gss_graph::StreamEdge::new(i % 97, i % 89, i, 1)).collect();
        for chunk in items.chunks(100) {
            sharded.insert_batch(chunk);
        }
        let stats = sharded.detailed_stats();
        assert!(stats.checkpoints > 0, "a 16 KiB bound must have checkpointed: {stats:?}");
        drop(sharded);
        for index in 0..2 {
            let shard = std::path::PathBuf::from(format!("{}.shard{index}", path.display()));
            std::fs::remove_file(crate::wal::wal_path(&shard)).ok();
            std::fs::remove_file(&shard).ok();
        }
    }

    #[test]
    fn built_sketches_answer_queries() {
        let mut sketch = GssSketch::builder().width(64).build().unwrap();
        sketch.insert(1, 2, 5);
        assert_eq!(sketch.edge_weight(1, 2), Some(5));
        assert_eq!(sketch.successors(1), vec![2]);

        let sharded = GssSketch::builder().width(64).build_sharded(4).unwrap();
        sharded.insert(3, 4, 7);
        assert_eq!(sharded.edge_weight(3, 4), Some(7));
    }
}
