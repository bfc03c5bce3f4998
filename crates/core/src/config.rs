//! Configuration of a GSS sketch.
//!
//! The knobs map one-to-one onto the parameters of Sections IV and V of the paper:
//!
//! | field | paper symbol | meaning |
//! |---|---|---|
//! | `width` | `m` | side length of the bucket matrix |
//! | `fingerprint_bits` | `log₂ F` | fingerprint length; `M = m × F` is the hash range |
//! | `rooms` | `l` | rooms (edge slots) per bucket (Section V-B2) |
//! | `sequence_length` | `r` | length of the square-hashing address sequence (Section V-A) |
//! | `candidates` | `k` | sampled candidate buckets per edge (Section V-B1) |
//! | `square_hashing` | — | disable to get the basic version of Section IV |
//! | `sampling` | — | disable to probe all `r²` mapped buckets (Table I "GSS(no sampling)") |
//!
//! The experiment section uses `l = 2`, `r = 16`, `k = 16` (8/8 for the two small datasets)
//! and fingerprints of 12 or 16 bits; [`GssConfig::paper_default`] reproduces that setup.

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// Maximum supported address-sequence length.  Index positions are packed into 4 bits each
/// inside a room, which is the paper's "less than 4 bits" observation.
pub const MAX_SEQUENCE_LENGTH: usize = 16;

/// Maximum supported fingerprint width in bits (fingerprints are stored in `u16`s).
pub const MAX_FINGERPRINT_BITS: u32 = 16;

/// Maximum supported matrix side length `m`.  Far above any paper-scale setting (the paper
/// sweeps widths around 1000), this bound exists so size arithmetic on decoded
/// configurations — snapshots and sketch-file headers carry `width` as a raw `u64` — can
/// never overflow and a bit-flipped header is rejected instead of panicking.
pub const MAX_WIDTH: usize = 1 << 20;

/// Maximum supported rooms per bucket `l` (the paper uses 1 or 2).
pub const MAX_ROOMS_PER_BUCKET: usize = 1 << 10;

/// Maximum total rooms `m² × l` a configuration may describe (16 Gi rooms = a 256 GiB room
/// region).  Caps the allocation/file size a decoded configuration can request.
pub const MAX_TOTAL_ROOMS: u128 = 1 << 34;

/// Durability policy of a file-backed sketch (ignored by the in-memory backend).
///
/// There is one policy.  A file-backed sketch keeps a write-ahead room log
/// (`<sketch>.wal`, see the `wal` module), drains it to the log file before every
/// `insert`/`insert_batch` call returns, and writes evicted dirty pages back
/// synchronously on the ingest path: a killed process loses **no acknowledged item**,
/// and an unclean file is recovered by log replay instead of rejected.
///
/// The type survives as a single-variant enum only because callers outside this
/// workspace's crates name it ([`GssBuilder::durability`](crate::GssBuilder::durability),
/// [`ShardedGss::open_sharded`](crate::ShardedGss::open_sharded)); nothing branches on
/// it.  Deferring the log drain or the page write-back has been measured and bought a
/// loss window, not speed — see the README's durability section before adding a mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Durability {
    /// Synchronous write-ahead logging and write-back: zero acknowledged-item loss.
    #[default]
    Strict,
}

/// Scheduling knob of the group-commit coordinator (see the `group_commit` module).
///
/// Every drained write-ahead-log arena is counted against this budget; the coordinator's
/// cadence thread sweeps on the delay window (woken early when the byte budget trips),
/// issuing one `fdatasync` per member log with unsynced bytes — one sweep covers every
/// batch drained in the window, off the commit path.  Smaller values tighten the
/// power-loss staleness bound at the cost of more syncs; zero in either field forces a
/// synchronous sweep on every drain round (classic per-commit fsync).
///
/// Only a file-backed sketch has a log, so only it uses the knob: the cadence thread
/// starts when the coordinator's first log registers, never for an in-memory sketch, and
/// never under a zero knob.
///
/// This is a runtime knob, not part of [`GssConfig`]: it is never persisted, and a file
/// written under one setting reopens under any other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCommit {
    /// Maximum microseconds between log syncs while commits are flowing.
    pub max_delay_us: u64,
    /// Drained log bytes that force a sync before the delay elapses.
    pub max_bytes: u64,
}

impl Default for GroupCommit {
    /// 20 ms / 256 KiB: at ~250 µs per `fdatasync`, an eight-shard `ShardedGss` costs
    /// ~2 ms per sweep, so a window an order of magnitude wider keeps the sweep duty
    /// cycle (and the filesystem-journal commits each sync forces, which stall
    /// concurrent log appends) down around 10% while the power-loss staleness bound
    /// stays far below the ~100 ms journal cadences common in document stores.
    fn default() -> Self {
        Self { max_delay_us: 20_000, max_bytes: 256 * 1024 }
    }
}

/// Default write-ahead-log size at which a file-backed sketch checkpoints itself
/// automatically (at the next insert/batch boundary), bounding both sidecar-log disk use
/// and crash-recovery replay time for long runs that never call `sync` explicitly.
/// Tune per sketch with [`GssBuilder::wal_checkpoint_bytes`](crate::GssBuilder::wal_checkpoint_bytes).
pub const WAL_CHECKPOINT_BYTES: u64 = 64 * 1024 * 1024;

/// Configuration for a [`GssSketch`](crate::GssSketch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GssConfig {
    /// Side length `m` of the bucket matrix.
    pub width: usize,
    /// Fingerprint length in bits; `F = 2^fingerprint_bits`.
    pub fingerprint_bits: u32,
    /// Rooms per bucket (`l`).
    pub rooms: usize,
    /// Length `r` of the per-node hash-address sequence.
    pub sequence_length: usize,
    /// Number `k` of candidate buckets sampled from the `r × r` mapped buckets.
    pub candidates: usize,
    /// Whether square hashing is enabled.  When disabled the sketch degrades to the basic
    /// version of Section IV: a single mapped bucket per edge.
    pub square_hashing: bool,
    /// Whether candidate-bucket sampling is enabled.  When disabled, all `r²` mapped buckets
    /// are probed in row-major order (the "GSS(no sampling)" row of Table I).
    pub sampling: bool,
    /// Whether the sketch keeps the `⟨H(v), v⟩` reverse table needed to answer successor /
    /// precursor queries in the original id space.  Costs `O(|V|)` memory, as in the paper.
    pub track_node_ids: bool,
    /// Seed mixed into the node hash function, so independent sketches can be built.
    pub hash_seed: u64,
}

impl Default for GssConfig {
    fn default() -> Self {
        Self::paper_default(1000)
    }
}

impl GssConfig {
    /// The configuration used throughout the paper's evaluation (Section VII-C): 16-bit
    /// fingerprints, 2 rooms per bucket, `r = 16`, `k = 16`.
    pub fn paper_default(width: usize) -> Self {
        Self {
            width,
            fingerprint_bits: 16,
            rooms: 2,
            sequence_length: 16,
            candidates: 16,
            square_hashing: true,
            sampling: true,
            track_node_ids: true,
            hash_seed: 0x6C55_5EED,
        }
    }

    /// The reduced setting the paper uses for the two small datasets (`r = 8`, `k = 8`).
    pub fn paper_small(width: usize) -> Self {
        Self { sequence_length: 8, candidates: 8, ..Self::paper_default(width) }
    }

    /// The basic version of Section IV: no square hashing, one room per bucket.
    pub fn basic(width: usize) -> Self {
        Self {
            rooms: 1,
            square_hashing: false,
            sampling: false,
            sequence_length: 1,
            candidates: 1,
            ..Self::paper_default(width)
        }
    }

    /// Returns a copy with a different fingerprint width (12 and 16 bits in the paper).
    pub fn with_fingerprint_bits(mut self, bits: u32) -> Self {
        self.fingerprint_bits = bits;
        self
    }

    /// Returns a copy with a different number of rooms per bucket.
    pub fn with_rooms(mut self, rooms: usize) -> Self {
        self.rooms = rooms;
        self
    }

    /// Returns a copy with square hashing enabled or disabled.
    pub fn with_square_hashing(mut self, enabled: bool) -> Self {
        self.square_hashing = enabled;
        if !enabled {
            self.sequence_length = 1;
            self.candidates = 1;
            self.sampling = false;
        }
        self
    }

    /// Returns a copy with candidate sampling enabled or disabled.
    pub fn with_sampling(mut self, enabled: bool) -> Self {
        self.sampling = enabled;
        self
    }

    /// Fingerprint range `F = 2^fingerprint_bits`.
    pub(crate) fn fingerprint_range(&self) -> u64 {
        1u64 << self.fingerprint_bits
    }

    /// Hash range `M = m × F` of the node map function.
    pub fn hash_range(&self) -> u64 {
        self.width as u64 * self.fingerprint_range()
    }

    /// Number of buckets in the matrix (`m²`).
    pub(crate) fn bucket_count(&self) -> usize {
        self.width * self.width
    }

    /// Number of rooms in the matrix (`m² × l`).
    pub fn room_count(&self) -> usize {
        self.bucket_count() * self.rooms
    }

    /// Bytes per room under the paper's storage layout: two fingerprints, a packed index
    /// pair (1 byte) and an 8-byte weight.  This is the figure used for equal-memory
    /// comparisons against TCM, independent of Rust struct padding.
    pub fn bytes_per_room(&self) -> usize {
        let fingerprint_bytes = (2 * self.fingerprint_bits as usize).div_ceil(8);
        fingerprint_bytes + 1 + 8
    }

    /// Total matrix bytes under the paper's layout.
    pub fn matrix_bytes(&self) -> usize {
        self.room_count() * self.bytes_per_room()
    }

    /// Bytes of the bucket-occupancy index the room stores maintain: two bitmaps (per-row
    /// and per-column) of one bit per bucket, each row/column line rounded up to whole
    /// 64-bit words — `≈ 2·m²/8` bytes, under 1% of [`matrix_bytes`](Self::matrix_bytes)
    /// at the paper's `l = 2`.
    pub(crate) fn occupancy_index_bytes(&self) -> usize {
        2 * self.width * self.width.div_ceil(64) * 8
    }

    /// The per-shard matrix width that keeps `shards` sketches at the total memory of one
    /// sketch of this configuration: matrix memory grows with `width²`, so each shard gets
    /// `width / √shards` (rounded, at least 1).  Used by the equal-memory sharding mode for
    /// apples-to-apples sharded-vs-single comparisons.
    pub(crate) fn equal_memory_width(&self, shards: usize) -> usize {
        ((self.width as f64) / (shards.max(1) as f64).sqrt()).round().max(1.0) as usize
    }

    /// Effective number of probed candidate buckets per edge.
    pub(crate) fn effective_candidates(&self) -> usize {
        if !self.square_hashing {
            1
        } else if self.sampling {
            self.candidates.min(self.sequence_length * self.sequence_length)
        } else {
            self.sequence_length * self.sequence_length
        }
    }

    /// Validates the configuration.
    ///
    /// Besides the paper's parameter ranges, the size bounds ([`MAX_WIDTH`],
    /// [`MAX_ROOMS_PER_BUCKET`], [`MAX_TOTAL_ROOMS`]) are enforced here so every
    /// validated configuration — including one decoded from an untrusted snapshot or
    /// sketch-file header — has overflow-free size arithmetic and a bounded footprint.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.width == 0 {
            return Err(ConfigError::new("matrix width must be positive"));
        }
        if self.width > MAX_WIDTH {
            return Err(ConfigError::new(format!("matrix width must be at most {MAX_WIDTH}")));
        }
        if self.fingerprint_bits == 0 || self.fingerprint_bits > MAX_FINGERPRINT_BITS {
            return Err(ConfigError::new(format!(
                "fingerprint_bits must be in 1..={MAX_FINGERPRINT_BITS}"
            )));
        }
        if self.rooms == 0 {
            return Err(ConfigError::new("each bucket needs at least one room"));
        }
        if self.rooms > MAX_ROOMS_PER_BUCKET {
            return Err(ConfigError::new(format!(
                "rooms per bucket must be at most {MAX_ROOMS_PER_BUCKET}"
            )));
        }
        let total_rooms = self.width as u128 * self.width as u128 * self.rooms as u128;
        if total_rooms > MAX_TOTAL_ROOMS {
            return Err(ConfigError::new(format!(
                "matrix describes {total_rooms} rooms, above the {MAX_TOTAL_ROOMS} cap"
            )));
        }
        if self.sequence_length == 0 || self.sequence_length > MAX_SEQUENCE_LENGTH {
            return Err(ConfigError::new(format!(
                "sequence_length must be in 1..={MAX_SEQUENCE_LENGTH}"
            )));
        }
        if self.candidates == 0 {
            return Err(ConfigError::new("candidates must be positive"));
        }
        if !self.square_hashing && self.sequence_length != 1 {
            return Err(ConfigError::new(
                "sequence_length must be 1 when square hashing is disabled",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GssConfig {
        /// Returns a copy with a different hash seed (the hashing, format and storage
        /// tests seed their sketches apart).
        pub(crate) fn with_hash_seed(mut self, seed: u64) -> Self {
            self.hash_seed = seed;
            self
        }
    }

    #[test]
    fn paper_default_matches_section_vii_settings() {
        let config = GssConfig::paper_default(1000);
        assert_eq!(config.width, 1000);
        assert_eq!(config.fingerprint_bits, 16);
        assert_eq!(config.rooms, 2);
        assert_eq!(config.sequence_length, 16);
        assert_eq!(config.candidates, 16);
        assert!(config.square_hashing);
        assert!(config.sampling);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn paper_small_reduces_r_and_k() {
        let config = GssConfig::paper_small(600);
        assert_eq!(config.sequence_length, 8);
        assert_eq!(config.candidates, 8);
    }

    #[test]
    fn basic_config_disables_square_hashing() {
        let config = GssConfig::basic(100);
        assert!(!config.square_hashing);
        assert_eq!(config.rooms, 1);
        assert_eq!(config.effective_candidates(), 1);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn derived_quantities_follow_definitions() {
        let config = GssConfig::paper_default(500).with_fingerprint_bits(12);
        assert_eq!(config.fingerprint_range(), 4096);
        assert_eq!(config.hash_range(), 500 * 4096);
        assert_eq!(config.bucket_count(), 250_000);
        assert_eq!(config.room_count(), 500_000);
        assert_eq!(config.bytes_per_room(), 3 + 1 + 8);
        assert_eq!(config.matrix_bytes(), 500_000 * 12);
    }

    #[test]
    fn bytes_per_room_for_16_bit_fingerprints() {
        let config = GssConfig::paper_default(10);
        assert_eq!(config.bytes_per_room(), 4 + 1 + 8);
    }

    #[test]
    fn equal_memory_width_shrinks_by_sqrt_shards() {
        let config = GssConfig::paper_default(1000);
        assert_eq!(config.equal_memory_width(1), 1000);
        assert_eq!(config.equal_memory_width(4), 500);
        assert_eq!(config.equal_memory_width(16), 250);
        // Non-square shard counts round to the nearest width; total memory stays within
        // a few percent of the single-sketch budget.
        let width2 = config.equal_memory_width(2);
        let total = 2.0 * (width2 * width2) as f64;
        assert!((total / (1000.0 * 1000.0) - 1.0).abs() < 0.05, "width {width2}");
        // Degenerate cases never produce a zero width.
        assert_eq!(GssConfig::paper_default(1).equal_memory_width(64), 1);
        assert_eq!(config.equal_memory_width(0), 1000);
    }

    #[test]
    fn effective_candidates_without_sampling_is_r_squared() {
        let config = GssConfig::paper_default(100).with_sampling(false);
        assert_eq!(config.effective_candidates(), 256);
    }

    #[test]
    fn validation_rejects_oversized_geometry() {
        // A bit-flipped snapshot header can claim any width/rooms; the caps reject it
        // before size arithmetic overflows or a giant allocation is attempted.
        assert!(GssConfig { width: MAX_WIDTH + 1, ..GssConfig::paper_default(8) }
            .validate()
            .is_err());
        assert!(GssConfig { width: usize::MAX, ..GssConfig::paper_default(8) }.validate().is_err());
        assert!(GssConfig::paper_default(8)
            .with_rooms(MAX_ROOMS_PER_BUCKET + 1)
            .validate()
            .is_err());
        // Width and rooms individually in range, product over the cap.
        assert!(GssConfig { width: MAX_WIDTH, rooms: 32, ..GssConfig::paper_default(8) }
            .validate()
            .is_err());
        // A legitimately large configuration (65536² × 2 rooms ≈ 8.6 G rooms, a ~137 GiB
        // file-backed matrix) stays valid.
        assert!(GssConfig::paper_default(65_536).validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(GssConfig { width: 0, ..GssConfig::paper_default(1) }.validate().is_err());
        assert!(GssConfig::paper_default(10).with_fingerprint_bits(0).validate().is_err());
        assert!(GssConfig::paper_default(10).with_fingerprint_bits(17).validate().is_err());
        assert!(GssConfig::paper_default(10).with_rooms(0).validate().is_err());
        assert!(GssConfig { sequence_length: 0, ..GssConfig::paper_default(10) }
            .validate()
            .is_err());
        assert!(GssConfig { sequence_length: 17, ..GssConfig::paper_default(10) }
            .validate()
            .is_err());
        assert!(GssConfig { candidates: 0, ..GssConfig::paper_default(10) }.validate().is_err());
        assert!(GssConfig {
            square_hashing: false,
            sequence_length: 4,
            ..GssConfig::paper_default(10)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn with_square_hashing_false_normalises_dependent_fields() {
        let config = GssConfig::paper_default(10).with_square_hashing(false);
        assert!(config.validate().is_ok());
        assert_eq!(config.sequence_length, 1);
        assert_eq!(config.candidates, 1);
    }
}
