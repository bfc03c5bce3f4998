//! Pluggable room storage: the [`RoomStore`] trait and its two backends.
//!
//! The `m × m × l` room grid is the only part of a GSS sketch whose size is proportional to
//! the configured matrix rather than to the observed stream, so it is the part that decides
//! whether a `GSS_SCALE=paper` CAIDA-style run fits on a machine.  This module abstracts it
//! behind [`RoomStore`]:
//!
//! * [`MemoryStore`] — the original dense `Vec<Room>` (row-major buckets), fastest and the
//!   default;
//! * [`FileStore`] — a std-only paged file backend
//!   (fixed-size little-endian room records, page-granular I/O, an LRU cache with
//!   dirty-page write-back) for sketches larger than RAM.  A `FileStore` sketch file
//!   doubles as its own checkpoint: see
//!   [`GssSketch::open_file`](crate::GssSketch::open_file).
//!
//! [`RoomStorage`] is the enum the sketch actually holds — enum dispatch keeps
//! [`GssSketch`](crate::GssSketch) a non-generic type so every existing caller, trait
//! object and collection keeps compiling, and keeps the probe, the edge lookup and the
//! room writes statically dispatched (they are the inner loop of ingest and edge queries).
//!
//! The trait is ten required methods: geometry (`width`, `rooms_per_bucket`,
//! `occupied_rooms`), single-room access (`room`), the read-side edge lookup
//! (`weight_of`), the three write-path steps (`probe_bucket`, `add_weight`,
//! `store_room`) and the two line scans (`scan_row`, `scan_column`).  `room_count`,
//! `scan_occupied` and `load_factor` are provided on top of those.  The slot-by-slot
//! oracles the equivalence tests compare against — [`naive_probe_bucket`],
//! [`naive_scan_row`], [`naive_scan_column`] — need nothing but `room`.
//!
//! Both backends, the streaming snapshots of [`persistence`](crate::persistence) and the
//! `FileStore` file body share one fixed-size room record ([`ROOM_RECORD_BYTES`]), encoded
//! little-endian by [`encode_room`] / [`decode_room`], so bytes move between the in-memory
//! matrix, sketch files and snapshots without translation.

use crate::config::GssConfig;
use crate::error::StoreFault;
use crate::file_store::FileStore;
use crate::matrix::{MemoryStore, Room, RoomKey};
use crate::persistence::PersistenceError;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Compact per-row and per-column bucket-occupancy bitmaps.
///
/// One bit per bucket in each direction (`2·m²/8` bytes total, under 1% of matrix memory
/// at `l = 2`), set on the first [`RoomStore::store_room`] into a bucket and never
/// cleared (rooms are never freed — deletions zero weights but keep rooms occupied).
/// Row/column scans walk set bits with popcount-guided jumps instead of probing every
/// bucket, which makes successor/precursor queries proportional to the load factor
/// rather than to the matrix geometry.
///
/// The index is a pure acceleration structure: it never reaches disk or snapshots (file
/// format and snapshot bytes stay identical) and is rebuilt from room occupancy on
/// [`open_file`](crate::GssSketch::open_file) and snapshot restore.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OccupancyIndex {
    width: usize,
    words_per_line: usize,
    /// `width` lines of `words_per_line` words; bit `c` of line `r` ⇔ bucket `(r, c)`
    /// holds at least one occupied room.
    rows: Vec<u64>,
    /// The transposed mirror: bit `r` of line `c` ⇔ bucket `(r, c)` is occupied.
    columns: Vec<u64>,
}

impl OccupancyIndex {
    /// An all-empty index for a `width × width` bucket grid.
    pub fn new(width: usize) -> Self {
        let words_per_line = width.div_ceil(64);
        Self {
            width,
            words_per_line,
            rows: vec![0; width * words_per_line],
            columns: vec![0; width * words_per_line],
        }
    }

    /// Marks bucket `(row, column)` as holding at least one occupied room.
    #[inline]
    pub fn mark(&mut self, row: usize, column: usize) {
        debug_assert!(row < self.width && column < self.width);
        self.rows[row * self.words_per_line + column / 64] |= 1u64 << (column % 64);
        self.columns[column * self.words_per_line + row / 64] |= 1u64 << (row % 64);
    }

    /// Whether bucket `(row, column)` has been marked occupied.
    #[inline]
    pub fn contains(&self, row: usize, column: usize) -> bool {
        self.rows[row * self.words_per_line + column / 64] & (1u64 << (column % 64)) != 0
    }

    /// The occupied columns of `row`, ascending.
    pub fn in_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        Self::set_positions(self.line(&self.rows, row))
    }

    /// The occupied rows of `column`, ascending.
    pub fn in_column(&self, column: usize) -> impl Iterator<Item = usize> + '_ {
        Self::set_positions(self.line(&self.columns, column))
    }

    /// Number of occupied buckets in `row` (popcount over the row's bitmap words).
    #[inline]
    pub fn occupied_in_row(&self, row: usize) -> usize {
        self.line(&self.rows, row).iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Number of occupied buckets in `column`.
    #[inline]
    pub fn occupied_in_column(&self, column: usize) -> usize {
        self.line(&self.columns, column).iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Heap bytes of the two bitmaps.
    pub fn bytes(&self) -> usize {
        (self.rows.len() + self.columns.len()) * std::mem::size_of::<u64>()
    }

    fn line<'a>(&self, lines: &'a [u64], line: usize) -> &'a [u64] {
        &lines[line * self.words_per_line..][..self.words_per_line]
    }

    /// The set bit positions of one bitmap line, ascending — the single home of the
    /// `trailing_zeros`/`bits &= bits − 1` walk.
    fn set_positions(line: &[u64]) -> impl Iterator<Item = usize> + '_ {
        line.iter().enumerate().flat_map(|(word_index, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    word_index * 64 + bit
                })
            })
        })
    }
}

/// Whether a row/column with `occupied_buckets` of `width` marked should be scanned with
/// the naive linear walk instead of the occupancy bitmap: at ≥ 50% occupancy the bitmap's
/// skip-ahead win shrinks toward 1× while its per-bucket word arithmetic (and, on the
/// file backend, its non-sequential page visits) still cost — the dense escape hatch.
#[inline]
pub(crate) fn dense_scan(occupied_buckets: usize, width: usize) -> bool {
    occupied_buckets * 2 >= width
}

/// The outcome of a fused single-pass bucket probe ([`RoomStore::probe_bucket`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketProbe {
    /// The bucket holds the probed edge at this slot.
    Match(usize),
    /// No match; this is the first empty slot.
    Empty(usize),
    /// No match and no empty slot.
    Full,
}

/// Size of one encoded room record in bytes (fingerprint pair, index pair, occupancy flag,
/// one pad byte, 8-byte weight).
pub const ROOM_RECORD_BYTES: usize = 16;

/// Byte offset of the occupancy flag inside a room record — the one field readers may
/// inspect without decoding the record (the `FileStore` index rebuild streams just this
/// byte).  Must match [`encode_room`]/[`decode_room`] below.
pub const ROOM_OCCUPIED_BYTE: usize = 6;

/// Size of the encoded [`GssConfig`] used in file headers and snapshots.
pub(crate) const CONFIG_BYTES: usize = 45;

/// Encodes one room as a fixed-size little-endian record.
///
/// Layout: `source_fingerprint u16 | destination_fingerprint u16 | source_index u8 |
/// destination_index u8 | occupied u8 | pad u8 | weight i64`.
pub fn encode_room(room: &Room) -> [u8; ROOM_RECORD_BYTES] {
    let mut bytes = [0u8; ROOM_RECORD_BYTES];
    bytes[0..2].copy_from_slice(&room.source_fingerprint.to_le_bytes());
    bytes[2..4].copy_from_slice(&room.destination_fingerprint.to_le_bytes());
    bytes[4] = room.source_index;
    bytes[5] = room.destination_index;
    bytes[ROOM_OCCUPIED_BYTE] = room.occupied as u8;
    bytes[8..16].copy_from_slice(&room.weight.to_le_bytes());
    bytes
}

/// Decodes a room record written by [`encode_room`].  Total: any byte pattern decodes
/// (an arbitrary occupancy byte is read as "occupied"), so corrupt inputs surface as
/// validation errors downstream, never as panics.
pub fn decode_room(bytes: &[u8; ROOM_RECORD_BYTES]) -> Room {
    Room {
        source_fingerprint: u16::from_le_bytes([bytes[0], bytes[1]]),
        destination_fingerprint: u16::from_le_bytes([bytes[2], bytes[3]]),
        source_index: bytes[4],
        destination_index: bytes[5],
        occupied: bytes[ROOM_OCCUPIED_BYTE] != 0,
        weight: i64::from_le_bytes(bytes[8..16].try_into().expect("length checked")),
    }
}

/// Encodes a configuration as the fixed [`CONFIG_BYTES`]-byte block shared by snapshots
/// and sketch-file headers.
pub(crate) fn encode_config(config: &GssConfig) -> [u8; CONFIG_BYTES] {
    let mut bytes = [0u8; CONFIG_BYTES];
    bytes[0..8].copy_from_slice(&(config.width as u64).to_le_bytes());
    bytes[8..12].copy_from_slice(&config.fingerprint_bits.to_le_bytes());
    bytes[12..20].copy_from_slice(&(config.rooms as u64).to_le_bytes());
    bytes[20..28].copy_from_slice(&(config.sequence_length as u64).to_le_bytes());
    bytes[28..36].copy_from_slice(&(config.candidates as u64).to_le_bytes());
    bytes[36] = (config.square_hashing as u8)
        | ((config.sampling as u8) << 1)
        | ((config.track_node_ids as u8) << 2);
    bytes[37..45].copy_from_slice(&config.hash_seed.to_le_bytes());
    bytes
}

/// Decodes and validates a configuration block written by [`encode_config`].
pub(crate) fn decode_config(bytes: &[u8; CONFIG_BYTES]) -> Result<GssConfig, PersistenceError> {
    let u64_at = |offset: usize| {
        u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("length checked"))
    };
    let flags = bytes[36];
    let config = GssConfig {
        width: u64_at(0) as usize,
        fingerprint_bits: u32::from_le_bytes(bytes[8..12].try_into().expect("length checked")),
        rooms: u64_at(12) as usize,
        sequence_length: u64_at(20) as usize,
        candidates: u64_at(28) as usize,
        square_hashing: flags & 1 != 0,
        sampling: flags & 2 != 0,
        track_node_ids: flags & 4 != 0,
        hash_seed: u64_at(37),
    };
    config.validate().map_err(|error| PersistenceError::InvalidConfig(error.to_string()))?;
    Ok(config)
}

/// Where a sketch keeps its room matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// Dense in-memory `Vec<Room>` (the default; fastest).
    #[default]
    Memory,
    /// Paged sketch file at `path` with an LRU cache of `cache_pages` 4-KiB pages.
    /// The file is created (truncating any existing file) when the sketch is built; use
    /// [`GssSketch::open_file`](crate::GssSketch::open_file) to reopen an existing one.
    File {
        /// Location of the sketch file.
        path: PathBuf,
        /// Number of 4-KiB pages the cache may hold (clamped to at least 1).
        cache_pages: usize,
    },
}

impl StorageBackend {
    /// Convenience constructor for the file backend with the default cache size
    /// ([`FileStore::DEFAULT_CACHE_PAGES`]).
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::File { path: path.into(), cache_pages: FileStore::DEFAULT_CACHE_PAGES }
    }

    /// Derives the backend for shard `index` of a sharded sketch: memory stays memory, a
    /// file backend gets `<name>.shard<index>` appended so every shard owns its own file.
    pub(crate) fn for_shard(&self, index: usize) -> Self {
        match self {
            Self::Memory => Self::Memory,
            Self::File { path, cache_pages } => {
                let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
                name.push(format!(".shard{index}"));
                Self::File { path: path.with_file_name(name), cache_pages: *cache_pages }
            }
        }
    }
}

/// Random access to an `m × m × l` grid of rooms.
///
/// Scan callbacks visit **occupied rooms only** and pass rooms by value (records are 16
/// bytes), so implementations backed by page caches need not hand out references into
/// locked internals.
///
/// **Concurrency contract**: every read method takes `&self` and both backends keep that
/// promise literal — concurrent readers never observe torn rooms and (on the file
/// backend, whose page cache is lock-striped with per-page latches) never serialize on a
/// store-wide lock.  Mutation stays `&mut self`, so a store has at most one writer at a
/// time; concurrent ingest scales by sharding (`ShardedGss`), one store per shard, with
/// readers fanning out across all shards.
///
/// **Failure contract**: the three write-path methods — [`probe_bucket`], [`add_weight`]
/// and [`store_room`] — return `Result<_, StoreFault>`.  The in-memory backend always
/// answers `Ok`; the file backend health-gates each call and returns its sticky
/// fail-stop cause (see [`crate::error::StoreHealth`]), which is how
/// [`GssSketch::try_insert`](crate::GssSketch::try_insert) surfaces typed errors.
///
/// [`probe_bucket`]: RoomStore::probe_bucket
/// [`add_weight`]: RoomStore::add_weight
/// [`store_room`]: RoomStore::store_room
pub trait RoomStore {
    /// Side length `m`.
    fn width(&self) -> usize;
    /// Rooms per bucket `l`.
    fn rooms_per_bucket(&self) -> usize;
    /// Number of currently occupied rooms.
    fn occupied_rooms(&self) -> usize;
    /// Reads the room at `slot` of bucket `(row, column)`.
    fn room(&self, row: usize, column: usize, slot: usize) -> Room;
    /// The edge lookup: the weight of the room of bucket `(row, column)` holding `key`, if
    /// any, in one pass over the bucket (one page lookup and one latch on the file
    /// backend).  Read-side: it is not health-gated, so a poisoned file store keeps
    /// answering edge queries.
    fn weight_of(&self, row: usize, column: usize, key: RoomKey) -> Option<i64>;
    /// Fused single-pass probe of bucket `(row, column)` that opens every edge placement:
    /// the slot holding `key`, else the first empty slot, else [`BucketProbe::Full`]
    /// ([`naive_probe_bucket`] is the slot-by-slot reference).  On the file backend a
    /// probe's cache miss may have to evict a dirty page, so even this read-side step can
    /// trip over a write-back fault — it is health-gated and poisons on failure, which is
    /// why it stays separate from [`weight_of`](RoomStore::weight_of).
    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        key: RoomKey,
    ) -> Result<BucketProbe, StoreFault>;
    /// Adds `weight` to the (occupied) room at `slot` of bucket `(row, column)`.
    fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault>;
    /// Writes a fresh edge into the (empty) room at `slot` of bucket `(row, column)`.
    fn store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), StoreFault>;
    /// Visits every occupied room of matrix row `row` as `(column, room)`.
    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room));
    /// Visits every occupied room of matrix column `column` as `(row, room)`.
    fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room));

    /// Total number of rooms (`m² × l`).
    fn room_count(&self) -> usize {
        self.width() * self.width() * self.rooms_per_bucket()
    }

    /// Visits every occupied room as `(row, column, room)` in ascending
    /// `(row, column, slot)` order: [`scan_row`](RoomStore::scan_row) for every row.
    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        for row in 0..self.width() {
            self.scan_row(row, &mut |column, room| visit(row, column, room));
        }
    }

    /// Fraction of rooms occupied.
    fn load_factor(&self) -> f64 {
        if self.room_count() == 0 {
            0.0
        } else {
            self.occupied_rooms() as f64 / self.room_count() as f64
        }
    }
}

/// Reference full-grid row scan, **ignoring any occupancy index**: probes every bucket of
/// the row through [`RoomStore::room`].  This is the geometry-proportional behaviour the
/// indexed [`RoomStore::scan_row`] replaced; it is kept as the observational baseline for
/// the equivalence property tests and the `query_scaling` bench.
pub fn naive_scan_row<S: RoomStore + ?Sized>(
    store: &S,
    row: usize,
    visit: &mut dyn FnMut(usize, Room),
) {
    for column in 0..store.width() {
        for slot in 0..store.rooms_per_bucket() {
            let room = store.room(row, column, slot);
            if room.occupied {
                visit(column, room);
            }
        }
    }
}

/// Reference full-grid column scan, ignoring any occupancy index (see [`naive_scan_row`]).
pub fn naive_scan_column<S: RoomStore + ?Sized>(
    store: &S,
    column: usize,
    visit: &mut dyn FnMut(usize, Room),
) {
    for row in 0..store.width() {
        for slot in 0..store.rooms_per_bucket() {
            let room = store.room(row, column, slot);
            if room.occupied {
                visit(row, room);
            }
        }
    }
}

/// Reference bucket probe, slot by slot through [`RoomStore::room`]: the first slot holding
/// `key`, else the first empty slot, else [`BucketProbe::Full`] — what the two-pass
/// `find_match`-then-`find_empty` of the original trait answered.  The oracle that
/// [`RoomStore::probe_bucket`] and [`RoomStore::weight_of`] are checked against.
pub fn naive_probe_bucket<S: RoomStore + ?Sized>(
    store: &S,
    row: usize,
    column: usize,
    key: RoomKey,
) -> BucketProbe {
    let rooms = || (0..store.rooms_per_bucket()).map(|slot| store.room(row, column, slot));
    match rooms().position(|room| room.matches(key)) {
        Some(slot) => BucketProbe::Match(slot),
        None => {
            rooms().position(|room| !room.occupied).map_or(BucketProbe::Full, BucketProbe::Empty)
        }
    }
}

/// Puts an existing `room` into bucket `(row, column)` the way ingest places a new edge —
/// probe with the room's own key, claim the first empty slot — and returns the probe's
/// outcome.  Anything but [`BucketProbe::Empty`] means nothing was stored: `Full` is a
/// bucket fed more than `l` rooms, `Match` a second room under a key the bucket already
/// holds (ingest never produces one and an edge query could never reach it).  The single
/// placement rule of snapshot restore and of detaching a file store into memory.
pub(crate) fn place_room<S: RoomStore + ?Sized>(
    store: &mut S,
    row: usize,
    column: usize,
    room: Room,
) -> Result<BucketProbe, StoreFault> {
    let probe = store.probe_bucket(row, column, room.key())?;
    if let BucketProbe::Empty(slot) = probe {
        store.store_room(row, column, slot, room)?;
    }
    Ok(probe)
}

/// The store a [`GssSketch`](crate::GssSketch) holds: enum dispatch over the two backends.
/// The file backend is boxed — its WAL, page-cache and checkpoint state would otherwise
/// inflate every in-memory sketch by the size of the larger variant.
#[derive(Debug)]
pub enum RoomStorage {
    /// Dense in-memory backend.
    Memory(MemoryStore),
    /// Paged file backend.
    File(Box<FileStore>),
}

impl RoomStorage {
    /// Which backend this is, for stats and display.
    pub fn backend_name(&self) -> &'static str {
        match self {
            Self::Memory(_) => "memory",
            Self::File(_) => "file",
        }
    }

    /// The file store, when file-backed (page-cache statistics live there).
    pub fn as_file(&self) -> Option<&FileStore> {
        match self {
            Self::Memory(_) => None,
            Self::File(store) => Some(store),
        }
    }
}

/// Cloning a file-backed store **detaches it into memory**: the clone is a
/// [`MemoryStore`] holding the same rooms, leaving the original file untouched.  This is
/// what merge/analysis paths want (they clone to read), and it keeps
/// `#[derive(Clone)]`-style ergonomics on the sketch without duplicating files on disk.
impl Clone for RoomStorage {
    fn clone(&self) -> Self {
        match self {
            Self::Memory(store) => Self::Memory(store.clone()),
            Self::File(store) => {
                let mut memory = MemoryStore::new(store.width(), store.rooms_per_bucket());
                store.scan_occupied(&mut |row, column, room| {
                    let placed = place_room(&mut memory, row, column, room);
                    assert!(
                        matches!(placed, Ok(BucketProbe::Empty(_))),
                        "a live bucket holds at most l rooms, each under its own key"
                    );
                });
                Self::Memory(memory)
            }
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            RoomStorage::Memory($store) => $body,
            RoomStorage::File($store) => $body,
        }
    };
}

impl RoomStore for RoomStorage {
    fn width(&self) -> usize {
        dispatch!(self, store => store.width())
    }

    fn rooms_per_bucket(&self) -> usize {
        dispatch!(self, store => store.rooms_per_bucket())
    }

    fn occupied_rooms(&self) -> usize {
        dispatch!(self, store => store.occupied_rooms())
    }

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        dispatch!(self, store => store.room(row, column, slot))
    }

    fn weight_of(&self, row: usize, column: usize, key: RoomKey) -> Option<i64> {
        dispatch!(self, store => store.weight_of(row, column, key))
    }

    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        key: RoomKey,
    ) -> Result<BucketProbe, StoreFault> {
        dispatch!(self, store => store.probe_bucket(row, column, key))
    }

    fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault> {
        dispatch!(self, store => store.add_weight(row, column, slot, weight))
    }

    fn store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), StoreFault> {
        dispatch!(self, store => store.store_room(row, column, slot, room))
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        dispatch!(self, store => store.scan_row(row, visit))
    }

    fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        dispatch!(self, store => store.scan_column(column, visit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE_KEY: RoomKey = RoomKey {
        source_fingerprint: 0xA1B2,
        destination_fingerprint: 0x0304,
        source_index: 7,
        destination_index: 11,
    };
    /// A key no stored room carries.
    const MISS: RoomKey = RoomKey {
        source_fingerprint: 1,
        destination_fingerprint: 2,
        source_index: 3,
        destination_index: 4,
    };

    fn sample_room() -> Room {
        SAMPLE_KEY.room(-123_456_789)
    }

    #[test]
    fn room_record_round_trips() {
        let room = sample_room();
        let bytes = encode_room(&room);
        assert_eq!(bytes.len(), ROOM_RECORD_BYTES);
        assert_eq!(decode_room(&bytes), room);
        let empty = Room::default();
        assert_eq!(decode_room(&encode_room(&empty)), empty);
    }

    #[test]
    fn room_record_is_little_endian_and_padded() {
        let bytes = encode_room(&sample_room());
        assert_eq!(bytes[0..2], [0xB2, 0xA1]);
        assert_eq!(bytes[6], 1);
        assert_eq!(bytes[7], 0, "pad byte stays zero");
    }

    #[test]
    fn any_byte_pattern_decodes_without_panicking() {
        let mut bytes = [0u8; ROOM_RECORD_BYTES];
        for (i, byte) in bytes.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37).wrapping_add(191);
        }
        let room = decode_room(&bytes);
        assert!(room.occupied, "non-zero occupancy byte reads as occupied");
    }

    #[test]
    fn config_block_round_trips() {
        let config = GssConfig::paper_small(321).with_fingerprint_bits(12).with_hash_seed(99);
        let decoded = decode_config(&encode_config(&config)).unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn invalid_config_blocks_are_rejected() {
        let mut bytes = encode_config(&GssConfig::paper_default(10));
        bytes[0..8].copy_from_slice(&0u64.to_le_bytes()); // width = 0
        assert!(matches!(decode_config(&bytes), Err(PersistenceError::InvalidConfig(_))));
    }

    #[test]
    fn shard_backends_get_distinct_paths() {
        let backend = StorageBackend::file("/tmp/demo.gss");
        let shard0 = backend.for_shard(0);
        let shard1 = backend.for_shard(1);
        assert_ne!(shard0, shard1);
        match (&shard0, &shard1) {
            (StorageBackend::File { path: a, .. }, StorageBackend::File { path: b, .. }) => {
                assert!(a.to_string_lossy().ends_with("demo.gss.shard0"));
                assert!(b.to_string_lossy().ends_with("demo.gss.shard1"));
            }
            _ => panic!("expected file backends"),
        }
        assert_eq!(StorageBackend::Memory.for_shard(3), StorageBackend::Memory);
    }

    #[test]
    fn occupancy_index_marks_and_iterates_across_word_boundaries() {
        // Width 70 straddles the 64-bit word boundary in every line.
        let mut index = OccupancyIndex::new(70);
        assert_eq!(index.bytes(), 2 * 70 * 2 * 8, "two words per line, both directions");
        let marks = [(0, 0), (0, 63), (0, 64), (0, 69), (5, 2), (63, 5), (64, 5), (69, 68)];
        for &(row, column) in &marks {
            assert!(!index.contains(row, column));
            index.mark(row, column);
            assert!(index.contains(row, column));
        }
        index.mark(0, 64); // re-marking is idempotent
        let row0: Vec<usize> = index.in_row(0).collect();
        assert_eq!(row0, vec![0, 63, 64, 69], "ascending column order");
        let column5: Vec<usize> = index.in_column(5).collect();
        assert_eq!(column5, vec![63, 64], "ascending row order");
        assert_eq!(index.in_row(33).count(), 0);
    }

    #[test]
    fn dense_scan_threshold_trips_at_half_occupancy() {
        assert!(!dense_scan(0, 8));
        assert!(!dense_scan(3, 8));
        assert!(dense_scan(4, 8), "50% occupancy switches to the linear walk");
        assert!(dense_scan(8, 8));
        assert!(dense_scan(0, 0), "degenerate zero-width rows count as dense");
    }

    #[test]
    fn probe_bucket_fuses_find_match_and_find_empty() {
        let mut storage = RoomStorage::Memory(MemoryStore::new(4, 2));
        // Every step is checked against the slot-by-slot oracle as well.
        let probe = |storage: &RoomStorage, key| {
            let fused = storage.probe_bucket(1, 2, key).unwrap();
            assert_eq!(fused, naive_probe_bucket(storage, 1, 2, key));
            fused
        };
        // Empty bucket: first empty slot.
        assert_eq!(probe(&storage, MISS), BucketProbe::Empty(0));
        storage.store_room(1, 2, 0, sample_room()).unwrap();
        // Match wins over the remaining empty slot.
        assert_eq!(probe(&storage, SAMPLE_KEY), BucketProbe::Match(0));
        // Miss falls through to the empty slot.
        assert_eq!(probe(&storage, MISS), BucketProbe::Empty(1));
        let second = RoomKey { source_fingerprint: 9, ..SAMPLE_KEY };
        storage.store_room(1, 2, 1, second.room(5)).unwrap();
        assert_eq!(probe(&storage, second), BucketProbe::Match(1));
        assert_eq!(probe(&storage, MISS), BucketProbe::Full);
        assert_eq!(storage.weight_of(1, 2, second), Some(5));
        assert_eq!(storage.weight_of(1, 2, MISS), None);
        // Placing an existing room follows the same rule and stores only into `Empty`.
        assert_eq!(place_room(&mut storage, 1, 2, sample_room()).unwrap(), BucketProbe::Match(0));
        assert_eq!(place_room(&mut storage, 1, 2, MISS.room(1)).unwrap(), BucketProbe::Full);
        assert_eq!(place_room(&mut storage, 3, 3, MISS.room(1)).unwrap(), BucketProbe::Empty(0));
        assert_eq!(storage.occupied_rooms(), 3);
    }

    #[test]
    fn naive_scans_visit_what_indexed_scans_visit() {
        let mut store = MemoryStore::new(5, 2);
        store.store_room(2, 0, 0, sample_room()).unwrap();
        store.store_room(2, 4, 0, sample_room()).unwrap();
        store.store_room(0, 4, 0, sample_room()).unwrap();
        let mut indexed = Vec::new();
        store.scan_row(2, &mut |column, _| indexed.push(column));
        let mut naive = Vec::new();
        naive_scan_row(&store, 2, &mut |column, _| naive.push(column));
        assert_eq!(indexed, naive);
        assert_eq!(indexed, vec![0, 4]);
        let mut indexed = Vec::new();
        store.scan_column(4, &mut |row, _| indexed.push(row));
        let mut naive = Vec::new();
        naive_scan_column(&store, 4, &mut |row, _| naive.push(row));
        assert_eq!(indexed, naive);
        assert_eq!(indexed, vec![0, 2]);
    }

    #[test]
    fn memory_storage_dispatches_through_the_trait() {
        let mut storage = RoomStorage::Memory(MemoryStore::new(4, 2));
        assert_eq!(storage.backend_name(), "memory");
        assert_eq!(storage.width(), 4);
        assert_eq!(storage.room_count(), 32);
        storage.store_room(1, 2, 0, sample_room()).unwrap();
        assert_eq!(storage.occupied_rooms(), 1);
        let got = storage.room(1, 2, 0);
        assert_eq!(got, sample_room());
        assert_eq!(storage.weight_of(1, 2, SAMPLE_KEY), Some(-123_456_789));
        assert_eq!(storage.probe_bucket(1, 2, MISS).unwrap(), BucketProbe::Empty(1));
        storage.add_weight(1, 2, 0, 10).unwrap();
        assert_eq!(storage.room(1, 2, 0).weight, -123_456_779);
        let mut seen = Vec::new();
        storage.scan_occupied(&mut |r, c, room| seen.push((r, c, room.weight)));
        assert_eq!(seen, vec![(1, 2, -123_456_779)]);
        let cloned = storage.clone();
        assert_eq!(cloned.occupied_rooms(), 1);
    }
}
