//! Pluggable room storage: the one room region both backends hold, the kernels that read
//! and write it, and [`RoomStorage`], the enum the sketch holds over the two backends.
//!
//! The `m × m × l` room grid is the only part of a GSS sketch whose size is proportional to
//! the configured matrix rather than to the observed stream, so it is the part that decides
//! whether a `GSS_SCALE=paper` CAIDA-style run fits on a machine.  Both backends hold it as
//! the **same bytes**: fixed-size little-endian room records ([`ROOM_RECORD_BYTES`] each,
//! encoded by [`encode_room`]) at flat index `((row · m) + column) · l + slot`, in a region
//! of whole 4-KiB pages (`Layout`).  They differ only in where a page comes from:
//!
//! * [`MemoryStore`] — the region as one zeroed buffer in memory; fastest and the default;
//! * [`FileStore`] — the region as pages of a sketch file behind an LRU page cache with
//!   dirty-page write-back, for sketches larger than RAM.  A `FileStore` sketch file
//!   doubles as its own checkpoint: see
//!   [`GssSketch::open_file`](crate::GssSketch::open_file).
//!
//! That difference is the crate-private `PageSource` trait: read one page, write one
//! record, map a failure.  The record walk, the bucket probe, the edge lookup and the line
//! scans are written once over it — provided methods of the trait — and monomorphised per
//! backend, so the memory backend's never-failing `io::Result`s compile away.
//!
//! [`RoomStorage`] is the enum the sketch actually holds — enum dispatch keeps
//! [`GssSketch`](crate::GssSketch) a non-generic type so every existing caller, trait
//! object and collection keeps compiling, and keeps the probe, the edge lookup and the
//! room writes statically dispatched (they are the inner loop of ingest and edge queries).
//! Each of its room methods dispatches once to the backend's kernel.  The slot-by-slot
//! oracles the equivalence tests compare against — [`naive_probe_bucket`],
//! [`naive_scan_row`], [`naive_scan_column`] — need nothing but [`RoomStorage::room`].
//!
//! The streaming snapshots of [`persistence`](crate::persistence) share the room record
//! too ([`decode_room`] reads it back), so bytes move between the in-memory matrix,
//! sketch files and snapshots without translation.

use crate::config::GssConfig;
use crate::error::StoreFault;
use crate::file_store::FileStore;
use crate::matrix::{MemoryStore, Room, RoomKey};
use crate::pager::PAGE_BYTES;
use crate::persistence::PersistenceError;
use std::io;
use std::ops::Range;
use std::path::PathBuf;

/// Compact per-row and per-column bucket-occupancy bitmaps.
///
/// One bit per bucket in each direction (`2·m²/8` bytes total, under 1% of matrix memory
/// at `l = 2`), set on the first [`RoomStorage::store_room`] into a bucket and never
/// cleared (rooms are never freed — deletions zero weights but keep rooms occupied).
/// Row/column scans walk set bits with popcount-guided jumps instead of probing every
/// bucket, which makes successor/precursor queries proportional to the load factor
/// rather than to the matrix geometry.
///
/// The index is a pure acceleration structure: it never reaches disk or snapshots (file
/// format and snapshot bytes stay identical) and is rebuilt from room occupancy on
/// [`open_file`](crate::GssSketch::open_file) and snapshot restore.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccupancyIndex {
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
    pub(crate) fn new(width: usize) -> Self {
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
    pub(crate) fn mark(&mut self, row: usize, column: usize) {
        debug_assert!(row < self.width && column < self.width);
        self.rows[row * self.words_per_line + column / 64] |= 1u64 << (column % 64);
        self.columns[column * self.words_per_line + row / 64] |= 1u64 << (row % 64);
    }

    /// The occupied columns of `row`, ascending.
    pub(crate) fn in_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        Self::set_positions(self.line(&self.rows, row))
    }

    /// The occupied rows of `column`, ascending.
    pub(crate) fn in_column(&self, column: usize) -> impl Iterator<Item = usize> + '_ {
        Self::set_positions(self.line(&self.columns, column))
    }

    /// Number of occupied buckets in `row` (popcount over the row's bitmap words).
    #[inline]
    pub(crate) fn occupied_in_row(&self, row: usize) -> usize {
        self.line(&self.rows, row).iter().map(|word| word.count_ones() as usize).sum()
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

/// The outcome of a fused single-pass bucket probe ([`RoomStorage::probe_bucket`]).
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

/// Room records per region page.  A record never straddles a page, because the record
/// size divides [`PAGE_BYTES`]; a *bucket* straddles one only when `l` is not a power of
/// two.
const RECORDS_PER_PAGE: usize = PAGE_BYTES / ROOM_RECORD_BYTES;

/// The geometry of a room region: an `m × m` bucket grid of `l` rooms each, stored
/// row-major in whole pages — the same on both backends.  Every "where does this room
/// live" question is answered here; where the region sits inside a sketch file is
/// `file_store::format`'s business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    /// Side length `m`.
    pub(crate) width: usize,
    /// Rooms per bucket `l`.
    pub(crate) rooms: usize,
}

/// A run of room records lying back to back inside one region page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PageRun {
    /// Region page index (what the page cache is keyed by).
    pub(crate) page: u64,
    /// Byte offset of the run's first record inside the page.
    pub(crate) offset: usize,
    /// Records in the run.
    pub(crate) len: usize,
}

impl PageRun {
    /// The run's byte range inside its page.
    pub(crate) fn bytes(&self) -> Range<usize> {
        self.offset..self.offset + self.len * ROOM_RECORD_BYTES
    }

    /// The run's records inside `data` — the image of page [`page`](Self::page) — in
    /// flat-index order.  Inlined: the kernels call it from another codegen unit, and
    /// out of line it cost memory-backend successor and precursor queries 13–19 %.
    #[inline]
    pub(crate) fn records<'a>(
        &self,
        data: &'a [u8],
    ) -> impl Iterator<Item = &'a [u8; ROOM_RECORD_BYTES]> {
        data[self.bytes()]
            .chunks_exact(ROOM_RECORD_BYTES)
            .map(|record| record.try_into().expect("chunks are record-sized"))
    }
}

impl Layout {
    pub(crate) fn new(config: &GssConfig) -> Self {
        Self { width: config.width, rooms: config.rooms }
    }

    /// Total number of rooms (`m² × l`).
    pub(crate) fn room_count(&self) -> usize {
        self.width * self.width * self.rooms
    }

    /// Number of pages the region spans (the last one zero-padded).
    pub(crate) fn pages(&self) -> usize {
        self.room_count().div_ceil(RECORDS_PER_PAGE)
    }

    /// Flat index of `(row, column, slot)` in the room region — the position
    /// write-ahead-log `ROOM` frames carry.
    pub(crate) fn flat_index(&self, row: usize, column: usize, slot: usize) -> usize {
        debug_assert!(row < self.width && column < self.width && slot < self.rooms);
        (row * self.width + column) * self.rooms + slot
    }

    /// `(row, column)` of the bucket holding flat index `flat`.
    pub(crate) fn bucket_of(&self, flat: usize) -> (usize, usize) {
        let bucket = flat / self.rooms;
        (bucket / self.width, bucket % self.width)
    }

    /// The longest run of at most `count` records starting at flat index `flat` that
    /// share a page.  Walking a flat range run by run is one page access (on the file
    /// backend one cache lookup and one latch) per touched page; asking with `count = 1`
    /// locates a single room.
    pub(crate) fn run_at(&self, flat: usize, count: usize) -> PageRun {
        let in_page = flat % RECORDS_PER_PAGE;
        PageRun {
            page: (flat / RECORDS_PER_PAGE) as u64,
            offset: in_page * ROOM_RECORD_BYTES,
            len: count.min(RECORDS_PER_PAGE - in_page),
        }
    }

    /// The page holding the first room of bucket `(row, column)`: the key batch ingest
    /// sorts its writes by on the file backend.
    pub(crate) fn page_of_bucket(&self, row: usize, column: usize) -> u64 {
        self.run_at(self.flat_index(row, column, 0), 1).page
    }
}

/// The bookkeeping of a room region, kept once beside the kernels for both backends: its
/// layout, its bucket-occupancy index and its occupied-room count.  Neither of the last
/// two is ever stored — both are rebuilt from the region on open and restore.
#[derive(Debug, Clone)]
pub(crate) struct RoomGrid {
    pub(crate) layout: Layout,
    pub(crate) index: OccupancyIndex,
    pub(crate) occupied: usize,
}

impl RoomGrid {
    /// The bookkeeping of an all-empty region.
    pub(crate) fn new(layout: Layout) -> Self {
        Self { layout, index: OccupancyIndex::new(layout.width), occupied: 0 }
    }

    /// Counts one more occupied room, in bucket `(row, column)`.
    pub(crate) fn mark(&mut self, row: usize, column: usize) {
        self.occupied += 1;
        self.index.mark(row, column);
    }
}

/// Where a room region's pages come from: the one thing the two backends do differently.
/// Besides the [`RoomGrid`] beside the pages, a source owes three things — read one page,
/// write one record, map a failure — and the room kernels are written once over them, as
/// the provided methods below.  [`MemoryStore`] hands out the pages of its region and
/// never fails; [`FileStore`] hands out cached pages, logs each record before writing it
/// and fail-stops.
pub(crate) trait PageSource: Sized {
    /// The region's layout, occupancy index and occupied count.
    fn grid(&self) -> &RoomGrid;
    /// The same, for the one kernel that changes it ([`store_room`](Self::store_room)).
    fn grid_mut(&mut self) -> &mut RoomGrid;
    /// Runs `read` over region page `page`.
    fn with_page<T>(&self, page: u64, read: impl FnOnce(&[u8; PAGE_BYTES]) -> T) -> io::Result<T>;
    /// Writes one encoded record at flat index `flat`.
    fn write_record(&mut self, flat: usize, record: &[u8; ROOM_RECORD_BYTES]) -> io::Result<()>;
    /// Read-side failure: unwraps a read (the read-side kernels' signatures carry no
    /// error).  Called once per lookup or scan, never per bucket or page run — folding it
    /// into the per-bucket loop measured 27 % off file-backed precursor queries.
    fn io_fail<T>(&self, result: io::Result<T>) -> T;
    /// Write-side failure, before: the gate every write-path step passes first.
    fn write_gate(&self) -> Result<(), StoreFault>;
    /// Write-side failure, after: turns a failed write-path step into the store's sticky
    /// fault.
    fn write_fault(&self, context: &str, error: &io::Error) -> StoreFault;

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        self.io_fail(read_room(self, self.grid().layout.flat_index(row, column, slot)))
    }

    fn weight_of(&self, row: usize, column: usize, key: RoomKey) -> Option<i64> {
        let mut weight = None;
        self.io_fail(walk_bucket(self, row, column, |_, record| {
            let room = decode_room(record);
            if room.matches(key) {
                weight = Some(room.weight);
            }
            weight.is_none()
        }));
        weight
    }

    /// On the file backend a cache miss here may have to evict a dirty page, so a
    /// write-back fault (or a hard read fault) poisons the store and surfaces as the
    /// sticky [`StoreFault`].
    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        key: RoomKey,
    ) -> Result<BucketProbe, StoreFault> {
        self.write_gate()?;
        let mut probe = BucketProbe::Full;
        walk_bucket(self, row, column, |slot, record| {
            let room = decode_room(record);
            if room.matches(key) {
                probe = BucketProbe::Match(slot);
                return false;
            }
            if !room.occupied && probe == BucketProbe::Full {
                probe = BucketProbe::Empty(slot);
            }
            true
        })
        .map_err(|error| self.write_fault("bucket probe page load", &error))?;
        Ok(probe)
    }

    /// Read, add, then write the full record — the write-ahead log carries whole records.
    fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault> {
        self.write_gate()?;
        let flat = self.grid().layout.flat_index(row, column, slot);
        read_room(self, flat)
            .and_then(|mut room| {
                debug_assert!(room.occupied, "adding weight to an empty room");
                room.weight += weight;
                self.write_record(flat, &encode_room(&room))
            })
            .map_err(|error| self.write_fault("room write", &error))
    }

    fn store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), StoreFault> {
        self.write_gate()?;
        debug_assert!(room.occupied, "storing an unoccupied room");
        let flat = self.grid().layout.flat_index(row, column, slot);
        debug_assert!(
            // An unreadable room is the write's problem, not the assert's.
            read_room(self, flat).map(|existing| !existing.occupied).unwrap_or(true),
            "overwriting an occupied room"
        );
        self.write_record(flat, &encode_room(&room))
            .map_err(|error| self.write_fault("room write", &error))?;
        self.grid_mut().mark(row, column);
        Ok(())
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(scan_row_inner(self, row, visit));
    }

    fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(scan_column_inner(self, column, visit));
    }

    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        for row in 0..self.grid().layout.width {
            self.scan_row(row, &mut |column, room| visit(row, column, room));
        }
    }
}

/// Visits the `count` consecutive records starting at flat index `start` in order, one
/// page run at a time — one [`PageSource::with_page`] per touched page.  The callback
/// receives the record's offset from `start` and the record still encoded, and returns
/// `false` to stop early: scans test the occupancy byte before decoding (decoding every
/// record first cost 20 % of memory-backend successor queries).
fn walk<S: PageSource>(
    store: &S,
    start: usize,
    count: usize,
    mut visit: impl FnMut(usize, &[u8; ROOM_RECORD_BYTES]) -> bool,
) -> io::Result<()> {
    let layout = store.grid().layout;
    let mut done = 0usize;
    while done < count {
        let run = layout.run_at(start + done, count - done);
        let stopped = store.with_page(run.page, |data| {
            run.records(data).enumerate().any(|(offset, record)| !visit(done + offset, record))
        })?;
        if stopped {
            break;
        }
        done += run.len;
    }
    Ok(())
}

/// [`walk`] over the rooms of bucket `(row, column)` in slot order.
fn walk_bucket<S: PageSource>(
    store: &S,
    row: usize,
    column: usize,
    visit: impl FnMut(usize, &[u8; ROOM_RECORD_BYTES]) -> bool,
) -> io::Result<()> {
    let layout = store.grid().layout;
    walk(store, layout.flat_index(row, column, 0), layout.rooms, visit)
}

/// Visits the occupied rooms of bucket `(row, column)`.
fn scan_bucket<S: PageSource>(
    store: &S,
    row: usize,
    column: usize,
    mut visit: impl FnMut(Room),
) -> io::Result<()> {
    walk_bucket(store, row, column, |_, record| {
        if record[ROOM_OCCUPIED_BYTE] != 0 {
            visit(decode_room(record));
        }
        true
    })
}

/// Reads the room at flat index `flat`.
fn read_room<S: PageSource>(store: &S, flat: usize) -> io::Result<Room> {
    let mut found = Room::default();
    walk(store, flat, 1, |_, record| {
        found = decode_room(record);
        false
    })?;
    Ok(found)
}

/// Indexed row scan: word-by-word over the row's occupancy bitmap, so only buckets that
/// ever received an edge are read — unless the row is dense (≥ 50% of its buckets
/// occupied), where the bitmap's skip-ahead win vanishes and a straight walk of the
/// row's contiguous records is both simpler and sequential.
fn scan_row_inner<S: PageSource>(
    store: &S,
    row: usize,
    visit: &mut dyn FnMut(usize, Room),
) -> io::Result<()> {
    let RoomGrid { layout, ref index, .. } = *store.grid();
    if dense_scan(index.occupied_in_row(row), layout.width) {
        let rooms = layout.rooms;
        return walk(
            store,
            layout.flat_index(row, 0, 0),
            layout.width * rooms,
            |offset, record| {
                if record[ROOM_OCCUPIED_BYTE] != 0 {
                    visit(offset / rooms, decode_room(record));
                }
                true
            },
        );
    }
    for column in index.in_row(row) {
        scan_bucket(store, row, column, |room| visit(column, room))?;
    }
    Ok(())
}

/// Indexed column scan.  There is no dense escape hatch here: a column's buckets are
/// never contiguous in the row-major region, so a "linear" walk would be the bitmap walk
/// plus a page access for every *empty* bucket.
fn scan_column_inner<S: PageSource>(
    store: &S,
    column: usize,
    visit: &mut dyn FnMut(usize, Room),
) -> io::Result<()> {
    for row in store.grid().index.in_column(column) {
        scan_bucket(store, row, column, |room| visit(row, room))?;
    }
    Ok(())
}

/// Where a sketch keeps its room matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StorageBackend {
    /// The room region in memory (the default; fastest).
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

/// Reference full-grid row scan, **ignoring any occupancy index**: probes every bucket of
/// the row through [`RoomStorage::room`].  This is the geometry-proportional behaviour the
/// indexed [`RoomStorage::scan_row`] replaced; it is kept as the observational baseline
/// for the equivalence property tests and the `query_scaling` bench.
pub fn naive_scan_row(store: &RoomStorage, row: usize, visit: &mut dyn FnMut(usize, Room)) {
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
pub fn naive_scan_column(store: &RoomStorage, column: usize, visit: &mut dyn FnMut(usize, Room)) {
    for row in 0..store.width() {
        for slot in 0..store.rooms_per_bucket() {
            let room = store.room(row, column, slot);
            if room.occupied {
                visit(row, room);
            }
        }
    }
}

/// Reference bucket probe, slot by slot through [`RoomStorage::room`]: the first slot
/// holding `key`, else the first empty slot, else [`BucketProbe::Full`] — what the
/// two-pass `find_match`-then-`find_empty` of the original trait answered.  The oracle
/// that [`RoomStorage::probe_bucket`] and [`RoomStorage::weight_of`] are checked against.
pub fn naive_probe_bucket(
    store: &RoomStorage,
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

/// The store a [`GssSketch`](crate::GssSketch) holds: enum dispatch over the two backends.
/// The file backend is boxed — its WAL, page-cache and checkpoint state would otherwise
/// inflate every in-memory sketch by the size of the larger variant.
///
/// Scan callbacks visit **occupied rooms only** and pass rooms by value (records are 16
/// bytes), so a backend behind a page cache need not hand out references into locked
/// internals.
///
/// **Concurrency contract**: every read method takes `&self` and both backends keep that
/// promise literal — concurrent readers never observe torn rooms and (on the file
/// backend, whose page cache is lock-striped with per-page latches) never serialize on a
/// store-wide lock.  Mutation stays `&mut self`, so a store has at most one writer at a
/// time; concurrent ingest scales by sharding (`ShardedGss`), one store per shard, with
/// readers fanning out across all shards.
///
/// **Failure contract**: the three write-path methods — [`probe_bucket`](Self::probe_bucket),
/// [`add_weight`](Self::add_weight) and [`store_room`](Self::store_room) — return
/// `Result<_, StoreFault>`.  The in-memory backend always answers `Ok`; the file backend
/// health-gates each call and returns its sticky fail-stop cause (see
/// [`crate::error::StoreHealth`]), which is how
/// [`GssSketch::try_insert`](crate::GssSketch::try_insert) surfaces typed errors.
#[derive(Debug)]
pub enum RoomStorage {
    /// Dense in-memory backend.
    Memory(MemoryStore),
    /// Paged file backend.
    File(Box<FileStore>),
}

macro_rules! dispatch {
    ($self:ident, $store:ident => $body:expr) => {
        match $self {
            RoomStorage::Memory($store) => $body,
            RoomStorage::File($store) => $body,
        }
    };
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

    fn grid(&self) -> &RoomGrid {
        dispatch!(self, store => store.grid())
    }

    /// Side length `m`.
    pub fn width(&self) -> usize {
        self.grid().layout.width
    }

    /// Rooms per bucket `l`.
    pub fn rooms_per_bucket(&self) -> usize {
        self.grid().layout.rooms
    }

    /// Number of currently occupied rooms.
    pub fn occupied_rooms(&self) -> usize {
        self.grid().occupied
    }

    /// Total number of rooms (`m² × l`).
    pub fn room_count(&self) -> usize {
        self.grid().layout.room_count()
    }

    /// Fraction of rooms occupied.
    pub fn load_factor(&self) -> f64 {
        match self.room_count() {
            0 => 0.0,
            rooms => self.occupied_rooms() as f64 / rooms as f64,
        }
    }

    /// Reads the room at `slot` of bucket `(row, column)`.
    pub fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        dispatch!(self, store => store.room(row, column, slot))
    }

    /// The edge lookup: the weight of the room of bucket `(row, column)` holding `key`, if
    /// any, in one pass over the bucket (one page lookup and one latch on the file
    /// backend).  Read-side: it is not health-gated, so a poisoned file store keeps
    /// answering edge queries.
    pub fn weight_of(&self, row: usize, column: usize, key: RoomKey) -> Option<i64> {
        dispatch!(self, store => store.weight_of(row, column, key))
    }

    /// Fused single-pass probe of bucket `(row, column)` that opens every edge placement:
    /// the slot holding `key`, else the first empty slot, else [`BucketProbe::Full`]
    /// ([`naive_probe_bucket`] is the slot-by-slot reference).  On the file backend a
    /// probe's cache miss may have to evict a dirty page, so even this read-side step can
    /// trip over a write-back fault — it is health-gated and poisons on failure, which is
    /// why it stays separate from [`weight_of`](Self::weight_of).
    pub fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        key: RoomKey,
    ) -> Result<BucketProbe, StoreFault> {
        dispatch!(self, store => store.probe_bucket(row, column, key))
    }

    /// Adds `weight` to the (occupied) room at `slot` of bucket `(row, column)`.
    pub fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault> {
        dispatch!(self, store => store.add_weight(row, column, slot, weight))
    }

    /// Writes a fresh edge into the (empty) room at `slot` of bucket `(row, column)`.
    pub fn store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), StoreFault> {
        dispatch!(self, store => store.store_room(row, column, slot, room))
    }

    /// Puts an existing `room` into bucket `(row, column)` the way ingest places a new
    /// edge — probe with the room's own key, claim the first empty slot — and returns the
    /// probe's outcome.  Anything but [`BucketProbe::Empty`] means nothing was stored:
    /// `Full` is a bucket fed more than `l` rooms, `Match` a second room under a key the
    /// bucket already holds (ingest never produces one and an edge query could never
    /// reach it).  The placement rule of snapshot restore, whose input is untrusted.
    pub(crate) fn place_room(
        &mut self,
        row: usize,
        column: usize,
        room: Room,
    ) -> Result<BucketProbe, StoreFault> {
        let probe = self.probe_bucket(row, column, room.key())?;
        if let BucketProbe::Empty(slot) = probe {
            self.store_room(row, column, slot, room)?;
        }
        Ok(probe)
    }

    /// Visits every occupied room of matrix row `row` as `(column, room)`.
    pub fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        dispatch!(self, store => store.scan_row(row, visit))
    }

    /// Visits every occupied room of matrix column `column` as `(row, room)`.
    pub fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        dispatch!(self, store => store.scan_column(column, visit))
    }

    /// Visits every occupied room as `(row, column, room)` in ascending
    /// `(row, column, slot)` order: [`scan_row`](Self::scan_row) for every row.
    pub fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        dispatch!(self, store => store.scan_occupied(visit))
    }
}

/// Cloning a file-backed store **detaches it into memory**: the clone is a
/// [`MemoryStore`] holding a page-for-page copy of the region (cached dirty pages
/// included), leaving the original file untouched.  This is what merge/analysis paths
/// want (they clone to read), and it keeps `#[derive(Clone)]`-style ergonomics on the
/// sketch without duplicating files on disk.
impl Clone for RoomStorage {
    fn clone(&self) -> Self {
        match self {
            Self::Memory(store) => Self::Memory(store.clone()),
            Self::File(store) => Self::Memory(MemoryStore::copy_of(store.as_ref())),
        }
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
        let marks = [(0, 0), (0, 63), (0, 64), (0, 69), (5, 2), (63, 5), (64, 5), (69, 68)];
        let marked = |index: &OccupancyIndex, row, column| {
            let in_row = index.in_row(row).any(|c| c == column);
            assert_eq!(in_row, index.in_column(column).any(|r| r == row), "mirrors agree");
            in_row
        };
        for &(row, column) in &marks {
            assert!(!marked(&index, row, column));
            index.mark(row, column);
            assert!(marked(&index, row, column));
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
        assert_eq!(storage.place_room(1, 2, sample_room()).unwrap(), BucketProbe::Match(0));
        assert_eq!(storage.place_room(1, 2, MISS.room(1)).unwrap(), BucketProbe::Full);
        assert_eq!(storage.place_room(3, 3, MISS.room(1)).unwrap(), BucketProbe::Empty(0));
        assert_eq!(storage.occupied_rooms(), 3);
    }

    #[test]
    fn naive_scans_visit_what_indexed_scans_visit() {
        let mut store = RoomStorage::Memory(MemoryStore::new(5, 2));
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

    /// Every `RoomStorage` method answers the same through the file arm as through the
    /// memory arm: one op sequence runs on both, and each answer is compared.
    #[test]
    fn file_storage_answers_like_memory_storage() {
        fn agree<T: PartialEq + std::fmt::Debug>(
            stores: &mut [RoomStorage; 2],
            op: impl Fn(&mut RoomStorage) -> T,
        ) -> T {
            let memory = op(&mut stores[0]);
            assert_eq!(op(&mut stores[1]), memory, "file arm disagrees");
            memory
        }
        let path =
            std::env::temp_dir().join(format!("gss-storage-dispatch-{}.gss", std::process::id()));
        // l = 3 makes buckets straddle pages (bucket (2, 21) does); a 2-page cache evicts
        // dirty pages between the rows written below.
        let config = GssConfig { rooms: 3, ..GssConfig::paper_default(32) };
        let file = FileStore::create(&path, &config, 2).unwrap();
        let mut stores =
            [RoomStorage::Memory(MemoryStore::new(32, 3)), RoomStorage::File(Box::new(file))];
        let key = |n: u16| RoomKey { source_fingerprint: n, ..SAMPLE_KEY };
        let geometry = |s: &mut RoomStorage| {
            (s.width(), s.rooms_per_bucket(), s.room_count(), s.occupied_rooms(), s.load_factor())
        };
        assert_eq!(agree(&mut stores, geometry), (32, 3, 3072, 0, 0.0));
        // Row 2 dense (24 of 32 buckets), row 9 sparse (2 of 32).
        for column in 0..24 {
            agree(&mut stores, |s| s.store_room(2, column, 0, key(column as u16).room(1)).unwrap());
        }
        for column in [4, 30] {
            agree(&mut stores, |s| s.store_room(9, column, 0, MISS.room(2)).unwrap());
        }
        let probe = |row, column, key| move |s: &mut RoomStorage| s.probe_bucket(row, column, key);
        assert_eq!(agree(&mut stores, probe(2, 21, key(21))), Ok(BucketProbe::Match(0)));
        assert_eq!(agree(&mut stores, probe(2, 21, MISS)), Ok(BucketProbe::Empty(1)));
        for slot in 1..3 {
            agree(&mut stores, |s| {
                s.store_room(2, 21, slot, key(100 + slot as u16).room(3)).unwrap()
            });
        }
        assert_eq!(agree(&mut stores, probe(2, 21, MISS)), Ok(BucketProbe::Full));
        agree(&mut stores, |s| s.add_weight(2, 21, 2, 40).unwrap());
        agree(&mut stores, |s| s.add_weight(9, 30, 0, -5).unwrap());
        assert_eq!(agree(&mut stores, |s| s.room(2, 21, 2)), key(102).room(43));
        assert_eq!(agree(&mut stores, |s| s.weight_of(2, 21, key(102))), Some(43));
        assert_eq!(agree(&mut stores, |s| s.weight_of(2, 21, MISS)), None);
        let place = |row, column, room| move |s: &mut RoomStorage| s.place_room(row, column, room);
        assert_eq!(agree(&mut stores, place(5, 5, MISS.room(7))), Ok(BucketProbe::Empty(0)));
        assert_eq!(agree(&mut stores, place(5, 5, MISS.room(8))), Ok(BucketProbe::Match(0)));
        assert_eq!(agree(&mut stores, place(2, 21, MISS.room(9))), Ok(BucketProbe::Full));
        assert_eq!(agree(&mut stores, geometry), (32, 3, 3072, 29, 29.0 / 3072.0));
        for row in [2, 9] {
            let rooms = agree(&mut stores, |s| {
                let mut seen = Vec::new();
                s.scan_row(row, &mut |column, room| seen.push((column, room)));
                seen
            });
            assert_eq!(rooms.len(), if row == 2 { 26 } else { 2 }, "row {row}");
        }
        let column = agree(&mut stores, |s| {
            let mut seen = Vec::new();
            s.scan_column(21, &mut |row, room| seen.push((row, room)));
            seen
        });
        assert_eq!(column.len(), 3);
        let all = agree(&mut stores, |s| {
            let mut seen = Vec::new();
            s.scan_occupied(&mut |row, column, room| seen.push((row, column, room)));
            seen
        });
        assert_eq!(all.len(), 29);
        let flushed = &stores[1].as_file().unwrap().counters().pages_flushed;
        assert!(crate::metrics::get(flushed) > 0, "dirty pages were evicted");
        drop(stores);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::wal::wal_path(&path)).ok();
    }

    /// Both backends hold one room region: fed the same stream, a memory store and a file
    /// store hold the same bytes page for page — and so does the file store's page-copy
    /// clone, taken while the 2-page cache still holds dirty pages.  So does the file
    /// sketch recovered from its log after it is abandoned (stale page images in the file,
    /// several frames per room), and once more reopened clean.
    #[test]
    fn memory_and_file_stores_hold_byte_identical_room_regions() {
        use crate::file_store::format::CLEAN_FLAG_OFFSET;
        use crate::GssSketch;
        use gss_graph::SummaryWrite;
        let path =
            std::env::temp_dir().join(format!("gss-storage-one-region-{}.gss", std::process::id()));
        // l = 3 makes buckets straddle pages.
        let config = GssConfig { rooms: 3, ..GssConfig::paper_default(30) };
        let mut memory_sketch = GssSketch::new(config).unwrap();
        let file = StorageBackend::File { path: path.clone(), cache_pages: 2 };
        let mut file_sketch = GssSketch::with_storage(config, file).unwrap();
        for t in 0..3000u64 {
            let (source, destination) = (t % 2300 * 7 % 997, t % 2300 * 13 % 1009);
            memory_sketch.insert(source, destination, (t % 5) as i64 + 1);
            file_sketch.insert(source, destination, (t % 5) as i64 + 1);
        }
        let detached = file_sketch.room_storage().clone();
        let (RoomStorage::Memory(memory), RoomStorage::File(file), RoomStorage::Memory(detached)) =
            (memory_sketch.room_storage(), file_sketch.room_storage(), &detached)
        else {
            panic!("a memory sketch, a file sketch and a detached clone");
        };
        /// `store` holds `memory`'s region page for page, and the same occupancy index.
        fn assert_same_region(store: &impl PageSource, memory: &MemoryStore, label: &str) {
            let pages = memory.grid().layout.pages() as u64;
            assert_eq!(pages, store.grid().layout.pages() as u64);
            for page in 0..pages {
                let expected = memory.with_page(page, |bytes| *bytes).unwrap();
                assert_eq!(
                    store.with_page(page, |bytes| *bytes).unwrap(),
                    expected,
                    "{label} {page}"
                );
            }
            let (grid, expected) = (store.grid(), memory.grid());
            assert_eq!(grid.occupied, expected.occupied);
            for line in 0..expected.layout.width {
                assert!(grid.index.in_row(line).eq(expected.index.in_row(line)));
                assert!(grid.index.in_column(line).eq(expected.index.in_column(line)));
            }
        }
        assert_same_region(&**file, memory, "file");
        assert_same_region(detached, memory, "detached");
        // Abandoned, the file holds stale page images and the log several frames per
        // room: the first reopen recovers, and its drop checkpoints, so the second is clean.
        file_sketch.abandon();
        for (clean, label) in [(0, "recovered"), (1, "clean")] {
            assert_eq!(std::fs::read(&path).unwrap()[CLEAN_FLAG_OFFSET as usize], clean);
            let reopened = GssSketch::open_file(&path, 2).unwrap();
            assert_eq!(reopened.items_inserted(), 3000);
            let RoomStorage::File(file) = reopened.room_storage() else {
                panic!("a reopened file sketch");
            };
            assert_same_region(&**file, memory, label);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::wal::wal_path(&path)).ok();
    }
}
