//! The in-memory bucket matrix: an `m × m` grid of buckets, each with `l` rooms.
//!
//! A *room* stores one sketch edge: the fingerprint pair `⟨f(s), f(d)⟩`, the index pair
//! `(i_s, i_d)` recording which entries of the two address sequences produced this bucket
//! (needed to reverse the mapping during successor/precursor queries, Section V-A), and the
//! accumulated weight.  Multiple rooms per bucket are the "multiple rooms" improvement of
//! Section V-B2.
//!
//! [`MemoryStore`] is the default backend of the [`RoomStore`](crate::storage::RoomStore)
//! abstraction: the room region — 16-byte records in row-major bucket order, exactly as
//! the sketch file lays them out — held in one zeroed buffer of whole pages.  Scanning a
//! row (for successor queries) walks a contiguous region, scanning a column (for
//! precursor queries) strides by `m × l`, mirroring the cache behaviour the paper
//! discusses.  The probe, lookup and scan kernels, and the occupancy index that makes the
//! scans load-factor-proportional, are shared with the paged file backend
//! ([`crate::file_store`]) in [`crate::storage`].

use crate::error::StoreFault;
use crate::pager::PAGE_BYTES;
use crate::storage::{Layout, PageSource, RoomGrid, ROOM_RECORD_BYTES};
use serde::{Deserialize, Serialize};
use std::io;

/// One room: storage for a single sketch edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Room {
    /// Fingerprint of the source node, `f(s)`.
    pub source_fingerprint: u16,
    /// Fingerprint of the destination node, `f(d)`.
    pub destination_fingerprint: u16,
    /// 0-based position in the source's address sequence that produced this bucket's row.
    pub source_index: u8,
    /// 0-based position in the destination's address sequence that produced this column.
    pub destination_index: u8,
    /// Accumulated edge weight.
    pub weight: i64,
    /// Whether the room currently holds an edge.
    pub occupied: bool,
}

/// What identifies a sketch edge inside its bucket: the fingerprint pair and the index
/// pair — exactly bytes `0..6` of the shared 16-byte room record
/// ([`crate::storage::encode_room`]).  Ingest, the edge query and restore all build one
/// of these per candidate bucket and hand it to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoomKey {
    /// Fingerprint of the source node, `f(s)`.
    pub source_fingerprint: u16,
    /// Fingerprint of the destination node, `f(d)`.
    pub destination_fingerprint: u16,
    /// 0-based position in the source's address sequence that produced the bucket's row.
    pub source_index: u8,
    /// 0-based position in the destination's address sequence that produced the column.
    pub destination_index: u8,
}

impl RoomKey {
    /// An occupied room holding this edge at `weight` — the one place an occupied
    /// [`Room`] is made.
    pub fn room(self, weight: i64) -> Room {
        Room {
            source_fingerprint: self.source_fingerprint,
            destination_fingerprint: self.destination_fingerprint,
            source_index: self.source_index,
            destination_index: self.destination_index,
            weight,
            occupied: true,
        }
    }
}

impl Room {
    /// The key of the edge this room holds (meaningful only while `occupied`).
    #[inline]
    pub fn key(&self) -> RoomKey {
        RoomKey {
            source_fingerprint: self.source_fingerprint,
            destination_fingerprint: self.destination_fingerprint,
            source_index: self.source_index,
            destination_index: self.destination_index,
        }
    }

    /// Returns `true` if this room holds the edge identified by `key` (the match test of
    /// the edge-update and edge-query procedures).
    #[inline]
    pub fn matches(&self, key: RoomKey) -> bool {
        self.occupied && self.key() == key
    }

    /// The source half of the key, `(f(s), i_s)`: what a successor scan filters on and a
    /// precursor scan recovers the neighbour from.
    #[inline]
    pub fn source_half(&self) -> (u16, u8) {
        (self.source_fingerprint, self.source_index)
    }

    /// The destination half of the key, `(f(d), i_d)` — the mirror of
    /// [`source_half`](Self::source_half).
    #[inline]
    pub fn destination_half(&self) -> (u16, u8) {
        (self.destination_fingerprint, self.destination_index)
    }
}

/// The in-memory `m × m × l` room store (the default
/// [`RoomStore`](crate::storage::RoomStore) backend): the room region as one zeroed
/// buffer of whole pages, byte for byte what a sketch file holds.
#[derive(Clone)]
pub struct MemoryStore {
    grid: RoomGrid,
    region: Box<[[u8; PAGE_BYTES]]>,
}

impl std::fmt::Debug for MemoryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryStore")
            .field("width", &self.grid.layout.width)
            .field("rooms_per_bucket", &self.grid.layout.rooms)
            .field("occupied_rooms", &self.grid.occupied)
            .finish_non_exhaustive()
    }
}

impl MemoryStore {
    /// Allocates an empty matrix of `width × width` buckets with `rooms_per_bucket` rooms.
    pub fn new(width: usize, rooms_per_bucket: usize) -> Self {
        let grid = RoomGrid::new(Layout { width, rooms: rooms_per_bucket });
        // All-zero records decode as empty rooms, so the zeroed allocation is the format.
        let region = vec![[0u8; PAGE_BYTES]; grid.layout.pages()].into_boxed_slice();
        Self { grid, region }
    }

    /// A copy of `source`'s region, page by page through its page source (so a file
    /// store's dirty cached pages are copied, not the stale file image), with its
    /// bookkeeping — how a file store detaches into memory.
    pub(crate) fn copy_of(source: &impl PageSource) -> Self {
        let mut copy = Self::new(source.grid().layout.width, source.grid().layout.rooms);
        let copied = copy
            .region
            .iter_mut()
            .zip(0u64..)
            .try_for_each(|(into, page)| source.with_page(page, |bytes| *into = *bytes));
        source.io_fail(copied);
        copy.grid = source.grid().clone();
        copy
    }
}

/// The memory backend hands out the pages of its region; nothing can fail.
impl PageSource for MemoryStore {
    fn grid(&self) -> &RoomGrid {
        &self.grid
    }

    fn grid_mut(&mut self) -> &mut RoomGrid {
        &mut self.grid
    }

    // Inlined into the kernels like the rest of the page access (see `PageRun::records`).
    #[inline]
    fn with_page<T>(&self, page: u64, read: impl FnOnce(&[u8; PAGE_BYTES]) -> T) -> io::Result<T> {
        Ok(read(&self.region[page as usize]))
    }

    #[inline]
    fn write_record(&mut self, flat: usize, record: &[u8; ROOM_RECORD_BYTES]) -> io::Result<()> {
        let run = self.grid.layout.run_at(flat, 1);
        self.region[run.page as usize][run.bytes()].copy_from_slice(record);
        Ok(())
    }

    fn io_fail<T>(&self, result: io::Result<T>) -> T {
        result.unwrap_or_else(|error| unreachable!("memory pages cannot fail: {error}"))
    }

    #[inline]
    fn write_gate(&self) -> Result<(), StoreFault> {
        Ok(())
    }

    fn write_fault(&self, _context: &str, error: &io::Error) -> StoreFault {
        unreachable!("memory pages cannot fail: {error}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{naive_scan_row, BucketProbe, RoomStore};

    fn key(
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> RoomKey {
        RoomKey { source_fingerprint, destination_fingerprint, source_index, destination_index }
    }

    /// An occupied room (the trait's `store_room` takes the room whole).
    fn room(sf: u16, df: u16, si: u8, di: u8, weight: i64) -> Room {
        key(sf, df, si, di).room(weight)
    }

    #[test]
    fn new_matrix_is_empty() {
        let matrix = MemoryStore::new(4, 2);
        assert_eq!(matrix.width(), 4);
        assert_eq!(matrix.rooms_per_bucket(), 2);
        assert_eq!(matrix.room_count(), 32);
        assert_eq!(matrix.occupied_rooms(), 0);
        assert_eq!(matrix.load_factor(), 0.0);
        matrix.scan_occupied(&mut |_, _, _| panic!("an empty matrix has no occupied room"));
    }

    #[test]
    fn store_and_find_round_trip() {
        let mut matrix = MemoryStore::new(4, 2);
        assert_eq!(matrix.probe_bucket(1, 2, key(10, 20, 3, 4)).unwrap(), BucketProbe::Empty(0));
        matrix.store_room(1, 2, 0, room(10, 20, 3, 4, 7)).unwrap();
        assert_eq!(matrix.probe_bucket(1, 2, key(10, 20, 3, 4)).unwrap(), BucketProbe::Match(0));
        assert_eq!(matrix.weight_of(1, 2, key(10, 20, 3, 4)), Some(7));
        assert_eq!(matrix.weight_of(1, 2, key(10, 20, 3, 5)), None);
        assert_eq!(matrix.probe_bucket(1, 2, key(11, 20, 3, 4)).unwrap(), BucketProbe::Empty(1));
        assert_eq!(matrix.occupied_rooms(), 1);
        assert_eq!(matrix.room(1, 2, 0).weight, 7);
    }

    #[test]
    fn add_weight_accumulates() {
        let mut matrix = MemoryStore::new(2, 1);
        matrix.store_room(0, 1, 0, room(1, 2, 0, 0, 5)).unwrap();
        matrix.add_weight(0, 1, 0, 3).unwrap();
        assert_eq!(matrix.room(0, 1, 0).weight, 8);
    }

    #[test]
    fn full_bucket_has_no_empty_room() {
        let mut matrix = MemoryStore::new(2, 2);
        matrix.store_room(0, 0, 0, room(1, 1, 0, 0, 1)).unwrap();
        matrix.store_room(0, 0, 1, room(2, 2, 0, 0, 1)).unwrap();
        assert_eq!(matrix.probe_bucket(0, 0, key(3, 3, 0, 0)).unwrap(), BucketProbe::Full);
        assert_eq!(matrix.load_factor(), 2.0 / 8.0);
    }

    #[test]
    fn row_and_column_iteration_report_positions() {
        let mut matrix = MemoryStore::new(3, 2);
        matrix.store_room(1, 0, 0, room(5, 6, 1, 2, 10)).unwrap();
        matrix.store_room(1, 2, 1, room(7, 8, 3, 4, 20)).unwrap();
        matrix.store_room(0, 2, 0, room(9, 10, 5, 6, 30)).unwrap();

        let mut row1 = Vec::new();
        matrix.scan_row(1, &mut |c, r| row1.push((c, r.weight)));
        assert_eq!(row1, vec![(0, 10), (2, 20)]);

        let mut col2 = Vec::new();
        matrix.scan_column(2, &mut |r, room| col2.push((r, room.weight)));
        assert_eq!(col2, vec![(0, 30), (1, 20)]);

        let mut all = Vec::new();
        matrix.scan_occupied(&mut |r, c, room| all.push((r, c, room.weight)));
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(1, 0, 10)));
        assert!(all.contains(&(1, 2, 20)));
        assert!(all.contains(&(0, 2, 30)));
    }

    #[test]
    fn dense_rows_scan_linearly_with_identical_results() {
        let mut matrix = MemoryStore::new(8, 2);
        // Row 4: 6 of 8 buckets occupied — past the 50% dense threshold; row 6 sparse.
        for column in 0..6 {
            matrix.store_room(4, column, 0, room(5, 6, 1, 2, column as i64 + 100)).unwrap();
        }
        matrix.store_room(6, 3, 1, room(7, 8, 3, 4, 11)).unwrap();
        for row in [4usize, 6] {
            let mut indexed = Vec::new();
            matrix.scan_row(row, &mut |column, room| indexed.push((column, room.weight)));
            let mut reference = Vec::new();
            naive_scan_row(&matrix, row, &mut |c, r| reference.push((c, r.weight)));
            assert_eq!(indexed, reference, "row {row}: dense and sparse paths agree");
        }
        let mut column3 = Vec::new();
        matrix.scan_column(3, &mut |row, room| column3.push((row, room.weight)));
        assert_eq!(column3, vec![(4, 103), (6, 11)]);
    }

    #[test]
    fn room_match_requires_all_fields() {
        let room = room(1, 2, 3, 4, 5);
        assert_eq!(room.key(), key(1, 2, 3, 4));
        assert!(room.matches(key(1, 2, 3, 4)));
        assert!(!room.matches(key(1, 2, 3, 5)));
        assert!(!room.matches(key(1, 2, 2, 4)));
        assert!(!room.matches(key(1, 3, 3, 4)));
        assert!(!room.matches(key(0, 2, 3, 4)));
        let empty = Room { occupied: false, ..room };
        assert!(!empty.matches(key(1, 2, 3, 4)));
    }
}
