//! The [`RoomStore`] face of the file store: single-room access, the page-batched record
//! walk, and the probes and scans built on it.
//!
//! ## Failure model
//!
//! Every write-path function returns `Result<_, StoreFault>`: the first runtime I/O
//! failure (disk full, failed fsync, file removed under us) **poisons** the store's
//! sticky [`StoreHealth`](crate::error::StoreHealth) and comes back as the typed cause,
//! every later write is rejected with that same cause, and reads keep serving — cache
//! hits directly, misses degraded to uncached reads of the file image.  Only the
//! read-side [`RoomStore`] methods (`room`, `weight_of`, `scan_*`), whose signatures carry
//! no error, still panic on an unreadable page (poisoning first); construction, open
//! and sync report errors properly.

use super::format::Layout;
use super::FileStore;
use crate::error::StoreFault;
use crate::matrix::{Room, RoomKey};
use crate::pager::PAGE_BYTES;
use crate::storage::{decode_room, dense_scan, encode_room, BucketProbe, RoomStore};
use crate::wal;
use std::io;

impl FileStore {
    /// The room-region page holding the first room of bucket `(row, column)` — the key
    /// batch ingest sorts its writes by, so consecutive writes ride the pinned cursor.
    pub(crate) fn page_of_bucket(&self, row: usize, column: usize) -> u64 {
        self.layout.page_of_bucket(row, column)
    }

    /// Unwraps a read-path I/O result, panicking with context on failure (the read-side
    /// [`RoomStore`] signatures carry no error; see the module docs).  The store is
    /// poisoned *before* the panic unwinds, so concurrent threads and any catch-unwind
    /// boundary observe the typed fail-stop state, not just the panic message.
    fn io_fail<T>(&self, result: io::Result<T>) -> T {
        result.unwrap_or_else(|error| {
            self.health.poison(StoreFault::from_io("sketch file I/O", &error));
            panic!("sketch file I/O failed on {}: {error}", self.path.display())
        })
    }

    /// Runs `read` over one page's bytes: through the cache normally, degrading to an
    /// uncached image read once the store is poisoned.  A cache *miss* may have to
    /// evict a dirty page, and a poisoned store can no longer write anything back — so
    /// instead of surfacing that dead end, misses bypass the cache entirely and read
    /// the file image (an evicted page is always already in the file; a victim whose
    /// write-back fails stays cached and dirty).  Cache hits (including dirty pages)
    /// keep serving either way, which is the "reads keep serving from cache" half of
    /// the fail-stop contract.
    fn with_page<T>(&self, page_index: u64, read: impl FnOnce(&[u8]) -> T) -> io::Result<T> {
        match self.cache.lookup(page_index, self) {
            Ok(slot) => Ok(read(&self.cache.read(&slot)[..])),
            Err(_) if self.health.is_poisoned() => {
                let mut buffer = [0u8; PAGE_BYTES];
                self.file.read_exact_at(&mut buffer[..], Layout::page_offset(page_index))?;
                Ok(read(&buffer))
            }
            Err(error) => Err(error),
        }
    }

    /// Visits the `count` consecutive records starting at flat index `start` in order,
    /// batching page traffic: one cache lookup and one latch acquisition per touched
    /// page (a bucket spans a page boundary only when `l` is not a power of two).  The
    /// callback receives the record's offset from `start` and returns `false` to stop
    /// early.
    fn walk(
        &self,
        start: usize,
        count: usize,
        mut visit: impl FnMut(usize, Room) -> bool,
    ) -> io::Result<()> {
        let mut done = 0usize;
        while done < count {
            let run = self.layout.run_at(start + done, count - done);
            let stopped = self.with_page(run.page, |data| {
                for record in run.records(data) {
                    if !visit(done, decode_room(record)) {
                        return true;
                    }
                    done += 1;
                }
                false
            })?;
            if stopped {
                break;
            }
        }
        Ok(())
    }

    /// [`walk`](Self::walk) over the rooms of bucket `(row, column)` in slot order.
    fn walk_bucket(
        &self,
        row: usize,
        column: usize,
        visit: impl FnMut(usize, Room) -> bool,
    ) -> io::Result<()> {
        self.walk(self.layout.flat_index(row, column, 0), self.layout.rooms, visit)
    }

    /// Visits the occupied rooms of bucket `(row, column)`.
    fn scan_bucket(
        &self,
        row: usize,
        column: usize,
        mut visit: impl FnMut(Room),
    ) -> io::Result<()> {
        self.walk_bucket(row, column, |_, room| {
            if room.occupied {
                visit(room);
            }
            true
        })
    }

    /// Reads the room at flat index `index` through the cache.
    fn read_room(&self, index: usize) -> io::Result<Room> {
        let mut found = Room::default();
        self.walk(index, 1, |_, room| {
            found = room;
            false
        })?;
        Ok(found)
    }

    /// Writes the room at flat index `index` through the cache: logs the full post-write
    /// record to the write-ahead log (frame encoded and checksummed *before* taking the
    /// append lock, which covers only the arena append), then updates the page under
    /// its write latch and marks it dirty.  Page lookup goes through the pinned write
    /// cursor: consecutive writes to the same page skip the stripe-map probe, which is
    /// what batch ingest's page-ordered writes are sorted for.
    fn write_room(&self, index: usize, room: &Room) -> io::Result<()> {
        let record = encode_room(room);
        self.append_frame(&wal::room_frame(index as u64, &record))?;
        let run = self.layout.run_at(index, 1);
        let slot = {
            let mut cursor = self.write_cursor.lock();
            self.cache.lookup_with(&mut cursor, run.page, self)?
        };
        self.cache.write(&slot)[run.bytes()].copy_from_slice(&record);
        slot.mark_dirty();
        Ok(())
    }
    /// Indexed row scan: word-by-word over the row's occupancy bitmap, so only buckets
    /// that ever received an edge are read — unless the row is dense (≥ 50% of its
    /// buckets occupied), where the bitmap's skip-ahead win vanishes and a straight
    /// linear walk of the row's contiguous records is both simpler and sequential I/O.
    fn scan_row_inner(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) -> io::Result<()> {
        let Layout { width, rooms } = self.layout;
        if dense_scan(self.index.occupied_in_row(row), width) {
            return self.walk(self.layout.flat_index(row, 0, 0), width * rooms, |offset, room| {
                if room.occupied {
                    visit(offset / rooms, room);
                }
                true
            });
        }
        for column in self.index.in_row(row) {
            self.scan_bucket(row, column, |room| visit(column, room))?;
        }
        Ok(())
    }

    /// Indexed column scan.  There is no dense escape hatch here: a column's buckets
    /// are never contiguous in the row-major region, so a "linear" walk would be the
    /// bitmap walk plus a page lookup for every *empty* bucket.
    fn scan_column_inner(
        &self,
        column: usize,
        visit: &mut dyn FnMut(usize, Room),
    ) -> io::Result<()> {
        for row in self.index.in_column(column) {
            self.scan_bucket(row, column, |room| visit(row, room))?;
        }
        Ok(())
    }
}

impl RoomStore for FileStore {
    fn width(&self) -> usize {
        self.layout.width
    }

    fn rooms_per_bucket(&self) -> usize {
        self.layout.rooms
    }

    fn occupied_rooms(&self) -> usize {
        self.occupied_rooms
    }

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        self.io_fail(self.read_room(self.layout.flat_index(row, column, slot)))
    }

    fn weight_of(&self, row: usize, column: usize, key: RoomKey) -> Option<i64> {
        let mut weight = None;
        self.io_fail(self.walk_bucket(row, column, |_, room| {
            if room.matches(key) {
                weight = Some(room.weight);
            }
            weight.is_none()
        }));
        weight
    }

    /// The probe that opens every edge placement.  A cache miss here may have to evict
    /// a dirty page, so a write-back fault (or a hard read fault) poisons the store and
    /// surfaces as the sticky [`StoreFault`].
    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        key: RoomKey,
    ) -> Result<BucketProbe, StoreFault> {
        self.health.check()?;
        let mut probe = BucketProbe::Full;
        self.walk_bucket(row, column, |slot, room| {
            if room.matches(key) {
                probe = BucketProbe::Match(slot);
                return false;
            }
            if !room.occupied && probe == BucketProbe::Full {
                probe = BucketProbe::Empty(slot);
            }
            true
        })
        .map_err(|error| self.poison_fault("bucket probe page load", &error))?;
        Ok(probe)
    }

    fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault> {
        self.health.check()?;
        let index = self.layout.flat_index(row, column, slot);
        self.read_room(index)
            .and_then(|mut room| {
                debug_assert!(room.occupied, "adding weight to an empty room");
                room.weight += weight;
                self.write_room(index, &room)
            })
            .map_err(|error| self.poison_fault("room write", &error))
    }

    fn store_room(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        room: Room,
    ) -> Result<(), StoreFault> {
        self.health.check()?;
        debug_assert!(room.occupied, "storing an unoccupied room");
        let index = self.layout.flat_index(row, column, slot);
        debug_assert!(
            // An unreadable room is the write's problem, not the assert's.
            self.read_room(index).map(|existing| !existing.occupied).unwrap_or(true),
            "overwriting an occupied room"
        );
        self.write_room(index, &room).map_err(|error| self.poison_fault("room write", &error))?;
        self.occupied_rooms += 1;
        self.index.mark(row, column);
        Ok(())
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(self.scan_row_inner(row, visit));
    }

    fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(self.scan_column_inner(column, visit));
    }
}
