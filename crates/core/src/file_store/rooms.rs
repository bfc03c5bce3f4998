//! The file store as a page source: cached pages for the room kernels it shares with the
//! memory backend ([`crate::storage`]), logged record writes, and the failure model.
//!
//! ## Failure model
//!
//! Every write-path function returns `Result<_, StoreFault>`: the first runtime I/O
//! failure (disk full, failed fsync, file removed under us) **poisons** the store's
//! sticky [`StoreHealth`](crate::error::StoreHealth) and comes back as the typed cause,
//! every later write is rejected with that same cause, and reads keep serving — cache
//! hits directly, misses degraded to uncached reads of the file image.  Only the
//! read-side room methods (`room`, `weight_of`, `scan_*`), whose signatures carry no
//! error, still panic on an unreadable page (poisoning first); construction, open and
//! sync report errors properly.

use super::FileStore;
use crate::error::StoreFault;
use crate::pager::PAGE_BYTES;
use crate::storage::{Layout, PageSource, RoomGrid, ROOM_RECORD_BYTES};
use crate::wal;
use std::io;

impl PageSource for FileStore {
    fn grid(&self) -> &RoomGrid {
        &self.grid
    }

    fn grid_mut(&mut self) -> &mut RoomGrid {
        &mut self.grid
    }

    /// Through the cache normally, degrading to an uncached image read once the store is
    /// poisoned.  A cache *miss* may have to evict a dirty page, and a poisoned store can
    /// no longer write anything back — so instead of surfacing that dead end, misses
    /// bypass the cache entirely and read the file image (an evicted page is always
    /// already in the file; a victim whose write-back fails stays cached and dirty).
    /// Cache hits (including dirty pages) keep serving either way, which is the "reads
    /// keep serving from cache" half of the fail-stop contract.
    fn with_page<T>(&self, page: u64, read: impl FnOnce(&[u8; PAGE_BYTES]) -> T) -> io::Result<T> {
        match self.cache.lookup(page, self) {
            Ok(slot) => Ok(read(&self.cache.read(&slot))),
            Err(_) if self.health.is_poisoned() => {
                let mut buffer = [0u8; PAGE_BYTES];
                self.file.read_exact_at(&mut buffer, Layout::page_offset(page))?;
                Ok(read(&buffer))
            }
            Err(error) => Err(error),
        }
    }

    /// Logs the full record to the write-ahead log (frame encoded and checksummed
    /// *before* taking the append lock, which covers only the arena append), then
    /// updates the page under its write latch and marks it dirty.  Page lookup goes
    /// through the pinned write cursor: consecutive writes to the same page skip the
    /// stripe-map probe, which is what batch ingest's page-ordered writes are sorted for.
    fn write_record(&mut self, flat: usize, record: &[u8; ROOM_RECORD_BYTES]) -> io::Result<()> {
        self.append_frame(&wal::room_frame(flat as u64, record))?;
        let run = self.grid.layout.run_at(flat, 1);
        let slot = {
            let mut cursor = self.write_cursor.lock();
            self.cache.lookup_with(&mut cursor, run.page, self)?
        };
        self.cache.write(&slot)[run.bytes()].copy_from_slice(record);
        slot.mark_dirty();
        Ok(())
    }

    /// Panics with context on failure.  The store is poisoned *before* the panic
    /// unwinds, so concurrent threads and any catch-unwind boundary observe the typed
    /// fail-stop state, not just the panic message.
    fn io_fail<T>(&self, result: io::Result<T>) -> T {
        result.unwrap_or_else(|error| {
            self.health.poison(StoreFault::from_io("sketch file I/O", &error));
            panic!("sketch file I/O failed on {}: {error}", self.path.display())
        })
    }

    fn write_gate(&self) -> Result<(), StoreFault> {
        self.health.check()
    }

    fn write_fault(&self, context: &str, error: &io::Error) -> StoreFault {
        self.poison_fault(context, error)
    }
}
