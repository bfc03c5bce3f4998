//! Paged file-backed room storage: [`FileStore`].
//!
//! The room grid dominates a sketch's footprint (`m² × l` records regardless of the
//! stream), so a paper-scale matrix can exceed RAM.  `FileStore` keeps the grid in a file
//! of fixed-size little-endian room records
//! ([`ROOM_RECORD_BYTES`](crate::storage::ROOM_RECORD_BYTES) each, the same layout
//! snapshots use) and serves reads/writes through the [`crate::pager`] module family —
//! a lock-striped page cache of 4-KiB pages with per-page latches
//! ([`crate::pager::page_cache`]) over positioned I/O on one shared handle
//! ([`crate::pager::page_file`]).  Std-only, no `mmap`; the one platform dependency is
//! `pread`/`pwrite`, so the crate builds on Unix only.
//!
//! This file holds the store itself and its coupling to the write-ahead log — the one
//! frame-append path and the commits the log acknowledges.  The on-disk
//! layout and header are [`mod@format`]; create, open, crash recovery and the single-opener
//! contract are [`open`]; everything that moves bytes into the sketch file (write-ahead
//! barrier, write-back, checkpoints) is [`write_back`]; the store's page source — cached
//! pages and logged record writes for the room kernels it shares with the memory backend
//! ([`crate::storage`]) — and the failure model are [`rooms`].
//! What the store spends is counted in one [`StoreCounters`] set, created with the store
//! and shared with its page cache, both file handles, the log and the checkpoint path
//! ([`FileStore::counters`]).
//!
//! There is one durability policy: every room mutation, buffer spill, node registration
//! and commit is appended to the log (`<sketch>.wal`, see [`crate::wal`]) before the
//! page holding it may be written back, the log is drained before every insert returns
//! and evicted pages are written back synchronously on the ingest path, so a killed
//! process loses no acknowledged item.  The log is synced on the cadence of its
//! group-commit coordinator ([`GroupCommit`](crate::config::GroupCommit)), which bounds
//! how far a power loss (not just a process kill) can rewind the stream.
//!
//! ## Concurrency
//!
//! Reads (`&self`) run concurrently: a cache hit takes its stripe's mutex only long
//! enough to clone a slot reference, then reads the bytes under the page's shared read
//! latch — hits on distinct pages touch no common lock, and faults on distinct stripes
//! overlap their disk reads.  Mutation stays `&mut self` (one writer per store; sharded
//! ingest gives each shard its own store).  The store has one log with its own append
//! mutex, so logging never serializes page access: frames are encoded outside that mutex,
//! and every byte reaches the log file through the log's drain rounds, whose positioned
//! write runs outside every lock — commits, the barrier before each page write-back and
//! the checkpoint's tail image alike.  A sharded store acknowledges its commits through
//! that same log without the shard lock, so a checkpoint can meet another writer's round
//! in flight; its barrier waits that round out.  The occupancy index is a plain
//! `OccupancyIndex`: its only writer is
//! `store_room(&mut self)`, so the borrow checker already rules out a reader scanning it
//! mid-mark.  See [`crate::pager`] for the full lock map; the one global rule is that the
//! WAL append mutex is never held while taking a page-table stripe mutex (the full order
//! is `stripe ≺ latch ≺ group ≺ wal`).

pub mod format;
pub mod open;
pub mod rooms;
pub mod write_back;

use crate::buffer::LeftoverBuffer;
use crate::config::GssConfig;
use crate::error::{DurabilityReport, StoreFault, StoreHealth};
use crate::group_commit::GroupCommitter;
use crate::metrics::StoreCounters;
use crate::node_map::NodeIdMap;
use crate::pager::lock_file::LockFile;
use crate::pager::page_cache::{PageCache, PageCursor};
use crate::pager::page_file::PageFile;
use crate::pager::witness::{self, LockClass};
use crate::storage::RoomGrid;
use crate::wal::{self, AppendState, Wal, WalAck};
use format::{Header, CLEAN_FLAG_OFFSET};
use parking_lot::Mutex;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

pub use format::FILE_MAGIC_V1;

/// Everything [`FileStore::open`] recovers from an existing sketch file besides the store
/// itself: the sketch-level state the file checkpoints.
#[derive(Debug)]
pub struct FileHeader {
    /// The configuration the file was created with.
    pub config: GssConfig,
    /// Stream items inserted when the file was last synced (or recovered).
    pub items_inserted: u64,
    /// The left-over buffer, decoded from the tail (plus the replayed log, if recovered).
    pub buffer: LeftoverBuffer,
    /// The `⟨H(v), v⟩` table, decoded likewise.
    pub node_map: NodeIdMap,
    /// Whether the file was unclean and its state was rebuilt by write-ahead-log replay.
    /// Only the store's tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub recovered: bool,
}

/// The durability points at which an installed flush hook fires (in order of a
/// checkpoint's progress).  Kill-point tests copy the sketch file and its log at a chosen
/// point — every write below the point is on disk, nothing above it is — which simulates
/// a crash at exactly that boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPoint {
    /// A drain round swapped the log's pending arena out under the append mutex; the
    /// positioned write of the taken frames into the log file has not started yet.
    /// A kill here loses the whole swapped window — which must therefore contain no
    /// acknowledged commit.
    WalArenaSwap,
    /// Pending write-ahead-log frames were appended to the log file.
    WalFlush,
    /// A dirty page was written back to the room region.
    PageWriteBack,
    /// The tail was rewritten; the header still describes the old tail.
    TailWrite,
    /// The checkpoint committed (header + clean flag written); the log is not yet
    /// truncated.
    CheckpointDone,
}

/// An injectable observer of durability points (see [`FlushPoint`]).  It runs on the
/// thread that reached the point, with no store lock held on its behalf, so points of
/// one store may fire on several threads at once — a hook that parks one thread never
/// stalls another thread's points.
pub type FlushHook = Arc<dyn Fn(FlushPoint) + Send + Sync>;

/// The paged file backend of [`RoomStorage`](crate::RoomStorage): lock-striped page cache
/// with per-page latches, write-ahead room log behind its own append mutex, and
/// checkpoints that write one whole tail image (none while the log is clean).  Reads
/// (`&self`) run concurrently; see the module docs.
pub struct FileStore {
    path: PathBuf,
    /// The room region's layout, occupancy index and occupied count (the index is never
    /// written to the file; it is rebuilt from the room region on [`FileStore::open`]).
    grid: RoomGrid,
    cache_pages: usize,
    /// Positioned I/O over the sketch file.
    file: PageFile,
    /// The lock-striped page table (see [`crate::pager::page_cache`]).
    cache: PageCache,
    /// This store's one counter set, shared with the cache, the log and both file handles.
    counters: Arc<StoreCounters>,
    /// The write-ahead room log and the header's clean flag (see [`crate::wal`]).  Its
    /// append mutex is never held while taking a page-table stripe mutex.
    wal: Arc<Wal>,
    /// Keeps the group-commit coordinator — and its cadence thread — alive as long as the
    /// store; the shards of a [`ShardedGss`](crate::ShardedGss) share one.
    _group: Arc<GroupCommitter>,
    /// Pinned-page write cursor: consecutive room writes landing on the same page skip
    /// the stripe-map probe (batch ingest sorts its writes by page to maximise runs).
    /// Taken only on the single-writer mutation path, never by readers.
    write_cursor: Mutex<PageCursor>,
    /// The header as the last checkpoint (or create/open) left it: a checkpoint's item
    /// count is compared against it, and its configuration is rewritten from it.
    /// Serialized by its own mutex (lock class `CheckpointState`).
    synced: Mutex<Header>,
    /// Sticky fail-stop state, shared with the write-ahead log: the first
    /// failed fsync or unrecoverable write-back poisons it, after which every write
    /// path returns the original cause while reads keep serving from cache (see
    /// [`crate::error::StoreHealth`]).
    health: Arc<StoreHealth>,
    /// Advisory single-opener lock; released (sidecar removed) when the store drops.
    _lock: LockFile,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("path", &self.path)
            .field("width", &self.grid.layout.width)
            .field("rooms_per_bucket", &self.grid.layout.rooms)
            .field("cache_pages", &self.cache_pages)
            .finish_non_exhaustive()
    }
}

impl FileStore {
    /// Default page-cache capacity: 1024 pages = 4 MiB of resident room records.
    pub const DEFAULT_CACHE_PAGES: usize = 1024;

    /// Installs (or clears) the durability-point observer used by kill-point tests.
    pub fn set_flush_hook(&self, hook: Option<FlushHook>) {
        let _hook_held = witness::acquire(LockClass::Hook);
        *self.wal.hook.lock() = hook;
    }

    /// Poisons the store with a write-path failure and returns the sticky cause.
    fn poison_fault(&self, context: &str, error: &io::Error) -> StoreFault {
        self.health.poison(StoreFault::from_io(context, error))
    }

    /// The store's sticky fail-stop state.
    pub(crate) fn health(&self) -> &Arc<StoreHealth> {
        &self.health
    }

    /// This store's runtime counters since it was created or opened.  Every read is an
    /// atomic load — observing a store never takes one of its locks.
    pub(crate) fn counters(&self) -> &StoreCounters {
        &self.counters
    }

    /// Current write-ahead-log bytes (on disk plus pending in memory).
    pub(crate) fn wal_bytes(&self) -> u64 {
        let _wal_held = witness::acquire(LockClass::WalAppend);
        self.wal.wal.lock().bytes()
    }

    /// Clears the header's clean flag on the first mutation after a checkpoint.  Every
    /// logged mutation — room writes, buffer spills, node registrations, commits — must
    /// pass through here *before* its frames may drain: a file whose log holds
    /// acknowledged frames while its header still reads clean would discard them on
    /// reopen.
    fn mark_unclean_locked(&self, wal: &mut AppendState) -> io::Result<()> {
        if wal.clean {
            wal.clean = false;
            self.file.write_all_at(&[0], CLEAN_FLAG_OFFSET)?;
        }
        Ok(())
    }

    /// Appends one pre-encoded frame to the log — the single home of "append, then
    /// clear the clean flag".  The frame is encoded and checksummed by the caller
    /// *before* the append mutex is taken, which therefore covers only the arena
    /// `memcpy` and the (first-mutation-only) flag write; the flag is cleared before
    /// the mutex is released, so before any drain can see the frame.  Returns the total
    /// log bytes and the cumulative appended bytes (a commit's acknowledgement target).
    fn append_frame(&self, frame: &[u8]) -> io::Result<(u64, u64)> {
        let _wal_held = witness::acquire(LockClass::WalAppend);
        let mut wal = self.wal.wal.lock();
        let appended = wal.append(frame);
        self.mark_unclean_locked(&mut wal)?;
        Ok(appended)
    }

    /// [`append_frame`](Self::append_frame) for the sketch-level frames: fail-stop
    /// gated, and a failed unclean-flag write poisons the store instead of panicking.
    fn log_frame(&self, frame: &[u8]) -> Result<(u64, u64), StoreFault> {
        self.health.check()?;
        self.append_frame(frame).map_err(|error| self.poison_fault("unclean-flag write", &error))
    }

    /// Logs a left-over buffer insertion to the write-ahead log (the buffer itself lives
    /// in the sketch, not in room storage — only its durability passes through here).
    pub(crate) fn log_buffer_insert(
        &self,
        source: u64,
        destination: u64,
        weight: i64,
    ) -> Result<(), StoreFault> {
        self.log_frame(&wal::buffer_frame(source, destination, weight)).map(drop)
    }

    /// Logs a `⟨H(v), v⟩` registration to the write-ahead log.
    pub(crate) fn log_node(&self, hash: u64, vertex: u64) -> Result<(), StoreFault> {
        self.log_frame(&wal::node_frame(hash, vertex)).map(drop)
    }

    /// Logs the completion of an insert/batch: appends the commit frame and marks the
    /// header unclean (a drained log behind a still-clean header would be discarded on
    /// reopen, losing the items this commit acknowledges), with the append lock
    /// released before any I/O so encoding, the log write and the sync all run outside
    /// it.  Returns the total log bytes — so the sketch can trigger an automatic
    /// checkpoint when the log grows past its bound — plus the [`WalAck`] token
    /// [`ack_commit`](Self::ack_commit) consumes to drain the log.  A multi-shard batch
    /// appends every shard's frame before acknowledging any of them, so drain rounds
    /// led by concurrent writers cover the earlier shards' bytes and most
    /// acknowledgements return on the log's already-written fast path instead
    /// of leading a small round each.
    ///
    /// Fail-stop gated, and the commit is registered with the durability accounting so
    /// [`durability_report`](Self::durability_report) can tell acknowledged items from
    /// durable ones.
    pub(crate) fn log_commit_deferred(&self, items: u64) -> Result<(u64, WalAck), StoreFault> {
        let (bytes, target) = self.log_frame(&wal::commit_frame(items))?;
        self.wal.record_commit(target, items);
        Ok((bytes, WalAck { target, items }))
    }

    /// The acknowledgement half of a commit appended by
    /// [`log_commit_deferred`](Self::log_commit_deferred): see [`Wal::ack`].
    pub(crate) fn ack_commit(&self, ack: WalAck) -> Result<(), StoreFault> {
        self.wal.ack(ack)
    }

    /// This store's log, which acknowledges deferred commits without the sketch lock held.
    pub(crate) fn ack_handle(&self) -> Arc<Wal> {
        Arc::clone(&self.wal)
    }

    /// An honest account of acknowledged-versus-durable stream items (see
    /// [`DurabilityReport`]).  On a healthy store nothing is breached — pending log
    /// bytes drain on the policy's schedule; once poisoned, every acknowledged item not
    /// covered by a completed log-file write is reported as possibly lost.
    pub(crate) fn durability_report(&self) -> DurabilityReport {
        let (acked_items, durable_items) = self.wal.item_counts();
        let poisoned = self.health.is_poisoned();
        DurabilityReport {
            poisoned,
            cause: self.health.cause(),
            acked_items,
            durable_items,
            breached_items: if poisoned { acked_items.saturating_sub(durable_items) } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests;
