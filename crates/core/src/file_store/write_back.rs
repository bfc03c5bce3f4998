//! Everything that moves bytes from memory into the sketch file: the write-ahead
//! barrier, page write-back (on eviction and on flush) and checkpoints.
//!
//! The rule all three obey: frames covering a page must be in the log *image* before
//! the page image changes, so the log is drained ahead of every page write.
//! A checkpoint ([`FileStore::checkpoint`], reached through `GssSketch::sync` and drop)
//! additionally logs the tail image it is about to write, so a crash anywhere inside
//! it replays to the state it was committing.
//!
//! A checkpoint has one shape: it writes the whole tail image, both sections.  Whether
//! there is anything to write is the log's clean state alone — every tail mutation is
//! logged, and the first logged frame after a checkpoint clears it.

use super::format::{Header, Section, CHECKPOINT_RANGE, MAGIC_RANGE};
use super::{FileStore, FlushPoint};
use crate::buffer::LeftoverBuffer;
use crate::metrics;
use crate::node_map::NodeIdMap;
use crate::pager::page_cache::PageIo;
use crate::pager::witness::{self, LockClass};
use crate::pager::PAGE_BYTES;
use crate::persistence;
use crate::storage::Layout;
use crate::wal;
use std::io;

/// How the page cache reaches the file: faults read the page image, evictions pass the
/// write-ahead barrier and then write the page back synchronously.
impl PageIo for FileStore {
    fn load_page(&self, index: u64, into: &mut [u8; PAGE_BYTES]) -> io::Result<()> {
        self.file.read_exact_at(&mut into[..], Layout::page_offset(index))
    }

    fn write_back(&self, index: u64, data: &[u8; PAGE_BYTES]) -> io::Result<()> {
        // Write-ahead barrier: frames covering this page must be durable before the
        // page itself is.
        self.drain_wal()?;
        self.file.write_all_at(&data[..], Layout::page_offset(index))?;
        metrics::add(&self.counters.pages_flushed, 1);
        self.wal.fire(FlushPoint::PageWriteBack);
        Ok(())
    }
}

impl FileStore {
    /// Drains pending write-ahead-log frames — the write-ahead barrier every page
    /// write-back must pass first (see [`Wal::barrier`](crate::wal::Wal::barrier)).
    fn drain_wal(&self) -> io::Result<()> {
        self.wal.barrier()
    }

    /// Flushes every dirty page to the file (pages stay cached, now clean), draining the
    /// write-ahead log first: step 3 of a checkpoint.
    fn flush_pages(&self) -> io::Result<()> {
        // Write-ahead barrier, then the cache's dirty pages in ascending page order (a
        // sequentially-filled matrix flushes sequentially).
        self.drain_wal()?;
        let dirty = self.cache.dirty_slots();
        let wrote = !dirty.is_empty();
        for slot in &dirty {
            let data = self.cache.read(slot);
            self.file.write_all_at(&data[..], Layout::page_offset(slot.index()))?;
            metrics::add(&self.counters.pages_flushed, 1);
            self.cache.mark_clean(slot);
        }
        if wrote {
            self.wal.fire(FlushPoint::PageWriteBack);
        }
        Ok(())
    }

    /// Checkpoints the file: logs the tail image of `buffer` and `node_map`, flushes the
    /// write-ahead log and every dirty page, rewrites the tail, updates the header
    /// (counters, section lengths/CRCs, clean flag) and truncates the log.  After this
    /// the file reopens via [`GssSketch::open_file`](crate::GssSketch::open_file) with no
    /// replay.
    ///
    /// A clean store (nothing logged since the last checkpoint, same `items`) returns
    /// immediately without encoding anything: every change to the buffer or the node
    /// table is logged, so a clean log means the tail on disk is current.
    /// Checkpoints run with no concurrent *mutators* (the sketch reaches them through
    /// `&mut self` paths); concurrent readers are safe throughout.
    pub(crate) fn checkpoint(
        &self,
        items: u64,
        buffer: &LeftoverBuffer,
        node_map: &NodeIdMap,
    ) -> io::Result<()> {
        // Fail-stop gate: a poisoned store must not attempt the tail/header rewrite —
        // and a checkpoint that fails partway poisons the store (its on-disk state is
        // mid-transition; only the log guarantees recovery).
        self.health.check().map_err(|fault| fault.to_io())?;
        self.checkpoint_inner(items, buffer, node_map)
            .map_err(|error| self.poison_fault("checkpoint", &error).to_io())
    }

    fn checkpoint_inner(
        &self,
        items: u64,
        buffer: &LeftoverBuffer,
        node_map: &NodeIdMap,
    ) -> io::Result<()> {
        let _sync_held = witness::acquire(LockClass::CheckpointState);
        let mut synced = self.synced.lock();
        let was_clean = {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = self.wal.wal.lock();
            if wal.clean && wal.is_empty() && items == synced.items {
                return Ok(());
            }
            wal.clean
        };
        let (tail, buffer_len) = persistence::encode_tail(buffer, node_map);
        let (buffer_bytes, node_bytes) = tail.split_at(buffer_len);
        // 1. The tail image goes to the log first, the way every frame does: appended,
        //    drained by the barrier, synced.  A crash anywhere below recovers it.  The
        //    barrier first waits out any round another writer has in flight (a sharded
        //    store acknowledges outside the shard lock this checkpoint holds), so the
        //    synced log image never has a hole in front of the TAIL.
        // 2. Appending cleared the clean flag (a no-op when a mutation already had —
        //    items-only checkpoints exist).  When this checkpoint cleared it, the sketch
        //    file is synced too: a crash between the partial tail write below and the
        //    final header update must leave the file routed through recovery, never
        //    accepted with a torn tail.
        self.append_frame(&wal::tail_frame(items, buffer_bytes, node_bytes))?;
        self.drain_wal()?;
        self.wal.sync()?;
        // The sync skips a log another writer's failed round or sync has poisoned since
        // the gate above; the tail must not be touched then.
        self.health.check().map_err(|fault| fault.to_io())?;
        if was_clean {
            self.file.sync_data()?;
        }
        // 3. Every dirty page out (its barrier finds the log drained).
        self.flush_pages()?;
        // 4. The whole tail image.
        let tail_offset = self.grid.layout.tail_offset();
        self.file.write_all_at(&tail, tail_offset)?;
        self.file.set_len(tail_offset + tail.len() as u64)?;
        self.wal.fire(FlushPoint::TailWrite);
        // 5. Header: magic, counters, section CRCs, clean flag.  Checkpoints run with no
        //    concurrent mutators (the sketch's `&mut self` contract), so the occupancy
        //    count is quiescent here.
        let header = Header {
            version: 2,
            items,
            occupied: self.grid.occupied as u64,
            tail_len: tail.len() as u64,
            clean: true,
            buffer: Section::of(buffer_bytes),
            node: Section::of(node_bytes),
            ..*synced
        };
        let page = header.encode();
        for range in [MAGIC_RANGE, CHECKPOINT_RANGE] {
            self.file.write_all_at(&page[range.clone()], range.start as u64)?;
        }
        self.file.sync_all()?;
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let mut wal = self.wal.wal.lock();
            wal.clean = true;
            metrics::add(&self.counters.checkpoints, 1);
            self.wal.fire(FlushPoint::CheckpointDone);
            // 6. Every logged frame is now covered by the checkpoint.  No round can be in
            //    flight: the log has been drained since step 1 and checkpoints run with
            //    no concurrent mutators, so any round since then took nothing.
            self.wal.truncate(&mut wal)?;
        }
        *synced = header;
        Ok(())
    }
}
