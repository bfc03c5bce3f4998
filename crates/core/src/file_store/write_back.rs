//! Everything that moves bytes from memory into the sketch file: the write-ahead
//! barrier, page write-back (on eviction and on flush) and checkpoints.
//!
//! The rule all three obey: frames covering a page must be in the log *image* before
//! the page image changes, so the log is drained ahead of every page write.
//! A checkpoint ([`FileStore::checkpoint`], reached through `GssSketch::sync` and drop)
//! additionally logs the tail image it is about to write, so a crash anywhere inside
//! it replays to the state it was committing.
//!
//! Checkpoints are **incremental**: the buffer and node tail sections carry generation
//! stamps, and a checkpoint rewrites only the sections whose generation moved (plus the
//! node section whenever the buffer section changes length, since it shifts).

use super::format::{Header, Section, CHECKPOINT_RANGE, MAGIC_RANGE};
use super::{FileStore, FlushPoint};
use crate::metrics;
use crate::pager::page_cache::PageIo;
use crate::pager::witness::{self, LockClass};
use crate::pager::PAGE_BYTES;
use crate::storage::Layout;
use crate::wal;
use std::io;

/// The tail sections a checkpoint may rewrite.  `None` means "unchanged since the last
/// checkpoint" (the generation stamp must then equal the synced one); the node section
/// must be provided whenever the buffer section changes length, because it shifts.
#[derive(Debug, Clone, Copy)]
pub struct TailSections<'a> {
    /// Encoded buffer section, when it changed.
    pub buffer: Option<&'a [u8]>,
    /// Encoded node-table section, when it changed (or moved).
    pub node: Option<&'a [u8]>,
    /// Generation stamp of the buffer content being checkpointed.
    pub buffer_gen: u64,
    /// Generation stamp of the node-table content being checkpointed.
    pub node_gen: u64,
}

/// Checkpoint bookkeeping, serialized by its own mutex (checkpoints are rare and already
/// exclusive at the sketch layer; the mutex keeps the store safe regardless).
pub(super) struct SyncState {
    /// The header as the last completed checkpoint (or create/open) left it: its item
    /// count and tail sections are what [`FileStore::checkpoint`] compares incoming
    /// state against to skip unchanged sections.
    pub(super) header: Header,
    /// Generation stamps of the tail sections `header` describes.
    pub(super) buffer_gen: u64,
    pub(super) node_gen: u64,
}

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
    /// write-ahead log first.  Does **not** checkpoint.
    pub fn flush_pages(&self) -> io::Result<()> {
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

    /// Generation stamps of the last checkpointed tail sections, plus the checkpointed
    /// buffer-section length (the sketch uses these to encode only changed sections).
    pub(crate) fn synced_tail_state(&self) -> (u64, u64, u64) {
        let _sync_held = witness::acquire(LockClass::CheckpointState);
        let sync = self.sync_state.lock();
        (sync.buffer_gen, sync.node_gen, sync.header.buffer.len)
    }

    /// Checkpoints the file: logs the new tail image, flushes the write-ahead log and
    /// every dirty page, rewrites only the tail sections whose generation stamp moved,
    /// updates the header (counters, section lengths/CRCs, clean flag) and truncates the
    /// log.  After this the file reopens via [`FileStore::open`] with no replay.
    ///
    /// A fully clean store (no mutations, matching generations) returns immediately.
    /// Checkpoints run with no concurrent *mutators* (the sketch reaches them through
    /// `&mut self` paths); concurrent readers are safe throughout.
    pub fn checkpoint(&self, items: u64, sections: TailSections<'_>) -> io::Result<()> {
        // Fail-stop gate: a poisoned store must not attempt the tail/header rewrite —
        // and a checkpoint that fails partway poisons the store (its on-disk state is
        // mid-transition; only the log guarantees recovery).
        self.health.check().map_err(|fault| fault.to_io())?;
        self.checkpoint_inner(items, sections)
            .map_err(|error| self.poison_fault("checkpoint", &error).to_io())
    }

    fn checkpoint_inner(&self, items: u64, sections: TailSections<'_>) -> io::Result<()> {
        let _sync_held = witness::acquire(LockClass::CheckpointState);
        let mut sync = self.sync_state.lock();
        let generations_match =
            sections.buffer_gen == sync.buffer_gen && sections.node_gen == sync.node_gen;
        let was_clean = {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = self.wal.wal.lock();
            if wal.clean
                && wal.is_empty()
                && sections.buffer.is_none()
                && sections.node.is_none()
                && generations_match
                && items == sync.header.items
            {
                return Ok(());
            }
            wal.clean
        };
        debug_assert!(
            sections.buffer.is_some() || sections.buffer_gen == sync.buffer_gen,
            "a moved buffer generation must come with its section bytes"
        );
        debug_assert!(
            sections.node.is_some() || sections.node_gen == sync.node_gen,
            "a moved node generation must come with its section bytes"
        );
        let buffer = sections.buffer.map_or(sync.header.buffer, Section::of);
        let node = sections.node.map_or(sync.header.node, Section::of);
        debug_assert!(
            sections.node.is_some() || buffer.len == sync.header.buffer.len,
            "the node section must be rewritten when the buffer section changes length"
        );
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
        self.append_frame(&wal::tail_frame(items, sections.buffer, sections.node))?;
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
        // 4. Only the tail sections whose generation moved are rewritten.
        let tail_offset = self.grid.layout.tail_offset();
        if let Some(bytes) = sections.buffer {
            self.file.write_all_at(bytes, tail_offset)?;
            metrics::add(&self.counters.tail_bytes_written, buffer.len);
        }
        if let Some(bytes) = sections.node {
            self.file.write_all_at(bytes, tail_offset + buffer.len)?;
            metrics::add(&self.counters.tail_bytes_written, node.len);
        }
        self.file.set_len(tail_offset + buffer.len + node.len)?;
        self.wal.fire(FlushPoint::TailWrite);
        // 5. Header: magic, counters, section CRCs, clean flag.  Checkpoints run with no
        //    concurrent mutators (the sketch's `&mut self` contract), so the occupancy
        //    count is quiescent here.
        let header = Header {
            version: 2,
            items,
            occupied: self.grid.occupied as u64,
            tail_len: buffer.len + node.len,
            clean: true,
            buffer,
            node,
            ..sync.header
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
        sync.header = header;
        sync.buffer_gen = sections.buffer_gen;
        sync.node_gen = sections.node_gen;
        Ok(())
    }
}
