//! Creating, opening and recovering a sketch file.
//!
//! ## Durability and crash recovery
//!
//! Every room mutation is appended to a write-ahead log (`<sketch>.wal`, see
//! [`crate::wal`]) before the page holding it may be written back, and every checkpoint
//! first logs the tail image it is about to write.  Re-opening a file whose clean flag
//! is clear therefore **replays the log** — buffer/node deltas on top of the last
//! checkpointed tail, room records into the room region — instead of rejecting the
//! file; only an unclean file with no log (e.g. a v1 file) still fails with
//! [`PersistenceError::Corrupt`].
//!
//! There is one open path; a clean file takes it as an unclean one whose log replays
//! nothing.  One pass reads the room region page by page to rebuild the occupancy index,
//! first copying into each page every replayed room record that falls on it (the last
//! frame logged for a room last) and writing a page that took any back with one
//! positioned write.  A recovered file is then checkpointed clean.
//!
//! **Single-opener contract**: a sketch file (plus its log) must be open in at most one
//! process at a time.  Recovery *mutates* — it replays the log into the room region and
//! truncates it — so opening the live file of a running ingester would race its writes
//! and corrupt both views.  This is **enforced** by an advisory sidecar lock
//! (`<sketch>.lock`, see [`crate::pager::lock_file`]): create and open claim it
//! create-exclusively before touching the sketch file (so a concurrent `create` cannot
//! even truncate a live file), a second opener fails with a "locked by pid N" I/O error,
//! and locks left by a killed process are reclaimed.  Ship a snapshot
//! ([`crate::GssSketch::write_snapshot_to`]) to read a live sketch's state from another
//! process.

use super::format::{Header, Section, MAGIC_RANGE, SECTIONS_RANGE};
use super::{FileHeader, FileStore};
use crate::config::GssConfig;
use crate::error::StoreHealth;
use crate::group_commit::GroupCommitter;
use crate::pager::lock_file::LockFile;
use crate::pager::page_cache::{PageCache, PageCursor};
use crate::pager::page_file::PageFile;
use crate::pager::PAGE_BYTES;
use crate::persistence::{decode_tail, PersistenceError};
use crate::storage::{Layout, RoomGrid, ROOM_OCCUPIED_BYTE, ROOM_RECORD_BYTES};
use crate::wal::{crc32, read_replay, wal_path, Wal, WalReplay};
use parking_lot::Mutex;
use std::fs::OpenOptions;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

impl FileStore {
    /// Creates a fresh sketch file at `path` (truncating any existing file): header with
    /// `config`, a zeroed page-aligned room region sized by `set_len`, no tail, an empty
    /// write-ahead log at `<path>.wal` registered with `group` (sharded stores share one
    /// coordinator, pooling their fsync scheduling).
    pub(crate) fn create(
        path: &Path,
        config: &GssConfig,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> io::Result<Self> {
        // Claim the single-opener lock before truncating anything: a create aimed at a
        // live sketch file must fail without destroying it.
        let lock = LockFile::acquire(path)?;
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let header = Header::fresh(config);
        file.write_all_at(&header.encode(), 0)?;
        // A sparse zero region where the filesystem supports it; room records decode
        // all-zeroes as unoccupied rooms, so no explicit formatting pass is needed.
        file.set_len(Layout::new(config).tail_offset() + header.tail_len)?;
        let file = PageFile::wrap(file, path, Arc::default());
        Self::assemble(path, cache_pages, file, header, None, group, lock)
    }

    /// Opens an existing sketch file in place, validating the header and decoding the
    /// tail, and registers its log with `group`.  The room region is **streamed once**,
    /// page by page (sequential reads, occupancy flags only, no per-room decode or insert
    /// pass), to rebuild the in-memory occupancy index — open cost is one sequential pass
    /// over the file plus the (usually tiny) tail.  Every read and write goes through the
    /// file's one [`PageFile`], so an armed fault plan can fail any of them.
    ///
    /// An **unclean** v2 file (crash before the last checkpoint completed) is recovered
    /// by replaying its write-ahead log within that same pass; see the module docs.
    /// Unclean v1 files are still rejected as [`PersistenceError::Corrupt`] — they
    /// predate the log.
    ///
    /// The one open path: a clean file opens as an unclean one whose log replays
    /// nothing.  Everything that can reject the file (tail, replay, logged deltas) is
    /// decoded before the one pass over the room region writes a byte.
    pub(crate) fn open(
        path: &Path,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> Result<(Self, FileHeader), PersistenceError> {
        let lock = LockFile::acquire(path)?;
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let file = PageFile::wrap(file, path, Arc::default());
        let mut page = [0u8; PAGE_BYTES];
        file.read_exact_at(&mut page, 0)?;
        let mut header = Header::decode(&page)?;
        let layout = Layout::new(&header.config);
        let (clean, occupied, room_count) = (header.clean, header.occupied, layout.room_count());
        // A clean file never reads its log: a stale one (crash after the clean flag
        // landed but before truncation) is fully covered by the completed checkpoint, and
        // `assemble` discards it.
        let replay = if clean {
            WalReplay::default()
        } else if header.version == 1 {
            return Err(unclean("predates the write-ahead log"));
        } else {
            read_replay(&wal_path(path), room_count as u64)?
                .ok_or_else(|| unclean("has no write-ahead log to replay"))?
        };
        if clean && occupied > room_count as u64 {
            return Err(PersistenceError::Corrupt(format!(
                "header claims {occupied} occupied rooms in a {room_count}-room matrix"
            )));
        }
        let tail_offset = layout.tail_offset();
        let tail = if header.version == 2 {
            if clean && header.buffer.len.checked_add(header.node.len) != Some(header.tail_len) {
                return Err(PersistenceError::Corrupt(format!(
                    "tail sections ({} + {} bytes) disagree with the tail length {}",
                    header.buffer.len, header.node.len, header.tail_len
                )));
            }
            // The tail image a mid-checkpoint crash logged wins; otherwise the file's
            // sections, which the header CRCs must validate (the last completed
            // checkpoint wrote them and nothing has touched them since).
            let mut tail = match replay.tail_buffer {
                Some(bytes) => bytes,
                None => read_section(&file, tail_offset, header.buffer, file_len, "buffer")?,
            };
            tail.extend(match replay.tail_node {
                Some(bytes) => bytes,
                None => {
                    let node_offset = section_end(tail_offset, header.buffer.len, file_len)?;
                    read_section(&file, node_offset, header.node, file_len, "node")?
                }
            });
            tail
        } else {
            read_bytes(&file, tail_offset, header.tail_len, file_len)?
        };
        // The tail decoded and the logged deltas laid on top, all in memory, before the
        // pass below or the v1 upgrade writes: a rejected open leaves the file
        // byte-for-byte intact.
        let (mut buffer, mut node_map) = decode_tail(&tail)?;
        for &(source, destination, weight) in &replay.buffer_ops {
            buffer.insert(source, destination, weight);
        }
        node_map.reserve(replay.node_ops.len());
        for &(hash, vertex) in &replay.node_ops {
            node_map.register(hash, vertex);
        }
        let items_inserted = replay.items.unwrap_or(header.items);
        let grid = rebuild_index(&file, layout, replay.rooms)?;
        if !clean {
            header.occupied = grid.occupied as u64;
        } else if grid.occupied != occupied as usize {
            return Err(PersistenceError::Corrupt(format!(
                "header claims {occupied} occupied rooms but the room region holds {}",
                grid.occupied
            )));
        }
        if header.version == 1 {
            // Upgrade the header to v2 *now*, not at the first checkpoint: mutations
            // after this open are write-ahead logged immediately, and recovery needs the
            // v2 magic plus valid section CRCs (whole tail as the buffer section, empty
            // node section) to accept the file.  The tail bytes themselves are untouched.
            header.buffer.crc = crc32(&tail);
            header.node = Section::of(&[]);
            let upgraded = header.encode();
            for range in [MAGIC_RANGE, SECTIONS_RANGE] {
                file.write_all_at(
                    upgraded.get(range.clone()).unwrap_or_default(),
                    range.start as u64,
                )?;
            }
            file.sync_data()?;
        }
        // Recovery cuts any torn suffix off the log: the recovery checkpoint's `TAIL`
        // frame must be reachable by a replay of the log as it stands.
        let config = header.config;
        let log_prefix = (!clean).then_some(replay.valid_bytes);
        let mut store = Self::assemble(path, cache_pages, file, header, log_prefix, group, lock)?;
        store.grid = grid;
        if !clean {
            // Checkpoint the recovered state: tail rewritten, header counts re-derived,
            // clean flag set, log truncated.  A crash during *this* checkpoint replays to
            // the same state (its tail image lands behind the frames it supersedes).
            store
                .checkpoint(items_inserted, &buffer, &node_map)
                .map_err(|error| PersistenceError::Io(error.to_string()))?;
        }
        Ok((store, FileHeader { config, items_inserted, buffer, node_map, recovered: !clean }))
    }

    /// Shared tail of `create` and `open`: builds the store around the sketch file whose
    /// header page reads `header` (clean flag included), with the bookkeeping of an
    /// all-empty room region — open installs the grid it rebuilt.
    /// The log at `<path>.wal` starts empty (`log_prefix` `None`) or keeps its first
    /// `log_prefix` bytes (recovery).  The store's one counter set is the one `file`
    /// counts into.
    fn assemble(
        path: &Path,
        cache_pages: usize,
        file: PageFile,
        header: Header,
        log_prefix: Option<u64>,
        group: Arc<GroupCommitter>,
        lock: LockFile,
    ) -> io::Result<Self> {
        let counters = Arc::clone(file.counters());
        let health = Arc::new(StoreHealth::new());
        let wal = Wal::open(
            &wal_path(path),
            log_prefix,
            header.clean,
            Arc::clone(&counters),
            Arc::clone(&health),
            &group,
        )?;
        Ok(Self {
            path: path.to_path_buf(),
            grid: RoomGrid::new(Layout::new(&header.config)),
            cache_pages: cache_pages.max(1),
            file,
            cache: PageCache::new(cache_pages, Arc::clone(&counters)),
            counters,
            wal,
            _group: group,
            write_cursor: Mutex::new(PageCursor::default()),
            synced: Mutex::new(header),
            health,
            _lock: lock,
        })
    }
}

/// The error of an unclean file that cannot be recovered, and `why`.
fn unclean(why: &str) -> PersistenceError {
    PersistenceError::Corrupt(format!(
        "sketch file was not cleanly synced (crash or missing sync before reopen) and {why}"
    ))
}

/// Bounds a header-supplied section `[offset, offset + len)` by the file length with
/// checked arithmetic, returning its end — called **before** anything is allocated
/// for the section, so a header lying about its lengths is a typed error, never an
/// overflow or a capacity panic.
fn section_end(offset: u64, len: u64, file_len: u64) -> Result<u64, PersistenceError> {
    match offset.checked_add(len) {
        Some(end) if end <= file_len => Ok(end),
        _ => Err(PersistenceError::UnexpectedEof),
    }
}

/// Reads `[offset, offset + len)` of `file`, bounded by [`section_end`] first.
fn read_bytes(
    file: &PageFile,
    offset: u64,
    len: u64,
    file_len: u64,
) -> Result<Vec<u8>, PersistenceError> {
    section_end(offset, len, file_len)?;
    let mut bytes = vec![0u8; len as usize];
    file.read_exact_at(&mut bytes, offset)?;
    Ok(bytes)
}

/// Reads the tail section `section` found at `offset` and checks it against its CRC.
fn read_section(
    file: &PageFile,
    offset: u64,
    section: Section,
    file_len: u64,
    what: &str,
) -> Result<Vec<u8>, PersistenceError> {
    let bytes = read_bytes(file, offset, section.len, file_len)?;
    if crc32(&bytes) != section.crc {
        return Err(PersistenceError::Corrupt(format!("{what} tail section checksum mismatch")));
    }
    Ok(bytes)
}

/// Streams the room region sequentially, page by page, and rebuilds the occupancy index
/// and count from the per-record occupancy flags, bypassing the page cache (the pass is
/// one-shot and would otherwise evict the whole cache).  The replayed `rooms` (log order,
/// flat indices below the room count) are laid over each page before its flags are read
/// — sorted stably by index, so the last frame logged for a room lands last — and a page
/// that took any is written back with one positioned write.
fn rebuild_index(
    file: &PageFile,
    layout: Layout,
    mut rooms: Vec<(u64, [u8; ROOM_RECORD_BYTES])>,
) -> Result<RoomGrid, PersistenceError> {
    rooms.sort_by_key(|&(index, _)| index);
    let mut rooms = rooms.as_slice();
    let mut grid = RoomGrid::new(layout);
    let mut page = [0u8; PAGE_BYTES];
    let mut flat = 0usize;
    while flat < layout.room_count() {
        // Started on a page boundary, each run is one page's worth of records.
        let run = layout.run_at(flat, layout.room_count() - flat);
        file.read_exact_at(&mut page, Layout::page_offset(run.page))?;
        let end = (flat + run.len) as u64;
        let (here, rest) = rooms.split_at(rooms.partition_point(|&(index, _)| index < end));
        for &(index, ref record) in here {
            page[layout.run_at(index as usize, 1).bytes()].copy_from_slice(record);
        }
        if !here.is_empty() {
            file.write_all_at(&page, Layout::page_offset(run.page))?;
        }
        rooms = rest;
        for record in run.records(&page) {
            if record[ROOM_OCCUPIED_BYTE] != 0 {
                let (row, column) = layout.bucket_of(flat);
                grid.mark(row, column);
            }
            flat += 1;
        }
    }
    Ok(grid)
}
