//! Paged file-backed room storage: [`FileStore`].
//!
//! The room grid dominates a sketch's footprint (`m² × l` records regardless of the
//! stream), so a paper-scale matrix can exceed RAM.  `FileStore` keeps the grid in a file
//! of fixed-size little-endian room records ([`ROOM_RECORD_BYTES`] each, the same layout
//! snapshots use) and serves reads/writes through the [`crate::pager`] module family —
//! a lock-striped page cache of 4-KiB pages with per-page latches
//! ([`crate::pager::page_cache`]) over positioned I/O on one shared handle
//! ([`crate::pager::page_file`]).  Std-only, no `mmap`; the one platform dependency is
//! `pread`/`pwrite`, so the crate builds on Unix only.
//!
//! ## Concurrency
//!
//! Reads (`&self`) run concurrently: a cache hit takes its stripe's mutex only long
//! enough to clone a slot reference, then reads the bytes under the page's shared read
//! latch — hits on distinct pages touch no common lock, and faults on distinct stripes
//! overlap their disk reads.  Mutation stays `&mut self` (one writer per store; sharded
//! ingest gives each shard its own store), and the write-ahead log has its own append
//! mutex so logging never serializes page access — frames are encoded outside that
//! mutex and drained by the group-commit coordinator ([`crate::group_commit`]), which
//! double-buffers the pending arena so the positioned log write runs outside every
//! lock.  The occupancy index uses atomic bitmap words ([`AtomicOccupancyIndex`]) so
//! the writer marks buckets while readers scan.  See [`crate::pager`] for the full lock
//! map; the one global rule is that the WAL append mutex is never held while taking a
//! page-table stripe mutex (the full order is `stripe ≺ latch ≺ group ≺ wal`).
//!
//! ## File layout (format v2, magic `GSSFILE\x02`)
//!
//! ```text
//! [0 .. 4096)                      header page: magic, config, items, occupied, tail
//!                                  lengths + CRCs, clean flag
//! [4096 .. 4096 + pages × 4096)    room records, 16 bytes each, page-aligned region
//! [tail_offset .. tail_offset+n)   tail: buffer section then ⟨H(v), v⟩ section
//!                                  (the streaming snapshot encodings)
//! ```
//!
//! Version-1 files (`GSSFILE\x01`, written before the durability subsystem) still open
//! when clean; their header simply lacks the per-section lengths/CRCs, and open upgrades
//! it in place to v2 (tail bytes untouched) so that mutations made through the reopened
//! store are immediately crash-recoverable.
//!
//! Because the header carries the full configuration and the rooms live in place, **the
//! sketch file doubles as its own checkpoint**: [`crate::GssSketch::open_file`] re-opens
//! it with no per-room decode or insert pass — open streams the room region once
//! (sequential reads of the occupancy flags, rebuilding the in-memory occupancy index)
//! plus the (usually tiny) tail.
//!
//! ## Durability and crash recovery
//!
//! Every room mutation is appended to a write-ahead log (`<sketch>.wal`, see
//! [`crate::wal`]) before the page holding it may be written back, and every checkpoint
//! ([`FileStore::checkpoint`], reached through `GssSketch::sync` and drop) first logs the
//! tail image it is about to write.  Re-opening a file whose clean flag is clear
//! therefore **replays the log** — room records back into the room region, buffer/node
//! deltas on top of the last checkpointed tail — instead of rejecting the file; only an
//! unclean file with no log (e.g. a v1 file) still fails with
//! [`PersistenceError::Corrupt`].
//!
//! There is one durability policy: the log is drained before every insert returns and
//! evicted pages are written back synchronously on the ingest path, so a killed process
//! loses no acknowledged item.  Drains go through the group-commit coordinator, which
//! additionally `fdatasync`s the log on the [`GroupCommit`] cadence — bounding how far a
//! power loss (not just a process kill) can rewind the stream.
//!
//! Checkpoints are **incremental**: the buffer and node tail sections carry generation
//! stamps, and a checkpoint rewrites only the sections whose generation moved (plus the
//! node section whenever the buffer section changes length, since it shifts).
//!
//! **Single-opener contract**: a sketch file (plus its log) must be open in at most one
//! process at a time.  Recovery *mutates* — it replays the log into the room region and
//! truncates it — so opening the live file of a running ingester would race its writes
//! and corrupt both views.  This is now **enforced** by an advisory sidecar lock
//! (`<sketch>.lock`, see [`crate::pager::lock_file`]): create and open claim it
//! create-exclusively before touching the sketch file (so a concurrent `create` cannot
//! even truncate a live file), a second opener fails with a "locked by pid N" I/O error,
//! and locks left by a killed process are reclaimed.  Ship a snapshot
//! ([`crate::GssSketch::write_snapshot_to`]) to read a live sketch's state from another
//! process.
//!
//! ## Failure model
//!
//! Every write-path function returns `Result<_, StoreFault>`: the first runtime I/O
//! failure (disk full, failed fsync, file removed under us) **poisons** the store's
//! sticky [`StoreHealth`] and comes back as the typed cause, every later write is
//! rejected with that same cause, and reads keep serving — cache hits directly, misses
//! degraded to uncached reads of the file image.  Only the read-side [`RoomStore`]
//! methods (`room`, `find_*`, `scan_*`), whose signatures carry no error, still panic on
//! an unreadable page (poisoning first); construction, open and sync report errors
//! properly.

use crate::config::{GroupCommit, GssConfig};
use crate::error::{DurabilityReport, StoreFault, StoreHealth};
use crate::group_commit::{GroupCommitter, WalMember, WalState};
use crate::matrix::Room;
use crate::pager::lock_file::LockFile;
use crate::pager::page_cache::{PageCache, PageCursor, PageIo};
use crate::pager::page_file::PageFile;
use crate::pager::witness::{self, LockClass};
use crate::pager::{page_offset, HEADER_BYTES};
use crate::persistence::PersistenceError;
use crate::storage::{
    decode_config, decode_room, dense_scan, encode_config, encode_room, AtomicOccupancyIndex,
    BucketProbe, OccupancyIndex, RoomStore, CONFIG_BYTES, ROOM_OCCUPIED_BYTE, ROOM_RECORD_BYTES,
};
use crate::wal::{self, crc32, read_replay, wal_path, WalWriter};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

pub use crate::pager::{PageCacheStats, PAGE_BYTES};

/// Magic bytes identifying a GSS sketch file (version 2: per-section tail lengths/CRCs
/// in the header, write-ahead log sidecar).
pub const FILE_MAGIC: [u8; 8] = *b"GSSFILE\x02";

/// Version-1 magic (pre-durability files; clean ones still open, their header upgraded
/// to v2 in place).
pub const FILE_MAGIC_V1: [u8; 8] = *b"GSSFILE\x01";

// Header field offsets.
const OFF_CONFIG: usize = 8;
const OFF_ITEMS: usize = OFF_CONFIG + CONFIG_BYTES;
const OFF_OCCUPIED: usize = OFF_ITEMS + 8;
const OFF_TAIL_LEN: usize = OFF_OCCUPIED + 8;
const OFF_CLEAN: usize = OFF_TAIL_LEN + 8;
// v2 extension: per-section tail lengths and CRCs (zero in v1 files).
const OFF_BUFFER_LEN: usize = OFF_CLEAN + 1;
const OFF_BUFFER_CRC: usize = OFF_BUFFER_LEN + 8;
const OFF_NODE_LEN: usize = OFF_BUFFER_CRC + 4;
const OFF_NODE_CRC: usize = OFF_NODE_LEN + 8;
const HEADER_FIELDS_END: usize = OFF_NODE_CRC + 4;

/// Fixed-width header field at `offset`.  All `OFF_*` offsets sit far inside the
/// one-page header, so the lookup always succeeds; the zero fallback (instead of a
/// panicking slice) keeps the open/recovery path panic-free by construction
/// (gss-lint rule L003).
fn header_field<const N: usize>(header: &[u8; PAGE_BYTES], offset: usize) -> [u8; N] {
    let mut out = [0u8; N];
    if let Some(bytes) = header.get(offset..offset + N) {
        out.copy_from_slice(bytes);
    }
    out
}

/// Everything [`FileStore::open`] recovers from an existing sketch file besides the store
/// itself: the sketch-level state the file checkpoints.
#[derive(Debug)]
pub struct FileHeader {
    /// The configuration the file was created with.
    pub config: GssConfig,
    /// Stream items inserted when the file was last synced (or recovered).
    pub items_inserted: u64,
    /// Tail bytes (buffer + node-table sections, decoded by persistence).
    pub tail: Vec<u8>,
    /// Whether the file was unclean and its state was rebuilt by write-ahead-log replay.
    pub recovered: bool,
}

/// The durability points at which an installed flush hook fires (in order of a
/// checkpoint's progress).  Kill-point tests copy the sketch file and its log at a chosen
/// point — every write below the point is on disk, nothing above it is — which simulates
/// a crash at exactly that boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPoint {
    /// A group-commit drain swapped the pending arena out under the append mutex; the
    /// positioned write of the taken frames into the log file has not started yet.
    /// A kill here loses the whole swapped window — which must therefore contain no
    /// acknowledged commit.
    WalArenaSwap,
    /// Pending write-ahead-log frames were appended to the log file.
    WalFlush,
    /// A dirty page was written back to the room region.
    PageWriteBack,
    /// Tail sections were rewritten; the header still describes the old tail.
    TailWrite,
    /// The checkpoint committed (header + clean flag written); the log is not yet
    /// truncated.
    CheckpointDone,
}

/// An injectable observer of durability points (see [`FlushPoint`]).
pub type FlushHook = Box<dyn FnMut(FlushPoint) + Send>;

/// The tail state of the last completed checkpoint: what [`FileStore::checkpoint`]
/// compares incoming generation stamps against to skip unchanged sections.
#[derive(Debug, Clone, Copy, Default)]
struct SyncedTail {
    items: u64,
    buffer_gen: u64,
    node_gen: u64,
    buffer_len: u64,
    buffer_crc: u32,
    node_len: u64,
    node_crc: u32,
}

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

/// Cumulative durability counters of a [`FileStore`] (surfaced through
/// [`GssStats`](crate::GssStats) and the `durability_cost` bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Current write-ahead-log bytes (on disk plus pending in memory).
    pub wal_bytes: u64,
    /// Drains of the pending log buffer into the log file.
    pub wal_flushes: u64,
    /// Dirty pages written back (on eviction and by checkpoints).
    pub pages_written: u64,
    /// Tail-section bytes rewritten by checkpoints (incremental checkpoints keep this
    /// far below `checkpoints × tail size`).
    pub tail_bytes_written: u64,
    /// Completed checkpoints.
    pub checkpoints: u64,
    /// Group-commit drain rounds this store's committers led.
    pub wal_group_commits: u64,
    /// Commits that parked behind another in-flight drain round instead of leading
    /// their own (each shared the leader's drain and sync).
    pub wal_group_waits: u64,
    /// Sync (`fdatasync`) calls issued against the write-ahead log file.
    pub wal_fsyncs: u64,
    /// Bounded transient-failure retries (`EINTR`, short reads) across the sketch file
    /// and the write-ahead log (see
    /// [`MAX_TRANSIENT_RETRIES`](crate::pager::page_file::MAX_TRANSIENT_RETRIES)).
    pub io_retries: u64,
    /// Faults injected by an armed [`FaultPlan`](crate::pager::faults::FaultPlan)
    /// through this store's file handles; zero in production.
    pub injected_faults: u64,
    /// Whether the store has fail-stopped (1 when poisoned, 0 when healthy; numeric so
    /// the flat stats encoding stays uniform).
    pub store_poisoned: u64,
}

/// The deferred half of a two-phase commit: [`FileStore::log_commit_deferred`] appends
/// the commit frame and returns this token; [`FileStore::ack_commit`] (or the shard's
/// [`WalAckHandle`]) consumes it to drain the log.  Multi-shard batches append every
/// shard's frame before acknowledging any of them, so concurrent drain rounds cover
/// each other's bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalAck {
    /// Log bytes that must be drained before the commit is acknowledged.
    target: u64,
    /// Cumulative stream items the commit frame covers — credited to the durability
    /// accounting ([`DurabilityReport`]) when the commit is acknowledged.
    items: u64,
}

/// Acknowledges a deferred commit: its frames are in the log file before this returns
/// (the acknowledged items are now crash-safe), drained through the group-commit
/// coordinator so concurrent shard commits share one drain round and one sync cadence.
/// A failed drain or sync poisons the store and returns its sticky [`StoreFault`]; on
/// success the items are credited as acknowledged.
fn ack_commit(group: &GroupCommitter, wal: &Arc<WalMember>, ack: WalAck) -> Result<(), StoreFault> {
    wal.health().check()?;
    group.commit(wal, ack.target).map_err(|error| {
        wal.health().poison(StoreFault::from_io("write-ahead-log group commit", &error))
    })?;
    wal.record_ack(ack.items);
    Ok(())
}

/// A lock-free acknowledger for one store's deferred commits: `Arc`s to the
/// group-commit coordinator and the store's log membership — everything
/// [`FileStore::ack_commit`] touches, none of it behind the sketch lock.  The sharded
/// batch path captures one per shard at construction so its acknowledgement pass never
/// re-takes a shard lock.
#[derive(Clone)]
pub(crate) struct WalAckHandle {
    group: Arc<GroupCommitter>,
    wal: Arc<WalMember>,
}

impl std::fmt::Debug for WalAckHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalAckHandle").finish_non_exhaustive()
    }
}

impl WalAckHandle {
    /// [`FileStore::ack_commit`] through the handle.
    pub(crate) fn ack(&self, ack: WalAck) -> Result<(), StoreFault> {
        ack_commit(&self.group, &self.wal, ack)
    }
}

/// Checkpoint bookkeeping, serialized by its own mutex (checkpoints are rare and already
/// exclusive at the sketch layer; the mutex keeps the store safe regardless).
struct SyncState {
    /// Tail state as of the last completed checkpoint.
    synced: SyncedTail,
    /// Cumulative tail-section bytes rewritten by checkpoints.
    tail_bytes_written: u64,
    /// Completed checkpoints.
    checkpoints: u64,
}

/// A paged file-backed [`RoomStore`]: lock-striped page cache with per-page latches,
/// write-ahead room log behind its own append mutex and incremental checkpoints.
/// Reads (`&self`) run concurrently; see the module docs.
pub struct FileStore {
    path: PathBuf,
    width: usize,
    rooms_per_bucket: usize,
    cache_pages: usize,
    /// Positioned I/O over the sketch file.
    file: PageFile,
    /// The lock-striped page table (see [`crate::pager::page_cache`]).
    cache: PageCache,
    /// Bucket-occupancy bitmaps with atomic words (never written to the file; rebuilt
    /// from the room region on [`FileStore::open`]), steering scans past empty buckets.
    index: AtomicOccupancyIndex,
    occupied_rooms: AtomicUsize,
    /// Dirty pages written back (eviction and checkpoint).
    pages_written: AtomicU64,
    /// The write-ahead room log, clean flag and drain arenas (see [`crate::wal`] and
    /// [`crate::group_commit`]).  Its append mutex is never held while taking a
    /// page-table stripe mutex.
    wal: Arc<WalMember>,
    /// Group-commit coordinator scheduling this store's log drains and syncs; the
    /// shards of a [`ShardedGss`](crate::ShardedGss) share one.
    group: Arc<GroupCommitter>,
    /// Pinned-page write cursor: consecutive room writes landing on the same page skip
    /// the stripe-map probe (batch ingest sorts its writes by page to maximise runs).
    /// Taken only on the single-writer mutation path, never by readers.
    write_cursor: Mutex<PageCursor>,
    sync_state: Mutex<SyncState>,
    /// Sticky fail-stop state, shared with the write-ahead-log membership: the first
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
            .field("width", &self.width)
            .field("rooms_per_bucket", &self.rooms_per_bucket)
            .field("cache_pages", &self.cache_pages)
            .finish_non_exhaustive()
    }
}

/// How the page cache reaches the file: faults read the page image, evictions pass the
/// write-ahead barrier and then write the page back synchronously.
impl PageIo for FileStore {
    fn load_page(&self, index: u64, into: &mut [u8; PAGE_BYTES]) -> io::Result<()> {
        self.file.read_exact_at(&mut into[..], page_offset(index))
    }

    fn write_back(&self, index: u64, data: &[u8; PAGE_BYTES]) -> io::Result<()> {
        // Write-ahead barrier: frames covering this page must be durable before the
        // page itself is.
        self.drain_wal()?;
        self.file.write_all_at(&data[..], page_offset(index))?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.fire(FlushPoint::PageWriteBack);
        Ok(())
    }
}

impl FileStore {
    /// Default page-cache capacity: 1024 pages = 4 MiB of resident room records.
    pub const DEFAULT_CACHE_PAGES: usize = 1024;

    /// Creates a fresh sketch file at `path` (truncating any existing file): header with
    /// `config`, a zeroed page-aligned room region sized by `set_len`, no tail, an empty
    /// write-ahead log at `<path>.wal`.  The store gets a private group-commit
    /// coordinator with the default [`GroupCommit`] cadence.
    pub fn create(path: &Path, config: &GssConfig, cache_pages: usize) -> io::Result<Self> {
        Self::create_grouped(path, config, cache_pages, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`create`](Self::create) registering the new store's log with a shared
    /// group-commit coordinator (sharded stores pool their fsync scheduling).
    pub fn create_grouped(
        path: &Path,
        config: &GssConfig,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> io::Result<Self> {
        // Claim the single-opener lock before truncating anything: a create aimed at a
        // live sketch file must fail without destroying it.
        let lock = LockFile::acquire(path)?;
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let room_count = config.room_count();
        // A fresh file carries the canonical empty tail: two zero-count sections of 8
        // bytes each, so incremental checkpoints can rewrite either section alone from
        // the very first sync.  `set_len` zero-fills them (a zero count *is* all-zeroes).
        let empty_crc = crc32(&0u64.to_le_bytes());
        let empty_section_len = 8u64;
        let mut header = [0u8; PAGE_BYTES];
        header[0..8].copy_from_slice(&FILE_MAGIC);
        header[OFF_CONFIG..OFF_CONFIG + CONFIG_BYTES].copy_from_slice(&encode_config(config));
        header[OFF_TAIL_LEN..OFF_TAIL_LEN + 8]
            .copy_from_slice(&(2 * empty_section_len).to_le_bytes());
        header[OFF_CLEAN] = 1;
        header[OFF_BUFFER_LEN..OFF_BUFFER_LEN + 8]
            .copy_from_slice(&empty_section_len.to_le_bytes());
        header[OFF_BUFFER_CRC..OFF_BUFFER_CRC + 4].copy_from_slice(&empty_crc.to_le_bytes());
        header[OFF_NODE_LEN..OFF_NODE_LEN + 8].copy_from_slice(&empty_section_len.to_le_bytes());
        header[OFF_NODE_CRC..OFF_NODE_CRC + 4].copy_from_slice(&empty_crc.to_le_bytes());
        file.write_all(&header)?;
        // A sparse zero region where the filesystem supports it; room records decode
        // all-zeroes as unoccupied rooms, so no explicit formatting pass is needed.
        file.set_len(Self::tail_offset_for(room_count) + 2 * empty_section_len)?;
        let wal = WalWriter::create(&wal_path(path))?;
        let synced = SyncedTail {
            items: 0,
            buffer_gen: 0,
            node_gen: 0,
            buffer_len: empty_section_len,
            buffer_crc: empty_crc,
            node_len: empty_section_len,
            node_crc: empty_crc,
        };
        Ok(Self::assemble(
            path,
            config,
            cache_pages,
            file,
            0,
            true,
            AtomicOccupancyIndex::new(config.width),
            wal,
            synced,
            group,
            lock,
        ))
    }

    /// Opens an existing sketch file in place, validating the header and reading the
    /// tail.  The room region is **streamed once** (sequential reads, occupancy flags
    /// only, no per-room decode or insert pass) to rebuild the in-memory occupancy index
    /// — open cost is one sequential pass over the file plus the (usually tiny) tail.
    /// The store gets a private group-commit coordinator with the default
    /// [`GroupCommit`] cadence.
    ///
    /// An **unclean** v2 file (crash before the last checkpoint completed) is recovered
    /// by replaying its write-ahead log; see the module docs.  Unclean v1 files are still
    /// rejected as [`PersistenceError::Corrupt`] — they predate the log.
    pub fn open(path: &Path, cache_pages: usize) -> Result<(Self, FileHeader), PersistenceError> {
        Self::open_grouped(path, cache_pages, GroupCommitter::new(GroupCommit::default()))
    }

    /// [`open`](Self::open) registering the reopened store's log with a shared
    /// group-commit coordinator (sharded stores pool their fsync scheduling).
    pub fn open_grouped(
        path: &Path,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
    ) -> Result<(Self, FileHeader), PersistenceError> {
        let lock = LockFile::acquire(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut header = [0u8; PAGE_BYTES];
        file.read_exact(&mut header)?;
        let version = if header.starts_with(&FILE_MAGIC) {
            2
        } else if header.starts_with(&FILE_MAGIC_V1) {
            1
        } else {
            return Err(PersistenceError::BadMagic);
        };
        let config = decode_config(&header_field::<CONFIG_BYTES>(&header, OFF_CONFIG))?;
        let u64_at = |offset: usize| u64::from_le_bytes(header_field(&header, offset));
        let u32_at = |offset: usize| u32::from_le_bytes(header_field(&header, offset));
        let items_inserted = u64_at(OFF_ITEMS);
        let occupied = u64_at(OFF_OCCUPIED);
        let tail_len = u64_at(OFF_TAIL_LEN);
        let clean = header[OFF_CLEAN] == 1;
        // v1 tails are monolithic (no valid section split), so their generation stamps
        // are poisoned: the first sketch sync then rewrites the whole tail, upgrading
        // the file to properly sectioned v2 in place.
        let poison = if version == 1 { u64::MAX } else { 0 };
        let synced = SyncedTail {
            items: items_inserted,
            buffer_gen: poison,
            node_gen: poison,
            buffer_len: if version == 2 { u64_at(OFF_BUFFER_LEN) } else { tail_len },
            buffer_crc: u32_at(OFF_BUFFER_CRC),
            node_len: if version == 2 { u64_at(OFF_NODE_LEN) } else { 0 },
            node_crc: u32_at(OFF_NODE_CRC),
        };
        if !clean {
            if version == 1 {
                return Err(PersistenceError::Corrupt(
                    "sketch file was not cleanly synced (crash or missing sync before reopen) \
                     and predates the write-ahead log"
                        .to_string(),
                ));
            }
            return Self::recover(
                file,
                path,
                config,
                items_inserted,
                synced,
                cache_pages,
                group,
                lock,
            );
        }
        let room_count = config.room_count();
        if occupied > room_count as u64 {
            return Err(PersistenceError::Corrupt(format!(
                "header claims {occupied} occupied rooms in a {room_count}-room matrix"
            )));
        }
        if version == 2 && synced.buffer_len.checked_add(synced.node_len) != Some(tail_len) {
            return Err(PersistenceError::Corrupt(format!(
                "tail sections ({} + {} bytes) disagree with the tail length {tail_len}",
                synced.buffer_len, synced.node_len
            )));
        }
        let tail_offset = Self::tail_offset_for(room_count);
        Self::section_end(tail_offset, tail_len, file.metadata()?.len())?;
        let mut tail = vec![0u8; tail_len as usize];
        file.seek(SeekFrom::Start(tail_offset))?;
        file.read_exact(&mut tail)?;
        if version == 2 {
            let (buffer, node) = tail.split_at(synced.buffer_len as usize);
            if crc32(buffer) != synced.buffer_crc || crc32(node) != synced.node_crc {
                return Err(PersistenceError::Corrupt(
                    "tail section checksum mismatch".to_string(),
                ));
            }
        }
        let (index, rebuilt_occupied) = Self::rebuild_index(&mut file, &config)?;
        if rebuilt_occupied != occupied as usize {
            return Err(PersistenceError::Corrupt(format!(
                "header claims {occupied} occupied rooms but the room region holds \
                 {rebuilt_occupied}"
            )));
        }
        let mut synced = synced;
        if version == 1 {
            // Upgrade the header to v2 *now*, not at the first checkpoint: mutations
            // after this open are write-ahead logged immediately, and recovery needs the
            // v2 magic plus valid section CRCs (whole tail as the buffer section, empty
            // node section) to accept the file.  The tail bytes themselves are untouched.
            synced.buffer_crc = crc32(&tail);
            synced.node_crc = crc32(&[]);
            let mut fields = Vec::with_capacity(HEADER_FIELDS_END - OFF_BUFFER_LEN);
            fields.extend_from_slice(&synced.buffer_len.to_le_bytes());
            fields.extend_from_slice(&synced.buffer_crc.to_le_bytes());
            fields.extend_from_slice(&synced.node_len.to_le_bytes());
            fields.extend_from_slice(&synced.node_crc.to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&FILE_MAGIC)?;
            file.seek(SeekFrom::Start(OFF_BUFFER_LEN as u64))?;
            file.write_all(&fields)?;
            file.sync_data()?;
        }
        // A stale log (crash after the clean flag landed but before truncation) is fully
        // covered by the completed checkpoint: discard it.
        let wal = WalWriter::create(&wal_path(path)).map_err(PersistenceError::from)?;
        let store = Self::assemble(
            path,
            &config,
            cache_pages,
            file,
            occupied as usize,
            true,
            index,
            wal,
            synced,
            group,
            lock,
        );
        Ok((store, FileHeader { config, items_inserted, tail, recovered: false }))
    }

    /// Crash recovery: rebuilds a consistent sketch file from an unclean v2 file plus its
    /// write-ahead log, then checkpoints the recovered state so the file is clean again.
    /// See the module docs for the replay semantics.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        mut file: File,
        path: &Path,
        config: GssConfig,
        header_items: u64,
        synced: SyncedTail,
        cache_pages: usize,
        group: Arc<GroupCommitter>,
        lock: LockFile,
    ) -> Result<(Self, FileHeader), PersistenceError> {
        let log = wal_path(path);
        let room_count = config.room_count();
        let replay = read_replay(&log, room_count as u64)?.ok_or_else(|| {
            PersistenceError::Corrupt(
                "sketch file was not cleanly synced (crash or missing sync before reopen) and \
                 has no write-ahead log to replay"
                    .to_string(),
            )
        })?;
        let tail_offset = Self::tail_offset_for(room_count);
        let file_len = file.metadata()?.len();
        // Base tail sections: the image a mid-checkpoint crash logged wins; otherwise the
        // file's sections, which the header CRCs must validate (they were written by the
        // last completed checkpoint and not touched since).
        let mut read_section = |offset: u64, len: u64, crc: u32, what: &str| {
            Self::section_end(offset, len, file_len)?;
            let mut bytes = vec![0u8; len as usize];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut bytes)?;
            if crc32(&bytes) != crc {
                return Err(PersistenceError::Corrupt(format!(
                    "{what} section checksum mismatch during write-ahead-log recovery"
                )));
            }
            Ok(bytes)
        };
        let buffer_bytes = match replay.tail_buffer {
            Some(bytes) => bytes,
            None => read_section(tail_offset, synced.buffer_len, synced.buffer_crc, "buffer")?,
        };
        let node_bytes = match replay.tail_node {
            Some(bytes) => bytes,
            None => read_section(
                Self::section_end(tail_offset, synced.buffer_len, file_len)?,
                synced.node_len,
                synced.node_crc,
                "node",
            )?,
        };
        // Decode the base tail and lay the logged deltas on top — all in memory, so a
        // decode failure rejects the file without modifying it.
        let mut buffer = crate::buffer::LeftoverBuffer::new();
        let mut node_map = crate::node_map::NodeIdMap::new();
        let mut base_tail = buffer_bytes;
        base_tail.extend_from_slice(&node_bytes);
        crate::persistence::decode_tail(&mut buffer, &mut node_map, &base_tail)?;
        for &(source, destination, weight) in &replay.buffer_ops {
            buffer.insert(source, destination, weight);
        }
        for &(hash, vertex) in &replay.node_ops {
            node_map.register(hash, vertex);
        }
        let items = replay.items.unwrap_or(header_items);
        // Replay room records into the room region (full post-write values: idempotent
        // over whatever subset of dirty pages reached the file before the crash).
        // `read_replay` bounds every index below `room_count`.
        for &(index, ref record) in &replay.rooms {
            debug_assert!(index < room_count as u64, "replay indices are bounds-checked");
            file.seek(SeekFrom::Start(HEADER_BYTES + index * ROOM_RECORD_BYTES as u64))?;
            file.write_all(record)?;
        }
        let (index, occupied) = Self::rebuild_index(&mut file, &config)?;
        // Cut any torn suffix off the log before appending: the recovery checkpoint's
        // TAIL frame must be reachable by a replay of the log as it stands.
        let wal =
            WalWriter::open_append(&log, replay.valid_bytes).map_err(PersistenceError::from)?;
        let store = Self::assemble(
            path,
            &config,
            cache_pages,
            file,
            occupied,
            false,
            index,
            wal,
            synced,
            group,
            lock,
        );
        // Checkpoint the recovered state: tail rewritten whole, header counts re-derived,
        // clean flag set, log truncated.  A crash during *this* checkpoint replays to the
        // same state (its tail image lands behind the frames it supersedes).
        let buffer_section = crate::persistence::encode_buffer_section(&buffer);
        let node_section = crate::persistence::encode_node_section(&node_map);
        store
            .checkpoint(
                items,
                TailSections {
                    buffer: Some(&buffer_section),
                    node: Some(&node_section),
                    buffer_gen: 0,
                    node_gen: 0,
                },
            )
            .map_err(|error| PersistenceError::Io(error.to_string()))?;
        let mut tail = buffer_section;
        tail.extend_from_slice(&node_section);
        Ok((store, FileHeader { config, items_inserted: items, tail, recovered: true }))
    }

    /// Shared tail of `create`/`open`/`recover`: builds the store around an open file.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        path: &Path,
        config: &GssConfig,
        cache_pages: usize,
        file: File,
        occupied_rooms: usize,
        clean: bool,
        index: AtomicOccupancyIndex,
        wal: WalWriter,
        synced: SyncedTail,
        group: Arc<GroupCommitter>,
        lock: LockFile,
    ) -> Self {
        let health = Arc::new(StoreHealth::new());
        let wal = WalMember::new(wal, clean, Arc::clone(&health));
        group.register(&wal);
        Self {
            path: path.to_path_buf(),
            width: config.width,
            rooms_per_bucket: config.rooms,
            cache_pages: cache_pages.max(1),
            file: PageFile::with_faults(file, crate::pager::faults::plan_for(path)),
            cache: PageCache::new(cache_pages),
            index,
            occupied_rooms: AtomicUsize::new(occupied_rooms),
            pages_written: AtomicU64::new(0),
            wal,
            group,
            write_cursor: Mutex::new(PageCursor::default()),
            sync_state: Mutex::new(SyncState { synced, tail_bytes_written: 0, checkpoints: 0 }),
            health,
            _lock: lock,
        }
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

    /// Streams the room region sequentially and rebuilds the occupancy index from the
    /// per-record occupancy flags, bypassing the page cache (the pass is one-shot and
    /// would otherwise evict the whole cache).  Returns the index and the number of
    /// occupied rooms found.
    fn rebuild_index(
        file: &mut File,
        config: &GssConfig,
    ) -> Result<(AtomicOccupancyIndex, usize), PersistenceError> {
        let width = config.width;
        let rooms_per_bucket = config.rooms;
        let index = AtomicOccupancyIndex::new(width);
        let mut occupied = 0usize;
        let mut page = [0u8; PAGE_BYTES];
        let mut remaining = config.room_count();
        let mut flat = 0usize;
        file.seek(SeekFrom::Start(HEADER_BYTES))?;
        while remaining > 0 {
            file.read_exact(&mut page)?;
            let records = (PAGE_BYTES / ROOM_RECORD_BYTES).min(remaining);
            for record in 0..records {
                if page[record * ROOM_RECORD_BYTES + ROOM_OCCUPIED_BYTE] != 0 {
                    occupied += 1;
                    let bucket = (flat + record) / rooms_per_bucket;
                    index.mark(bucket / width, bucket % width);
                }
            }
            flat += records;
            remaining -= records;
        }
        Ok((index, occupied))
    }

    /// Location of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Page-cache capacity in pages.
    pub fn cache_pages(&self) -> usize {
        self.cache_pages
    }

    /// Installs (or clears) the durability-point observer used by kill-point tests.
    pub fn set_flush_hook(&self, hook: Option<FlushHook>) {
        let _hook_held = witness::acquire(LockClass::Hook);
        *self.wal.hook.lock() = hook;
    }

    /// Byte offset where the tail begins (room region rounded up to whole pages).
    fn tail_offset_for(room_count: usize) -> u64 {
        let pages = (room_count * ROOM_RECORD_BYTES).div_ceil(PAGE_BYTES) as u64;
        HEADER_BYTES + pages * PAGE_BYTES as u64
    }

    fn room_count_internal(&self) -> usize {
        self.width * self.width * self.rooms_per_bucket
    }

    /// Flat index of `(row, column, slot)` in the room region.
    fn room_index(&self, row: usize, column: usize, slot: usize) -> usize {
        debug_assert!(row < self.width && column < self.width && slot < self.rooms_per_bucket);
        (row * self.width + column) * self.rooms_per_bucket + slot
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

    /// Poisons the store with a write-path failure and returns the sticky cause.
    fn poison_fault(&self, context: &str, error: &io::Error) -> StoreFault {
        self.health.poison(StoreFault::from_io(context, error))
    }

    /// The store's sticky fail-stop state.
    pub(crate) fn health(&self) -> &Arc<StoreHealth> {
        &self.health
    }

    /// An honest account of acknowledged-versus-durable stream items (see
    /// [`DurabilityReport`]).  On a healthy store nothing is breached — pending log
    /// bytes drain on the policy's schedule; once poisoned, every acknowledged item not
    /// covered by a completed log-file write is reported as possibly lost.
    pub fn durability_report(&self) -> DurabilityReport {
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

    /// Invokes the installed flush hook, if any.  The hook mutex is a leaf lock: safe to
    /// fire while holding the WAL mutex or a stripe mutex.
    fn fire(&self, point: FlushPoint) {
        self.wal.fire(point);
    }

    /// Clears the header's clean flag on the first mutation after a checkpoint.  Every
    /// logged mutation — room writes, buffer spills, node registrations, commits — must
    /// pass through here *before* its frames may drain: a file whose log holds
    /// acknowledged frames while its header still reads clean would discard them on
    /// reopen.
    fn mark_unclean_locked(&self, wal: &mut WalState) -> io::Result<()> {
        if wal.clean {
            wal.clean = false;
            self.file.write_all_at(&[0], OFF_CLEAN as u64)?;
        }
        Ok(())
    }

    /// Drains pending write-ahead-log frames — the write-ahead barrier every page
    /// write-back must pass first.  Routed through the group-commit coordinator so the
    /// drain serializes with in-flight rounds; no sync is forced, because the
    /// write-ahead invariant only needs the frames in the log *image* before the page
    /// image changes.
    fn drain_wal(&self) -> io::Result<()> {
        self.group.barrier(&self.wal)
    }

    /// Runs `read` over one page's bytes: through the cache normally, degrading to an
    /// uncached image read once the store is poisoned.  A cache *miss* may have to
    /// evict a dirty page, and a poisoned store can no longer write anything back — so
    /// instead of surfacing that dead end, misses bypass the cache entirely and read
    /// the file image (an evicted page is always already in the file).  Cache hits
    /// (including dirty pages) keep serving either way, which is the "reads keep
    /// serving from cache" half of the fail-stop contract.
    fn with_page<T>(&self, page_index: u64, read: impl FnOnce(&[u8]) -> T) -> io::Result<T> {
        match self.cache.lookup(page_index, self) {
            Ok(slot) => Ok(read(&self.cache.read(&slot)[..])),
            Err(_) if self.health.is_poisoned() => {
                let mut buffer = [0u8; PAGE_BYTES];
                self.file.read_exact_at(&mut buffer[..], page_offset(page_index))?;
                Ok(read(&buffer))
            }
            Err(error) => Err(error),
        }
    }

    /// Reads the room at flat index `index` through the cache.
    fn read_room(&self, index: usize) -> io::Result<Room> {
        let byte = index * ROOM_RECORD_BYTES;
        self.with_page((byte / PAGE_BYTES) as u64, |data| {
            let offset = byte % PAGE_BYTES;
            let record: &[u8; ROOM_RECORD_BYTES] =
                data[offset..offset + ROOM_RECORD_BYTES].try_into().expect("length checked");
            decode_room(record)
        })
    }

    /// Writes the room at flat index `index` through the cache: logs the full post-write
    /// record to the write-ahead log (frame encoded and checksummed *before* taking the
    /// append lock, which covers only the arena append), then updates the page under
    /// its write latch and marks it dirty.  Page lookup goes through the pinned write
    /// cursor: consecutive writes to the same page skip the stripe-map probe, which is
    /// what batch ingest's page-ordered writes are sorted for.
    fn write_room(&self, index: usize, room: &Room) -> io::Result<()> {
        let record = encode_room(room);
        let frame = wal::room_frame(index as u64, &record);
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let mut wal = self.wal.wal.lock();
            wal.writer.append_encoded(&frame);
            self.mark_unclean_locked(&mut wal)?;
        }
        let byte = index * ROOM_RECORD_BYTES;
        let slot = {
            let mut cursor = self.write_cursor.lock();
            self.cache.lookup_with(&mut cursor, (byte / PAGE_BYTES) as u64, self)?
        };
        let mut data = self.cache.write(&slot);
        let offset = byte % PAGE_BYTES;
        data[offset..offset + ROOM_RECORD_BYTES].copy_from_slice(&record);
        slot.mark_dirty();
        Ok(())
    }

    /// Visits the rooms of the bucket starting at flat index `start` in slot order,
    /// batching page traffic: one cache lookup and one latch acquisition per touched
    /// page (buckets span a page boundary only when `l` is not a power of two).  The
    /// callback returns `false` to stop early.
    fn scan_bucket(
        &self,
        start: usize,
        visit: &mut dyn FnMut(usize, Room) -> bool,
    ) -> io::Result<()> {
        let mut slot_index = 0usize;
        while slot_index < self.rooms_per_bucket {
            let byte = (start + slot_index) * ROOM_RECORD_BYTES;
            let stopped = self.with_page((byte / PAGE_BYTES) as u64, |data| {
                let mut offset = byte % PAGE_BYTES;
                while slot_index < self.rooms_per_bucket && offset + ROOM_RECORD_BYTES <= PAGE_BYTES
                {
                    let record: &[u8; ROOM_RECORD_BYTES] = data[offset..offset + ROOM_RECORD_BYTES]
                        .try_into()
                        .expect("length checked");
                    if !visit(slot_index, decode_room(record)) {
                        return true;
                    }
                    slot_index += 1;
                    offset += ROOM_RECORD_BYTES;
                }
                false
            })?;
            if stopped {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Visits the occupied rooms among `count` consecutive records starting at flat
    /// index `start`, page-batched like [`scan_bucket`](Self::scan_bucket); the callback
    /// receives the record's offset from `start`.
    fn scan_records(
        &self,
        start: usize,
        count: usize,
        visit: &mut dyn FnMut(usize, Room),
    ) -> io::Result<()> {
        let mut offset = 0usize;
        while offset < count {
            let byte = (start + offset) * ROOM_RECORD_BYTES;
            self.with_page((byte / PAGE_BYTES) as u64, |data| {
                let mut at = byte % PAGE_BYTES;
                while offset < count && at + ROOM_RECORD_BYTES <= PAGE_BYTES {
                    let record: &[u8; ROOM_RECORD_BYTES] =
                        data[at..at + ROOM_RECORD_BYTES].try_into().expect("length checked");
                    if record[ROOM_OCCUPIED_BYTE] != 0 {
                        visit(offset, decode_room(record));
                    }
                    offset += 1;
                    at += ROOM_RECORD_BYTES;
                }
            })?;
        }
        Ok(())
    }

    /// Logs a left-over buffer insertion to the write-ahead log (the buffer itself lives
    /// in the sketch, not in room storage — only its durability passes through here):
    /// fail-stop gated, and a failed unclean-flag write poisons the store instead of
    /// panicking.
    pub(crate) fn log_buffer_insert(
        &self,
        source: u64,
        destination: u64,
        weight: i64,
    ) -> Result<(), StoreFault> {
        self.health.check()?;
        let frame = wal::buffer_frame(source, destination, weight);
        let wal_held = witness::acquire(LockClass::WalAppend);
        let mut wal = self.wal.wal.lock();
        wal.writer.append_encoded(&frame);
        let result = self.mark_unclean_locked(&mut wal);
        drop(wal);
        drop(wal_held);
        result.map_err(|error| self.poison_fault("unclean-flag write", &error))
    }

    /// Logs a `⟨H(v), v⟩` registration to the write-ahead log (fail-stop gated).
    pub(crate) fn log_node(&self, hash: u64, vertex: u64) -> Result<(), StoreFault> {
        self.health.check()?;
        let frame = wal::node_frame(hash, vertex);
        let wal_held = witness::acquire(LockClass::WalAppend);
        let mut wal = self.wal.wal.lock();
        wal.writer.append_encoded(&frame);
        let result = self.mark_unclean_locked(&mut wal);
        drop(wal);
        drop(wal_held);
        result.map_err(|error| self.poison_fault("unclean-flag write", &error))
    }

    /// Logs the completion of an insert/batch: appends the commit frame and marks the
    /// header unclean (a drained log behind a still-clean header would be discarded on
    /// reopen), with the append lock released before any I/O so encoding, the log write
    /// and the sync all run outside it.  Returns the total log bytes — so the sketch
    /// can trigger an automatic checkpoint when the log grows past its bound — plus the
    /// [`WalAck`] token [`ack_commit`](Self::ack_commit) consumes to drain the log.  A
    /// multi-shard batch appends every shard's frame before acknowledging any of them,
    /// so drain rounds led by concurrent writers cover the earlier shards' bytes and
    /// most acknowledgements return on the coordinator's already-drained fast path
    /// instead of leading a small round each.
    ///
    /// Fail-stop gated, and the commit is registered with the durability accounting so
    /// [`durability_report`](Self::durability_report) can tell acknowledged items from
    /// durable ones.
    pub(crate) fn log_commit_deferred(&self, items: u64) -> Result<(u64, WalAck), StoreFault> {
        self.health.check()?;
        let frame = wal::commit_frame(items);
        let wal_held = witness::acquire(LockClass::WalAppend);
        let mut wal = self.wal.wal.lock();
        let result = (|| {
            wal.writer.append_encoded(&frame);
            // Unclean-before-drain: a drained log behind a still-clean header would be
            // discarded on reopen, losing the items this commit acknowledges.
            self.mark_unclean_locked(&mut wal)?;
            Ok((wal.writer.bytes(), wal.writer.appended_bytes()))
        })();
        drop(wal);
        drop(wal_held);
        let (bytes, target) =
            result.map_err(|error: io::Error| self.poison_fault("unclean-flag write", &error))?;
        self.wal.record_commit(target, items);
        Ok((bytes, WalAck { target, items }))
    }

    /// The acknowledgement half of a commit appended by
    /// [`log_commit_deferred`](Self::log_commit_deferred) (see the free [`ack_commit`]).
    pub(crate) fn ack_commit(&self, ack: WalAck) -> Result<(), StoreFault> {
        ack_commit(&self.group, &self.wal, ack)
    }

    /// A [`WalAckHandle`] for this store — acknowledges deferred commits without the
    /// sketch lock held.
    pub(crate) fn ack_handle(&self) -> WalAckHandle {
        WalAckHandle { group: Arc::clone(&self.group), wal: Arc::clone(&self.wal) }
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
            self.file.write_all_at(&data[..], page_offset(slot.index()))?;
            self.pages_written.fetch_add(1, Ordering::Relaxed);
            self.cache.mark_clean(slot);
        }
        if wrote {
            self.fire(FlushPoint::PageWriteBack);
        }
        Ok(())
    }

    /// Cumulative page-cache counters since this store was created or opened.  Reads only
    /// atomics — never takes a pager lock, so per-tenant cache pressure is observable
    /// without perturbing page traffic.
    pub fn page_stats(&self) -> PageCacheStats {
        self.cache.stats()
    }

    /// Cumulative durability counters since this store was created or opened.
    pub fn durability_stats(&self) -> DurabilityStats {
        let (wal_bytes, wal_flushes) = {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = self.wal.wal.lock();
            (wal.writer.bytes(), wal.writer.flushes())
        };
        let (wal_group_commits, wal_group_waits, wal_fsyncs) = self.wal.counters();
        let _sync_held = witness::acquire(LockClass::CheckpointState);
        let sync = self.sync_state.lock();
        DurabilityStats {
            wal_bytes,
            wal_flushes,
            pages_written: self.pages_written.load(Ordering::Relaxed),
            tail_bytes_written: sync.tail_bytes_written,
            checkpoints: sync.checkpoints,
            wal_group_commits,
            wal_group_waits,
            wal_fsyncs,
            io_retries: self.file.io_retries() + self.wal.log_io_retries(),
            injected_faults: self.file.injected_faults() + self.wal.log_injected_faults(),
            store_poisoned: u64::from(self.health.is_poisoned()),
        }
    }

    /// Generation stamps of the last checkpointed tail sections, plus the checkpointed
    /// buffer-section length (the sketch uses these to encode only changed sections).
    pub(crate) fn synced_tail_state(&self) -> (u64, u64, u64) {
        let _sync_held = witness::acquire(LockClass::CheckpointState);
        let sync = self.sync_state.lock();
        (sync.synced.buffer_gen, sync.synced.node_gen, sync.synced.buffer_len)
    }

    /// Indexed row scan: word-by-word over the row's occupancy bitmap, so only buckets
    /// that ever received an edge are read — unless the row is dense (≥ 50% of its
    /// buckets occupied), where the bitmap's skip-ahead win vanishes and a straight
    /// linear walk of the row's contiguous records is both simpler and sequential I/O.
    fn scan_row_inner(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) -> io::Result<()> {
        if dense_scan(self.index.occupied_in_row(row), self.width) {
            let start = self.room_index(row, 0, 0);
            let rooms_per_bucket = self.rooms_per_bucket;
            return self.scan_records(start, self.width * rooms_per_bucket, &mut |offset, room| {
                visit(offset / rooms_per_bucket, room)
            });
        }
        for word_index in 0..self.index.words_per_line() {
            let word = self.index.row_word(row, word_index);
            for column in OccupancyIndex::set_positions(word_index, word) {
                let start = self.room_index(row, column, 0);
                self.scan_records(start, self.rooms_per_bucket, &mut |_, room| {
                    visit(column, room)
                })?;
            }
        }
        Ok(())
    }

    /// Indexed column scan with the same dense escape hatch as
    /// [`scan_row_inner`](Self::scan_row_inner) (a dense column visits every row's bucket
    /// directly, skipping the bitmap arithmetic; column buckets are non-contiguous either
    /// way).
    fn scan_column_inner(
        &self,
        column: usize,
        visit: &mut dyn FnMut(usize, Room),
    ) -> io::Result<()> {
        if dense_scan(self.index.occupied_in_column(column), self.width) {
            for row in 0..self.width {
                let start = self.room_index(row, column, 0);
                self.scan_records(start, self.rooms_per_bucket, &mut |_, room| visit(row, room))?;
            }
            return Ok(());
        }
        for word_index in 0..self.index.words_per_line() {
            let word = self.index.column_word(column, word_index);
            for row in OccupancyIndex::set_positions(word_index, word) {
                let start = self.room_index(row, column, 0);
                self.scan_records(start, self.rooms_per_bucket, &mut |_, room| visit(row, room))?;
            }
        }
        Ok(())
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
        let synced = sync.synced;
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = self.wal.wal.lock();
            if wal.clean
                && wal.writer.is_empty()
                && sections.buffer.is_none()
                && sections.node.is_none()
                && sections.buffer_gen == synced.buffer_gen
                && sections.node_gen == synced.node_gen
                && items == synced.items
            {
                return Ok(());
            }
        }
        debug_assert!(
            sections.buffer.is_some() || sections.buffer_gen == synced.buffer_gen,
            "a moved buffer generation must come with its section bytes"
        );
        debug_assert!(
            sections.node.is_some() || sections.node_gen == synced.node_gen,
            "a moved node generation must come with its section bytes"
        );
        let buffer_len = sections.buffer.map_or(synced.buffer_len, |b| b.len() as u64);
        let node_len = sections.node.map_or(synced.node_len, |n| n.len() as u64);
        debug_assert!(
            sections.node.is_some() || buffer_len == synced.buffer_len,
            "the node section must be rewritten when the buffer section changes length"
        );
        // 1. The tail image goes to the log first: a crash anywhere below recovers it.
        // 2. Then mark the file unclean before touching it (a no-op when a mutation
        //    already did — items-only checkpoints exist): a crash between the partial
        //    tail write below and the final header update must leave the file routed
        //    through recovery, never accepted with a torn tail.
        {
            // The drain token waits out any in-flight group drain before the TAIL
            // frame is appended and synced: an overlapping arena write completing
            // *after* this sync would leave a hole in the synced log image in front of
            // the TAIL, hiding it from replay while step 4 overwrites the file tail.
            let _drains_excluded = self.group.exclusive(&self.wal);
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let mut wal = self.wal.wal.lock();
            wal.writer.log_tail(items, sections.buffer, sections.node);
            let pending = wal.writer.pending_bytes() as u64;
            wal.writer.sync()?;
            self.wal.note_synced_locked(pending);
            self.fire(FlushPoint::WalFlush);
            let was_clean = wal.clean;
            self.mark_unclean_locked(&mut wal)?;
            if was_clean {
                self.file.sync_data()?;
            }
        }
        // 3. Every dirty page out.  The WAL lock is released — drains and page traffic
        //    stay independently locked.
        self.flush_pages()?;
        // 4. Only the tail sections whose generation moved are rewritten.
        let tail_offset = Self::tail_offset_for(self.room_count_internal());
        if let Some(buffer) = sections.buffer {
            self.file.write_all_at(buffer, tail_offset)?;
            sync.tail_bytes_written += buffer.len() as u64;
        }
        if let Some(node) = sections.node {
            self.file.write_all_at(node, tail_offset + buffer_len)?;
            sync.tail_bytes_written += node.len() as u64;
        }
        self.file.set_len(tail_offset + buffer_len + node_len)?;
        self.fire(FlushPoint::TailWrite);
        // 5. Header: magic, counters, section CRCs, clean flag.
        let buffer_crc = sections.buffer.map_or(synced.buffer_crc, crc32);
        let node_crc = sections.node.map_or(synced.node_crc, crc32);
        let mut fields = [0u8; HEADER_FIELDS_END - OFF_ITEMS];
        let at = |offset: usize| offset - OFF_ITEMS;
        fields[at(OFF_ITEMS)..at(OFF_ITEMS) + 8].copy_from_slice(&items.to_le_bytes());
        // relaxed: checkpoints run with no concurrent mutators (the sketch's `&mut
        // self` contract), so the occupancy count is quiescent here.
        fields[at(OFF_OCCUPIED)..at(OFF_OCCUPIED) + 8]
            .copy_from_slice(&(self.occupied_rooms.load(Ordering::Relaxed) as u64).to_le_bytes());
        fields[at(OFF_TAIL_LEN)..at(OFF_TAIL_LEN) + 8]
            .copy_from_slice(&(buffer_len + node_len).to_le_bytes());
        fields[at(OFF_CLEAN)] = 1;
        fields[at(OFF_BUFFER_LEN)..at(OFF_BUFFER_LEN) + 8]
            .copy_from_slice(&buffer_len.to_le_bytes());
        fields[at(OFF_BUFFER_CRC)..at(OFF_BUFFER_CRC) + 4]
            .copy_from_slice(&buffer_crc.to_le_bytes());
        fields[at(OFF_NODE_LEN)..at(OFF_NODE_LEN) + 8].copy_from_slice(&node_len.to_le_bytes());
        fields[at(OFF_NODE_CRC)..at(OFF_NODE_CRC) + 4].copy_from_slice(&node_crc.to_le_bytes());
        self.file.write_all_at(&FILE_MAGIC, 0)?;
        self.file.write_all_at(&fields, OFF_ITEMS as u64)?;
        self.file.sync_all()?;
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let mut wal = self.wal.wal.lock();
            wal.clean = true;
            sync.checkpoints += 1;
            self.fire(FlushPoint::CheckpointDone);
            // 6. Every logged frame is now covered by the checkpoint.  No drain can be
            //    in flight here: the pending arena has been empty since step 1-2
            //    (checkpoints run with no concurrent mutators), so any group round
            //    since then took nothing.
            debug_assert_eq!(wal.writer.pending_bytes(), 0, "mutation during checkpoint");
            wal.writer.truncate()?;
        }
        sync.synced = SyncedTail {
            items,
            buffer_gen: sections.buffer_gen,
            node_gen: sections.node_gen,
            buffer_len,
            buffer_crc,
            node_len,
            node_crc,
        };
        Ok(())
    }

    /// Checkpoints with an opaque, whole tail (compatibility wrapper over
    /// [`checkpoint`](Self::checkpoint): the bytes land as the "buffer" section and an
    /// empty node section, which decodes identically — section boundaries only matter
    /// for incremental rewrites and CRCs).
    #[cfg(test)]
    pub fn write_tail(&self, items_inserted: u64, tail: &[u8]) -> io::Result<()> {
        let force_gen = {
            let _sync_held = witness::acquire(LockClass::CheckpointState);
            let sync = self.sync_state.lock();
            // Wrapping: v1 opens poison the stamps to u64::MAX.  Any value works here —
            // both sections are provided, so no skip comparison ever reads it.
            sync.synced.buffer_gen.max(sync.synced.node_gen).wrapping_add(1)
        };
        self.checkpoint(
            items_inserted,
            TailSections {
                buffer: Some(tail),
                node: Some(&[]),
                buffer_gen: force_gen,
                node_gen: force_gen,
            },
        )
    }
}

/// Leaves the shared group-commit coordinator (sharded stores outlive each other): the
/// sync cadence must stop sweeping this store's log file.  Dropping a bare store never
/// checkpoints — that is the sketch's job — so the file is left as a crash would.
impl Drop for FileStore {
    fn drop(&mut self) {
        self.group.deregister(&self.wal);
    }
}

impl RoomStore for FileStore {
    fn width(&self) -> usize {
        self.width
    }

    fn rooms_per_bucket(&self) -> usize {
        self.rooms_per_bucket
    }

    fn room_count(&self) -> usize {
        self.room_count_internal()
    }

    fn occupied_rooms(&self) -> usize {
        // relaxed: a statistics read; writers only bump it monotonically.
        self.occupied_rooms.load(Ordering::Relaxed)
    }

    fn room(&self, row: usize, column: usize, slot: usize) -> Room {
        let index = self.room_index(row, column, slot);
        self.io_fail(self.read_room(index))
    }

    fn find_match(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Option<usize> {
        let start = self.room_index(row, column, 0);
        let mut found = None;
        self.io_fail(self.scan_bucket(start, &mut |slot, room| {
            if room.matches(
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            ) {
                found = Some(slot);
                false
            } else {
                true
            }
        }));
        found
    }

    fn find_empty(&self, row: usize, column: usize) -> Option<usize> {
        let start = self.room_index(row, column, 0);
        let mut found = None;
        self.io_fail(self.scan_bucket(start, &mut |slot, room| {
            if room.occupied {
                true
            } else {
                found = Some(slot);
                false
            }
        }));
        found
    }

    /// The probe that opens every edge placement.  A cache miss here may have to evict
    /// a dirty page, so a write-back fault (or a hard read fault) poisons the store and
    /// surfaces as the sticky [`StoreFault`].
    fn probe_bucket(
        &self,
        row: usize,
        column: usize,
        source_fingerprint: u16,
        destination_fingerprint: u16,
        source_index: u8,
        destination_index: u8,
    ) -> Result<BucketProbe, StoreFault> {
        self.health.check()?;
        let start = self.room_index(row, column, 0);
        let mut matched = None;
        let mut first_empty = None;
        self.scan_bucket(start, &mut |slot, room| {
            if room.matches(
                source_fingerprint,
                destination_fingerprint,
                source_index,
                destination_index,
            ) {
                matched = Some(slot);
                false
            } else {
                if !room.occupied && first_empty.is_none() {
                    first_empty = Some(slot);
                }
                true
            }
        })
        .map_err(|error| self.poison_fault("bucket probe page load", &error))?;
        Ok(match (matched, first_empty) {
            (Some(slot), _) => BucketProbe::Match(slot),
            (None, Some(slot)) => BucketProbe::Empty(slot),
            (None, None) => BucketProbe::Full,
        })
    }

    fn add_weight(
        &mut self,
        row: usize,
        column: usize,
        slot: usize,
        weight: i64,
    ) -> Result<(), StoreFault> {
        self.health.check()?;
        let index = self.room_index(row, column, slot);
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
        let index = self.room_index(row, column, slot);
        debug_assert!(
            // An unreadable room is the write's problem, not the assert's.
            self.read_room(index).map(|existing| !existing.occupied).unwrap_or(true),
            "overwriting an occupied room"
        );
        self.write_room(index, &room).map_err(|error| self.poison_fault("room write", &error))?;
        // relaxed: a monotone counter; the occupancy index, not this count, gates scans.
        self.occupied_rooms.fetch_add(1, Ordering::Relaxed);
        self.index.mark(row, column);
        Ok(())
    }

    fn scan_row(&self, row: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(self.scan_row_inner(row, visit));
    }

    fn scan_column(&self, column: usize, visit: &mut dyn FnMut(usize, Room)) {
        self.io_fail(self.scan_column_inner(column, visit));
    }

    fn scan_occupied(&self, visit: &mut dyn FnMut(usize, usize, Room)) {
        // Row-major over the occupancy bitmaps: the same ascending (row, column, slot)
        // order as a flat pass, but sparse matrices skip their empty buckets.
        for row in 0..self.width {
            self.io_fail(self.scan_row_inner(row, &mut |column, room| visit(row, column, room)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::lock_file::lock_path;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gss-file-store-{}-{name}.gss", std::process::id()))
    }

    fn remove(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(wal_path(path)).ok();
    }

    fn sample_room(weight: i64) -> Room {
        Room {
            source_fingerprint: 17,
            destination_fingerprint: 23,
            source_index: 1,
            destination_index: 2,
            weight,
            occupied: true,
        }
    }

    #[test]
    fn create_store_and_reopen_round_trips_rooms() {
        let path = temp_path("roundtrip");
        let config = GssConfig::paper_default(8);
        {
            let mut store = FileStore::create(&path, &config, 4).unwrap();
            assert_eq!(store.room_count(), 8 * 8 * 2);
            assert_eq!(store.occupied_rooms(), 0);
            assert_eq!(store.find_empty(3, 5), Some(0));
            store.store_room(3, 5, 0, sample_room(42)).unwrap();
            store.store_room(7, 0, 1, sample_room(-7)).unwrap();
            store.add_weight(3, 5, 0, 8).unwrap();
            assert_eq!(store.room(3, 5, 0).weight, 50);
            assert_eq!(store.find_match(3, 5, 17, 23, 1, 2), Some(0));
            assert_eq!(store.find_empty(3, 5), Some(1));
            assert_eq!(store.occupied_rooms(), 2);
            store.write_tail(123, b"tailbytes").unwrap();
        }
        let (store, header) = FileStore::open(&path, 4).unwrap();
        assert_eq!(header.config, config);
        assert_eq!(header.items_inserted, 123);
        assert_eq!(header.tail, b"tailbytes");
        assert!(!header.recovered);
        assert_eq!(store.occupied_rooms(), 2);
        assert_eq!(store.room(3, 5, 0).weight, 50);
        assert_eq!(store.room(7, 0, 1).weight, -7);
        let mut seen = Vec::new();
        store.scan_occupied(&mut |r, c, room| seen.push((r, c, room.weight)));
        assert_eq!(seen, vec![(3, 5, 50), (7, 0, 1 - 8)]);
        remove(&path);
    }

    #[test]
    fn tiny_cache_evicts_and_writes_back() {
        let path = temp_path("evict");
        // width 40, l 2 → 3200 rooms = 50 KiB ≫ one 4-KiB page: a 1-page cache thrashes.
        let config = GssConfig::paper_default(40);
        let mut store = FileStore::create(&path, &config, 1).unwrap();
        for row in 0..40 {
            store.store_room(row, (row * 7) % 40, 0, sample_room(row as i64 + 1)).unwrap();
        }
        for row in 0..40 {
            assert_eq!(store.room(row, (row * 7) % 40, 0).weight, row as i64 + 1);
        }
        assert_eq!(store.occupied_rooms(), 40);
        assert!(store.durability_stats().pages_written > 0, "evictions write back");
        store.write_tail(0, &[]).unwrap();
        drop(store); // release the single-opener lock before reopening
        let (reopened, _) = FileStore::open(&path, 1).unwrap();
        for row in 0..40 {
            assert_eq!(reopened.room(row, (row * 7) % 40, 0).weight, row as i64 + 1);
        }
        remove(&path);
    }

    #[test]
    fn row_and_column_scans_match_memory_semantics() {
        let path = temp_path("scan");
        let mut store = FileStore::create(&path, &GssConfig::paper_default(3), 8).unwrap();
        store.store_room(1, 0, 0, sample_room(10)).unwrap();
        store.store_room(1, 2, 1, sample_room(20)).unwrap();
        store.store_room(0, 2, 0, sample_room(30)).unwrap();
        let mut row1 = Vec::new();
        store.scan_row(1, &mut |c, room| row1.push((c, room.weight)));
        assert_eq!(row1, vec![(0, 10), (2, 20)]);
        let mut col2 = Vec::new();
        store.scan_column(2, &mut |r, room| col2.push((r, room.weight)));
        assert_eq!(col2, vec![(0, 30), (1, 20)]);
        remove(&path);
    }

    #[test]
    fn unclean_files_recover_from_the_wal_and_bad_magic_is_rejected() {
        let path = temp_path("unclean");
        {
            let mut store = FileStore::create(&path, &GssConfig::paper_default(4), 2).unwrap();
            store.store_room(0, 0, 0, sample_room(1)).unwrap();
            let (_, ack) = store.log_commit_deferred(1).unwrap();
            store.ack_commit(ack).unwrap();
            // No write_tail: the clean flag stays cleared, the room lives only in the
            // cache — and in the drained WAL.
        }
        let (recovered, header) = FileStore::open(&path, 2).unwrap();
        assert!(header.recovered);
        assert_eq!(header.items_inserted, 1);
        assert_eq!(recovered.occupied_rooms(), 1);
        assert_eq!(recovered.room(0, 0, 0).weight, 1);
        drop(recovered);
        // Same crash state but the log is gone: unrecoverable, rejected.
        {
            let mut store = FileStore::create(&path, &GssConfig::paper_default(4), 2).unwrap();
            store.store_room(0, 0, 0, sample_room(1)).unwrap();
        }
        std::fs::remove_file(wal_path(&path)).unwrap();
        assert!(matches!(
            FileStore::open(&path, 2),
            Err(PersistenceError::Corrupt(message)) if message.contains("cleanly")
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(FileStore::open(&path, 2), Err(PersistenceError::BadMagic)));
        std::fs::write(&path, b"GS").unwrap();
        assert!(matches!(FileStore::open(&path, 2), Err(PersistenceError::UnexpectedEof)));
        remove(&path);
    }

    #[test]
    fn version_1_files_still_open_and_upgrade_on_checkpoint() {
        let path = temp_path("v1-compat");
        let config = GssConfig::paper_default(8);
        {
            let mut store = FileStore::create(&path, &config, 4).unwrap();
            store.store_room(2, 3, 0, sample_room(9)).unwrap();
            store.write_tail(5, b"oldtail").unwrap();
        }
        // Rewrite the header as PR-3/4 would have written it: v1 magic, no section fields.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(&FILE_MAGIC_V1);
        for byte in &mut bytes[OFF_BUFFER_LEN..HEADER_FIELDS_END] {
            *byte = 0;
        }
        std::fs::write(&path, &bytes).unwrap();
        std::fs::remove_file(wal_path(&path)).unwrap();
        let (store, header) = FileStore::open(&path, 4).unwrap();
        assert_eq!(header.items_inserted, 5);
        assert_eq!(header.tail, b"oldtail");
        assert_eq!(store.room(2, 3, 0).weight, 9);
        let upgraded = std::fs::read(&path).unwrap();
        assert_eq!(&upgraded[0..8], &FILE_MAGIC, "open upgrades the magic in place");
        store.write_tail(6, b"newtail").unwrap();
        drop(store);
        let (_, reheader) = FileStore::open(&path, 4).unwrap();
        assert_eq!(reheader.tail, b"newtail");
        remove(&path);
    }

    #[test]
    fn upgraded_v1_files_recover_from_a_crash_before_their_first_checkpoint() {
        let path = temp_path("v1-crash");
        let config = GssConfig::paper_default(8);
        // A decodable v1 tail: the canonical empty buffer + node sections (16 zero
        // bytes) — recovery must decode the base tail, unlike a plain clean open.
        let v1_tail = [0u8; 16];
        {
            let mut store = FileStore::create(&path, &config, 4).unwrap();
            store.store_room(2, 3, 0, sample_room(9)).unwrap();
            store.write_tail(5, &v1_tail).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(&FILE_MAGIC_V1);
        for byte in &mut bytes[OFF_BUFFER_LEN..HEADER_FIELDS_END] {
            *byte = 0;
        }
        std::fs::write(&path, &bytes).unwrap();
        std::fs::remove_file(wal_path(&path)).unwrap();
        {
            // Open the v1 file (upgrading it), mutate, then crash before any checkpoint.
            let (mut store, header) = FileStore::open(&path, 4).unwrap();
            assert_eq!(header.tail, v1_tail);
            store.store_room(1, 1, 0, sample_room(4)).unwrap();
            let (_, ack) = store.log_commit_deferred(6).unwrap();
            store.ack_commit(ack).unwrap();
        }
        let (recovered, header) = FileStore::open(&path, 4).unwrap();
        assert!(header.recovered, "the acknowledged mutation survives the crash");
        assert_eq!(header.items_inserted, 6);
        assert_eq!(recovered.room(1, 1, 0).weight, 4);
        assert_eq!(recovered.room(2, 3, 0).weight, 9);
        assert_eq!(header.tail, v1_tail, "the monolithic v1 tail rides along unchanged");
        remove(&path);
    }

    #[test]
    fn truncated_room_region_is_rejected() {
        let path = temp_path("truncated");
        {
            let mut store = FileStore::create(&path, &GssConfig::paper_default(32), 2).unwrap();
            store.store_room(0, 0, 0, sample_room(1)).unwrap();
            store.write_tail(1, b"abc").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(FileStore::open(&path, 2), Err(PersistenceError::UnexpectedEof)));
        remove(&path);
    }

    #[test]
    fn missing_file_reports_io_error() {
        let path = temp_path("missing-never-created");
        assert!(matches!(FileStore::open(&path, 2), Err(PersistenceError::Io(_))));
        assert!(!lock_path(&path).exists(), "a failed open releases the advisory lock");
    }

    #[test]
    fn second_opener_is_refused_while_the_store_lives() {
        let path = temp_path("single-opener");
        let store = FileStore::create(&path, &GssConfig::paper_default(4), 2).unwrap();
        match FileStore::open(&path, 2) {
            Err(PersistenceError::Io(message)) => {
                assert!(message.contains("locked"), "error names the conflict: {message}")
            }
            other => panic!("a second opener must be refused, got {other:?}"),
        }
        drop(store);
        // Drop released the lock: the file (clean — no mutations) reopens normally.
        let (reopened, _) = FileStore::open(&path, 2).unwrap();
        drop(reopened);
        remove(&path);
    }

    #[test]
    fn reopen_rebuilds_the_occupancy_index_and_scans_skip_empty_buckets() {
        let path = temp_path("index-rebuild");
        {
            let mut store = FileStore::create(&path, &GssConfig::paper_default(48), 4).unwrap();
            store.store_room(7, 11, 0, sample_room(5)).unwrap();
            store.store_room(7, 40, 1, sample_room(6)).unwrap();
            store.store_room(33, 11, 0, sample_room(7)).unwrap();
            store.write_tail(3, &[]).unwrap();
        }
        let (reopened, _) = FileStore::open(&path, 4).unwrap();
        let mut row7 = Vec::new();
        reopened.scan_row(7, &mut |column, room| row7.push((column, room.weight)));
        assert_eq!(row7, vec![(11, 5), (40, 6)]);
        let mut column11 = Vec::new();
        reopened.scan_column(11, &mut |row, room| column11.push((row, room.weight)));
        assert_eq!(column11, vec![(7, 5), (33, 7)]);
        // The indexed column scan touches only the two pages holding occupied buckets of
        // this column; the naive baseline probes all 48 and touches ~one page per bucket.
        let before = reopened.page_stats();
        let mut count = 0;
        reopened.scan_column(11, &mut |_, _| count += 1);
        let indexed_lookups = reopened.page_stats().lookups - before.lookups;
        let before = reopened.page_stats();
        crate::storage::naive_scan_column(&reopened, 11, &mut |_, _| count += 1);
        let naive_lookups = reopened.page_stats().lookups - before.lookups;
        assert_eq!(count, 4);
        assert!(
            indexed_lookups * 8 <= naive_lookups,
            "indexed scan touched {indexed_lookups} pages, naive {naive_lookups}"
        );
        remove(&path);
    }

    #[test]
    fn occupancy_flag_corruption_is_caught_on_open() {
        let path = temp_path("occupancy-mismatch");
        {
            let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
            store.store_room(1, 1, 0, sample_room(1)).unwrap();
            store.write_tail(1, &[]).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip the occupancy flag of a room deep in the region: the header still claims
        // one occupied room, so the index rebuild detects the mismatch.
        let room_offset = PAGE_BYTES + (5 * 8 + 5) * 2 * ROOM_RECORD_BYTES + ROOM_OCCUPIED_BYTE;
        assert_eq!(bytes[room_offset], 0);
        bytes[room_offset] = 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileStore::open(&path, 4),
            Err(PersistenceError::Corrupt(message)) if message.contains("occupied")
        ));
        remove(&path);
    }

    #[test]
    fn incremental_checkpoints_skip_unchanged_sections() {
        let path = temp_path("incremental");
        let store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
        let buffer = b"buffer-section".to_vec();
        let node = b"node-section-bytes".to_vec();
        store
            .checkpoint(
                1,
                TailSections {
                    buffer: Some(&buffer),
                    node: Some(&node),
                    buffer_gen: 1,
                    node_gen: 1,
                },
            )
            .unwrap();
        let after_first = store.durability_stats().tail_bytes_written;
        assert_eq!(after_first, (buffer.len() + node.len()) as u64);
        // Same generations: the checkpoint is a no-op (fast path).
        store
            .checkpoint(1, TailSections { buffer: None, node: None, buffer_gen: 1, node_gen: 1 })
            .unwrap();
        assert_eq!(store.durability_stats().tail_bytes_written, after_first);
        assert_eq!(store.durability_stats().checkpoints, 1);
        // Node-only change: only the node section is rewritten.
        let node2 = b"node-section-other".to_vec();
        store
            .checkpoint(
                2,
                TailSections { buffer: None, node: Some(&node2), buffer_gen: 1, node_gen: 2 },
            )
            .unwrap();
        assert_eq!(store.durability_stats().tail_bytes_written, after_first + node2.len() as u64);
        drop(store);
        let (_, header) = FileStore::open(&path, 4).unwrap();
        assert_eq!(header.items_inserted, 2);
        let mut expected = buffer.clone();
        expected.extend_from_slice(&node2);
        assert_eq!(header.tail, expected);
        remove(&path);
    }

    #[test]
    fn injected_wal_fault_fail_stops_writes_reads_keep_serving_and_the_report_is_honest() {
        let path = temp_path("failstop");
        // Target only the log file: its magic write at create is occurrence 1, the
        // first and second drains' arena writes are occurrences 2 and 3.
        let token = format!("gss-file-store-{}-failstop.gss.wal", std::process::id());
        let _guard = crate::pager::faults::install(
            crate::pager::faults::FaultPlan::parse("write:eio@3")
                .expect("parse plan")
                .with_path_token(&token),
        );
        let config = GssConfig::paper_default(8);
        let mut store = FileStore::create(&path, &config, 4).unwrap();
        store.store_room(0, 0, 0, sample_room(7)).unwrap();
        let (_, ack) = store.log_commit_deferred(1).unwrap();
        store.ack_commit(ack).unwrap();
        let healthy = store.durability_report();
        assert!(!healthy.poisoned);
        assert_eq!((healthy.acked_items, healthy.durable_items, healthy.breached_items), (1, 1, 0));
        // The second commit's drain hits the injected EIO: it is never acknowledged.
        store.store_room(0, 1, 0, sample_room(9)).unwrap();
        let (_, ack) = store.log_commit_deferred(2).unwrap();
        let error = store.ack_commit(ack).expect_err("injected drain failure must surface");
        assert!(store.health().is_poisoned());
        // Writes fail-stop with the sticky cause...
        let fault = store.store_room(0, 2, 0, sample_room(1)).unwrap_err();
        assert_eq!(fault.kind(), error.kind());
        assert!(store.log_commit_deferred(3).is_err());
        // ...reads keep serving from cache...
        assert_eq!(store.room(0, 0, 0).weight, 7);
        assert_eq!(store.room(0, 1, 0).weight, 9);
        // ...and the report counts only what was acknowledged, all of it durable.
        let report = store.durability_report();
        assert!(report.poisoned);
        assert_eq!(report.cause.as_ref().map(StoreFault::kind), Some(error.kind()));
        assert_eq!((report.acked_items, report.durable_items, report.breached_items), (1, 1, 0));
        assert_eq!(store.durability_stats().store_poisoned, 1);
        assert!(store.durability_stats().injected_faults >= 1);
        drop(store);
        remove(&path);
    }

    /// Overwrites the header's tail/buffer/node length fields of the sketch file at `path`.
    fn forge_tail_lengths(path: &Path, tail_len: u64, buffer_len: u64, node_len: u64) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[OFF_TAIL_LEN..OFF_TAIL_LEN + 8].copy_from_slice(&tail_len.to_le_bytes());
        bytes[OFF_BUFFER_LEN..OFF_BUFFER_LEN + 8].copy_from_slice(&buffer_len.to_le_bytes());
        bytes[OFF_NODE_LEN..OFF_NODE_LEN + 8].copy_from_slice(&node_len.to_le_bytes());
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn lying_header_lengths_are_typed_errors_not_panics() {
        // `buffer_len + node_len == tail_len` holds without overflow, so only bounding
        // each length by the file length catches the lie before `tail_offset + tail_len`
        // overflows or a `u64::MAX`-byte buffer is requested.
        let path = temp_path("lying-lengths");
        let config = GssConfig::paper_default(8);
        // Clean file: the plain open path.
        {
            let mut store = FileStore::create(&path, &config, 4).unwrap();
            store.store_room(1, 1, 0, sample_room(3)).unwrap();
            store.write_tail(1, b"tail").unwrap();
        }
        forge_tail_lengths(&path, u64::MAX, u64::MAX, 0);
        assert!(matches!(FileStore::open(&path, 4), Err(PersistenceError::UnexpectedEof)));
        // Unclean file with a replayable log: the recovery path reads each section.
        for (buffer_len, node_len) in [(u64::MAX, 0), (8, u64::MAX), (u64::MAX, u64::MAX)] {
            {
                let mut store = FileStore::create(&path, &config, 4).unwrap();
                store.store_room(1, 1, 0, sample_room(3)).unwrap();
                let (_, ack) = store.log_commit_deferred(1).unwrap();
                store.ack_commit(ack).unwrap();
            }
            forge_tail_lengths(&path, buffer_len.wrapping_add(node_len), buffer_len, node_len);
            assert!(
                matches!(FileStore::open(&path, 4), Err(PersistenceError::UnexpectedEof)),
                "buffer_len {buffer_len} node_len {node_len}"
            );
        }
        remove(&path);
    }

    #[test]
    fn flush_hook_observes_the_checkpoint_sequence() {
        let path = temp_path("hook");
        let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        store.set_flush_hook(Some(Box::new(move |point| sink.lock().push(point))));
        store.store_room(0, 0, 0, sample_room(3)).unwrap();
        store.write_tail(1, b"t").unwrap();
        let seen = seen.lock().clone();
        assert_eq!(
            seen,
            vec![
                FlushPoint::WalFlush,
                FlushPoint::PageWriteBack,
                FlushPoint::TailWrite,
                FlushPoint::CheckpointDone,
            ]
        );
        remove(&path);
    }

    #[test]
    fn concurrent_readers_scan_without_latch_contention() {
        let path = temp_path("concurrent-readers");
        let mut store = FileStore::create(&path, &GssConfig::paper_default(48), 64).unwrap();
        for row in 0..48 {
            store.store_room(row, (row * 5) % 48, 0, sample_room(row as i64 + 1)).unwrap();
        }
        // Warm the cache: 48·48·2 rooms = 72 KiB = 18 pages, well under the 64-page
        // budget, so the reader threads below run pure hits under shared read latches.
        store.scan_occupied(&mut |_, _, _| {});
        let store = Arc::new(store);
        let waits_before = store.page_stats().latch_waits;
        let readers: Vec<_> = (0..4usize)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for round in 0..50 {
                        let row = (round * 7 + t) % 48;
                        let mut seen = Vec::new();
                        store.scan_row(row, &mut |column, room| seen.push((column, room.weight)));
                        assert_eq!(seen, vec![((row * 5) % 48, row as i64 + 1)]);
                        let column = (row * 5) % 48;
                        assert_eq!(store.room(row, column, 0).weight, row as i64 + 1);
                        assert_eq!(store.find_match(row, column, 17, 23, 1, 2), Some(0));
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(
            store.page_stats().latch_waits,
            waits_before,
            "cache-hit readers never block on a page latch"
        );
        remove(&path);
    }

    #[test]
    fn dense_rows_fall_back_to_the_linear_scan_with_identical_results() {
        let path = temp_path("dense-escape");
        let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 8).unwrap();
        // Row 2: 6 of 8 buckets occupied — well past the 50% dense threshold.
        for column in 0..6 {
            store.store_room(2, column, 0, sample_room(column as i64 + 100)).unwrap();
        }
        // Row 5 stays sparse (1 of 8): exercises the bitmap path in the same store.
        store.store_room(5, 3, 0, sample_room(7)).unwrap();
        for row in [2usize, 5] {
            let mut indexed = Vec::new();
            store.scan_row(row, &mut |column, room| indexed.push((column, room.weight)));
            let mut naive = Vec::new();
            crate::storage::naive_scan_row(&store, row, &mut |column, room| {
                naive.push((column, room.weight))
            });
            assert_eq!(indexed, naive, "row {row}: dense and sparse paths agree");
        }
        let mut column3 = Vec::new();
        store.scan_column(3, &mut |row, room| column3.push((row, room.weight)));
        assert_eq!(column3, vec![(2, 103), (5, 7)]);
        remove(&path);
    }
}
