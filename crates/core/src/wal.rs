//! Write-ahead room log for the file-backed sketch: the store's one log (`Wal`) and
//! its replay (`WalReplay`).
//!
//! A [`FileStore`](crate::FileStore) sketch file is only consistent at checkpoint
//! boundaries ([`GssSketch::sync`](crate::GssSketch::sync)); between checkpoints its page
//! cache holds room mutations that may reach the file in any order (eviction, background
//! write-back).  The WAL makes the *stream of mutations itself* durable: every room
//! write, buffer spill and node registration is appended to a sidecar log
//! (`<sketch>.wal`) **before** the page holding it may be written back, so an unclean
//! file reopens by replaying the log instead of being rejected.
//!
//! ## Log format
//!
//! ```text
//! [0 .. 8)    magic "GSSWAL0\x01"
//! [8 .. )     frames, each:   tag u8 | payload | crc32(tag | payload) u32
//!
//! tag 1  ROOM    flat room index u64 | room record (16 bytes, storage::encode_room)
//! tag 2  BUFFER  source hash u64 | destination hash u64 | weight delta i64
//! tag 3  NODE    node hash u64 | original vertex id u64
//! tag 4  COMMIT  items_inserted u64            — marks a completed insert / batch
//! tag 5  TAIL    items u64 | flags u8 |        — full image of the tail a checkpoint is
//!                [len u64 | bytes] per flag      about to write: buffer (bit 0) and
//!                                                node (bit 1) section
//! ```
//!
//! A checkpoint always logs both sections (flags `0b11`).  Older writers logged only the
//! sections they rewrote, so replay still accepts a one-section `TAIL` frame: the absent
//! section is the file's own, plus the deltas logged after the frame.
//!
//! All integers are little-endian.  Replay (`read_replay`) consumes the longest valid
//! prefix: the first truncated frame, CRC mismatch or unknown tag ends the replay —
//! everything before it is applied, everything after is discarded, and nothing panics.
//!
//! ## Replay semantics
//!
//! * `ROOM` frames carry the room's **full post-write value**, so replay is idempotent
//!   regardless of which dirty pages reached the file before the crash.  The last frame
//!   logged for a room index wins: recovery sorts the frames stably by index and lays
//!   them over the room region page by page, in the one pass that rebuilds the occupancy
//!   index ([`crate::file_store::open`]), writing each touched page back once.
//! * `BUFFER`/`NODE` frames are deltas **since the last completed checkpoint** (the log
//!   is truncated when a checkpoint commits), applied on top of the checkpointed tail.
//! * A `TAIL` frame (appended at the start of a checkpoint, before the sketch file's
//!   tail region is touched) supersedes all earlier buffer/node deltas: a crash in the
//!   middle of a checkpoint recovers the exact tail image the checkpoint was writing.
//! * `items_inserted` is taken from the last `COMMIT`/`TAIL` frame; mutations of an
//!   insert that never reached its `COMMIT` are still replayed (they only ever *add*
//!   sketch state, preserving GSS's one-sided error).
//!
//! ## Locking and group commit
//!
//! A store has one log, `Wal`: one file handle, one counter set, and one path from its
//! pending arena to the file.  Its **append mutex** is separate from every page-cache
//! lock, so log appends never serialize page reads.  Frames are encoded and checksummed on
//! the caller's stack (`room_frame`, `buffer_frame`, `node_frame`, `commit_frame`,
//! `tail_frame`) *before* the mutex is taken — an append under it is one `memcpy`.
//!
//! Every frame reaches the file through a **drain round**.  The round's leader holds the
//! log's drain token; it swaps the pending arena for a spare under the append mutex,
//! which reserves the arena's file range, and writes it outside every lock, so appends
//! proceed while a round is in flight.  A commit leads a round, or parks on the token and
//! rides the leader's.  The write-ahead barrier ahead of every page write-back drains
//! the same way, and so does a checkpoint's `TAIL` frame before its sync.  With one token
//! per log, at most one arena write is ever in flight, and a barrier holding the token
//! has waited out every earlier round: a sync after it can never leave a hole in front of
//! the frames it drained.  The sync has one body too, shared by the checkpoint and the
//! group-commit cadence ([`crate::group_commit`]).
//!
//! The lock-order rules (enforced by `gss-lint` L001 and the runtime witness): the
//! append mutex is never held while a page-table stripe mutex is taken, and the drain
//! token's mutex sits strictly *between* the stripe layer and the append mutex —
//! `stripe ≺ group ≺ wal` — because the eviction write-back barrier takes the token
//! (and, on its already-drained fast path, the append mutex directly) under a stripe
//! guard, while a leader releases the token's mutex before touching the append mutex.
//! Rule **L003** (panic-in-recovery) keeps this module's replay path
//! (`read_replay`/`parse_frame`) free of panic sites — damaged log bytes end the valid
//! prefix, they never abort recovery.

use crate::error::{StoreFault, StoreHealth};
use crate::file_store::{FlushHook, FlushPoint};
use crate::group_commit::{unpoison, Cadence, GroupCommitter};
use crate::metrics::{self, StoreCounters};
use crate::pager::page_file::PageFile;
use crate::pager::witness::{self, LockClass};
use crate::storage::ROOM_RECORD_BYTES;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Magic bytes identifying a GSS write-ahead log (version 1).
pub const WAL_MAGIC: [u8; 8] = *b"GSSWAL0\x01";

const TAG_ROOM: u8 = 1;
const TAG_BUFFER: u8 = 2;
const TAG_NODE: u8 = 3;
const TAG_COMMIT: u8 = 4;
const TAG_TAIL: u8 = 5;

/// The sidecar log path for a sketch file: `<file name>.wal` in the same directory.
pub fn wal_path(sketch_path: &Path) -> PathBuf {
    let mut name = sketch_path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".wal");
    sketch_path.with_file_name(name)
}

/// Slicing-by-8 lookup tables for [`Crc32`]: `CRC_TABLES[0]` is the classic bytewise
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC-32 (IEEE 802.3, the zlib polynomial): feeding a message in any
/// number of pieces yields the checksum [`crc32`] gives for the whole, so a caller
/// sealing `header ++ payload` never has to copy the two into one buffer first.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of the empty message so far.
    pub const fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs the next piece of the message, eight bytes per table round.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let high = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            crc = CRC_TABLES[7][(low & 0xFF) as usize]
                ^ CRC_TABLES[6][((low >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((low >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(low >> 24) as usize]
                ^ CRC_TABLES[3][(high & 0xFF) as usize]
                ^ CRC_TABLES[2][((high >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((high >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(high >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything absorbed.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `bytes`; the frame checksum of the
/// write-ahead log, the sketch-file sections and the wire protocol.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Seals `tag | payload` into one encoded frame with its CRC, entirely on the caller's
/// stack — the encoding work the append mutex no longer pays for.  `N` must equal
/// `1 + payload.len() + 4`.
fn seal<const N: usize>(tag: u8, payload: &[u8]) -> [u8; N] {
    debug_assert_eq!(N, 1 + payload.len() + 4, "frame size must match its payload");
    let mut frame = [0u8; N];
    frame[0] = tag;
    frame[1..N - 4].copy_from_slice(payload);
    let crc = crc32(&frame[..N - 4]);
    frame[N - 4..].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Encoded size of a `ROOM` frame.
pub(crate) const ROOM_FRAME_BYTES: usize = 1 + 8 + ROOM_RECORD_BYTES + 4;
/// Encoded size of a `BUFFER` frame.
pub(crate) const BUFFER_FRAME_BYTES: usize = 1 + 24 + 4;
/// Encoded size of a `NODE` frame.
pub(crate) const NODE_FRAME_BYTES: usize = 1 + 16 + 4;
/// Encoded size of a `COMMIT` frame.
pub(crate) const COMMIT_FRAME_BYTES: usize = 1 + 8 + 4;

/// Encodes a `ROOM` frame (full post-write record) outside any lock.
pub(crate) fn room_frame(
    flat_index: u64,
    record: &[u8; ROOM_RECORD_BYTES],
) -> [u8; ROOM_FRAME_BYTES] {
    let mut payload = [0u8; 8 + ROOM_RECORD_BYTES];
    payload[0..8].copy_from_slice(&flat_index.to_le_bytes());
    payload[8..].copy_from_slice(record);
    seal(TAG_ROOM, &payload)
}

/// Encodes a `BUFFER` frame (left-over buffer weight delta) outside any lock.
pub(crate) fn buffer_frame(source: u64, destination: u64, weight: i64) -> [u8; BUFFER_FRAME_BYTES] {
    let mut payload = [0u8; 24];
    payload[0..8].copy_from_slice(&source.to_le_bytes());
    payload[8..16].copy_from_slice(&destination.to_le_bytes());
    payload[16..24].copy_from_slice(&weight.to_le_bytes());
    seal(TAG_BUFFER, &payload)
}

/// Encodes a `NODE` frame (`⟨H(v), v⟩` registration) outside any lock.
pub(crate) fn node_frame(hash: u64, vertex: u64) -> [u8; NODE_FRAME_BYTES] {
    let mut payload = [0u8; 16];
    payload[0..8].copy_from_slice(&hash.to_le_bytes());
    payload[8..16].copy_from_slice(&vertex.to_le_bytes());
    seal(TAG_NODE, &payload)
}

/// Encodes a `COMMIT` frame outside any lock.
pub(crate) fn commit_frame(items: u64) -> [u8; COMMIT_FRAME_BYTES] {
    seal(TAG_COMMIT, &items.to_le_bytes())
}

/// Encodes a `TAIL` frame outside any lock: the whole tail image a checkpoint is about to
/// write, both sections flagged present.
pub(crate) fn tail_frame(items: u64, buffer: &[u8], node: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(1 + 9 + 8 + buffer.len() + 8 + node.len() + 4);
    frame.push(TAG_TAIL);
    frame.extend_from_slice(&items.to_le_bytes());
    frame.push(0b11);
    for section in [buffer, node] {
        frame.extend_from_slice(&(section.len() as u64).to_le_bytes());
        frame.extend_from_slice(section);
    }
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// The deferred half of a two-phase commit: `FileStore::log_commit_deferred` appends the
/// commit frame and returns this token, and [`Wal::ack`] consumes it.  A multi-shard batch
/// appends every shard's frame before acknowledging any of them, so concurrent drain
/// rounds cover each other's bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalAck {
    /// Cumulative appended bytes that must be written before the commit is acknowledged.
    pub(crate) target: u64,
    /// Cumulative stream items the commit frame covers, credited to the durability
    /// accounting when the commit is acknowledged.
    pub(crate) items: u64,
}

/// What a log's append mutex guards.
pub(crate) struct AppendState {
    /// Encoded frames not yet drained to the file.
    pending: Vec<u8>,
    /// The idle half of the double buffer, swapped in when a round takes `pending`.
    spare: Vec<u8>,
    /// Bytes written (or reserved by an in-flight round) in the log file, magic included.
    len: u64,
    /// Cumulative bytes of frames ever appended, never reset — not even by truncation:
    /// commit targets are compared against cumulative written bytes, not file offsets.
    appended: u64,
    /// Mirrors the sketch header's clean flag, so the header is rewritten only when the
    /// flag actually transitions.
    pub(crate) clean: bool,
}

impl AppendState {
    /// Appends one pre-encoded frame (see `room_frame` and friends): the only work under
    /// the append mutex is this `memcpy`.  Returns the total log bytes and the cumulative
    /// appended bytes (a commit's acknowledgement target).
    pub(crate) fn append(&mut self, frame: &[u8]) -> (u64, u64) {
        self.pending.extend_from_slice(frame);
        self.appended += frame.len() as u64;
        (self.bytes(), self.appended)
    }

    /// Whether the log holds no frames, neither in the file nor pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == WAL_MAGIC.len() as u64 && self.pending.is_empty()
    }

    /// Total log bytes: the file's (written or reserved) plus the pending arena.
    pub(crate) fn bytes(&self) -> u64 {
        self.len + self.pending.len() as u64
    }
}

/// A store's write-ahead log: the append mutex, the one file handle, and the one path
/// from the pending arena to the file — drain rounds, the sync and the durability
/// accounting (see the module docs).
pub(crate) struct Wal {
    /// The append mutex (lock class `WalAppend`): held for appends, arena swaps and
    /// truncation, never across a drain write or a sync.
    pub(crate) wal: Mutex<AppendState>,
    file: PageFile,
    /// The owning store's counters: drains (`wal_flushes`), rounds led by commits
    /// (`wal_group_commits`), commits parked behind another leader (`wal_group_waits`)
    /// and log syncs (`fsyncs`).
    counters: Arc<StoreCounters>,
    /// Observer of durability points (crash-test kill points).  Leaf lock (class `Hook`),
    /// held only to clone the hook out.
    pub(crate) hook: Mutex<Option<FlushHook>>,
    /// Cumulative appended bytes whose log-file write has completed: a commit is
    /// acknowledged once `written` reaches its target.
    written: AtomicU64,
    /// Cumulative appended bytes covered by the last sync — a conservative lower bound on
    /// durable bytes, stored only after the sync returns.
    synced: AtomicU64,
    /// The drain token (lock class `GroupCommit`): true while a round is in flight.  Held
    /// only to flip the flag, never across I/O.
    group_token: StdMutex<bool>,
    /// Signalled when a round ends; parked committers and barriers re-check.
    done: Condvar,
    /// The owning store's sticky fail-stop state: a failed drain poisons it *before*
    /// `written` advances, so a committer woken by that advance always observes the
    /// poison (no "fsyncgate"-style false acknowledgement).
    health: Arc<StoreHealth>,
    /// Stream items acknowledged to callers (cumulative).
    acked_items: AtomicU64,
    /// Stream items whose commit frames completed their log-file write (cumulative): the
    /// honest lower bound [`DurabilityReport`](crate::DurabilityReport) exposes.
    durable_items: AtomicU64,
    /// Commits awaiting durability credit: target → cumulative item count.  Leaf mutex,
    /// never held across I/O or any other lock.
    pending_acks: StdMutex<BTreeMap<u64, u64>>,
    /// The coordinator's cadence, which every led commit round reports to.  Not the
    /// coordinator itself: the cadence thread holds the logs it sweeps, so a log must
    /// never own that thread (see [`crate::group_commit`]).
    cadence: Arc<Cadence>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens the log at `path` and registers it with `group`'s cadence, which starts the
    /// coordinator's cadence thread if this is its first log (a failed spawn is this
    /// call's error).  `keep` is `None`
    /// for an empty log, or the prefix recovery keeps ([`WalReplay::valid_bytes`]): any
    /// torn suffix is cut off, so the recovery checkpoint's `TAIL` frame lands right behind
    /// the frames it supersedes — a second replay would stop at the tear otherwise.  The
    /// log's I/O and drains count into `counters`.
    pub(crate) fn open(
        path: &Path,
        keep: Option<u64>,
        clean: bool,
        counters: Arc<StoreCounters>,
        health: Arc<StoreHealth>,
        group: &GroupCommitter,
    ) -> io::Result<Arc<Self>> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut len = file.metadata()?.len().min(keep.unwrap_or(0));
        file.set_len(len)?;
        let file = PageFile::wrap(file, path, Arc::clone(&counters));
        if len < WAL_MAGIC.len() as u64 {
            file.write_all_at(&WAL_MAGIC, 0)?;
            len = WAL_MAGIC.len() as u64;
        }
        let state = AppendState { pending: Vec::new(), spare: Vec::new(), len, appended: 0, clean };
        let wal = Arc::new(Self {
            wal: Mutex::new(state),
            file,
            counters,
            hook: Mutex::new(None),
            written: AtomicU64::new(0),
            synced: AtomicU64::new(0),
            group_token: StdMutex::new(false),
            done: Condvar::new(),
            health,
            acked_items: AtomicU64::new(0),
            durable_items: AtomicU64::new(0),
            pending_acks: StdMutex::new(BTreeMap::new()),
            cadence: Arc::clone(&group.cadence),
        });
        group.register(&wal)?;
        Ok(wal)
    }

    /// Invokes the installed flush hook, if any.  The hook mutex is a leaf held only to
    /// clone the hook out, so firing under any store lock is safe.
    pub(crate) fn fire(&self, point: FlushPoint) {
        let hook = {
            let _hook_held = witness::acquire(LockClass::Hook);
            self.hook.lock().clone()
        };
        if let Some(hook) = hook {
            hook(point);
        }
    }

    /// Registers a deferred commit for durability accounting: once `target` appended
    /// bytes complete their log-file write, `items` total stream items are covered by
    /// the log image.  Credited immediately when the log is already written past the
    /// target (the entry would otherwise never be visited again).
    pub(crate) fn record_commit(&self, target: u64, items: u64) {
        unpoison(self.pending_acks.lock()).insert(target, items);
        self.credit_durable(self.written.load(Ordering::Acquire));
    }

    /// Marks `items` total stream items as acknowledged to the caller.
    pub(crate) fn record_ack(&self, items: u64) {
        // relaxed: a monotone accounting counter, read only by report snapshots.
        self.acked_items.fetch_max(items, Ordering::Relaxed);
    }

    /// Credits every pending commit whose target is covered by `written_upto`
    /// successfully written bytes.  A poisoned log credits nothing: `written` also
    /// advances for failed drains (to release parked committers), so its value no
    /// longer proves the bytes reached the file.
    fn credit_durable(&self, written_upto: u64) {
        if self.health.is_poisoned() {
            return;
        }
        let mut pending = unpoison(self.pending_acks.lock());
        if pending.range(..=written_upto).next().is_none() {
            return;
        }
        let still_pending = pending.split_off(&(written_upto.saturating_add(1)));
        let covered = pending.values().copied().max();
        *pending = still_pending;
        drop(pending);
        if let Some(items) = covered {
            // relaxed: a monotone accounting counter, read only by report snapshots.
            self.durable_items.fetch_max(items, Ordering::Relaxed);
        }
    }

    /// Snapshot of `(acked_items, durable_items)` for the durability report.
    pub(crate) fn item_counts(&self) -> (u64, u64) {
        // relaxed: accounting counters, read only by report snapshots.
        let acked = self.acked_items.load(Ordering::Relaxed);
        let durable = self.durable_items.load(Ordering::Relaxed);
        (acked, durable.min(acked))
    }

    /// Acknowledges a deferred commit once its frames are in the log file — the one
    /// acknowledger, behind the sketch's commit and `ShardedGss`'s lock-free ack pass
    /// alike.  A failed drain or sync poisons the store and returns its sticky
    /// [`StoreFault`]; on success the items are credited as acknowledged.
    pub(crate) fn ack(&self, ack: WalAck) -> Result<(), StoreFault> {
        self.health.check()?;
        self.commit(ack.target).map_err(|error| {
            self.health.poison(StoreFault::from_io("write-ahead-log group commit", &error))
        })?;
        self.record_ack(ack.items);
        Ok(())
    }

    /// Returns once the log-file write covers `target` appended bytes, leading a drain
    /// round when none in flight will cover them and reporting it to the cadence.
    pub(crate) fn commit(&self, target: u64) -> io::Result<()> {
        let mut counted_wait = false;
        loop {
            // Acquire pairs with the AcqRel bump after a completed round, so an
            // acknowledged committer also observes the round's writer-side state.
            if self.written.load(Ordering::Acquire) >= target {
                // `written` also advances for *failed* drains (to release parked
                // committers), so reaching the target proves nothing by itself: a log
                // poisoned at or before this point must error every commit whose bytes
                // the failed round may have covered, not just the leader's.  The poison
                // store is ordered before the `written` advance, so this check cannot
                // miss the failure that woke us.
                return self.health.check().map_err(|fault| fault.to_io());
            }
            self.health.check().map_err(|fault| fault.to_io())?;
            if !self.try_claim(&mut counted_wait) {
                continue;
            }
            if self.written.load(Ordering::Acquire) >= target {
                // A barrier drained our frames while we queued for the token; the round
                // is ours anyway, so just hand the token back.
                self.release_token();
                return self.health.check().map_err(|fault| fault.to_io());
            }
            metrics::add(&self.counters.wal_group_commits, 1);
            let result = self.drain().and_then(|drained| self.cadence.after_round(drained));
            self.release_token();
            result?;
        }
    }

    /// The write-ahead barrier: returns once every frame appended so far is in the log
    /// file, without forcing a sync.  It claims the drain token like any round, so it
    /// first waits out a round already in flight — after it, the log image has no hole.
    /// Every page write-back passes it first (`write(2)` ordering suffices: replay only
    /// needs the frames in the log image before the page image changes), and so does a
    /// checkpoint's `TAIL` frame before its sync.
    pub(crate) fn barrier(&self) -> io::Result<()> {
        // Fast path: every appended byte's write has completed (`written` is bumped only
        // after the positioned write returns) — the common case on the eviction path:
        // one uncontended lock, no token traffic, no condvar broadcast.
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            let wal = self.wal.lock();
            if self.written.load(Ordering::Acquire) >= wal.appended {
                return Ok(());
            }
        }
        // Suppressed wait counting: `wal_group_waits` meters parked *commits* only.
        let mut counted_wait = true;
        while !self.try_claim(&mut counted_wait) {}
        let result = self.drain();
        self.release_token();
        result.map(drop)
    }

    /// Attempts to claim the drain token.  Returns `false` (after parking until the
    /// in-flight round ends) when another leader held it.  Pass `counted_wait = true` to
    /// suppress the `wal_group_waits` bump (non-commit callers).
    fn try_claim(&self, counted_wait: &mut bool) -> bool {
        let _group_held = witness::acquire(LockClass::GroupCommit);
        let mut draining = unpoison(self.group_token.lock());
        if *draining {
            if !*counted_wait {
                *counted_wait = true;
                metrics::add(&self.counters.wal_group_waits, 1);
            }
            drop(unpoison(self.done.wait(draining)));
            return false;
        }
        *draining = true;
        true
    }

    /// Releases the drain token and wakes every parked committer and barrier.
    fn release_token(&self) {
        {
            let _group_held = witness::acquire(LockClass::GroupCommit);
            *unpoison(self.group_token.lock()) = false;
        }
        self.done.notify_all();
    }

    /// Swaps the pending arena for the spare under the append mutex and reserves its file
    /// range: returns the write offset and the taken arena, or `None` when nothing is
    /// pending.  Counts one drain.
    fn take_pending(&self) -> Option<(u64, Vec<u8>)> {
        let _wal_held = witness::acquire(LockClass::WalAppend);
        let mut wal = self.wal.lock();
        if wal.pending.is_empty() {
            return None;
        }
        let spare = std::mem::take(&mut wal.spare);
        let arena = std::mem::replace(&mut wal.pending, spare);
        let offset = wal.len;
        wal.len += arena.len() as u64;
        metrics::add(&self.counters.wal_flushes, 1);
        Some((offset, arena))
    }

    /// The one drain round, and the only writer of frames to the log file: take the
    /// pending arena, write it outside every lock, hand the emptied arena back as the
    /// next spare.  Returns the bytes written.  Must hold the drain token.
    fn drain(&self) -> io::Result<u64> {
        let Some((offset, mut arena)) = self.take_pending() else {
            return Ok(0);
        };
        self.fire(FlushPoint::WalArenaSwap);
        let result = self.file.write_all_at(&arena, offset);
        let bytes = arena.len() as u64;
        arena.clear();
        {
            let _wal_held = witness::acquire(LockClass::WalAppend);
            self.wal.lock().spare = arena;
        }
        // The arena's bytes are consumed even when the write fails: advance `written`
        // either way so parked committers are released instead of spinning on an
        // unreachable target.  On failure the log is poisoned *before* `written`
        // advances (Release before the AcqRel bump), so every parked committer whose
        // target the failed round covered wakes, observes the poison, and errors out —
        // a failed round never turns into a silent acknowledgement.
        if let Err(error) = &result {
            self.health.poison(StoreFault::from_io("write-ahead-log drain", error));
        }
        let end = self.written.fetch_add(bytes, Ordering::AcqRel) + bytes;
        result?;
        self.credit_durable(end);
        self.fire(FlushPoint::WalFlush);
        Ok(bytes)
    }

    /// Asks the OS to persist every written byte of the log — the one sync body, called
    /// by the cadence sweep and by the checkpoint.  A no-op when nothing written is
    /// unsynced.  A poisoned log is skipped outright: retrying a failed `fdatasync` and
    /// trusting the retried success is the fsyncgate trap (the kernel may have dropped
    /// the dirty pages the first failure covered).  A failure poisons the log and leaves
    /// `synced` where it was.
    pub(crate) fn sync(&self) -> io::Result<()> {
        let written = self.written.load(Ordering::Acquire);
        if self.health.is_poisoned() || written <= self.synced.load(Ordering::Acquire) {
            return Ok(());
        }
        if let Err(error) = self.file.sync_data() {
            self.health.poison(StoreFault::from_io("group-commit fdatasync", &error));
            return Err(error);
        }
        // fetch_max, not store: a concurrent sync may have advanced `synced` past our
        // pre-sync snapshot.
        self.synced.fetch_max(written, Ordering::AcqRel);
        metrics::add(&self.counters.fsyncs, 1);
        Ok(())
    }

    /// Discards every frame: the checkpoint covering them has committed.  Takes the
    /// append mutex's guard; only file offsets rewind — the cumulative `appended` count is
    /// deliberately kept (commit targets survive truncation).
    pub(crate) fn truncate(&self, wal: &mut AppendState) -> io::Result<()> {
        debug_assert!(wal.pending.is_empty(), "frames appended during a checkpoint");
        wal.pending.clear();
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        wal.len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

/// Everything recovered from a log: see the module docs for the replay semantics.
#[derive(Debug, Default, Clone)]
pub(crate) struct WalReplay {
    /// Room writes in log order (`flat index`, full record).  The last frame per index
    /// wins; open applies them page by page, in index order.
    pub rooms: Vec<(u64, [u8; ROOM_RECORD_BYTES])>,
    /// Buffer deltas since the checkpoint the replay is based on.
    pub buffer_ops: Vec<(u64, u64, i64)>,
    /// Node registrations since that checkpoint.
    pub node_ops: Vec<(u64, u64)>,
    /// `items_inserted` of the last `COMMIT`/`TAIL` frame, if any.
    pub items: Option<u64>,
    /// Buffer-section image from the last `TAIL` frame, if it carried one.
    pub tail_buffer: Option<Vec<u8>>,
    /// Node-section image from the last `TAIL` frame, if it carried one.
    pub tail_node: Option<Vec<u8>>,
    /// Log bytes consumed by valid frames (diagnostics; bytes beyond were discarded).
    pub valid_bytes: u64,
}

/// A bounds-checked little-endian cursor over the raw log bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(slice)
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes: [u8; 8] = self.take(8)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

/// Reads the log at `path` and parses its longest valid frame prefix; a `ROOM` frame
/// whose flat index is not below `room_count` ends the prefix like a failed CRC (it
/// cannot belong to this sketch's geometry, so nothing after it is trusted either).
/// Returns `None` when the log is missing or does not start with the magic — the caller
/// decides whether that makes an unclean sketch file unrecoverable.  Never panics on
/// damaged input.
pub(crate) fn read_replay(path: &Path, room_count: u64) -> io::Result<Option<WalReplay>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(error) => return Err(error),
    };
    if !bytes.starts_with(&WAL_MAGIC) {
        return Ok(None);
    }
    let mut replay = WalReplay::default();
    let mut cursor = Cursor { bytes: &bytes, at: WAL_MAGIC.len() };
    loop {
        let frame_start = cursor.at;
        let Some(valid) = parse_frame(&mut cursor, &mut replay, room_count) else {
            replay.valid_bytes = frame_start as u64;
            return Ok(Some(replay));
        };
        if !valid {
            replay.valid_bytes = frame_start as u64;
            return Ok(Some(replay));
        }
        if cursor.at == bytes.len() {
            replay.valid_bytes = cursor.at as u64;
            return Ok(Some(replay));
        }
    }
}

/// Parses one frame into `replay`.  `None` = truncated, `Some(false)` = CRC mismatch or
/// unknown tag (both end the valid prefix), `Some(true)` = frame applied.
fn parse_frame(cursor: &mut Cursor<'_>, replay: &mut WalReplay, room_count: u64) -> Option<bool> {
    let frame_start = cursor.at;
    let tag = *cursor.take(1)?.first()?;
    let payload_len = match tag {
        TAG_ROOM => 8 + ROOM_RECORD_BYTES,
        TAG_BUFFER => 24,
        TAG_NODE => 16,
        TAG_COMMIT => 8,
        TAG_TAIL => {
            // Variable length: peek items + flags, then the flagged sections.
            let mut probe = Cursor { bytes: cursor.bytes, at: cursor.at };
            probe.u64()?;
            let flags = *probe.take(1)?.first()?;
            if flags & !0b11 != 0 {
                return Some(false);
            }
            let mut len = 9usize;
            for bit in [0b01, 0b10] {
                if flags & bit != 0 {
                    let section = probe.u64()?;
                    // Checked: a damaged length near u64::MAX must end the prefix like a
                    // truncated frame, not overflow.
                    len = usize::try_from(section)
                        .ok()
                        .and_then(|s| len.checked_add(8)?.checked_add(s))?;
                    probe.take(section as usize)?;
                }
            }
            len
        }
        _ => return Some(false),
    };
    let payload = cursor.take(payload_len)?;
    let crc_bytes: [u8; 4] = cursor.take(4)?.try_into().ok()?;
    let stored_crc = u32::from_le_bytes(crc_bytes);
    let framed = cursor.bytes.get(frame_start..frame_start.checked_add(1 + payload_len)?)?;
    if crc32(framed) != stored_crc {
        return Some(false);
    }
    // The payload parses below cannot fail on a frame that passed its CRC — the lengths
    // all derive from `payload_len` — but a `?` costs nothing and keeps this path free
    // of panic sites by construction (gss-lint rule L003: damaged input must end the
    // valid prefix, never abort recovery).
    let mut p = Cursor { bytes: payload, at: 0 };
    match tag {
        TAG_ROOM => {
            let index = p.u64()?;
            if index >= room_count {
                return Some(false);
            }
            let record: [u8; ROOM_RECORD_BYTES] = p.take(ROOM_RECORD_BYTES)?.try_into().ok()?;
            replay.rooms.push((index, record));
        }
        TAG_BUFFER => {
            let source = p.u64()?;
            let destination = p.u64()?;
            let weight_bytes: [u8; 8] = p.take(8)?.try_into().ok()?;
            replay.buffer_ops.push((source, destination, i64::from_le_bytes(weight_bytes)));
        }
        TAG_NODE => {
            let hash = p.u64()?;
            let vertex = p.u64()?;
            replay.node_ops.push((hash, vertex));
        }
        TAG_COMMIT => {
            replay.items = Some(p.u64()?);
        }
        TAG_TAIL => {
            // Parse both sections into locals *before* touching `replay`: bailing out
            // halfway after clearing the deltas would corrupt the replayed state.
            let items = p.u64()?;
            let flags = *p.take(1)?.first()?;
            let tail_buffer = if flags & 0b01 != 0 {
                let len = p.u64()? as usize;
                Some(p.take(len)?.to_vec())
            } else {
                None
            };
            let tail_node = if flags & 0b10 != 0 {
                let len = p.u64()? as usize;
                Some(p.take(len)?.to_vec())
            } else {
                None
            };
            // The image supersedes every delta logged before it.
            replay.buffer_ops.clear();
            replay.node_ops.clear();
            replay.items = Some(items);
            if let Some(bytes) = tail_buffer {
                replay.tail_buffer = Some(bytes);
            }
            if let Some(bytes) = tail_node {
                replay.tail_node = Some(bytes);
            }
        }
        // Unknown tags were rejected while sizing the payload above.
        _ => return Some(false),
    }
    Some(true)
}

#[cfg(test)]
impl Wal {
    /// `(written, synced, pending)` bytes, for the coordinator's tests.
    pub(crate) fn marks(&self) -> (u64, u64, usize) {
        let pending = self.wal.lock().pending.len();
        (self.written.load(Ordering::Acquire), self.synced.load(Ordering::Acquire), pending)
    }
}

/// A buffer-only `TAIL` frame as older writers logged it, built byte by byte
/// (tag | items | flags = 0b01 | len | bytes | CRC): [`tail_frame`] always writes both
/// sections, but replay must still accept this shape.
#[cfg(test)]
pub(crate) fn buffer_only_tail_frame(items: u64, buffer: &[u8]) -> Vec<u8> {
    let mut frame = vec![TAG_TAIL];
    frame.extend_from_slice(&items.to_le_bytes());
    frame.push(0b01);
    frame.extend_from_slice(&(buffer.len() as u64).to_le_bytes());
    frame.extend_from_slice(buffer);
    let crc = crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupCommit;

    fn temp_wal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gss-wal-{}-{name}.wal", std::process::id()))
    }

    /// The log at `path` (see [`Wal::open`] for `keep`), registered with a zero-knob
    /// coordinator and counting into `counters`.
    fn open_log(path: &Path, keep: Option<u64>, counters: &Arc<StoreCounters>) -> Arc<Wal> {
        let group = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        let health = Arc::new(StoreHealth::new());
        Wal::open(path, keep, true, Arc::clone(counters), health, &group).unwrap()
    }

    /// Appends `frame` and returns the cumulative appended bytes.
    fn append(wal: &Wal, frame: &[u8]) -> u64 {
        wal.wal.lock().append(frame).1
    }

    fn sample_record(seed: u8) -> [u8; ROOM_RECORD_BYTES] {
        let mut record = [0u8; ROOM_RECORD_BYTES];
        for (i, byte) in record.iter_mut().enumerate() {
            *byte = seed.wrapping_add(i as u8);
        }
        record[6] = 1; // occupied flag
        record
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Fed in pieces that straddle the eight-byte rounds, the answer is the same.
        let mut pieces = Crc32::new();
        for piece in [&b"The quick b"[..], b"", b"rown fox jumps over the la", b"zy dog"] {
            pieces.update(piece);
        }
        assert_eq!(pieces.finish(), 0x414F_A339);
    }

    #[test]
    fn frames_round_trip_through_the_file() {
        let path = temp_wal("roundtrip");
        let counters = Arc::default();
        let wal = open_log(&path, None, &counters);
        assert!(wal.wal.lock().is_empty());
        append(&wal, &room_frame(42, &sample_record(7)));
        append(&wal, &buffer_frame(100, 200, -3));
        append(&wal, &node_frame(100, 9));
        append(&wal, &commit_frame(55));
        assert!(!wal.wal.lock().pending.is_empty());
        wal.barrier().unwrap();
        assert!(wal.wal.lock().pending.is_empty());
        assert_eq!(metrics::get(&counters.wal_flushes), 1);

        let replay = read_replay(&path, 1 << 20).unwrap().expect("valid log");
        assert_eq!(replay.rooms, vec![(42, sample_record(7))]);
        assert_eq!(replay.buffer_ops, vec![(100, 200, -3)]);
        assert_eq!(replay.node_ops, vec![(100, 9)]);
        assert_eq!(replay.items, Some(55));
        assert_eq!(replay.valid_bytes, wal.wal.lock().bytes());
        assert!(replay.tail_buffer.is_none() && replay.tail_node.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_frame_supersedes_earlier_deltas() {
        let path = temp_wal("tail");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &buffer_frame(1, 2, 3));
        append(&wal, &node_frame(1, 1));
        append(&wal, &room_frame(0, &sample_record(1)));
        append(&wal, &buffer_only_tail_frame(9, b"BUF"));
        wal.barrier().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert!(replay.buffer_ops.is_empty() && replay.node_ops.is_empty());
        assert_eq!(replay.rooms.len(), 1, "room frames survive a tail image");
        assert_eq!(replay.items, Some(9));
        assert_eq!(replay.tail_buffer.as_deref(), Some(&b"BUF"[..]));
        assert!(replay.tail_node.is_none());
        // The bytes the checkpoint has always logged: tag | items | flags | sections | CRC.
        let pinned = "0509000000000000000301000000000000004201000000000000004e4a2c487b";
        let encoded: String =
            tail_frame(9, b"B", b"N").iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(encoded, pinned);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_corruption_yield_the_valid_prefix() {
        let path = temp_wal("prefix");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &commit_frame(1));
        append(&wal, &commit_frame(2));
        append(&wal, &commit_frame(3));
        wal.barrier().unwrap();
        let full = std::fs::read(&path).unwrap();
        let frame_bytes = (full.len() - WAL_MAGIC.len()) / 3;

        // Truncate inside the third frame: two frames replay.
        std::fs::write(&path, &full[..full.len() - frame_bytes / 2]).unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(2));

        // Flip a byte in the second frame: only the first replays.
        let mut flipped = full.clone();
        flipped[WAL_MAGIC.len() + frame_bytes + 3] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(1));
        assert_eq!(replay.valid_bytes, (WAL_MAGIC.len() + frame_bytes) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_or_foreign_files_read_as_no_log() {
        let path = temp_wal("missing-never-created");
        assert!(read_replay(&path, 1 << 20).unwrap().is_none());
        std::fs::write(&path, b"not a wal at all").unwrap();
        assert!(read_replay(&path, 1 << 20).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_discards_frames_and_append_reopens() {
        let path = temp_wal("truncate");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &commit_frame(7));
        wal.barrier().unwrap();
        {
            let mut state = wal.wal.lock();
            wal.truncate(&mut state).unwrap();
            assert!(state.is_empty());
        }
        assert!(read_replay(&path, 1 << 20).unwrap().unwrap().items.is_none());
        append(&wal, &commit_frame(8));
        wal.barrier().unwrap();
        drop(wal);
        let appended = open_log(&path, Some(u64::MAX), &Arc::default());
        append(&appended, &commit_frame(9));
        appended.barrier().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(9));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_a_torn_suffix_so_appended_frames_stay_reachable() {
        let path = temp_wal("torn-suffix");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &commit_frame(1));
        wal.barrier().unwrap();
        drop(wal);
        // A torn frame at the end (partial write at crash time).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[TAG_COMMIT, 0x44, 0x55]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(1));
        // Recovery appends its TAIL frame behind the *valid* prefix; a replay of the
        // resulting log must reach it (it would stop at the tear otherwise).
        let appended = open_log(&path, Some(replay.valid_bytes), &Arc::default());
        append(&appended, &tail_frame(9, b"B", b"N"));
        appended.barrier().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(9));
        assert_eq!(replay.tail_buffer.as_deref(), Some(&b"B"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_frames_with_absurd_section_lengths_end_the_prefix_without_panicking() {
        let path = temp_wal("tail-overflow");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &commit_frame(3));
        wal.barrier().unwrap();
        // A crafted TAIL frame claiming a section of nearly u64::MAX bytes: the length
        // arithmetic must not overflow, and the frame must read as end-of-prefix.
        let mut bytes = std::fs::read(&path).unwrap();
        let mut frame = vec![TAG_TAIL];
        frame.extend_from_slice(&7u64.to_le_bytes()); // items
        frame.push(0b01); // buffer section present
        frame.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
        let crc = crc32(&frame);
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(3), "the absurd frame is discarded, prefix kept");
        assert!(replay.tail_buffer.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_room_frames_end_the_valid_prefix_for_every_frame_kind() {
        let path = temp_wal("room-bound");
        let wal = open_log(&path, None, &Arc::default());
        append(&wal, &room_frame(3, &sample_record(1)));
        append(&wal, &commit_frame(1));
        append(&wal, &room_frame(100, &sample_record(2))); // beyond a 10-room geometry
        append(&wal, &buffer_frame(7, 8, 9)); // foreign content after the bad frame: untrusted
        append(&wal, &commit_frame(2));
        wal.barrier().unwrap();
        let replay = read_replay(&path, 10).unwrap().unwrap();
        assert_eq!(replay.rooms, vec![(3, sample_record(1))]);
        assert_eq!(replay.items, Some(1), "nothing after the out-of-range frame applies");
        assert!(replay.buffer_ops.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn take_pending_swaps_the_arena_and_reserves_the_file_range() {
        let path = temp_wal("arena-swap");
        let counters = Arc::default();
        let wal = open_log(&path, None, &counters);
        assert_eq!(append(&wal, &commit_frame(1)), COMMIT_FRAME_BYTES as u64);
        let (offset, arena) = wal.take_pending().expect("a frame is pending");
        assert_eq!(offset, WAL_MAGIC.len() as u64);
        assert_eq!(arena.len(), COMMIT_FRAME_BYTES);
        assert!(wal.wal.lock().pending.is_empty());
        assert_eq!(metrics::get(&counters.wal_flushes), 1, "an arena swap counts as one drain");
        // Appends continue while the taken arena is in flight; its file range stays
        // reserved, so the later drain lands *behind* it.
        append(&wal, &commit_frame(2));
        wal.file.write_all_at(&arena, offset).unwrap();
        wal.barrier().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(2));
        assert_eq!(wal.wal.lock().appended, 2 * COMMIT_FRAME_BYTES as u64);
        let mut state = wal.wal.lock();
        wal.truncate(&mut state).unwrap();
        assert_eq!(
            state.appended,
            2 * COMMIT_FRAME_BYTES as u64,
            "commit targets survive truncation"
        );
        drop(state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_path_appends_the_extension() {
        assert_eq!(wal_path(Path::new("/tmp/a/sketch.gss")), Path::new("/tmp/a/sketch.gss.wal"));
        assert_eq!(wal_path(Path::new("x.gss.shard3")), Path::new("x.gss.shard3.wal"));
    }
}
