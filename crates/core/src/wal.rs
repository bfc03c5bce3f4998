//! Write-ahead room log for the file-backed sketch: [`WalWriter`] and [`WalReplay`].
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
//! tag 5  TAIL    items u64 | flags u8 |        — full image of the tail sections a
//!                [len u64 | bytes] per flag      checkpoint is about to rewrite
//! ```
//!
//! All integers are little-endian.  Replay ([`read_replay`]) consumes the longest valid
//! prefix: the first truncated frame, CRC mismatch or unknown tag ends the replay —
//! everything before it is applied, everything after is discarded, and nothing panics.
//!
//! ## Replay semantics
//!
//! * `ROOM` frames carry the room's **full post-write value**, so replay is idempotent
//!   regardless of which dirty pages reached the file before the crash.
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
//! [`WalWriter`] is not itself thread-safe; the store wraps it in a dedicated **append
//! mutex** separate from every page-cache lock, so log appends never serialize page
//! reads and concurrent readers never wait behind a logging writer.  Frames are encoded
//! and checksummed on the caller's stack (`room_frame`/`buffer_frame`/`node_frame`
//! /`commit_frame`) *before* the append mutex is taken — an append under the lock is
//! one `memcpy`.  Draining is double-buffered: `WalWriter::take_pending` swaps the
//! pending arena out under the mutex and reserves its file range, and the group-commit
//! coordinator ([`crate::group_commit`]) performs the positioned write outside every
//! lock, so appends from other writers proceed while a batch is in flight.
//!
//! The lock-order rules (enforced by `gss-lint` L001 and the runtime witness): the
//! append mutex is never held while a page-table stripe mutex is taken, and the
//! group-commit state mutex sits strictly *between* the stripe layer and the append
//! mutex — `stripe ≺ group ≺ wal` — because the eviction write-back barrier takes the
//! coordinator (and, on its already-drained fast path, the append mutex directly)
//! under a stripe guard while an elected leader releases the coordinator before
//! touching any member's append mutex.  Rule **L003** (panic-in-recovery) keeps
//! this module's replay path (`read_replay`/`parse_frame`) free of panic sites — damaged
//! log bytes end the valid prefix, they never abort recovery.

use crate::metrics::{self, StoreCounters};
use crate::pager::page_file::PageFile;
use crate::storage::ROOM_RECORD_BYTES;
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Append side of the log: an open file plus an in-memory `pending` arena so a whole
/// insert (or, under group commit, many writers' inserts) reaches the file in one
/// positioned `write`.  The file handle is a shared [`PageFile`] so the group-commit
/// drain can write a taken arena (and `fdatasync` the log) without the append mutex.
#[derive(Debug)]
pub struct WalWriter {
    file: Arc<PageFile>,
    /// Bytes written (or reserved by an in-flight arena drain) in the log file,
    /// including the magic.
    len: u64,
    /// Encoded frames not yet written to the file.
    pending: Vec<u8>,
    /// The owning store's counters; every drain of `pending` into the file counts one
    /// `wal_flushes`.
    pub(crate) counters: Arc<StoreCounters>,
    /// Cumulative bytes of frames ever appended (never reset, not even by
    /// [`truncate`](Self::truncate)): group commit compares acknowledgement targets
    /// against cumulative drained bytes, decoupled from file offsets.
    appended: u64,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and writes the magic; the log's I/O and
    /// drains count into `counters`.
    pub fn create(path: &Path, counters: Arc<StoreCounters>) -> io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let file = Arc::new(PageFile::wrap(file, path, Arc::clone(&counters)));
        file.write_all_at(&WAL_MAGIC, 0)?;
        Ok(Self { file, len: WAL_MAGIC.len() as u64, pending: Vec::new(), counters, appended: 0 })
    }

    /// Opens an existing log for appending after the first `valid_len` bytes (used after
    /// crash recovery with [`WalReplay::valid_bytes`], so the recovery checkpoint's
    /// `TAIL` frame lands *immediately behind* the frames it supersedes — any torn
    /// suffix is cut off first, otherwise a second replay would stop at the tear and
    /// never reach the `TAIL` frame).  Creates the log if missing.
    pub fn open_append(
        path: &Path,
        valid_len: u64,
        counters: Arc<StoreCounters>,
    ) -> io::Result<Self> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut len = file.metadata()?.len().min(valid_len);
        if len < WAL_MAGIC.len() as u64 {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&WAL_MAGIC)?;
            len = WAL_MAGIC.len() as u64;
        } else {
            file.set_len(len)?;
        }
        let file = Arc::new(PageFile::wrap(file, path, Arc::clone(&counters)));
        Ok(Self { file, len, pending: Vec::new(), counters, appended: 0 })
    }

    /// The shared log-file handle, for positioned drain writes and `fdatasync` issued by
    /// the group-commit coordinator outside the append mutex.
    pub(crate) fn shared_file(&self) -> Arc<PageFile> {
        Arc::clone(&self.file)
    }

    fn frame(&mut self, tag: u8, payload: &[u8]) {
        let start = self.pending.len();
        self.pending.push(tag);
        self.pending.extend_from_slice(payload);
        let crc = crc32(&self.pending[start..]);
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.appended += (self.pending.len() - start) as u64;
    }

    /// Appends one pre-encoded frame (see `room_frame` and friends): the only work
    /// under the append mutex is this `memcpy`.
    pub(crate) fn append_encoded(&mut self, frame: &[u8]) {
        self.pending.extend_from_slice(frame);
        self.appended += frame.len() as u64;
    }

    /// Logs the tail image a checkpoint is about to write (only the sections being
    /// rewritten; an absent section is unchanged on disk and has no pending deltas).
    pub fn log_tail(&mut self, items: u64, buffer: Option<&[u8]>, node: Option<&[u8]>) {
        let mut payload = Vec::with_capacity(
            9 + buffer.map_or(0, |b| b.len() + 8) + node.map_or(0, |n| n.len() + 8),
        );
        payload.extend_from_slice(&items.to_le_bytes());
        payload.push(u8::from(buffer.is_some()) | (u8::from(node.is_some()) << 1));
        for section in [buffer, node].into_iter().flatten() {
            payload.extend_from_slice(&(section.len() as u64).to_le_bytes());
            payload.extend_from_slice(section);
        }
        self.frame(TAG_TAIL, &payload);
    }

    /// Whether the log holds no frames (neither durable nor pending).
    pub fn is_empty(&self) -> bool {
        self.len == WAL_MAGIC.len() as u64 && self.pending.is_empty()
    }

    /// Bytes of encoded frames not yet drained to the file.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Total log bytes: durable file bytes plus the pending buffer.
    pub fn bytes(&self) -> u64 {
        self.len + self.pending.len() as u64
    }

    /// Cumulative bytes of frames ever appended (see the field docs); monotone across
    /// truncations, so it serves as a commit acknowledgement target.
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Swaps the pending arena out into `into` (which must be empty) and reserves its
    /// file range, returning the write offset.  The caller performs the positioned write
    /// *outside* the append mutex and hands the old arena back as the next spare — the
    /// double-buffered half of group commit.  Counts as one drain.
    pub(crate) fn take_pending(&mut self, into: &mut Vec<u8>) -> u64 {
        debug_assert!(into.is_empty(), "the spare arena must be empty before a swap");
        std::mem::swap(&mut self.pending, into);
        let offset = self.len;
        self.len += into.len() as u64;
        metrics::add(&self.counters.wal_flushes, 1);
        offset
    }

    /// Drains the pending buffer into the file in one positioned write.  This is the
    /// write-ahead barrier: callers must invoke it (or route through the group-commit
    /// coordinator) before any dirty page covered by pending frames is written back to
    /// the sketch file.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all_at(&self.pending, self.len)?;
        self.len += self.pending.len() as u64;
        self.pending.clear();
        metrics::add(&self.counters.wal_flushes, 1);
        Ok(())
    }

    /// Flushes and then asks the OS to persist the log (checkpoint boundaries and the
    /// group-commit sync cadence; between those points the hot path relies on `write`
    /// ordering, which survives process death).
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush()?;
        self.file.sync_data()
    }

    /// Discards every frame: the checkpoint that covers them has committed.  The
    /// cumulative `appended` counter is deliberately *not* reset (commit targets
    /// survive truncation); only file offsets rewind.
    pub fn truncate(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

/// Everything recovered from a log: see the module docs for the replay semantics.
#[derive(Debug, Default, Clone)]
pub struct WalReplay {
    /// Room writes in log order (`flat index`, full record); apply all, idempotently.
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
pub fn read_replay(path: &Path, room_count: u64) -> io::Result<Option<WalReplay>> {
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
mod tests {
    use super::*;

    fn temp_wal(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gss-wal-{}-{name}.wal", std::process::id()))
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
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        assert!(writer.is_empty());
        writer.append_encoded(&room_frame(42, &sample_record(7)));
        writer.append_encoded(&buffer_frame(100, 200, -3));
        writer.append_encoded(&node_frame(100, 9));
        writer.append_encoded(&commit_frame(55));
        assert!(writer.pending_bytes() > 0);
        writer.flush().unwrap();
        assert_eq!(writer.pending_bytes(), 0);
        assert_eq!(metrics::get(&writer.counters.wal_flushes), 1);

        let replay = read_replay(&path, 1 << 20).unwrap().expect("valid log");
        assert_eq!(replay.rooms, vec![(42, sample_record(7))]);
        assert_eq!(replay.buffer_ops, vec![(100, 200, -3)]);
        assert_eq!(replay.node_ops, vec![(100, 9)]);
        assert_eq!(replay.items, Some(55));
        assert_eq!(replay.valid_bytes, writer.bytes());
        assert!(replay.tail_buffer.is_none() && replay.tail_node.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_frame_supersedes_earlier_deltas() {
        let path = temp_wal("tail");
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&buffer_frame(1, 2, 3));
        writer.append_encoded(&node_frame(1, 1));
        writer.append_encoded(&room_frame(0, &sample_record(1)));
        writer.log_tail(9, Some(b"BUF"), None);
        writer.flush().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert!(replay.buffer_ops.is_empty() && replay.node_ops.is_empty());
        assert_eq!(replay.rooms.len(), 1, "room frames survive a tail image");
        assert_eq!(replay.items, Some(9));
        assert_eq!(replay.tail_buffer.as_deref(), Some(&b"BUF"[..]));
        assert!(replay.tail_node.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_corruption_yield_the_valid_prefix() {
        let path = temp_wal("prefix");
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&commit_frame(1));
        writer.append_encoded(&commit_frame(2));
        writer.append_encoded(&commit_frame(3));
        writer.flush().unwrap();
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
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&commit_frame(7));
        writer.flush().unwrap();
        writer.truncate().unwrap();
        assert!(writer.is_empty());
        assert!(read_replay(&path, 1 << 20).unwrap().unwrap().items.is_none());
        writer.append_encoded(&commit_frame(8));
        writer.flush().unwrap();
        drop(writer);
        let mut appended = WalWriter::open_append(&path, u64::MAX, Arc::default()).unwrap();
        appended.append_encoded(&commit_frame(9));
        appended.flush().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(9));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_truncates_a_torn_suffix_so_appended_frames_stay_reachable() {
        let path = temp_wal("torn-suffix");
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&commit_frame(1));
        writer.flush().unwrap();
        drop(writer);
        // A torn frame at the end (partial write at crash time).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[TAG_COMMIT, 0x44, 0x55]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(1));
        // Recovery appends its TAIL frame behind the *valid* prefix; a replay of the
        // resulting log must reach it (it would stop at the tear otherwise).
        let mut appended =
            WalWriter::open_append(&path, replay.valid_bytes, Arc::default()).unwrap();
        appended.log_tail(9, Some(b"B"), Some(b"N"));
        appended.flush().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(9));
        assert_eq!(replay.tail_buffer.as_deref(), Some(&b"B"[..]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tail_frames_with_absurd_section_lengths_end_the_prefix_without_panicking() {
        let path = temp_wal("tail-overflow");
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&commit_frame(3));
        writer.flush().unwrap();
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
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&room_frame(3, &sample_record(1)));
        writer.append_encoded(&commit_frame(1));
        writer.append_encoded(&room_frame(100, &sample_record(2))); // beyond a 10-room geometry
        writer.append_encoded(&buffer_frame(7, 8, 9)); // foreign content after the bad frame: untrusted
        writer.append_encoded(&commit_frame(2));
        writer.flush().unwrap();
        let replay = read_replay(&path, 10).unwrap().unwrap();
        assert_eq!(replay.rooms, vec![(3, sample_record(1))]);
        assert_eq!(replay.items, Some(1), "nothing after the out-of-range frame applies");
        assert!(replay.buffer_ops.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn take_pending_swaps_the_arena_and_reserves_the_file_range() {
        let path = temp_wal("arena-swap");
        let mut writer = WalWriter::create(&path, Arc::default()).unwrap();
        writer.append_encoded(&commit_frame(1));
        assert_eq!(writer.appended_bytes(), COMMIT_FRAME_BYTES as u64);
        let mut arena = Vec::new();
        let offset = writer.take_pending(&mut arena);
        assert_eq!(offset, WAL_MAGIC.len() as u64);
        assert_eq!(arena.len(), COMMIT_FRAME_BYTES);
        assert_eq!(writer.pending_bytes(), 0);
        assert_eq!(
            metrics::get(&writer.counters.wal_flushes),
            1,
            "an arena swap counts as one drain"
        );
        // Appends continue while the taken arena is in flight; its file range stays
        // reserved, so the later flush lands *behind* it.
        writer.append_encoded(&commit_frame(2));
        writer.shared_file().write_all_at(&arena, offset).unwrap();
        writer.flush().unwrap();
        let replay = read_replay(&path, 1 << 20).unwrap().unwrap();
        assert_eq!(replay.items, Some(2));
        assert_eq!(writer.appended_bytes(), 2 * COMMIT_FRAME_BYTES as u64);
        writer.truncate().unwrap();
        assert_eq!(
            writer.appended_bytes(),
            2 * COMMIT_FRAME_BYTES as u64,
            "commit targets survive truncation"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wal_path_appends_the_extension() {
        assert_eq!(wal_path(Path::new("/tmp/a/sketch.gss")), Path::new("/tmp/a/sketch.gss.wal"));
        assert_eq!(wal_path(Path::new("x.gss.shard3")), Path::new("x.gss.shard3.wal"));
    }
}
