//! Streaming snapshot persistence for GSS sketches.
//!
//! A sketch summarising a long-running stream is valuable state: operators want to
//! checkpoint it, ship it to an analysis host, or keep one snapshot per time window.  This
//! module serialises a [`GssSketch`] to a compact, self-describing binary format and
//! restores it losslessly — configuration, matrix rooms, buffered edges, the `⟨H(v), v⟩`
//! table and the item counter all round-trip.
//!
//! Snapshots **stream**: [`GssSketch::write_snapshot_to`] writes to any [`io::Write`]
//! (socket, pipe, [`BufWriter`](io::BufWriter)) without materialising the encoding, and
//! [`GssSketch::read_snapshot_from`] reads from any [`io::Read`] without slurping the
//! input — memory use is bounded by the sketch being built, not by the snapshot size.
//! [`GssSketch::to_snapshot`] / [`GssSketch::from_snapshot`] remain as byte-slice
//! conveniences, and [`GssSketch::save_to_path`] / [`GssSketch::load_from_path`] wrap the
//! streams in buffered files.
//!
//! The format is versioned ([`FORMAT_MAGIC`]) and only stores *occupied* rooms, each as
//! `row u32 | column u32 |` the same fixed 16-byte room record
//! ([`crate::storage::ROOM_RECORD_BYTES`]) used by the `FileStore` file body — one record
//! layout for every byte of room state, wherever it lives.
//!
//! **One decoder.**  Restore is one linear pass of one decoder over byte slices: it takes
//! each section whole after one bounds check, and sizes nothing from a count before the
//! bytes that count promises are present.  [`GssSketch::from_snapshot`] and the
//! `FileStore` tail decode run it over their slice directly; the reader entry points feed
//! it rooms and buffered edges in chunks of at most 64 KiB, each sized from counts already
//! read, so they never read past the snapshot's last byte and a larger-than-RAM restore
//! onto [`StorageBackend::File`] holds no RAM-sized buffer.  Only the node section is
//! read whole, entry by entry: it fills an in-memory table of the same order anyway.
//!
//! **Room placement.**  The encoder writes rooms in storage order, so the fast case is a
//! room whose bucket lies above every bucket placed so far: that bucket is known to be
//! empty, and its rooms go straight into slots 0, 1, … with the run itself checking for
//! more than `l` rooms and for two rooms of one edge.  Any other room is placed the way
//! ingest places an edge (a bucket probe), so any room order still loads.  Both paths
//! write through the store, which rebuilds the bucket-occupancy index (`OccupancyIndex`)
//! as a side effect; the index is never serialised, so snapshot bytes are identical with
//! or without it.  File-backed sketches additionally checkpoint **in place**: their
//! sketch file reopens directly via [`GssSketch::open_file`] with no decode pass over the
//! matrix (see [`crate::file_store`]); the tail sections of that file share the
//! buffer/node encoders and the decoder below.

use crate::buffer::LeftoverBuffer;
use crate::error::StoreFault;
use crate::matrix::{Room, RoomKey};
use crate::node_map::NodeIdMap;
use crate::sketch::GssSketch;
use crate::storage::{
    decode_config, decode_room, encode_config, encode_room, BucketProbe, RoomStorage,
    StorageBackend, ROOM_RECORD_BYTES,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes identifying a GSS snapshot (version 2 — version 1 was the non-streaming
/// format without the shared fixed-size room record).
pub const FORMAT_MAGIC: [u8; 4] = *b"GSS\x02";

/// One snapshot room entry: `row u32 | column u32 |` room record.
const ROOM_ENTRY_BYTES: usize = 8 + ROOM_RECORD_BYTES;
/// One buffered edge: `source u64 | destination u64 | weight i64`.
const BUFFERED_EDGE_BYTES: usize = 24;
/// The head of one node-section entry: `hash u64 | vertex count u32`, then the vertices.
const NODE_HEAD_BYTES: usize = 12;
/// Most bytes a reader-fed restore reads into its buffer per request.
const READ_CHUNK_BYTES: usize = 64 << 10;

/// Errors produced while encoding or decoding a snapshot or sketch file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistenceError {
    /// The input is shorter than the structure it claims to contain.
    UnexpectedEof,
    /// The input does not start with the expected magic bytes.
    BadMagic,
    /// The embedded configuration failed validation.
    InvalidConfig(String),
    /// A structural inconsistency was found (e.g. a room outside the matrix).
    Corrupt(String),
    /// The underlying reader/writer failed.
    Io(String),
}

impl fmt::Display for PersistenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "snapshot truncated"),
            Self::BadMagic => write!(f, "not a GSS snapshot (bad magic)"),
            Self::InvalidConfig(message) => write!(f, "invalid configuration: {message}"),
            Self::Corrupt(message) => write!(f, "corrupt snapshot: {message}"),
            Self::Io(message) => write!(f, "snapshot I/O failed: {message}"),
        }
    }
}

impl std::error::Error for PersistenceError {}

impl From<io::Error> for PersistenceError {
    fn from(error: io::Error) -> Self {
        if error.kind() == io::ErrorKind::UnexpectedEof {
            Self::UnexpectedEof
        } else {
            Self::Io(error.to_string())
        }
    }
}

fn write_bytes(writer: &mut impl Write, bytes: &[u8]) -> Result<(), PersistenceError> {
    writer.write_all(bytes)?;
    Ok(())
}

/// Writes the buffered-edge section (shared by snapshots and the tail of `FileStore`
/// sketch files).  Sorted so equal buffers serialise to identical bytes.
pub(crate) fn write_buffer_section(
    buffer: &LeftoverBuffer,
    writer: &mut impl Write,
) -> Result<(), PersistenceError> {
    let mut buffered: Vec<(u64, u64, i64)> = buffer.edges().collect();
    buffered.sort_unstable();
    write_bytes(writer, &(buffered.len() as u64).to_le_bytes())?;
    for (source, destination, weight) in buffered {
        write_bytes(writer, &source.to_le_bytes())?;
        write_bytes(writer, &destination.to_le_bytes())?;
        write_bytes(writer, &weight.to_le_bytes())?;
    }
    Ok(())
}

/// Writes the `⟨H(v), v⟩` node-table section: one entry per hash, ascending, each with its
/// vertices in registration order — so equal tables serialise to identical bytes.
pub(crate) fn write_node_section(
    node_map: &NodeIdMap,
    writer: &mut impl Write,
) -> Result<(), PersistenceError> {
    let mut pairs: Vec<(u64, u64)> = node_map.iter().collect();
    // Stable, so each hash keeps the registration order `iter` yields its vertices in.
    pairs.sort_by_key(|&(hash, _)| hash);
    let hashes = pairs.windows(2).filter(|pair| pair[0].0 != pair[1].0).count()
        + usize::from(!pairs.is_empty());
    write_bytes(writer, &(hashes as u64).to_le_bytes())?;
    let mut rest = pairs.as_slice();
    while let Some(&(hash, _)) = rest.first() {
        let (entry, after) = rest.split_at(rest.iter().take_while(|pair| pair.0 == hash).count());
        write_bytes(writer, &hash.to_le_bytes())?;
        write_bytes(writer, &(entry.len() as u32).to_le_bytes())?;
        for &(_, vertex) in entry {
            write_bytes(writer, &vertex.to_le_bytes())?;
        }
        rest = after;
    }
    Ok(())
}

/// Writes both tail sections back-to-back (the snapshot layout and the tail of a
/// `FileStore` file).
pub(crate) fn write_tail_sections(
    buffer: &LeftoverBuffer,
    node_map: &NodeIdMap,
    writer: &mut impl Write,
) -> Result<(), PersistenceError> {
    write_buffer_section(buffer, writer)?;
    write_node_section(node_map, writer)
}

/// Encodes the whole tail image a `FileStore` checkpoint logs and writes: both sections
/// back-to-back, plus the length of the buffer section (where the node section starts).
pub(crate) fn encode_tail(buffer: &LeftoverBuffer, node_map: &NodeIdMap) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    write_buffer_section(buffer, &mut bytes).expect("writing to a Vec cannot fail");
    let buffer_len = bytes.len();
    write_node_section(node_map, &mut bytes).expect("writing to a Vec cannot fail");
    (bytes, buffer_len)
}

/// Decodes a `FileStore` tail (see [`encode_tail`]).  An empty tail decodes as an empty
/// buffer and node table.
pub(crate) fn decode_tail(bytes: &[u8]) -> Result<(LeftoverBuffer, NodeIdMap), PersistenceError> {
    let mut buffer = LeftoverBuffer::new();
    let mut node_map = NodeIdMap::new();
    if bytes.is_empty() {
        return Ok((buffer, node_map));
    }
    let mut remaining = bytes;
    decode_tail_sections(&mut remaining, &mut buffer, &mut node_map)?;
    if !remaining.is_empty() {
        return Err(PersistenceError::Corrupt("trailing bytes after sketch-file tail".into()));
    }
    Ok((buffer, node_map))
}

/// Where the decoder's bytes come from.  A slice hands out sub-slices of itself; a reader
/// ([`ReadSource`]) reads each request into one reused buffer.
trait Source {
    /// Most bytes one request for a run of fixed-size entries asks for.
    const CHUNK_BYTES: usize;

    /// The next `len` bytes, or [`PersistenceError::UnexpectedEof`].
    fn take_bytes(&mut self, len: usize) -> Result<&[u8], PersistenceError>;

    /// The `count` entries of a node section (its count already taken), whole, with their
    /// vertex total.
    fn take_node_section(&mut self, count: u64) -> Result<(&[u8], usize), PersistenceError>;

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<&[u8; N], PersistenceError> {
        self.take_bytes(N)?.try_into().map_err(|_| PersistenceError::UnexpectedEof)
    }

    /// A little-endian `u64` count or counter.
    fn take_count(&mut self) -> Result<u64, PersistenceError> {
        Ok(u64::from_le_bytes(*self.take_array()?))
    }
}

impl Source for &[u8] {
    const CHUNK_BYTES: usize = usize::MAX;

    fn take_bytes(&mut self, len: usize) -> Result<&[u8], PersistenceError> {
        let (head, rest) = split_at(self, len)?;
        *self = rest;
        Ok(head)
    }

    fn take_node_section(&mut self, count: u64) -> Result<(&[u8], usize), PersistenceError> {
        let (mut len, mut vertices) = (0usize, 0usize);
        for _ in 0..count {
            let (head, _) = split_at(&self[len..], NODE_HEAD_BYTES)?;
            let entry_vertices = vertex_count(head);
            len = entry_vertices
                .checked_mul(8)
                .and_then(|list| list.checked_add(len + NODE_HEAD_BYTES))
                .filter(|&end| end <= self.len())
                .ok_or(PersistenceError::UnexpectedEof)?;
            vertices += entry_vertices;
        }
        Ok((self.take_bytes(len)?, vertices))
    }
}

/// A reader as a [`Source`].  Every request is sized from counts already read and read in
/// chunks of at most [`READ_CHUNK_BYTES`], so the buffer grows only with bytes that arrived
/// and nothing past the snapshot's last byte is read.  The node section accumulates whole
/// (the table it fills is in memory anyway); every other request replaces the last.
struct ReadSource<R> {
    reader: R,
    buffer: Vec<u8>,
}

impl<R: Read> ReadSource<R> {
    /// Appends the next `len` bytes of the reader to the buffer, `len` at most a chunk.
    fn append(&mut self, len: usize) -> Result<(), PersistenceError> {
        let start = self.buffer.len();
        self.buffer.resize(start + len, 0);
        self.reader.read_exact(&mut self.buffer[start..])?;
        Ok(())
    }
}

impl<R: Read> Source for ReadSource<R> {
    const CHUNK_BYTES: usize = READ_CHUNK_BYTES;

    fn take_bytes(&mut self, len: usize) -> Result<&[u8], PersistenceError> {
        debug_assert!(len <= READ_CHUNK_BYTES, "requests are chunked");
        self.buffer.clear();
        self.append(len)?;
        Ok(&self.buffer)
    }

    fn take_node_section(&mut self, count: u64) -> Result<(&[u8], usize), PersistenceError> {
        self.buffer.clear();
        let mut vertices = 0usize;
        for _ in 0..count {
            self.append(NODE_HEAD_BYTES)?;
            let entry_vertices = vertex_count(&self.buffer[self.buffer.len() - NODE_HEAD_BYTES..]);
            vertices = vertices.saturating_add(entry_vertices);
            let mut left = entry_vertices as u64 * 8;
            while left > 0 {
                let chunk = left.min(READ_CHUNK_BYTES as u64);
                self.append(chunk as usize)?;
                left -= chunk;
            }
        }
        Ok((&self.buffer, vertices))
    }
}

/// `bytes` split after its first `len` bytes, if it holds that many.
fn split_at(bytes: &[u8], len: usize) -> Result<(&[u8], &[u8]), PersistenceError> {
    if len <= bytes.len() {
        Ok(bytes.split_at(len))
    } else {
        Err(PersistenceError::UnexpectedEof)
    }
}

/// The vertex count of a node-section entry head.
fn vertex_count(head: &[u8]) -> usize {
    u32::from_le_bytes([head[8], head[9], head[10], head[11]]) as usize
}

/// The little-endian `u64` at `offset` of a chunk whose length was checked when it was
/// taken.
fn u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("eight bytes"))
}

/// Takes `count` entries of `entry` bytes each from `source`, in runs of at most
/// [`Source::CHUNK_BYTES`], and hands each run to `each`.
fn take_entries<S: Source>(
    source: &mut S,
    count: u64,
    entry: usize,
    mut each: impl FnMut(&[u8]) -> Result<(), PersistenceError>,
) -> Result<(), PersistenceError> {
    let per_run = (S::CHUNK_BYTES / entry) as u64;
    let mut left = count;
    while left > 0 {
        let run = left.min(per_run);
        let len = usize::try_from(run)
            .ok()
            .and_then(|run| run.checked_mul(entry))
            .ok_or(PersistenceError::UnexpectedEof)?;
        each(source.take_bytes(len)?)?;
        left -= run;
    }
    Ok(())
}

/// Reads the sections written by [`write_tail_sections`] into bare buffer/node
/// structures.  Duplicate pairs in the input stay idempotent, as
/// [`NodeIdMap::register`] is.
fn decode_tail_sections<S: Source>(
    source: &mut S,
    buffer: &mut LeftoverBuffer,
    node_map: &mut NodeIdMap,
) -> Result<(), PersistenceError> {
    let buffered = source.take_count()?;
    take_entries(source, buffered, BUFFERED_EDGE_BYTES, |edges| {
        for edge in edges.chunks_exact(BUFFERED_EDGE_BYTES) {
            buffer.insert(u64_at(edge, 0), u64_at(edge, 8), u64_at(edge, 16) as i64);
        }
        Ok(())
    })?;
    let count = source.take_count()?;
    let (mut section, vertices) = source.take_node_section(count)?;
    node_map.reserve(vertices);
    while !section.is_empty() {
        let (head, rest) = split_at(section, NODE_HEAD_BYTES)?;
        let (list, rest) = split_at(rest, vertex_count(head).saturating_mul(8))?;
        let hash = u64_at(head, 0);
        for vertex in list.chunks_exact(8) {
            node_map.register(hash, u64_at(vertex, 0));
        }
        section = rest;
    }
    Ok(())
}

/// Places the rooms of a snapshot in the sketch being restored.  A room whose bucket lies
/// above every bucket placed so far starts a run in a bucket known to be empty, written at
/// slots 0, 1, …; the run checks for more than `l` rooms and for two rooms of one edge.
/// Any other room is placed by [`RoomStorage::place_room`], so room order is free.
struct RoomLoader {
    width: usize,
    rooms: usize,
    /// The bucket of the current run (`row · m + column`), the highest placed so far.
    run: Option<usize>,
    /// The keys of the run's rooms, in slot order.
    keys: Vec<RoomKey>,
}

impl RoomLoader {
    /// Places a run of whole room entries.
    fn load(&mut self, storage: &mut RoomStorage, entries: &[u8]) -> Result<(), PersistenceError> {
        for entry in entries.chunks_exact(ROOM_ENTRY_BYTES) {
            let row = u32::from_le_bytes(entry[0..4].try_into().expect("four bytes"));
            let column = u32::from_le_bytes(entry[4..8].try_into().expect("four bytes"));
            let room = decode_room(entry[8..].try_into().expect("one room record"));
            if !room.occupied {
                return Err(PersistenceError::Corrupt(format!(
                    "room at ({row}, {column}) encoded as unoccupied"
                )));
            }
            let (row, column) = (row as usize, column as usize);
            if row >= self.width || column >= self.width {
                return Err(PersistenceError::Corrupt(format!(
                    "room at ({row}, {column}) outside a {} x {} matrix",
                    self.width, self.width
                )));
            }
            let bucket = row * self.width + column;
            let probe = match self.run {
                Some(run) if bucket < run => storage.place_room(row, column, room),
                _ => self.extend_run(storage, bucket, row, column, room),
            }
            .map_err(|fault| PersistenceError::from(fault.to_io()))?;
            let excess = match probe {
                BucketProbe::Empty(_) => continue,
                BucketProbe::Full => format!("more than {} rooms", self.rooms),
                BucketProbe::Match(_) => "two rooms for one edge".to_string(),
            };
            return Err(PersistenceError::Corrupt(format!(
                "bucket ({row}, {column}) holds {excess}"
            )));
        }
        Ok(())
    }

    /// Adds a room to the run of `bucket` (starting that run when it lies above the
    /// current one) and answers what a probe of the bucket would have.
    fn extend_run(
        &mut self,
        storage: &mut RoomStorage,
        bucket: usize,
        row: usize,
        column: usize,
        room: Room,
    ) -> Result<BucketProbe, StoreFault> {
        if self.run != Some(bucket) {
            self.run = Some(bucket);
            self.keys.clear();
        }
        let key = room.key();
        if let Some(slot) = self.keys.iter().position(|&held| held == key) {
            return Ok(BucketProbe::Match(slot));
        }
        let slot = self.keys.len();
        if slot == self.rooms {
            return Ok(BucketProbe::Full);
        }
        storage.store_room(row, column, slot, room)?;
        self.keys.push(key);
        Ok(BucketProbe::Empty(slot))
    }
}

/// The one snapshot decoder: reads a snapshot from `source` into a fresh sketch on
/// `storage`.
fn decode_snapshot<S: Source>(
    source: &mut S,
    storage: StorageBackend,
) -> Result<GssSketch, PersistenceError> {
    if *source.take_array()? != FORMAT_MAGIC {
        return Err(PersistenceError::BadMagic);
    }
    let config = decode_config(source.take_array()?)?;
    let items_inserted = source.take_count()?;
    let mut sketch = GssSketch::with_storage(config, storage)
        .map_err(|error| PersistenceError::InvalidConfig(error.to_string()))?;
    let room_count = source.take_count()?;
    let mut loader =
        RoomLoader { width: config.width, rooms: config.rooms, run: None, keys: Vec::new() };
    take_entries(source, room_count, ROOM_ENTRY_BYTES, |entries| {
        loader.load(sketch.rooms_mut(), entries)
    })?;
    {
        let (buffer, node_map) = sketch.tail_parts_mut();
        decode_tail_sections(source, buffer, node_map)?;
    }
    sketch
        .set_items_inserted(items_inserted)
        .map_err(|fault| PersistenceError::from(fault.to_io()))?;
    // The streamed tail content bypassed the write-ahead log (only live mutations are
    // logged), so a file-backed restore must checkpoint before it is handed out —
    // otherwise a crash before the caller's first sync would recover the rooms but an
    // *empty* buffer and node table.  The commit logged just above leaves the log
    // unclean, so this checkpoint writes the tail.
    sketch.sync()?;
    Ok(sketch)
}

impl GssSketch {
    /// Streams a self-describing snapshot of the sketch into `writer`.
    ///
    /// The encoding never materialises in memory, so snapshotting a file-backed sketch
    /// larger than RAM works: rooms are visited in storage order and written one record at
    /// a time.  Wrap `writer` in a [`io::BufWriter`] when it is an unbuffered file or
    /// socket.
    ///
    /// # Errors
    /// Returns [`PersistenceError::Io`] if the writer fails.
    pub fn write_snapshot_to(&self, mut writer: impl Write) -> Result<(), PersistenceError> {
        let writer = &mut writer;
        write_bytes(writer, &FORMAT_MAGIC)?;
        write_bytes(writer, &encode_config(self.config()))?;
        write_bytes(writer, &self.items_inserted().to_le_bytes())?;
        write_bytes(writer, &(self.room_storage().occupied_rooms() as u64).to_le_bytes())?;
        let mut room_error: Option<PersistenceError> = None;
        self.room_storage().scan_occupied(&mut |row, column, room| {
            if room_error.is_some() {
                return;
            }
            let result = write_bytes(writer, &(row as u32).to_le_bytes())
                .and_then(|()| write_bytes(writer, &(column as u32).to_le_bytes()))
                .and_then(|()| write_bytes(writer, &encode_room(&room)));
            if let Err(error) = result {
                room_error = Some(error);
            }
        });
        if let Some(error) = room_error {
            return Err(error);
        }
        write_tail_sections(self.buffer(), self.node_map(), writer)
    }

    /// Restores a sketch by streaming a snapshot out of `reader`.
    ///
    /// Reads exactly the snapshot's bytes and no more, so snapshots can be embedded in
    /// larger streams.  Wrap `reader` in a [`io::BufReader`] when it is an unbuffered
    /// file or socket.
    ///
    /// # Errors
    /// Any structural problem — truncation, wrong magic, invalid configuration, rooms
    /// outside the matrix, overfull buckets, two rooms for one edge in a bucket — is
    /// reported as a [`PersistenceError`]; malformed input never panics.
    pub fn read_snapshot_from(reader: impl Read) -> Result<Self, PersistenceError> {
        Self::read_snapshot_into(reader, StorageBackend::Memory)
    }

    /// Like [`read_snapshot_from`](Self::read_snapshot_from), but restores the matrix
    /// onto an explicit storage backend — the way to bring a snapshot of a
    /// larger-than-RAM sketch back up without a RAM-sized allocation: restore it straight
    /// into a fresh [`StorageBackend::File`].
    ///
    /// # Errors
    /// As [`read_snapshot_from`](Self::read_snapshot_from), plus an
    /// [`PersistenceError::Io`] if the target sketch file cannot be created.
    pub fn read_snapshot_into(
        reader: impl Read,
        storage: StorageBackend,
    ) -> Result<Self, PersistenceError> {
        decode_snapshot(&mut ReadSource { reader, buffer: Vec::new() }, storage)
    }

    /// Serialises the sketch to a self-describing byte snapshot (an in-memory wrapper
    /// around [`write_snapshot_to`](Self::write_snapshot_to)).
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_snapshot_to(&mut bytes).expect("writing to a Vec cannot fail");
        bytes
    }

    /// Restores a sketch from a byte snapshot, rejecting trailing bytes: the decoder of
    /// [`read_snapshot_from`](Self::read_snapshot_from) run over the slice directly, with
    /// the same errors.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, PersistenceError> {
        let mut remaining = bytes;
        let sketch = decode_snapshot(&mut remaining, StorageBackend::Memory)?;
        if !remaining.is_empty() {
            return Err(PersistenceError::Corrupt("trailing bytes after snapshot".to_string()));
        }
        Ok(sketch)
    }

    /// Writes a snapshot to `path` through a buffered file (convenience over
    /// [`write_snapshot_to`](Self::write_snapshot_to)).
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<(), PersistenceError> {
        let file = std::fs::File::create(path)?;
        let mut writer = io::BufWriter::new(file);
        self.write_snapshot_to(&mut writer)?;
        writer.flush()?;
        Ok(())
    }

    /// Restores a sketch from a snapshot file written by
    /// [`save_to_path`](Self::save_to_path), rejecting trailing bytes.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self, PersistenceError> {
        let file = std::fs::File::open(path)?;
        let mut reader = io::BufReader::new(file);
        let sketch = Self::read_snapshot_from(&mut reader)?;
        let mut probe = [0u8; 1];
        if reader.read(&mut probe)? != 0 {
            return Err(PersistenceError::Corrupt("trailing bytes after snapshot".to_string()));
        }
        Ok(sketch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GssConfig;
    use crate::storage::CONFIG_BYTES;
    use gss_graph::{SummaryRead, SummaryWrite};

    fn populated_sketch() -> GssSketch {
        populated_sketch_of_width(48)
    }

    /// 2 500 items over 500 vertices at matrix width `width`.
    fn populated_sketch_of_width(width: usize) -> GssSketch {
        let mut sketch = GssSketch::new(GssConfig::paper_small(width)).unwrap();
        let mut state = 77u64;
        for _ in 0..2500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            sketch.insert((state >> 33) % 500, (state >> 17) % 500, (state % 9) as i64 + 1);
        }
        sketch
    }

    #[test]
    fn snapshot_round_trips_losslessly() {
        let original = populated_sketch();
        let bytes = original.to_snapshot();
        let restored = GssSketch::from_snapshot(&bytes).unwrap();

        assert_eq!(restored.config(), original.config());
        assert_eq!(restored.items_inserted(), original.items_inserted());
        assert_eq!(restored.stored_edges(), original.stored_edges());
        assert_eq!(restored.buffered_edges(), original.buffered_edges());
        // Every query answers identically.
        for vertex in 0..500u64 {
            assert_eq!(restored.successors(vertex), original.successors(vertex));
            assert_eq!(restored.precursors(vertex), original.precursors(vertex));
        }
        for source in 0..100u64 {
            for destination in 0..100u64 {
                assert_eq!(
                    restored.edge_weight(source, destination),
                    original.edge_weight(source, destination)
                );
            }
        }
    }

    /// A reader that returns at most 7 bytes per `read`, like a pipe under pressure.
    struct ShortReads<'a>(&'a [u8]);

    impl Read for ShortReads<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let len = out.len().min(7).min(self.0.len());
            out[..len].copy_from_slice(&self.0[..len]);
            self.0 = &self.0[len..];
            Ok(len)
        }
    }

    #[test]
    fn streaming_round_trip_matches_byte_round_trip() {
        // Narrow enough that the buffer section is exercised too.
        let original = populated_sketch_of_width(16);
        assert!(original.buffered_edges() > 0);
        let mut streamed = Vec::new();
        original.write_snapshot_to(&mut streamed).unwrap();
        assert_eq!(streamed, original.to_snapshot());
        // Restored through short reads and from the slice, each sketch snapshots to the
        // bytes it was loaded from.
        let restored = GssSketch::read_snapshot_from(ShortReads(&streamed)).unwrap();
        assert_eq!(restored.to_snapshot(), streamed);
        assert_eq!(GssSketch::from_snapshot(&streamed).unwrap().to_snapshot(), streamed);
        // read_snapshot_from stops at the snapshot boundary inside a larger stream.
        let mut embedded = streamed.clone();
        embedded.extend_from_slice(b"extra trailing payload");
        let mut cursor = embedded.as_slice();
        let from_stream = GssSketch::read_snapshot_from(&mut cursor).unwrap();
        assert_eq!(from_stream.stored_edges(), original.stored_edges());
        assert_eq!(cursor, b"extra trailing payload");
        let mut short = ShortReads(&embedded);
        assert_eq!(GssSketch::read_snapshot_from(&mut short).unwrap().to_snapshot(), streamed);
        assert_eq!(short.0, b"extra trailing payload");
    }

    #[test]
    fn save_and_load_from_path_round_trip() {
        let original = populated_sketch();
        let path = std::env::temp_dir()
            .join(format!("gss-snapshot-{}-roundtrip.snap", std::process::id()));
        original.save_to_path(&path).unwrap();
        let restored = GssSketch::load_from_path(&path).unwrap();
        assert_eq!(restored.items_inserted(), original.items_inserted());
        assert_eq!(restored.stored_edges(), original.stored_edges());
        // A file with trailing garbage is rejected.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(7);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(GssSketch::load_from_path(&path), Err(PersistenceError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
        assert!(matches!(GssSketch::load_from_path(&path), Err(PersistenceError::Io(_))));
    }

    #[test]
    fn snapshot_of_empty_sketch_round_trips() {
        let empty = GssSketch::new(GssConfig::basic(16)).unwrap();
        let restored = GssSketch::from_snapshot(&empty.to_snapshot()).unwrap();
        assert_eq!(restored.stored_edges(), 0);
        assert_eq!(restored.items_inserted(), 0);
        assert_eq!(restored.config(), empty.config());
    }

    #[test]
    fn snapshot_is_much_smaller_than_the_configured_matrix_for_sparse_sketches() {
        let mut sketch = GssSketch::new(GssConfig::paper_default(1000)).unwrap();
        sketch.insert(1, 2, 3);
        let snapshot = sketch.to_snapshot();
        assert!(snapshot.len() < 1000, "snapshot is {} bytes", snapshot.len());
        assert!(sketch.config().matrix_bytes() > 1_000_000);
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let sketch = populated_sketch();
        let bytes = sketch.to_snapshot();
        assert_eq!(GssSketch::from_snapshot(&[]).err(), Some(PersistenceError::UnexpectedEof));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(GssSketch::from_snapshot(&wrong_magic).err(), Some(PersistenceError::BadMagic));
        let truncated = &bytes[..bytes.len() / 2];
        assert_eq!(
            GssSketch::from_snapshot(truncated).err(),
            Some(PersistenceError::UnexpectedEof)
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(GssSketch::from_snapshot(&trailing), Err(PersistenceError::Corrupt(_))));
    }

    #[test]
    fn corrupt_room_coordinates_are_rejected() {
        let mut sketch = GssSketch::new(GssConfig::paper_default(8)).unwrap();
        sketch.insert(1, 2, 3);
        let mut bytes = sketch.to_snapshot();
        // The first room's row field sits right after magic(4) + config(45) + items(8) +
        // room count(8) = 65; overwrite it with an out-of-range row.
        let room_row_offset = 4 + CONFIG_BYTES + 8 + 8;
        bytes[room_row_offset..room_row_offset + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(GssSketch::from_snapshot(&bytes), Err(PersistenceError::Corrupt(_))));
    }

    #[test]
    fn unoccupied_room_records_are_rejected() {
        let mut sketch = GssSketch::new(GssConfig::paper_default(8)).unwrap();
        sketch.insert(1, 2, 3);
        let mut bytes = sketch.to_snapshot();
        // The occupancy flag of the first room record: after the row/column pair.
        let occupied_offset = 4 + CONFIG_BYTES + 8 + 8 + 4 + 4 + 6;
        assert_eq!(bytes[occupied_offset], 1);
        bytes[occupied_offset] = 0;
        assert!(matches!(GssSketch::from_snapshot(&bytes), Err(PersistenceError::Corrupt(_))));
    }

    #[test]
    fn display_messages_are_informative() {
        assert!(PersistenceError::BadMagic.to_string().contains("magic"));
        assert!(PersistenceError::UnexpectedEof.to_string().contains("truncated"));
        assert!(PersistenceError::InvalidConfig("x".into()).to_string().contains("x"));
        assert!(PersistenceError::Corrupt("y".into()).to_string().contains("y"));
        assert!(PersistenceError::Io("z".into()).to_string().contains("z"));
    }

    #[test]
    fn equal_snapshots_for_equal_sketches() {
        let a = populated_sketch();
        let b = populated_sketch();
        assert_eq!(a.to_snapshot(), b.to_snapshot());
    }
}
