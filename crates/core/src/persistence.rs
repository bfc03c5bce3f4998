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
//! layout for every byte of room state, wherever it lives.  The bucket-occupancy index
//! (`OccupancyIndex`) is never serialised: restore replays each room
//! through the store, which rebuilds the bitmaps as a side effect, so snapshot bytes are
//! identical with or without the index.  File-backed sketches
//! additionally checkpoint **in place**: their sketch file reopens directly via
//! [`GssSketch::open_file`] with no decode pass over the matrix (see
//! [`crate::file_store`]); the tail sections of that file reuse the buffer/node encoders
//! below.

use crate::matrix::Room;
use crate::sketch::GssSketch;
use crate::storage::{
    decode_config, decode_room, encode_config, encode_room, BucketProbe, CONFIG_BYTES,
    ROOM_RECORD_BYTES,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes identifying a GSS snapshot (version 2 — version 1 was the non-streaming
/// format without the shared fixed-size room record).
pub const FORMAT_MAGIC: [u8; 4] = *b"GSS\x02";

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

fn read_array<const N: usize>(reader: &mut impl Read) -> Result<[u8; N], PersistenceError> {
    let mut buffer = [0u8; N];
    reader.read_exact(&mut buffer)?;
    Ok(buffer)
}

fn read_u32(reader: &mut impl Read) -> Result<u32, PersistenceError> {
    Ok(u32::from_le_bytes(read_array(reader)?))
}

fn read_u64(reader: &mut impl Read) -> Result<u64, PersistenceError> {
    Ok(u64::from_le_bytes(read_array(reader)?))
}

fn read_i64(reader: &mut impl Read) -> Result<i64, PersistenceError> {
    Ok(i64::from_le_bytes(read_array(reader)?))
}

fn write_bytes(writer: &mut impl Write, bytes: &[u8]) -> Result<(), PersistenceError> {
    writer.write_all(bytes)?;
    Ok(())
}

/// Writes the buffered-edge section (shared by snapshots and the tail of `FileStore`
/// sketch files).  Sorted so equal buffers serialise to identical bytes.
pub(crate) fn write_buffer_section(
    buffer: &crate::buffer::LeftoverBuffer,
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

/// Writes the `⟨H(v), v⟩` node-table section.  Sorted so equal tables serialise to
/// identical bytes.
pub(crate) fn write_node_section(
    node_map: &crate::node_map::NodeIdMap,
    writer: &mut impl Write,
) -> Result<(), PersistenceError> {
    let mut node_entries: Vec<(u64, &[u64])> = node_map.iter().collect();
    node_entries.sort_unstable_by_key(|(hash, _)| *hash);
    write_bytes(writer, &(node_entries.len() as u64).to_le_bytes())?;
    for (hash, vertices) in node_entries {
        write_bytes(writer, &hash.to_le_bytes())?;
        write_bytes(writer, &(vertices.len() as u32).to_le_bytes())?;
        for &vertex in vertices {
            write_bytes(writer, &vertex.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Writes both tail sections back-to-back (the snapshot layout and the tail of a
/// `FileStore` file).
pub(crate) fn write_tail_sections(
    buffer: &crate::buffer::LeftoverBuffer,
    node_map: &crate::node_map::NodeIdMap,
    writer: &mut impl Write,
) -> Result<(), PersistenceError> {
    write_buffer_section(buffer, writer)?;
    write_node_section(node_map, writer)
}

/// Encodes the whole tail image a `FileStore` checkpoint logs and writes: both sections
/// back-to-back, plus the length of the buffer section (where the node section starts).
pub(crate) fn encode_tail(
    buffer: &crate::buffer::LeftoverBuffer,
    node_map: &crate::node_map::NodeIdMap,
) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    write_buffer_section(buffer, &mut bytes).expect("writing to a Vec cannot fail");
    let buffer_len = bytes.len();
    write_node_section(node_map, &mut bytes).expect("writing to a Vec cannot fail");
    (bytes, buffer_len)
}

/// Reads the sections written by [`write_tail_sections`] into bare buffer/node
/// structures.
pub(crate) fn read_tail_sections(
    buffer: &mut crate::buffer::LeftoverBuffer,
    node_map: &mut crate::node_map::NodeIdMap,
    reader: &mut impl Read,
) -> Result<(), PersistenceError> {
    let buffered_count = read_u64(reader)?;
    for _ in 0..buffered_count {
        let source = read_u64(reader)?;
        let destination = read_u64(reader)?;
        let weight = read_i64(reader)?;
        buffer.insert(source, destination, weight);
    }
    let node_count = read_u64(reader)?;
    for _ in 0..node_count {
        let hash = read_u64(reader)?;
        let vertex_count = read_u32(reader)?;
        for _ in 0..vertex_count {
            node_map.register(hash, read_u64(reader)?);
        }
    }
    Ok(())
}

/// Decodes a `FileStore` tail (see [`encode_tail`]).  An empty tail decodes as an empty
/// buffer and node table.
pub(crate) fn decode_tail(
    bytes: &[u8],
) -> Result<(crate::buffer::LeftoverBuffer, crate::node_map::NodeIdMap), PersistenceError> {
    let mut buffer = crate::buffer::LeftoverBuffer::new();
    let mut node_map = crate::node_map::NodeIdMap::new();
    if bytes.is_empty() {
        return Ok((buffer, node_map));
    }
    let mut remaining = bytes;
    read_tail_sections(&mut buffer, &mut node_map, &mut remaining)?;
    if !remaining.is_empty() {
        return Err(PersistenceError::Corrupt("trailing bytes after sketch-file tail".into()));
    }
    Ok((buffer, node_map))
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
        Self::read_snapshot_into(reader, crate::storage::StorageBackend::Memory)
    }

    /// Like [`read_snapshot_from`](Self::read_snapshot_from), but restores the matrix
    /// onto an explicit storage backend — the way to bring a snapshot of a
    /// larger-than-RAM sketch back up without a RAM-sized allocation: restore it straight
    /// into a fresh [`StorageBackend::File`](crate::storage::StorageBackend::File).
    ///
    /// # Errors
    /// As [`read_snapshot_from`](Self::read_snapshot_from), plus an
    /// [`PersistenceError::Io`] if the target sketch file cannot be created.
    pub fn read_snapshot_into(
        mut reader: impl Read,
        storage: crate::storage::StorageBackend,
    ) -> Result<Self, PersistenceError> {
        let reader = &mut reader;
        if read_array::<4>(reader)? != FORMAT_MAGIC {
            return Err(PersistenceError::BadMagic);
        }
        let config = decode_config(&read_array::<CONFIG_BYTES>(reader)?)?;
        let items_inserted = read_u64(reader)?;
        let mut sketch = GssSketch::with_storage(config, storage)
            .map_err(|error| PersistenceError::InvalidConfig(error.to_string()))?;

        let room_count = read_u64(reader)?;
        for _ in 0..room_count {
            let row = read_u32(reader)?;
            let column = read_u32(reader)?;
            let room: Room = decode_room(&read_array::<ROOM_RECORD_BYTES>(reader)?);
            if !room.occupied {
                return Err(PersistenceError::Corrupt(format!(
                    "room at ({row}, {column}) encoded as unoccupied"
                )));
            }
            if row as usize >= config.width || column as usize >= config.width {
                return Err(PersistenceError::Corrupt(format!(
                    "room at ({row}, {column}) outside a {} x {} matrix",
                    config.width, config.width
                )));
            }
            // Placed the way ingest places an edge, so any room order in the input works.
            let excess = match sketch
                .restore_room(row as usize, column as usize, room)
                .map_err(|fault| PersistenceError::from(fault.to_io()))?
            {
                BucketProbe::Empty(_) => continue,
                BucketProbe::Full => format!("more than {} rooms", config.rooms),
                BucketProbe::Match(_) => "two rooms for one edge".to_string(),
            };
            return Err(PersistenceError::Corrupt(format!(
                "bucket ({row}, {column}) holds {excess}"
            )));
        }

        {
            let (buffer, node_map) = sketch.tail_parts_mut();
            read_tail_sections(buffer, node_map, reader)?;
        }
        sketch
            .set_items_inserted(items_inserted)
            .map_err(|fault| PersistenceError::from(fault.to_io()))?;
        // The streamed tail content bypassed the write-ahead log (only live mutations
        // are logged), so a file-backed restore must checkpoint before it is handed
        // out — otherwise a crash before the caller's first sync would recover the
        // rooms but an *empty* buffer and node table.  The commit logged just above
        // leaves the log unclean, so this checkpoint writes the tail.
        sketch.sync()?;
        Ok(sketch)
    }

    /// Serialises the sketch to a self-describing byte snapshot (an in-memory wrapper
    /// around [`write_snapshot_to`](Self::write_snapshot_to)).
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.write_snapshot_to(&mut bytes).expect("writing to a Vec cannot fail");
        bytes
    }

    /// Restores a sketch from a byte snapshot, rejecting trailing bytes (a wrapper around
    /// [`read_snapshot_from`](Self::read_snapshot_from)).
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, PersistenceError> {
        let mut remaining = bytes;
        let sketch = Self::read_snapshot_from(&mut remaining)?;
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
    use gss_graph::{SummaryRead, SummaryWrite};

    fn populated_sketch() -> GssSketch {
        let mut sketch = GssSketch::new(GssConfig::paper_small(48)).unwrap();
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

    #[test]
    fn streaming_round_trip_matches_byte_round_trip() {
        let original = populated_sketch();
        // Stream through a pipe-like buffer in small chunks to exercise partial reads.
        let mut streamed = Vec::new();
        original.write_snapshot_to(&mut streamed).unwrap();
        assert_eq!(streamed, original.to_snapshot());
        let restored = GssSketch::read_snapshot_from(streamed.as_slice()).unwrap();
        assert_eq!(restored.stored_edges(), original.stored_edges());
        // read_snapshot_from stops at the snapshot boundary inside a larger stream.
        let mut embedded = streamed.clone();
        embedded.extend_from_slice(b"extra trailing payload");
        let mut cursor = embedded.as_slice();
        let from_stream = GssSketch::read_snapshot_from(&mut cursor).unwrap();
        assert_eq!(from_stream.stored_edges(), original.stored_edges());
        assert_eq!(cursor, b"extra trailing payload");
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
