//! The sketch file's on-disk format: where the room region sits in the file (the file
//! offsets of the `Layout` whose geometry both backends share, see [`crate::storage`])
//! and what the header page says (`Header`).
//!
//! This is the single home of both decisions: every file offset is answered here, every
//! header byte is placed by `Header::encode` and read back by `Header::decode`.  The rest
//! of the store asks.
//!
//! ## File layout (format v2, magic `GSSFILE\x02`)
//!
//! ```text
//! [0 .. 4096)                      header page: magic, config, items, occupied, tail
//!                                  lengths + CRCs, clean flag
//! [4096 .. 4096 + pages × 4096)    room records, 16 bytes each, page-aligned region,
//!                                  row-major: ((row · m) + column) · l + slot
//! [tail_offset .. tail_offset+n)   tail: buffer section then ⟨H(v), v⟩ section
//!                                  (the streaming snapshot encodings)
//! ```
//!
//! Room records are fixed-size little-endian
//! ([`ROOM_RECORD_BYTES`](crate::storage::ROOM_RECORD_BYTES) each, the same
//! layout snapshots and the memory backend use) and never straddle a page.
//! Write-ahead-log `ROOM` frames carry the flat index, so only this module turns one
//! into a file offset.
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

use crate::config::GssConfig;
use crate::pager::PAGE_BYTES;
use crate::persistence::PersistenceError;
use crate::storage::{decode_config, encode_config, Layout, CONFIG_BYTES};
use crate::wal::crc32;
use std::ops::Range;

/// Magic bytes identifying a GSS sketch file (version 2: per-section tail lengths/CRCs
/// in the header, write-ahead log sidecar).
pub const FILE_MAGIC: [u8; 8] = *b"GSSFILE\x02";

/// Version-1 magic (pre-durability files; clean ones still open, their header upgraded
/// to v2 in place).
pub const FILE_MAGIC_V1: [u8; 8] = *b"GSSFILE\x01";

// Header field offsets.
const OFF_CONFIG: usize = FILE_MAGIC.len();
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

/// The header bytes that are rewritten in place after creation, each as its own
/// positioned write of the matching slice of [`Header::encode`]: the magic (a v1 file
/// becomes v2), everything behind the configuration (what a checkpoint commits), and
/// the v2 section fields alone (what the v1 upgrade adds).
pub(crate) const MAGIC_RANGE: Range<usize> = 0..OFF_CONFIG;
pub(crate) const CHECKPOINT_RANGE: Range<usize> = OFF_ITEMS..HEADER_FIELDS_END;
pub(crate) const SECTIONS_RANGE: Range<usize> = OFF_BUFFER_LEN..HEADER_FIELDS_END;

/// File offset of the one-byte clean flag (cleared by the first mutation after a
/// checkpoint, set again by [`CHECKPOINT_RANGE`]).
pub(crate) const CLEAN_FLAG_OFFSET: u64 = OFF_CLEAN as u64;

/// Size of the header region: one page, so the room region the pager serves starts
/// page-aligned.
const HEADER_BYTES: u64 = PAGE_BYTES as u64;

/// Where the shared room region sits in a sketch file: right behind the header page.
impl Layout {
    /// File byte offset of room-region page `page`.
    pub(crate) fn page_offset(page: u64) -> u64 {
        HEADER_BYTES + page * PAGE_BYTES as u64
    }

    /// Byte offset where the tail begins (room region rounded up to whole pages).
    pub(crate) fn tail_offset(&self) -> u64 {
        Self::page_offset(self.pages() as u64)
    }
}

/// One tail section as the header describes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Section {
    pub(crate) len: u64,
    pub(crate) crc: u32,
}

impl Section {
    /// The description of a section holding exactly `bytes`.
    pub(crate) fn of(bytes: &[u8]) -> Self {
        Self { len: bytes.len() as u64, crc: crc32(bytes) }
    }
}

/// The header page, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Header {
    /// Format version the header was decoded from (2, or 1 for a pre-durability
    /// file).  [`encode`](Self::encode) always writes the current magic.
    pub(crate) version: u8,
    /// The configuration the file was created with.
    pub(crate) config: GssConfig,
    /// Stream items inserted as of the last checkpoint.
    pub(crate) items: u64,
    /// Occupied rooms as of the last checkpoint.
    pub(crate) occupied: u64,
    /// Total tail bytes.  A v2 writer keeps this equal to the two section lengths; a
    /// decoded value is whatever the file says (open cross-checks it on clean files).
    pub(crate) tail_len: u64,
    /// Whether the last checkpoint completed and nothing was mutated since.
    pub(crate) clean: bool,
    /// The buffer tail section (the whole monolithic tail of a v1 file).
    pub(crate) buffer: Section,
    /// The `⟨H(v), v⟩` tail section (empty in a v1 file).
    pub(crate) node: Section,
}

impl Header {
    /// The header of a freshly created file: clean, no items, and the canonical empty
    /// tail — two zero-count sections of 8 bytes each, the bytes a checkpoint of an
    /// empty buffer and node table writes.  (`set_len` zero-fills them: a zero count
    /// *is* all-zeroes.)
    pub(crate) fn fresh(config: &GssConfig) -> Self {
        let empty = Section::of(&0u64.to_le_bytes());
        Self {
            version: 2,
            config: *config,
            items: 0,
            occupied: 0,
            tail_len: 2 * empty.len,
            clean: true,
            buffer: empty,
            node: empty,
        }
    }

    /// Encodes the header page (always as the current format version).
    pub(crate) fn encode(&self) -> [u8; PAGE_BYTES] {
        let mut page = [0u8; PAGE_BYTES];
        let mut put =
            |offset: usize, bytes: &[u8]| page[offset..offset + bytes.len()].copy_from_slice(bytes);
        put(0, &FILE_MAGIC);
        put(OFF_CONFIG, &encode_config(&self.config));
        put(OFF_ITEMS, &self.items.to_le_bytes());
        put(OFF_OCCUPIED, &self.occupied.to_le_bytes());
        put(OFF_TAIL_LEN, &self.tail_len.to_le_bytes());
        put(OFF_CLEAN, &[u8::from(self.clean)]);
        put(OFF_BUFFER_LEN, &self.buffer.len.to_le_bytes());
        put(OFF_BUFFER_CRC, &self.buffer.crc.to_le_bytes());
        put(OFF_NODE_LEN, &self.node.len.to_le_bytes());
        put(OFF_NODE_CRC, &self.node.crc.to_le_bytes());
        page
    }

    /// Decodes a header page: magic and configuration are validated, everything else
    /// is reported as found (lengths are bounded by the file length where they are
    /// used, before anything is allocated for them).
    pub(crate) fn decode(page: &[u8; PAGE_BYTES]) -> Result<Self, PersistenceError> {
        let version = if page.starts_with(&FILE_MAGIC) {
            2
        } else if page.starts_with(&FILE_MAGIC_V1) {
            1
        } else {
            return Err(PersistenceError::BadMagic);
        };
        let config = decode_config(&field(page, OFF_CONFIG))?;
        let u64_at = |offset: usize| u64::from_le_bytes(field(page, offset));
        let u32_at = |offset: usize| u32::from_le_bytes(field(page, offset));
        let tail_len = u64_at(OFF_TAIL_LEN);
        // v1 tails are monolithic (no section split): the whole tail counts as the
        // buffer section, and the CRC fields hold nothing meaningful yet.
        let (buffer_len, node_len) = if version == 2 {
            (u64_at(OFF_BUFFER_LEN), u64_at(OFF_NODE_LEN))
        } else {
            (tail_len, 0)
        };
        Ok(Self {
            version,
            config,
            items: u64_at(OFF_ITEMS),
            occupied: u64_at(OFF_OCCUPIED),
            tail_len,
            clean: page[OFF_CLEAN] == 1,
            buffer: Section { len: buffer_len, crc: u32_at(OFF_BUFFER_CRC) },
            node: Section { len: node_len, crc: u32_at(OFF_NODE_CRC) },
        })
    }
}

/// Fixed-width header field at `offset`.  All `OFF_*` offsets sit far inside the
/// one-page header, so the lookup always succeeds; the zero fallback (instead of a
/// panicking slice) keeps the open/recovery path panic-free by construction
/// (gss-lint rule L003).
fn field<const N: usize>(page: &[u8; PAGE_BYTES], offset: usize) -> [u8; N] {
    let mut out = [0u8; N];
    if let Some(bytes) = page.get(offset..offset + N) {
        out.copy_from_slice(bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ROOM_RECORD_BYTES;

    #[test]
    fn layout_is_a_bijection_onto_the_room_region() {
        // Widths straddling page boundaries (at l = 2 a page holds 128 buckets, so
        // width 16 fills exactly two pages); l = 3 makes buckets straddle pages.
        for width in [1usize, 7, 15, 16, 17, 40] {
            for rooms in 1..=4usize {
                let config = GssConfig { width, rooms, ..GssConfig::paper_default(width) };
                let layout = Layout::new(&config);
                let mut next_offset = Layout::page_offset(0);
                let mut flat = 0usize;
                for row in 0..width {
                    for column in 0..width {
                        let bucket = layout.run_at(layout.flat_index(row, column, 0), 1);
                        assert_eq!(layout.page_of_bucket(row, column), bucket.page);
                        for slot in 0..rooms {
                            assert_eq!(layout.flat_index(row, column, slot), flat);
                            assert_eq!(layout.bucket_of(flat), (row, column));
                            let run = layout.run_at(flat, 1);
                            assert_eq!(run.len, 1);
                            assert!(run.offset + ROOM_RECORD_BYTES <= PAGE_BYTES);
                            // Row-major and gap-free: each room sits right behind the
                            // previous one, so distinct rooms never share bytes and
                            // the region is covered exactly.
                            assert_eq!(
                                Layout::page_offset(run.page) + run.offset as u64,
                                next_offset
                            );
                            next_offset += ROOM_RECORD_BYTES as u64;
                            flat += 1;
                        }
                    }
                }
                assert_eq!(flat, layout.room_count());
                assert!(next_offset <= layout.tail_offset());
                assert!(layout.tail_offset() - next_offset < PAGE_BYTES as u64);
                assert_eq!(layout.tail_offset() % PAGE_BYTES as u64, 0);
                // Walking the whole region run by run visits every room once, in order,
                // one page per run.
                let (mut walked, mut pages) = (0usize, 0u64);
                while walked < layout.room_count() {
                    let run = layout.run_at(walked, layout.room_count() - walked);
                    assert_eq!((run.page, run.offset), (pages, 0));
                    walked += run.len;
                    pages += 1;
                }
                assert_eq!(Layout::page_offset(pages), layout.tail_offset());
            }
        }
    }

    /// The first [`HEADER_FIELDS_END`] bytes of a v2 header page written by the commit
    /// before this module existed: `paper_small(321)` with 12 fingerprint bits and hash
    /// seed `0x5EED_CAFE`, 1 234 items, 3 occupied rooms, checkpointed with a 14-byte
    /// buffer section and an 18-byte node section.  The rest of the page is zero.
    const GOLDEN_V2_HEADER: &str = "47535346494c450241010000000000000c0000000200000000000000\
        0800000000000000080000000000000007fecaed5e00000000d204000000000000030000000000000020\
        00000000000000010e00000000000000369e2a5f1200000000000000468d9da5";

    #[test]
    fn golden_v2_header_decodes_and_re_encodes_byte_identically() {
        let mut page = [0u8; PAGE_BYTES];
        for (byte, hex) in page.iter_mut().zip(GOLDEN_V2_HEADER.as_bytes().chunks(2)) {
            *byte = u8::from_str_radix(std::str::from_utf8(hex).unwrap(), 16).unwrap();
        }
        assert_eq!(GOLDEN_V2_HEADER.len(), 2 * HEADER_FIELDS_END);
        let header = Header::decode(&page).unwrap();
        let expected = Header {
            version: 2,
            config: GssConfig::paper_small(321)
                .with_fingerprint_bits(12)
                .with_hash_seed(0x5EED_CAFE),
            items: 1234,
            occupied: 3,
            tail_len: 32,
            clean: true,
            buffer: Section::of(b"buffer-section"),
            node: Section::of(b"node-section-bytes"),
        };
        assert_eq!(header, expected);
        assert_eq!(header.encode(), page);
        // The three in-place rewrite ranges tile the mutable part of the header.
        assert_eq!(MAGIC_RANGE.end + CONFIG_BYTES, CHECKPOINT_RANGE.start);
        assert_eq!(SECTIONS_RANGE.end, CHECKPOINT_RANGE.end);
        assert_eq!(CLEAN_FLAG_OFFSET + 1, SECTIONS_RANGE.start as u64);
    }
}
