//! Decode robustness: feeding `GssSketch::from_snapshot` damaged or arbitrary bytes must
//! produce a [`PersistenceError`](gss_core::PersistenceError) (or, for benign bit flips, a
//! valid sketch) — **never** a panic, unbounded allocation or hang.
//!
//! Three mutation families over a valid snapshot are exercised: truncation at an arbitrary
//! offset, bit flips at arbitrary positions, and wholesale replacement with arbitrary
//! bytes.  The test's assertion is mostly the absence of a panic; where the damage is
//! provably fatal (strict truncation, wrong magic) the specific error is asserted too.

use gss::prelude::*;
use gss_core::PersistenceError;
use proptest::prelude::*;

/// A deterministic, moderately loaded sketch whose snapshot has every section non-empty
/// (matrix rooms, buffered edges, node table).
fn snapshot_bytes() -> Vec<u8> {
    let config = GssConfig {
        width: 8,
        rooms: 1,
        sequence_length: 4,
        candidates: 4,
        ..GssConfig::paper_default(8)
    };
    let mut sketch = GssSketch::new(config).unwrap();
    let mut state = 3u64;
    for _ in 0..600 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        sketch.insert((state >> 33) % 120, (state >> 17) % 120, (state % 7) as i64 + 1);
    }
    assert!(sketch.buffered_edges() > 0, "buffer section must be exercised");
    sketch.to_snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of a valid snapshot is rejected (counts written before the data
    /// guarantee a cut always lands mid-structure), and rejection never panics.
    #[test]
    fn truncated_snapshots_error_out(cut in 0usize..2048) {
        let bytes = snapshot_bytes();
        let cut = cut % bytes.len(); // strict prefix
        let result = GssSketch::from_snapshot(&bytes[..cut]);
        prop_assert!(result.is_err(), "prefix of {cut} bytes decoded successfully");
    }

    /// Bit flips decode to either a structured error or a valid sketch — never a panic.
    /// Flips inside the magic must specifically report `BadMagic`.
    #[test]
    fn bit_flipped_snapshots_never_panic(
        position in 0usize..4096,
        bit in 0u8..8,
        flips in prop::collection::vec((0usize..4096, 0u8..8), 0..8),
    ) {
        let mut bytes = snapshot_bytes();
        let len = bytes.len();
        bytes[position % len] ^= 1 << bit;
        for &(extra_position, extra_bit) in &flips {
            bytes[extra_position % len] ^= 1 << extra_bit;
        }
        match GssSketch::from_snapshot(&bytes) {
            Ok(sketch) => {
                // A benign flip (e.g. inside a weight) still yields a queryable sketch.
                let _ = sketch.edge_weight(1, 2);
                let _ = sketch.successors(1);
            }
            Err(error) => {
                if (position % len) < 4 && flips.is_empty() {
                    prop_assert_eq!(error, PersistenceError::BadMagic);
                }
            }
        }
    }

    /// Arbitrary byte soup — including inputs that happen to start with the magic — is
    /// handled without panicking, and never allocates proportionally to lying counts.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in prop::collection::vec(0u8..=255, 0..600),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if with_magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"GSS\x02");
        }
        let _ = GssSketch::from_snapshot(&bytes);
    }
}

#[test]
fn huge_section_counts_do_not_preallocate() {
    // A snapshot claiming u64::MAX rooms, buffered edges or node entries must fail fast on
    // EOF instead of trying to reserve memory for the claimed count.
    let config = GssConfig::paper_default(8);
    let sketch = GssSketch::new(config).unwrap();
    let snapshot = sketch.to_snapshot();
    // magic + config + items, then the room count; with no rooms the buffer-section
    // count follows it, then the node-section count.
    let room_count_offset = 4 + 45 + 8;
    let buffer_count_offset = room_count_offset + 8;
    let node_count_offset = buffer_count_offset + 8;
    assert_eq!(snapshot.len(), node_count_offset + 8);
    for offset in [room_count_offset, buffer_count_offset, node_count_offset] {
        let mut bytes = snapshot.clone();
        bytes[offset..offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(GssSketch::from_snapshot(&bytes).err(), Some(PersistenceError::UnexpectedEof));
        assert_eq!(
            GssSketch::read_snapshot_from(bytes.as_slice()).err(),
            Some(PersistenceError::UnexpectedEof)
        );
    }
}

/// Byte offsets of the room region of a snapshot: `magic(4) | config(45) | items(8) |
/// room count(8)`, then one `row u32 | column u32 | 16-byte record` entry per room.
const ROOM_COUNT_OFFSET: usize = 4 + 45 + 8;
const ROOMS_OFFSET: usize = ROOM_COUNT_OFFSET + 8;
const ROOM_ENTRY_BYTES: usize = 4 + 4 + 16;

/// A two-rooms-per-bucket sketch loaded enough that many buckets hold two rooms, and its
/// snapshot.
fn two_room_sketch() -> (GssSketch, Vec<u8>) {
    let config = GssConfig { width: 6, rooms: 2, ..GssConfig::paper_small(6) };
    let mut sketch = GssSketch::new(config).unwrap();
    let mut state = 11u64;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        sketch.insert((state >> 33) % 60, (state >> 17) % 60, (state % 7) as i64 + 1);
    }
    let bytes = sketch.to_snapshot();
    (sketch, bytes)
}

fn room_entry(bytes: &[u8], index: usize) -> std::ops::Range<usize> {
    let start = ROOMS_OFFSET + index * ROOM_ENTRY_BYTES;
    assert!(start + ROOM_ENTRY_BYTES <= bytes.len());
    start..start + ROOM_ENTRY_BYTES
}

#[test]
fn two_rooms_for_one_edge_in_a_bucket_are_rejected() {
    let (_, mut bytes) = two_room_sketch();
    // Room 1 becomes a second copy of room 0's coordinates and key (record bytes 0..6);
    // its weight stays its own.
    let first = bytes[room_entry(&bytes, 0)].to_vec();
    let second = room_entry(&bytes, 1);
    bytes[second.start..second.start + 8 + 6].copy_from_slice(&first[..8 + 6]);
    match GssSketch::from_snapshot(&bytes) {
        Err(PersistenceError::Corrupt(message)) => {
            assert!(message.contains("two rooms for one edge"), "{message}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn a_bucket_with_more_than_l_rooms_is_rejected() {
    let (_, mut bytes) = two_room_sketch();
    // Rooms 1 and 2 move into room 0's bucket under keys of their own (distinct source
    // indices), so the third one finds the two-room bucket full.
    let first = bytes[room_entry(&bytes, 0)].to_vec();
    for (index, source_index) in [(1usize, first[8 + 4] ^ 1), (2, first[8 + 4] ^ 2)] {
        let entry = room_entry(&bytes, index);
        bytes[entry.start..entry.start + 8].copy_from_slice(&first[..8]);
        bytes[entry.start + 8 + 4] = source_index;
    }
    match GssSketch::from_snapshot(&bytes) {
        Err(PersistenceError::Corrupt(message)) => {
            assert!(message.contains("more than 2 rooms"), "{message}")
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn shuffled_room_order_restores_to_identical_answers() {
    let (original, mut bytes) = two_room_sketch();
    let rooms = u64::from_le_bytes(bytes[ROOM_COUNT_OFFSET..ROOMS_OFFSET].try_into().unwrap());
    let rooms = rooms as usize;
    assert!(rooms > 40, "the sketch must hold enough rooms to shuffle");
    // A fixed permutation: reverse the entries, then swap neighbours pairwise.
    let region = ROOMS_OFFSET..ROOMS_OFFSET + rooms * ROOM_ENTRY_BYTES;
    let mut entries: Vec<Vec<u8>> =
        bytes[region.clone()].chunks(ROOM_ENTRY_BYTES).map(<[u8]>::to_vec).collect();
    entries.reverse();
    for pair in entries.chunks_mut(2) {
        pair.reverse();
    }
    bytes[region].copy_from_slice(&entries.concat());
    let restored = GssSketch::from_snapshot(&bytes).expect("room order is free");
    assert_eq!(restored.stored_edges(), original.stored_edges());
    for vertex in 0..60u64 {
        assert_eq!(restored.successors(vertex), original.successors(vertex));
        assert_eq!(restored.precursors(vertex), original.precursors(vertex));
        for other in 0..60u64 {
            assert_eq!(restored.edge_weight(vertex, other), original.edge_weight(vertex, other));
        }
    }
}
