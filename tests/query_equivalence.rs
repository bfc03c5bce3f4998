//! Acceptance properties for the query-path overhaul: **the occupancy index and the fused
//! bucket probe are unobservable**.
//!
//! For any insert sequence and configuration, on the memory *and* the file backend:
//!
//! 1. the occupancy-indexed [`RoomStorage::scan_row`]/[`scan_column`]/[`scan_occupied`]
//!    visit exactly the rooms (same positions, same order) a naive full-grid scan visits;
//! 2. the fused [`RoomStorage::probe_bucket`] and the edge lookup [`RoomStorage::weight_of`]
//!    agree with the slot-by-slot oracle [`naive_probe_bucket`] on every bucket;
//! 3. both properties survive detaching a file sketch into memory (a page-for-page copy
//!    taken while the cache holds dirty pages), `sync` → drop → [`GssSketch::open_file`]
//!    (the file backend rebuilds its index from the room region) and snapshot
//!    round-trips onto either backend (restore replays rooms through the store,
//!    rebuilding the index);
//! 4. snapshot bytes are identical before and after the change in kind: a restored
//!    sketch or a detached clone snapshots to the very bytes of the memory sketch.
//!
//! [`RoomStorage::scan_row`]: gss_core::RoomStorage::scan_row
//! [`scan_column`]: gss_core::RoomStorage::scan_column
//! [`scan_occupied`]: gss_core::RoomStorage::scan_occupied
//! [`RoomStorage::probe_bucket`]: gss_core::RoomStorage::probe_bucket
//! [`RoomStorage::weight_of`]: gss_core::RoomStorage::weight_of
//! [`naive_probe_bucket`]: gss_core::naive_probe_bucket
//! [`GssSketch::open_file`]: gss_core::GssSketch::open_file

use gss::prelude::*;
use gss_core::{
    naive_probe_bucket, naive_scan_column, naive_scan_row, BucketProbe, RoomKey, StorageBackend,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique sketch-file paths across proptest cases (cases run in one process).
fn fresh_path() -> PathBuf {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gss-query-equivalence-{}-{}.gss",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Strategy: a stream of up to `len` items over a vertex universe of `vertices`.
fn stream_strategy(vertices: u64, len: usize) -> impl Strategy<Value = Vec<(u64, u64, i64)>> {
    prop::collection::vec((0..vertices, 0..vertices, -5..50i64), 1..len)
}

/// Strategy: configurations from the interesting corners — widths straddling the 64-bit
/// bitmap word size, one and several rooms per bucket, basic and square-hashing modes.
fn config_strategy() -> impl Strategy<Value = GssConfig> {
    (
        prop::sample::select(vec![3usize, 16, 63, 64, 65, 90]), // width (around word size)
        prop::sample::select(vec![8u32, 12, 16]),               // fingerprint bits
        1usize..4,                                              // rooms
        prop::sample::select(vec![1usize, 4, 8]),               // sequence length
        any::<bool>(),                                          // sampling
    )
        .prop_map(|(width, fingerprint_bits, rooms, sequence_length, sampling)| {
            let square_hashing = sequence_length > 1;
            GssConfig {
                width,
                fingerprint_bits,
                rooms,
                sequence_length,
                candidates: sequence_length.max(2),
                square_hashing,
                sampling: sampling && square_hashing,
                track_node_ids: true,
                hash_seed: 0x0CC_1DE5,
            }
        })
}

/// Asserts that every indexed scan of `sketch`'s store visits exactly what the naive
/// full-grid reference scan visits, in the same order.
fn assert_scans_match_naive(sketch: &GssSketch, label: &str) {
    let store = sketch.room_storage();
    let width = store.width();
    for row in 0..width {
        let mut indexed = Vec::new();
        store.scan_row(row, &mut |column, room| indexed.push((column, room)));
        let mut naive = Vec::new();
        naive_scan_row(store, row, &mut |column, room| naive.push((column, room)));
        assert_eq!(indexed, naive, "{label}: row {row}");
    }
    for column in 0..width {
        let mut indexed = Vec::new();
        store.scan_column(column, &mut |row, room| indexed.push((row, room)));
        let mut naive = Vec::new();
        naive_scan_column(store, column, &mut |row, room| naive.push((row, room)));
        assert_eq!(indexed, naive, "{label}: column {column}");
    }
    // Full-matrix scan: same rooms in the same flat order as a naive row-major pass.
    let mut indexed_all = Vec::new();
    store.scan_occupied(&mut |row, column, room| indexed_all.push((row, column, room)));
    let mut naive_all = Vec::new();
    for row in 0..width {
        naive_scan_row(store, row, &mut |column, room| naive_all.push((row, column, room)));
    }
    assert_eq!(indexed_all, naive_all, "{label}: scan_occupied");
    assert_eq!(indexed_all.len(), store.occupied_rooms(), "{label}: occupied count");
}

/// Asserts the fused probe and the edge lookup agree with the slot-by-slot oracle on every
/// bucket, for probe keys that hit (taken from stored rooms) and keys that miss.
fn assert_probe_matches_two_pass(sketch: &GssSketch, label: &str) {
    let store = sketch.room_storage();
    let key = |source_fingerprint, destination_fingerprint, source_index, destination_index| {
        RoomKey { source_fingerprint, destination_fingerprint, source_index, destination_index }
    };
    for row in 0..store.width() {
        for column in 0..store.width() {
            let mut keys = vec![key(0, 0, 0, 0), key(911, 77, 3, 5)];
            for slot in 0..store.rooms_per_bucket() {
                let room = store.room(row, column, slot);
                if room.occupied {
                    keys.push(room.key());
                    // A near-miss: same fingerprints, different index pair.
                    keys.push(RoomKey {
                        source_index: room.source_index.wrapping_add(1),
                        ..room.key()
                    });
                }
            }
            for key in keys {
                let fused = store.probe_bucket(row, column, key).expect("healthy store");
                let expected = naive_probe_bucket(store, row, column, key);
                assert_eq!(fused, expected, "{label}: bucket ({row}, {column}) key {key:?}");
                let weight = match expected {
                    BucketProbe::Match(slot) => Some(store.room(row, column, slot).weight),
                    _ => None,
                };
                assert_eq!(
                    store.weight_of(row, column, key),
                    weight,
                    "{label}: bucket ({row}, {column}) lookup of {key:?}"
                );
            }
        }
    }
}

/// The whole acceptance property for one stream and configuration: indexed scans and the
/// fused probe are unobservable on a fresh memory sketch, a fresh file sketch, the file
/// sketch's page-copy clone, the reopened file and snapshot restores onto either backend.
fn assert_unobservable_on_both_backends(items: &[(u64, u64, i64)], config: GssConfig) {
    let path = fresh_path();
    let mut memory = GssSketch::new(config).unwrap();
    // cache_pages = 2 keeps the cache far below the matrix, forcing eviction traffic
    // through the indexed scans as well.
    let mut file = GssSketch::with_storage(
        config,
        StorageBackend::File { path: path.clone(), cache_pages: 2 },
    )
    .unwrap();
    for &(s, d, w) in items {
        memory.insert(s, d, w);
        file.insert(s, d, w);
    }
    assert_scans_match_naive(&memory, "memory");
    assert_scans_match_naive(&file, "file");
    assert_probe_matches_two_pass(&memory, "memory");
    assert_probe_matches_two_pass(&file, "file");

    // Detaching into memory copies the region page by page while the 2-page cache still
    // holds dirty pages: the copy must be the sketch the memory backend built.
    let detached = file.clone();
    assert_scans_match_naive(&detached, "page-copy clone");
    assert_probe_matches_two_pass(&detached, "page-copy clone");
    let bytes = memory.to_snapshot();
    assert_eq!(&detached.to_snapshot(), &bytes, "page-copy clone snapshot drifted");

    // Sync → drop → reopen: the file backend rebuilds its index from the room region.
    drop(file);
    let reopened = GssSketch::open_file(&path, 2).unwrap();
    assert_scans_match_naive(&reopened, "reopened file");
    assert_probe_matches_two_pass(&reopened, "reopened file");

    // Snapshot round-trips rebuild the index on restore — onto either backend — and
    // re-snapshot to identical bytes (the index never reaches the encoding).
    let restored = GssSketch::from_snapshot(&bytes).unwrap();
    assert_scans_match_naive(&restored, "snapshot restore (memory)");
    assert_eq!(&restored.to_snapshot(), &bytes, "snapshot bytes drifted");

    let restore_path = fresh_path();
    let onto_file = GssSketch::read_snapshot_into(
        bytes.as_slice(),
        StorageBackend::File { path: restore_path.clone(), cache_pages: 2 },
    )
    .unwrap();
    assert_scans_match_naive(&onto_file, "snapshot restore (file)");
    assert_eq!(&onto_file.to_snapshot(), &bytes, "file-restore snapshot drifted");

    drop(reopened);
    drop(onto_file);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&restore_path).ok();
    std::fs::remove_file(gss_core::wal::wal_path(&path)).ok();
    std::fs::remove_file(gss_core::wal::wal_path(&restore_path)).ok();
}

/// The seeded cases only sample it, so one fixed case pins it: at width 90 with `l = 3`,
/// buckets straddle region pages on both backends.
#[test]
fn indexed_scans_and_fused_probes_are_unobservable_with_buckets_straddling_pages() {
    let config = GssConfig {
        width: 90,
        fingerprint_bits: 12,
        rooms: 3,
        sequence_length: 4,
        candidates: 4,
        square_hashing: true,
        sampling: true,
        track_node_ids: true,
        hash_seed: 0x0CC_1DE5,
    };
    let items: Vec<(u64, u64, i64)> =
        (0..600u64).map(|t| (t * 7 % 131, t * 13 % 127, (t % 9) as i64 - 2)).collect();
    assert_unobservable_on_both_backends(&items, config);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn indexed_scans_and_fused_probes_are_unobservable_on_both_backends(
        items in stream_strategy(120, 250),
        config in config_strategy(),
    ) {
        assert_unobservable_on_both_backends(&items, config);
    }

    /// End-to-end guard at the query level: successor and precursor queries answered
    /// through the indexed scans equal a naive reference that reimplements the query loop
    /// over full-grid scans.  (The left-over buffer is shared code in both paths, so the
    /// comparison is made on streams whose sketch kept everything in the matrix; cases
    /// where the tiny random matrices overflow are vacuously satisfied.)
    #[test]
    fn query_results_are_bit_identical_to_naive_reference_queries(
        items in stream_strategy(100, 200),
        config in config_strategy(),
    ) {
        let mut sketch = GssSketch::new(config).unwrap();
        for &(s, d, w) in &items {
            sketch.insert(s, d, w);
        }
        if sketch.buffered_edges() == 0 {
            for &(source, destination, _) in &items {
                // Successors via naive row scans of every address the hasher would visit.
                let node = sketch.hasher().hashed_node(source);
                let addresses = if config.square_hashing {
                    sketch.hasher().address_sequence(node)
                } else {
                    vec![node.address]
                };
                let mut naive: Vec<u64> = Vec::new();
                for (index, &row) in addresses.iter().enumerate() {
                    naive_scan_row(sketch.room_storage(), row, &mut |column, room| {
                        if room.source_fingerprint == node.fingerprint
                            && room.source_index as usize == index
                        {
                            naive.push(recover(&sketch, &config, column, room.destination_fingerprint, room.destination_index));
                        }
                    });
                }
                naive.sort_unstable();
                naive.dedup();
                prop_assert_eq!(sketch.successor_hashes(source), naive, "successors of {}", source);

                // Precursors via naive column scans, symmetrically.
                let node = sketch.hasher().hashed_node(destination);
                let addresses = if config.square_hashing {
                    sketch.hasher().address_sequence(node)
                } else {
                    vec![node.address]
                };
                let mut naive: Vec<u64> = Vec::new();
                for (index, &column) in addresses.iter().enumerate() {
                    naive_scan_column(sketch.room_storage(), column, &mut |row, room| {
                        if room.destination_fingerprint == node.fingerprint
                            && room.destination_index as usize == index
                        {
                            naive.push(recover(&sketch, &config, row, room.source_fingerprint, room.source_index));
                        }
                    });
                }
                naive.sort_unstable();
                naive.dedup();
                prop_assert_eq!(
                    sketch.precursor_hashes(destination), naive, "precursors of {}", destination
                );
            }
        }
    }
}

/// Recovers a neighbour hash from a scanned room the way the query path does.
fn recover(
    sketch: &GssSketch,
    config: &GssConfig,
    position: usize,
    fingerprint: u16,
    index: u8,
) -> u64 {
    if config.square_hashing {
        sketch.hasher().recover_hash(position, fingerprint, index as usize)
    } else {
        sketch.hasher().compose(position, fingerprint)
    }
}
