//! Unit tests of the file store, kept in one module so each keeps the name it has
//! always had (`file_store::tests::…`); the on-disk format's own tests sit in
//! `format.rs`.

use super::format::{Header, MAGIC_RANGE, SECTIONS_RANGE};
use super::{FileHeader, FileStore, FlushPoint, FILE_MAGIC, FILE_MAGIC_V1, PAGE_BYTES};
use crate::buffer::LeftoverBuffer;
use crate::config::{GroupCommit, GssConfig};
use crate::error::StoreFault;
use crate::matrix::{Room, RoomKey};
use crate::metrics;
use crate::node_map::NodeIdMap;
use crate::pager::faults::{install, FaultPlan};
use crate::pager::lock_file::lock_path;
use crate::persistence::{encode_tail, PersistenceError};
use crate::storage::{
    BucketProbe, Layout, PageSource, RoomStorage, StorageBackend, ROOM_OCCUPIED_BYTE,
};
use crate::wal::{buffer_only_tail_frame, wal_path};
use crate::{GssSketch, GssStats};
use gss_graph::{StreamEdge, SummaryWrite};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sketch's tail: its left-over buffer and its `⟨H(v), v⟩` table.
type Tail = (LeftoverBuffer, NodeIdMap);

/// A tail of `edges` buffered edges and as many registrations, distinct per `seed`.
fn sample_tail(seed: u64, edges: u64) -> Tail {
    let mut tail = Tail::default();
    for edge in 0..edges {
        tail.0.insert(seed * 100 + edge, edge, seed as i64 + 1);
        tail.1.register(seed * 100 + edge, seed * 1000 + edge);
    }
    tail
}

/// The bytes a checkpoint writes for `tail` — equal bytes, equal buffer and table.
fn encoded((buffer, node_map): &Tail) -> Vec<u8> {
    encode_tail(buffer, node_map).0
}

/// The tail [`FileStore::open`] decoded, in [`encoded`] form.
fn decoded(header: &FileHeader) -> Vec<u8> {
    encode_tail(&header.buffer, &header.node_map).0
}

impl FileStore {
    /// [`checkpoint`](Self::checkpoint) with a [`Tail`].
    fn write_tail(&self, items_inserted: u64, (buffer, node_map): &Tail) -> std::io::Result<()> {
        self.checkpoint(items_inserted, buffer, node_map)
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-file-store-{}-{name}.gss", std::process::id()))
}

fn remove(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

const SAMPLE_KEY: RoomKey = RoomKey {
    source_fingerprint: 17,
    destination_fingerprint: 23,
    source_index: 1,
    destination_index: 2,
};

fn sample_room(weight: i64) -> Room {
    SAMPLE_KEY.room(weight)
}

/// Rewrites the header page at the front of `bytes` (a whole sketch file image) as a
/// PR-3/4 writer would have left it: v1 magic, no section fields.
fn downgrade_to_v1(bytes: &mut [u8]) {
    bytes[MAGIC_RANGE].copy_from_slice(&FILE_MAGIC_V1);
    bytes[SECTIONS_RANGE].fill(0);
}

#[test]
fn create_store_and_reopen_round_trips_rooms() {
    let path = temp_path("roundtrip");
    let config = GssConfig::paper_default(8);
    {
        let mut store = FileStore::create(&path, &config, 4).unwrap();
        assert_eq!(store.grid().layout.room_count(), 8 * 8 * 2);
        assert_eq!(store.grid().occupied, 0);
        assert_eq!(store.probe_bucket(3, 5, SAMPLE_KEY).unwrap(), BucketProbe::Empty(0));
        store.store_room(3, 5, 0, sample_room(42)).unwrap();
        store.store_room(7, 0, 1, sample_room(-7)).unwrap();
        store.add_weight(3, 5, 0, 8).unwrap();
        assert_eq!(store.room(3, 5, 0).weight, 50);
        assert_eq!(store.probe_bucket(3, 5, SAMPLE_KEY).unwrap(), BucketProbe::Match(0));
        assert_eq!(store.weight_of(3, 5, SAMPLE_KEY), Some(50));
        let other = RoomKey { source_index: 0, ..SAMPLE_KEY };
        assert_eq!(store.probe_bucket(3, 5, other).unwrap(), BucketProbe::Empty(1));
        assert_eq!(store.weight_of(3, 5, other), None);
        assert_eq!(store.grid().occupied, 2);
        store.write_tail(123, &sample_tail(1, 3)).unwrap();
    }
    let (store, header) = FileStore::open(&path, 4).unwrap();
    assert_eq!(header.config, config);
    assert_eq!(header.items_inserted, 123);
    assert_eq!(decoded(&header), encoded(&sample_tail(1, 3)));
    assert!(!header.recovered);
    assert_eq!(store.grid().occupied, 2);
    assert_eq!(store.room(3, 5, 0).weight, 50);
    assert_eq!(store.room(7, 0, 1).weight, -7);
    let mut seen = Vec::new();
    store.scan_occupied(&mut |r, c, room| seen.push((r, c, room.weight)));
    assert_eq!(seen, vec![(3, 5, 50), (7, 0, 1 - 8)]);
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
    assert_eq!(recovered.grid().occupied, 1);
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
        store.write_tail(5, &sample_tail(1, 2)).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    downgrade_to_v1(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    std::fs::remove_file(wal_path(&path)).unwrap();
    let (store, header) = FileStore::open(&path, 4).unwrap();
    assert_eq!(header.items_inserted, 5);
    assert_eq!(decoded(&header), encoded(&sample_tail(1, 2)));
    assert_eq!(store.room(2, 3, 0).weight, 9);
    let upgraded = std::fs::read(&path).unwrap();
    assert_eq!(&upgraded[0..8], &FILE_MAGIC, "open upgrades the magic in place");
    store.write_tail(6, &sample_tail(2, 3)).unwrap();
    drop(store);
    let (_, reheader) = FileStore::open(&path, 4).unwrap();
    assert_eq!(decoded(&reheader), encoded(&sample_tail(2, 3)));
    remove(&path);
}

#[test]
fn upgraded_v1_files_recover_from_a_crash_before_their_first_checkpoint() {
    let path = temp_path("v1-crash");
    let config = GssConfig::paper_default(8);
    // A monolithic v1 tail: once downgraded, both sections read as one buffer
    // section, which recovery must decode as the base tail.
    let v1_tail = sample_tail(1, 2);
    {
        let mut store = FileStore::create(&path, &config, 4).unwrap();
        store.store_room(2, 3, 0, sample_room(9)).unwrap();
        store.write_tail(5, &v1_tail).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    downgrade_to_v1(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    std::fs::remove_file(wal_path(&path)).unwrap();
    {
        // Open the v1 file (upgrading it), mutate, then crash before any checkpoint.
        let (mut store, header) = FileStore::open(&path, 4).unwrap();
        assert_eq!(decoded(&header), encoded(&v1_tail));
        store.store_room(1, 1, 0, sample_room(4)).unwrap();
        let (_, ack) = store.log_commit_deferred(6).unwrap();
        store.ack_commit(ack).unwrap();
    }
    let (recovered, header) = FileStore::open(&path, 4).unwrap();
    assert!(header.recovered, "the acknowledged mutation survives the crash");
    assert_eq!(header.items_inserted, 6);
    assert_eq!(recovered.room(1, 1, 0).weight, 4);
    assert_eq!(recovered.room(2, 3, 0).weight, 9);
    assert_eq!(decoded(&header), encoded(&v1_tail), "the monolithic v1 tail rides along");
    remove(&path);
}

#[test]
fn truncated_room_region_is_rejected() {
    let path = temp_path("truncated");
    {
        let mut store = FileStore::create(&path, &GssConfig::paper_default(32), 2).unwrap();
        store.store_room(0, 0, 0, sample_room(1)).unwrap();
        store.write_tail(1, &sample_tail(1, 1)).unwrap();
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
fn occupancy_flag_corruption_is_caught_on_open() {
    let path = temp_path("occupancy-mismatch");
    {
        let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
        store.store_room(1, 1, 0, sample_room(1)).unwrap();
        store.write_tail(1, &Tail::default()).unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip the occupancy flag of a room deep in the region: the header still claims
    // one occupied room, so the index rebuild detects the mismatch.
    let layout = Layout::new(&GssConfig::paper_default(8));
    let run = layout.run_at(layout.flat_index(5, 5, 0), 1);
    let room_offset = Layout::page_offset(run.page) as usize + run.offset + ROOM_OCCUPIED_BYTE;
    assert_eq!(bytes[room_offset], 0);
    bytes[room_offset] = 1;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        FileStore::open(&path, 4),
        Err(PersistenceError::Corrupt(message)) if message.contains("occupied")
    ));
    remove(&path);
}

/// Overwrites the header's tail/buffer/node length fields of the sketch file at `path`.
fn forge_tail_lengths(path: &Path, tail_len: u64, buffer_len: u64, node_len: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    let (page, _) = bytes.split_at_mut(PAGE_BYTES);
    let page: &mut [u8; PAGE_BYTES] = page.try_into().unwrap();
    let mut header = Header::decode(page).unwrap();
    header.tail_len = tail_len;
    header.buffer.len = buffer_len;
    header.node.len = node_len;
    *page = header.encode();
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
        store.write_tail(1, &sample_tail(1, 1)).unwrap();
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
    assert_eq!(store.grid().occupied, 40);
    assert!(metrics::get(&store.counters.pages_flushed) > 0, "evictions write back");
    store.write_tail(0, &Tail::default()).unwrap();
    drop(store); // release the single-opener lock before reopening
    let (reopened, _) = FileStore::open(&path, 1).unwrap();
    for row in 0..40 {
        assert_eq!(reopened.room(row, (row * 7) % 40, 0).weight, row as i64 + 1);
    }
    remove(&path);
}

#[test]
fn incremental_checkpoints_skip_unchanged_sections() {
    let path = temp_path("incremental");
    let store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
    let first = sample_tail(1, 2);
    store.write_tail(1, &first).unwrap();
    // A second checkpoint of an unmutated store is a no-op: nothing is counted, logged
    // or written.
    let state = || {
        let checkpoints = metrics::get(&store.counters.checkpoints);
        (checkpoints, store.wal_bytes(), std::fs::read(&path).unwrap())
    };
    let after_first = state();
    assert_eq!(after_first.0, 1);
    store.write_tail(1, &first).unwrap();
    assert!(state() == after_first, "an unmutated store checkpointed again");
    // Any logged mutation makes the next checkpoint rewrite both sections, even at the
    // same item count.
    store.log_node(7, 70).unwrap();
    let second = sample_tail(2, 3);
    store.write_tail(1, &second).unwrap();
    assert_eq!(metrics::get(&store.counters.checkpoints), 2);
    drop(store);
    let (_, header) = FileStore::open(&path, 4).unwrap();
    assert_eq!(header.items_inserted, 1);
    assert_eq!(decoded(&header), encoded(&second));
    remove(&path);
}

/// An unclean file left by a writer that logged one-section `TAIL` frames: its log ends
/// in a buffer-only image followed by `NODE` deltas.  The buffer comes from the frame,
/// the node table from the file's own section plus the later deltas.
#[test]
fn a_buffer_only_tail_frame_recovers_with_the_files_node_section() {
    let path = temp_path("buffer-only-tail");
    let on_disk = sample_tail(1, 2);
    let logged = sample_tail(2, 3);
    {
        let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
        store.write_tail(1, &on_disk).unwrap();
        store.store_room(0, 0, 0, sample_room(5)).unwrap();
        let (buffer_bytes, buffer_len) = encode_tail(&logged.0, &NodeIdMap::new());
        store.append_frame(&buffer_only_tail_frame(2, &buffer_bytes[..buffer_len])).unwrap();
        store.log_node(900, 9).unwrap();
        store.log_node(901, 19).unwrap();
        store.wal.barrier().unwrap();
    }
    let (recovered, header) = FileStore::open(&path, 4).unwrap();
    assert!(header.recovered);
    assert_eq!(header.items_inserted, 2);
    assert_eq!(recovered.room(0, 0, 0).weight, 5);
    let mut expected = (logged.0, on_disk.1);
    expected.1.register(900, 9);
    expected.1.register(901, 19);
    assert_eq!(decoded(&header), encoded(&expected));
    remove(&path);
}

#[test]
fn flush_hook_observes_the_checkpoint_sequence() {
    let path = temp_path("hook");
    let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    store.set_flush_hook(Some(Arc::new(move |point| sink.lock().push(point))));
    store.store_room(0, 0, 0, sample_room(3)).unwrap();
    store.write_tail(1, &sample_tail(1, 1)).unwrap();
    let seen = seen.lock().clone();
    assert_eq!(
        seen,
        vec![
            FlushPoint::WalArenaSwap,
            FlushPoint::WalFlush,
            FlushPoint::PageWriteBack,
            FlushPoint::TailWrite,
            FlushPoint::CheckpointDone,
        ]
    );
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
fn reopen_rebuilds_the_occupancy_index_and_scans_skip_empty_buckets() {
    let path = temp_path("index-rebuild");
    {
        let mut store = FileStore::create(&path, &GssConfig::paper_default(48), 4).unwrap();
        store.store_room(7, 11, 0, sample_room(5)).unwrap();
        store.store_room(7, 40, 1, sample_room(6)).unwrap();
        store.store_room(33, 11, 0, sample_room(7)).unwrap();
        store.write_tail(3, &Tail::default()).unwrap();
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
    let reopened = RoomStorage::File(Box::new(reopened));
    let lookups = || metrics::get(&reopened.as_file().unwrap().counters.page_lookups);
    let before = lookups();
    let mut count = 0;
    reopened.scan_column(11, &mut |_, _| count += 1);
    let indexed_lookups = lookups() - before;
    let before = lookups();
    crate::storage::naive_scan_column(&reopened, 11, &mut |_, _| count += 1);
    let naive_lookups = lookups() - before;
    assert_eq!(count, 4);
    assert!(
        indexed_lookups * 8 <= naive_lookups,
        "indexed scan touched {indexed_lookups} pages, naive {naive_lookups}"
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
    let waits_before = metrics::get(&store.counters.page_latch_waits);
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
                    assert_eq!(store.weight_of(row, column, SAMPLE_KEY), Some(row as i64 + 1));
                }
            })
        })
        .collect();
    for reader in readers {
        reader.join().unwrap();
    }
    assert_eq!(
        metrics::get(&store.counters.page_latch_waits),
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
    let store = RoomStorage::File(Box::new(store));
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
    assert!(metrics::get(&store.counters.injected_faults) >= 1);
    drop(store);
    remove(&path);
}

/// A checkpoint waits out another writer's round in flight before its own drain.  When
/// that round fails, the log is poisoned and never synced again, so the checkpoint must
/// stop before it touches the tail rather than rewrite it behind an unsynced log.
#[test]
fn a_checkpoint_stops_when_the_round_it_waited_out_poisons_the_log() {
    let path = temp_path("poisoned-round");
    // Only the log: its magic write at create is occurrence 1, the parked round's arena
    // write is 2.
    let token = format!("gss-file-store-{}-poisoned-round.gss.wal", std::process::id());
    let _guard = install(FaultPlan::parse("write:eio@2").unwrap().with_path_token(&token));
    let mut store = FileStore::create(&path, &GssConfig::paper_default(8), 4).unwrap();
    store.store_room(0, 0, 0, sample_room(7)).unwrap();
    let (_, ack) = store.log_commit_deferred(1).unwrap();
    let (parked, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let seen = Arc::new(Mutex::new(Vec::new()));
    {
        let (parked, release, seen) =
            (Arc::clone(&parked), Arc::clone(&release), Arc::clone(&seen));
        store.set_flush_hook(Some(Arc::new(move |point| {
            if point == FlushPoint::WalArenaSwap && !parked.swap(true, Ordering::SeqCst) {
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            seen.lock().push(point);
        })));
    }
    let store = &store;
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| store.ack_commit(ack));
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // The checkpoint passes its health gate and appends its TAIL frame, then waits
        // for the parked round.  Bounded, so a checkpoint that waits elsewhere reports.
        let logged = store.wal_bytes();
        let checkpoint = scope.spawn(|| store.write_tail(1, &sample_tail(1, 1)));
        let deadline = Instant::now() + Duration::from_secs(30);
        while store.wal_bytes() == logged && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let appended = store.wal_bytes() > logged;
        release.store(true, Ordering::SeqCst);
        leader.join().unwrap().expect_err("the parked round's write fails");
        checkpoint.join().unwrap().expect_err("a checkpoint behind a poisoned log fails");
        assert!(appended, "the checkpoint logged no TAIL frame while the round was parked");
    });
    assert!(store.health().is_poisoned());
    assert!(!seen.lock().contains(&FlushPoint::TailWrite), "the tail was rewritten");
    remove(&path);
}

/// The runtime fields of [`GssStats`], named for failure messages.
fn runtime_fields(stats: &GssStats) -> [(&'static str, u64); 13] {
    [
        ("wal_bytes", stats.wal_bytes),
        ("wal_flushes", stats.wal_flushes),
        ("wal_group_commits", stats.wal_group_commits),
        ("wal_group_waits", stats.wal_group_waits),
        ("fsyncs", stats.fsyncs),
        ("pages_flushed", stats.pages_flushed),
        ("checkpoints", stats.checkpoints),
        ("page_lookups", stats.page_lookups),
        ("page_faults", stats.page_faults),
        ("page_latch_waits", stats.page_latch_waits),
        ("io_retries", stats.io_retries),
        ("injected_faults", stats.injected_faults),
        ("store_poisoned", stats.store_poisoned),
    ]
}

fn wired_stream(items: u64) -> Vec<StreamEdge> {
    (0..items).map(|t| StreamEdge::new(t * 7 % 500, t * 13 % 500, t, 1)).collect()
}

/// Every runtime [`GssStats`] field is fed by the one counter set a store hands out — a
/// hand-over the consolidation forgot (the log file's retries, say) would read 0 here.
#[test]
fn every_runtime_counter_reaches_detailed_stats() {
    let path = temp_path("wired");
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    // The sketch file fails its second full sync (the second checkpoint, which poisons
    // the store); the log retries one transient drain write.  The later install wins
    // for the log, whose name contains the sketch file's too.
    let _sketch_plan = install(FaultPlan::parse("sync_all:eio@2").unwrap().with_path_token(&name));
    let _log_plan =
        install(FaultPlan::parse("write:eintr@3").unwrap().with_path_token(format!("{name}.wal")));
    let storage = StorageBackend::File { path: path.clone(), cache_pages: 2 };
    let mut sketch = GssSketch::builder().width(64).storage(storage).build().unwrap();
    let items = wired_stream(3000);
    for chunk in items.chunks(500) {
        sketch.insert_batch(chunk);
    }
    sketch.sync().unwrap();
    let store = sketch.room_storage().as_file().unwrap();
    std::thread::scope(|scope| {
        // A reader blocks on a page whose write latch this thread holds...
        let slot = store.cache.lookup(0, store).unwrap();
        let latch = store.cache.write(&slot);
        let reader = scope.spawn(|| store.room(0, 0, 0));
        while metrics::get(&store.counters.page_latch_waits) == 0 {
            std::thread::yield_now();
        }
        drop(latch);
        reader.join().unwrap();
    });
    // ...and a commit parks behind a leader whose round a hook holds at its arena swap.
    let (parked, release) = (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
    let (parked_in_hook, release_in_hook) = (Arc::clone(&parked), Arc::clone(&release));
    store.set_flush_hook(Some(Arc::new(move |point| {
        if point == FlushPoint::WalArenaSwap && !parked_in_hook.swap(true, Ordering::SeqCst) {
            while !release_in_hook.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
    })));
    let (_, ack) = store.log_commit_deferred(sketch.items_inserted()).unwrap();
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| store.ack_commit(ack));
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let committer = scope.spawn(|| store.ack_commit(ack));
        while metrics::get(&store.counters.wal_group_waits) == 0 {
            std::thread::yield_now();
        }
        release.store(true, Ordering::SeqCst);
        leader.join().unwrap().unwrap();
        committer.join().unwrap().unwrap();
    });
    store.set_flush_hook(None);
    sketch.insert_batch(&wired_stream(100));
    sketch.sync().unwrap_err();
    for (field, value) in runtime_fields(&sketch.detailed_stats()) {
        assert!(value > 0, "{field} is not wired: {:?}", sketch.detailed_stats());
    }
    drop(sketch);
    remove(&path);

    // A sharded build's totals are its shards' totals, one counter set per shard.
    let base = temp_path("wired-sharded");
    let storage = StorageBackend::File { path: base.clone(), cache_pages: 2 };
    let sharded = GssSketch::builder()
        .width(32)
        .storage(storage)
        .group_commit(GroupCommit { max_delay_us: 0, max_bytes: 0 })
        .build_sharded(3)
        .unwrap();
    sharded.insert_batch(&items);
    sharded.sync().unwrap();
    let mut summed = [0u64; 13];
    for index in 0..3 {
        let shard = sharded.with_shard_read(index, |shard| runtime_fields(&shard.detailed_stats()));
        for (total, (_, value)) in summed.iter_mut().zip(shard) {
            *total += value;
        }
    }
    assert_eq!(runtime_fields(&sharded.detailed_stats()).map(|(_, value)| value), summed);
    assert!(summed[7] > 0, "the shards did page traffic");
    drop(sharded);
    for index in 0..3 {
        remove(&base.with_file_name(format!(
            "{}.shard{index}",
            base.file_name().unwrap().to_string_lossy()
        )));
    }

    // An in-memory sketch has no store: every runtime field reads 0.
    let mut memory = GssSketch::builder().width(32).build().unwrap();
    memory.insert_batch(&items);
    for (field, value) in runtime_fields(&memory.detailed_stats()) {
        assert_eq!(value, 0, "{field} of an in-memory sketch");
    }
}

/// FNV-1a over a whole file.  Not CRC32: every log frame ends in its own CRC32, which
/// makes a CRC32 of the whole log depend on nothing but its length.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The bytes a fixed single-threaded stream leaves in the sketch file and its log, pinned
/// where earlier refactors compared them by hand: batched and single inserts through a
/// 2-page cache (evictions write pages back mid-stream), buckets straddling pages
/// (`l = 3`), buffer spills, a mid-stream checkpoint, then a crash.  The constants were
/// generated at the commit before the room kernels were shared between the backends; a
/// deliberate format change (a v3 layout) regenerates them.
#[test]
fn a_fixed_stream_leaves_pinned_file_and_log_bytes() {
    let path = temp_path("golden-bytes");
    let storage = StorageBackend::File { path: path.clone(), cache_pages: 2 };
    let mut sketch = GssSketch::builder()
        .width(30)
        .rooms(3)
        .storage(storage)
        .group_commit(GroupCommit { max_delay_us: 0, max_bytes: 0 })
        .build()
        .unwrap();
    let items: Vec<StreamEdge> = (0..4000u64)
        .map(|t| StreamEdge::new(t % 2500 * 7 % 997, t % 2500 * 13 % 1009, t, (t % 5) as i64 + 1))
        .collect();
    sketch.insert_batch(&items[..1500]);
    for item in &items[1500..2000] {
        sketch.insert(item.source, item.destination, item.weight);
    }
    sketch.sync().unwrap();
    for chunk in items[2000..].chunks(256) {
        sketch.insert_batch(chunk);
    }
    assert!(sketch.buffered_edges() > 0, "the stream spills into the buffer");
    sketch.abandon();
    let file = std::fs::read(&path).unwrap();
    let log = std::fs::read(wal_path(&path)).unwrap();
    assert_eq!((crate::wal::crc32(&file), file.len()), (0xbbe0_4030, 69_336), "sketch file");
    assert_eq!((fnv1a(&log), log.len()), (0x1744_d391_bc86_b634, 58_112), "log");
    remove(&path);
}
