//! End-to-end crash recovery: a file-backed sketch killed at *any* durability point must
//! reopen via write-ahead-log replay with the documented guarantees — zero acknowledged
//! loss, and one-sided answers (never an under-estimate, never a lost edge) for every
//! recovered item.
//!
//! Kill points are simulated two ways:
//!
//! * [`GssSketch::abandon`] drops the sketch with no checkpoint — the steady-state
//!   mid-ingest crash;
//! * an injectable [`FlushHook`] snapshots the sketch file **and** its log at a chosen
//!   [`FlushPoint`] occurrence (everything below the point is on disk, nothing above it
//!   is), covering the windows *between* a WAL append, a page write-back and the tail
//!   rewrite — exactly the orderings the recovery protocol must tolerate.

use gss::prelude::*;
use gss_core::wal_path;
use gss_core::{Durability, FlushPoint, GroupCommit};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-crash-recovery-{}-{name}.gss", std::process::id()))
}

fn remove(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

/// The deterministic stream shared by ingest and verification.
fn stream(count: usize) -> Vec<(u64, u64, i64)> {
    let mut state = 0x5EED_u64;
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 500, (state >> 17) % 500, (state % 7) as i64 + 1)
        })
        .collect()
}

/// Small matrix + tiny cache: buffer spills and page evictions both happen mid-stream.
fn build(path: &Path) -> GssSketch {
    GssSketch::with_storage(
        GssConfig::paper_small(24),
        StorageBackend::File { path: path.to_path_buf(), cache_pages: 2 },
    )
    .unwrap()
}

/// Asserts the recovered sketch answers one-sidedly for its recovered prefix: every
/// edge of the first `recovered` items is present with at least its exact weight.
fn assert_no_loss(sketch: &GssSketch, items: &[(u64, u64, i64)]) {
    let recovered = sketch.items_inserted() as usize;
    assert!(recovered <= items.len(), "replay never invents items");
    let mut exact: HashMap<(u64, u64), i64> = HashMap::new();
    for &(source, destination, weight) in &items[..recovered] {
        *exact.entry((source, destination)).or_insert(0) += weight;
    }
    for (&(source, destination), &weight) in &exact {
        let reported = sketch
            .edge_weight(source, destination)
            .unwrap_or_else(|| panic!("edge ({source}, {destination}) lost in recovery"));
        assert!(
            reported >= weight,
            "edge ({source}, {destination}) under-estimated after recovery: \
             {reported} < {weight}"
        );
    }
}

#[test]
fn strict_crash_loses_no_acknowledged_item() {
    let path = temp_path("strict-no-loss");
    let items = stream(3_000);
    let mut sketch = build(&path);
    for &(s, d, w) in &items {
        sketch.insert(s, d, w);
    }
    assert!(sketch.buffered_edges() > 0, "the crash must cover buffer state too");
    sketch.abandon();
    let recovered = GssSketch::open_file(&path, 8).expect("strict crash recovers");
    assert_eq!(recovered.items_inserted(), items.len() as u64, "zero item loss");
    assert_no_loss(&recovered, &items);
    // Successor/precursor answers survive too (the node table is WAL-covered).
    assert!(!recovered.successors(items[0].0).is_empty());
    drop(recovered);
    remove(&path);
}

#[test]
fn snapshot_restored_onto_a_file_backend_survives_a_crash_before_first_sync() {
    let path = temp_path("restore-crash");
    let items = stream(3_000);
    let mut source = GssSketch::new(GssConfig::paper_small(24)).unwrap();
    for &(s, d, w) in &items {
        source.insert(s, d, w);
    }
    assert!(source.buffered_edges() > 0, "the snapshot must carry buffer content");
    let snapshot = source.to_snapshot();
    // Restore straight onto a file backend (the larger-than-RAM path), then crash
    // immediately: the streamed tail bypassed the WAL, so the restore itself must have
    // checkpointed — recovery may not come up with an empty buffer or node table.
    let restored = GssSketch::read_snapshot_into(
        snapshot.as_slice(),
        StorageBackend::File { path: path.clone(), cache_pages: 8 },
    )
    .unwrap();
    let expected_buffered = restored.buffered_edges();
    restored.abandon();
    let recovered = GssSketch::open_file(&path, 8).expect("crashed restore recovers");
    assert_eq!(recovered.items_inserted(), items.len() as u64);
    assert_eq!(recovered.buffered_edges(), expected_buffered, "buffer survives the crash");
    assert_no_loss(&recovered, &items);
    assert_eq!(recovered.successors(items[0].0), source.successors(items[0].0));
    drop(recovered);
    remove(&path);
}

#[test]
fn the_wal_is_bounded_by_automatic_checkpoints() {
    let path = temp_path("auto-checkpoint");
    let items = stream(4_000);
    let mut sketch = build(&path);
    // A tiny bound: a long sync-less ingest must checkpoint itself repeatedly instead
    // of growing the sidecar log without limit.
    sketch.set_wal_checkpoint_bytes(16 * 1024);
    for &(s, d, w) in &items {
        sketch.insert(s, d, w);
    }
    let stats = sketch.detailed_stats();
    assert!(
        stats.checkpoints >= 2,
        "expected repeated automatic checkpoints, saw {}",
        stats.checkpoints
    );
    assert!(
        stats.wal_bytes < 64 * 1024,
        "log must stay near its bound, holds {} bytes",
        stats.wal_bytes
    );
    // Crash after the last auto-checkpoint: still zero loss (the log covers the rest).
    sketch.abandon();
    let recovered = GssSketch::open_file(&path, 8).expect("recovery succeeds");
    assert_eq!(recovered.items_inserted(), items.len() as u64);
    assert_no_loss(&recovered, &items);
    drop(recovered);
    remove(&path);
}

#[test]
fn recovered_files_are_clean_and_reopen_without_replay() {
    let path = temp_path("recover-then-clean");
    let items = stream(1_500);
    let mut sketch = build(&path);
    for &(s, d, w) in &items {
        sketch.insert(s, d, w);
    }
    sketch.abandon();
    drop(GssSketch::open_file(&path, 8).expect("first open recovers"));
    // Recovery checkpointed the file: the log is empty and the second open is clean.
    let wal = std::fs::read(wal_path(&path)).unwrap();
    assert_eq!(wal.len(), 8, "recovery truncates the log to its magic");
    let again = GssSketch::open_file(&path, 8).expect("second open is a plain clean open");
    assert_eq!(again.items_inserted(), items.len() as u64);
    drop(again);
    remove(&path);
}

/// Snapshots the file + log at the `occurrence`-th firing of `point` during an ingest
/// run, then proves the snapshot — a byte-exact crash image at that boundary — recovers
/// with one-sided answers.
fn kill_at(point: FlushPoint, occurrence: u64, items: &[(u64, u64, i64)]) {
    let label = format!("killpoint-{point:?}-{occurrence}");
    let path = temp_path(&label);
    let copy = temp_path(&format!("{label}-copy"));
    let mut sketch = build(&path);
    let fired = Arc::new(AtomicU64::new(0));
    {
        let fired = Arc::clone(&fired);
        let (path, copy) = (path.clone(), copy.clone());
        sketch.room_storage().as_file().expect("file-backed").set_flush_hook(Some(Arc::new(
            move |seen| {
                if seen == point && fired.fetch_add(1, Ordering::Relaxed) + 1 == occurrence {
                    std::fs::copy(&path, &copy).expect("snapshot sketch file");
                    std::fs::copy(wal_path(&path), wal_path(&copy)).expect("snapshot log");
                }
            },
        )));
    }
    for &(s, d, w) in items {
        sketch.insert(s, d, w);
    }
    sketch.sync().expect("final checkpoint fires the tail/checkpoint points");
    drop(sketch);
    assert!(
        fired.load(Ordering::Relaxed) >= occurrence,
        "flush point {point:?} fired only {} times",
        fired.load(Ordering::Relaxed)
    );
    let recovered = GssSketch::open_file(&copy, 8)
        .unwrap_or_else(|error| panic!("kill at {point:?} #{occurrence} unrecoverable: {error}"));
    assert_no_loss(&recovered, items);
    drop(recovered);
    remove(&path);
    remove(&copy);
}

#[test]
fn kill_points_between_wal_append_page_writeback_and_tail_rewrite_all_recover() {
    let items = stream(2_000);
    // WalArenaSwap fires at the group-commit window boundary (the pending arena has
    // been swapped but not yet written — a kill here loses the whole window, which by
    // the ack protocol contains no acknowledged commit); WalFlush fires per insert
    // (strict drains at commit); PageWriteBack on each cache eviction;
    // TailWrite/CheckpointDone inside the final sync.  Early, mid-stream and late
    // occurrences sample different interleavings of dirty pages vs logged frames.
    for (point, occurrences) in [
        (FlushPoint::WalArenaSwap, &[1u64, 100, 1_500][..]),
        (FlushPoint::WalFlush, &[1u64, 100, 1_500][..]),
        (FlushPoint::PageWriteBack, &[1, 50, 500][..]),
        (FlushPoint::TailWrite, &[1][..]),
        (FlushPoint::CheckpointDone, &[1][..]),
    ] {
        for &occurrence in occurrences {
            kill_at(point, occurrence, &items);
        }
    }
}

/// `<base>.shard<index>`, where a sharded file-backed store keeps shard `index`.
fn shard_path(base: &Path, index: usize) -> PathBuf {
    base.with_file_name(format!("{}.shard{index}", base.file_name().unwrap().to_string_lossy()))
}

/// What the hooks of [`a_checkpoint_waits_out_another_writers_in_flight_round`] share.
#[derive(Default)]
struct Scene {
    /// Set once batch 1 is acknowledged: the next arena swap on any shard parks.
    armed: AtomicBool,
    /// The shard whose round is parked (`usize::MAX` until one parks).
    parked: AtomicUsize,
    /// Raised by the test to let the parked round go on.
    released: Mutex<bool>,
    wake: Condvar,
    /// Tail rewrites seen, by shard.
    tail_writes: Mutex<Vec<usize>>,
    /// Whether writer A had returned when the crash image was taken (`None`: not taken).
    copied_after_a: Mutex<Option<bool>>,
    a_returned: AtomicBool,
}

/// `ShardedGss` acknowledges its shards' commits outside the shard locks a checkpoint
/// takes, so a `sync` can start while another writer's drain round has swapped its log
/// arena out but not yet written it.  A checkpoint that synced past that round would leave
/// a hole in front of its TAIL frame — replay stops at a hole — and then rewrite the file's
/// tail.  Writer A's round parks at its arena swap while thread B syncs: B must not reach
/// the tail rewrite of A's shard while A is parked, and a crash image of every shard taken
/// at that tail rewrite recovers every acknowledged item.
#[test]
fn a_checkpoint_waits_out_another_writers_in_flight_round() {
    const SHARDS: usize = 2;
    let (base, copy) = (temp_path("in-flight-round"), temp_path("in-flight-round-copy"));
    // A cache larger than the matrix: no eviction drains during staging, so the first
    // round after arming is writer A's lock-free acknowledgement.
    let sharded = GssBuilder::from_config(GssConfig::paper_small(24))
        .storage(StorageBackend::File { path: base.clone(), cache_pages: 1024 })
        .build_sharded(SHARDS)
        .unwrap();
    let items = stream(3_000);
    let edges = |range: std::ops::Range<usize>| -> Vec<StreamEdge> {
        items[range].iter().map(|&(s, d, w)| StreamEdge::new(s, d, 0, w)).collect()
    };
    let scene = Arc::new(Scene { parked: AtomicUsize::new(usize::MAX), ..Scene::default() });
    for index in 0..SHARDS {
        let (scene, base, copy) = (Arc::clone(&scene), base.clone(), copy.clone());
        let hook = move |point| match point {
            FlushPoint::WalArenaSwap if scene.armed.swap(false, Ordering::SeqCst) => {
                scene.parked.store(index, Ordering::SeqCst);
                let mut released = scene.released.lock().unwrap();
                while !*released {
                    released = scene.wake.wait(released).unwrap();
                }
            }
            FlushPoint::TailWrite => {
                scene.tail_writes.lock().unwrap().push(index);
                let mut copied = scene.copied_after_a.lock().unwrap();
                if index == scene.parked.load(Ordering::SeqCst) && copied.is_none() {
                    *copied = Some(scene.a_returned.load(Ordering::SeqCst));
                    for shard in 0..SHARDS {
                        let (from, to) = (shard_path(&base, shard), shard_path(&copy, shard));
                        std::fs::copy(&from, &to).expect("copy the sketch file");
                        std::fs::copy(wal_path(&from), wal_path(&to)).expect("copy the log");
                    }
                }
            }
            _ => {}
        };
        sharded.with_shard_read(index, |shard| {
            shard.room_storage().as_file().unwrap().set_flush_hook(Some(Arc::new(hook)))
        });
    }
    sharded.insert_batch(&edges(0..1_500));
    scene.armed.store(true, Ordering::SeqCst);
    std::thread::scope(|threads| {
        let writer_a = threads.spawn(|| {
            sharded.insert_batch(&edges(1_500..3_000));
            scene.a_returned.store(true, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while scene.parked.load(Ordering::SeqCst) == usize::MAX {
            assert!(Instant::now() < deadline, "writer A never led a drain round");
            std::thread::sleep(Duration::from_millis(1));
        }
        let parked = scene.parked.load(Ordering::SeqCst);
        let syncer_b = threads.spawn(|| sharded.sync().expect("checkpoint every shard"));
        // Correct code never rewrites the parked shard's tail here; code that syncs past
        // the in-flight round does so at once.  A is released before the verdict, so a
        // failure reports instead of hanging the scope.
        let watch = Instant::now() + Duration::from_millis(300);
        let mut early = false;
        while Instant::now() < watch && !early {
            early = scene.tail_writes.lock().unwrap().contains(&parked);
            std::thread::sleep(Duration::from_millis(1));
        }
        *scene.released.lock().unwrap() = true;
        scene.wake.notify_all();
        writer_a.join().unwrap();
        syncer_b.join().unwrap();
        assert!(
            !early,
            "shard {parked}'s tail was rewritten while its log held an unwritten round"
        );
    });
    let copied_after_a = scene.copied_after_a.lock().unwrap().expect("a crash image was taken");
    let acknowledged = if copied_after_a { 3_000 } else { 1_500 };
    let recovered =
        ShardedGss::open_sharded(&copy, SHARDS, 64, Durability::Strict, GroupCommit::default())
            .expect("the crash image taken at the tail rewrite recovers");
    let mut exact: HashMap<(u64, u64), i64> = HashMap::new();
    for &(source, destination, weight) in &items[..acknowledged] {
        *exact.entry((source, destination)).or_insert(0) += weight;
    }
    for (&(source, destination), &weight) in &exact {
        let reported = recovered.edge_weight(source, destination).unwrap_or(0);
        assert!(reported >= weight, "edge ({source}, {destination}): {reported} < {weight}");
    }
    drop((recovered, sharded));
    for index in 0..SHARDS {
        remove(&shard_path(&base, index));
        remove(&shard_path(&copy, index));
    }
}
