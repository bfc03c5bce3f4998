//! Acceptance property for the pluggable storage layer: **the backend is unobservable**.
//!
//! For any insert sequence and configuration:
//!
//! 1. a `MemoryStore` sketch and a `FileStore` sketch answer edge-weight, successor and
//!    precursor queries identically;
//! 2. dropping the file-backed sketch and reopening its file in place
//!    ([`GssSketch::open_file`]) preserves configuration, matrix rooms, buffered edges,
//!    the `⟨H(v), v⟩` node table and the item counter;
//! 3. a streamed snapshot round-trip ([`write_snapshot_to`] → [`read_snapshot_from`])
//!    preserves the same state, for both backends.
//!
//! [`GssSketch::open_file`]: gss_core::GssSketch::open_file
//! [`write_snapshot_to`]: gss_core::GssSketch::write_snapshot_to
//! [`read_snapshot_from`]: gss_core::GssSketch::read_snapshot_from

use gss::prelude::*;
use gss_core::{ShardedGss, StorageBackend};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Unique sketch-file paths across proptest cases (cases run in one process).
fn fresh_path() -> PathBuf {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "gss-storage-equivalence-{}-{}.gss",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Strategy: a stream of up to `len` items over a vertex universe of `vertices`
/// (weights include negatives, so deletions are exercised too).
fn stream_strategy(vertices: u64, len: usize) -> impl Strategy<Value = Vec<(u64, u64, i64)>> {
    prop::collection::vec((0..vertices, 0..vertices, -5..50i64), 1..len)
}

/// Strategy: configurations from the interesting corners, kept small enough that the
/// file-backed matrix plus an intentionally tiny page cache still forces eviction.
fn config_strategy() -> impl Strategy<Value = GssConfig> {
    (
        4usize..32,                               // width
        prop::sample::select(vec![8u32, 12, 16]), // fingerprint bits
        1usize..3,                                // rooms
        prop::sample::select(vec![1usize, 4, 8]), // sequence length
        any::<bool>(),                            // sampling
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
                hash_seed: 0x5709_0A6E,
            }
        })
}

/// Asserts that two sketches are observationally identical over the touched vertex set.
fn assert_same_answers(a: &GssSketch, b: &GssSketch, items: &[(u64, u64, i64)], label: &str) {
    assert_eq!(a.config(), b.config(), "{label}: config");
    assert_eq!(a.items_inserted(), b.items_inserted(), "{label}: item counter");
    assert_eq!(a.stored_edges(), b.stored_edges(), "{label}: stored edges");
    assert_eq!(a.buffered_edges(), b.buffered_edges(), "{label}: buffered edges");
    for &(source, destination, _) in items {
        assert_eq!(
            a.edge_weight(source, destination),
            b.edge_weight(source, destination),
            "{label}: edge ({source}, {destination})"
        );
        assert_eq!(a.successors(source), b.successors(source), "{label}: successors {source}");
        assert_eq!(
            a.precursors(destination),
            b.precursors(destination),
            "{label}: precursors {destination}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn file_and_memory_backends_are_observationally_identical(
        items in stream_strategy(150, 300),
        config in config_strategy(),
    ) {
        let path = fresh_path();
        let mut memory = GssSketch::new(config).unwrap();
        // cache_pages = 2 keeps the cache far below the matrix, forcing eviction traffic.
        let mut file = GssSketch::with_storage(
            config,
            StorageBackend::File { path: path.clone(), cache_pages: 2 },
        )
        .unwrap();
        for &(s, d, w) in &items {
            memory.insert(s, d, w);
            file.insert(s, d, w);
        }
        assert_same_answers(&memory, &file, &items, "memory vs file");

        // Drop-then-reopen: the sketch file is its own checkpoint.
        drop(file);
        let reopened = GssSketch::open_file(&path, 2).unwrap();
        assert_same_answers(&memory, &reopened, &items, "memory vs reopened file");

        // Streamed snapshot round-trips for both backends.
        let mut bytes = Vec::new();
        memory.write_snapshot_to(&mut bytes).unwrap();
        let restored = GssSketch::read_snapshot_from(bytes.as_slice()).unwrap();
        assert_same_answers(&memory, &restored, &items, "memory vs snapshot");

        let mut file_bytes = Vec::new();
        reopened.write_snapshot_to(&mut file_bytes).unwrap();
        prop_assert_eq!(&bytes, &file_bytes, "backends must snapshot to identical bytes");
        drop(reopened);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(gss_core::wal::wal_path(&path)).ok();
    }

    #[test]
    fn batched_ingest_is_backend_agnostic_too(
        items in stream_strategy(100, 400),
        config in config_strategy(),
    ) {
        let path = fresh_path();
        let edges: Vec<StreamEdge> = items
            .iter()
            .enumerate()
            .map(|(t, &(s, d, w))| StreamEdge::new(s, d, t as u64, w))
            .collect();
        let mut memory = GssSketch::new(config).unwrap();
        let mut file = GssSketch::with_storage(
            config,
            StorageBackend::File { path: path.clone(), cache_pages: 3 },
        )
        .unwrap();
        for chunk in edges.chunks(61) {
            memory.insert_batch(chunk);
            file.insert_batch(chunk);
        }
        assert_same_answers(&memory, &file, &items, "batched memory vs file");
        drop(file);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(gss_core::wal::wal_path(&path)).ok();
    }
}

/// Deterministic pseudo-random stream (LCG): same items in every run, so the exact
/// per-edge weight reference below is reproducible.
fn deterministic_stream(count: usize, vertices: u64, seed: u64) -> Vec<(u64, u64, i64)> {
    let mut state = seed;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..count)
        .map(|_| {
            let source = step() % vertices;
            let destination = step() % vertices;
            let weight = (step() % 9) as i64 + 1;
            (source, destination, weight)
        })
        .collect()
}

/// Exact per-edge totals of a stream — what every backend must answer (the fixed hash
/// seed and a tiny vertex universe make fingerprint collisions deterministic absences).
fn exact_weights(items: &[(u64, u64, i64)]) -> HashMap<(u64, u64), i64> {
    let mut totals = HashMap::new();
    for &(source, destination, weight) in items {
        *totals.entry((source, destination)).or_insert(0) += weight;
    }
    totals
}

fn assert_matches_reference(
    label: &str,
    reference: &HashMap<(u64, u64), i64>,
    lookup: &dyn Fn(u64, u64) -> Option<i64>,
) {
    for (&(source, destination), &weight) in reference {
        assert_eq!(
            lookup(source, destination),
            Some(weight),
            "{label}: edge ({source}, {destination})"
        );
    }
}

fn shard_path(base: &std::path::Path, index: usize) -> PathBuf {
    base.with_file_name(format!("{}.shard{index}", base.file_name().unwrap().to_string_lossy()))
}

/// The concurrency acceptance property: M writer threads and N reader threads over one
/// file-backed sharded sketch (tiny page caches, so faults, evictions and write-back all
/// run under contention) leave exactly the state a memory sketch and an exact reference
/// hold — live, and again after drop-and-reopen.
#[test]
fn concurrent_writers_and_readers_match_memory_and_reopen() {
    const WRITERS: usize = 3;
    const READERS: usize = 4;
    const SHARDS: usize = 3;
    let base = std::env::temp_dir().join(format!("gss-stress-rw-{}.gss", std::process::id()));
    let config = GssConfig::paper_small(24);
    let items = deterministic_stream(3_000, 48, 0x5EED_CAFE);
    let reference = exact_weights(&items);

    let sharded = ShardedGss::with_storage(
        config,
        SHARDS,
        &StorageBackend::File { path: base.clone(), cache_pages: 4 },
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let sharded = sharded.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let vertex = (rounds * 13 + t as u64) % 48;
                    // Raced queries can't assert values, but must never panic, deadlock
                    // or return malformed results (successors are sorted and deduped).
                    let successors = sharded.successors(vertex);
                    assert!(successors.windows(2).all(|w| w[0] < w[1]));
                    sharded.edge_weight(vertex, (vertex + 1) % 48);
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();
    let writers: Vec<_> = items
        .chunks(items.len().div_ceil(WRITERS))
        .map(|chunk| {
            let sharded = sharded.clone();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for (source, destination, weight) in chunk {
                    sharded.insert(source, destination, weight);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "readers made progress during ingest");
    }

    // Live equivalence: the concurrently-built file-backed sketch answers exactly.
    assert_matches_reference("live file-backed", &reference, &|s, d| sharded.edge_weight(s, d));
    // And so does a memory-backed sketch fed the same items (single-threaded): the
    // backends agree with each other through the shared reference.
    let mut memory = GssSketch::new(config).unwrap();
    for &(s, d, w) in &items {
        memory.insert(s, d, w);
    }
    assert_matches_reference("memory", &reference, &|s, d| memory.edge_weight(s, d));
    let stats = sharded.detailed_stats();
    assert!(stats.page_lookups > 0, "file shards served reads through the page cache");
    assert!(stats.page_faults > 0, "tiny caches must fault");
    assert_eq!(stats.items_inserted, items.len() as u64);

    // The runtime lock-order witness watched every acquisition above: the contended
    // stripe/latch/WAL traffic must leave its lock-class graph acyclic, and the load
    // must actually have exercised those classes (otherwise the check is vacuous).
    #[cfg(debug_assertions)]
    {
        use gss_core::pager::witness::{self, LockClass};
        let report = witness::report();
        assert!(report.is_acyclic(), "lock-order cycle observed: {:?}", report.cycle());
        assert!(report.acquisitions_of(LockClass::StripeMap) > 0, "stripe locks were taken");
        assert!(report.acquisitions_of(LockClass::PageLatch) > 0, "page latches were taken");
        assert!(report.acquisitions_of(LockClass::WalAppend) > 0, "WAL appends were logged");
    }

    drop(sharded); // drop checkpoints every shard file
    let mut total_items = 0;
    let mut reopened = Vec::new();
    for index in 0..SHARDS {
        let shard = GssSketch::open_file(shard_path(&base, index), 4).unwrap();
        total_items += shard.items_inserted();
        reopened.push(shard);
    }
    assert_eq!(total_items, items.len() as u64);
    assert_matches_reference("reopened shards", &reference, &|s, d| {
        reopened.iter().filter_map(|shard| shard.edge_weight(s, d)).reduce(|a, b| a + b)
    });
    for index in 0..SHARDS {
        std::fs::remove_file(shard_path(&base, index)).ok();
        std::fs::remove_file(gss_core::wal::wal_path(&shard_path(&base, index))).ok();
    }
}

/// Crash half of the property: concurrent writers, then a simulated kill (no checkpoint)
/// — reopening recovers every acknowledged insert from the write-ahead logs.
#[test]
fn concurrent_strict_writers_lose_nothing_across_a_simulated_crash() {
    const WRITERS: usize = 3;
    const SHARDS: usize = 2;
    let base = std::env::temp_dir().join(format!("gss-stress-crash-{}.gss", std::process::id()));
    let config = GssConfig::paper_small(24);
    let items = deterministic_stream(800, 32, 0xDEAD_5EED);
    let reference = exact_weights(&items);

    let sharded = ShardedGss::with_storage(
        config,
        SHARDS,
        &StorageBackend::File { path: base.clone(), cache_pages: 4 },
    )
    .unwrap();
    let writers: Vec<_> = items
        .chunks(items.len().div_ceil(WRITERS))
        .map(|chunk| {
            let sharded = sharded.clone();
            let chunk = chunk.to_vec();
            std::thread::spawn(move || {
                for (source, destination, weight) in chunk {
                    // Strict: each insert is acknowledged durable when it returns.
                    sharded.insert(source, destination, weight);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    sharded.abandon().expect("writer handles were dropped with their threads");

    // Same witness check over the strict-durability path (WAL fsync per insert).
    #[cfg(debug_assertions)]
    {
        use gss_core::pager::witness;
        let report = witness::report();
        assert!(report.is_acyclic(), "lock-order cycle observed: {:?}", report.cycle());
    }

    let mut reopened = Vec::new();
    for index in 0..SHARDS {
        // The abandoned shards never checkpointed: this open goes through WAL replay.
        reopened.push(GssSketch::open_file(shard_path(&base, index), 4).unwrap());
    }
    assert_eq!(
        reopened.iter().map(GssSketch::items_inserted).sum::<u64>(),
        items.len() as u64,
        "every acknowledged item survived the crash"
    );
    assert_matches_reference("recovered shards", &reference, &|s, d| {
        reopened.iter().filter_map(|shard| shard.edge_weight(s, d)).reduce(|a, b| a + b)
    });
    for index in 0..SHARDS {
        std::fs::remove_file(shard_path(&base, index)).ok();
        std::fs::remove_file(gss_core::wal::wal_path(&shard_path(&base, index))).ok();
    }
}
