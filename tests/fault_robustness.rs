//! I/O-fault robustness: arbitrary deterministic fault schedules ([`FaultPlan`])
//! injected beneath a file-backed sketch must never panic, never produce a false
//! acknowledgement, and always leave a reopenable-or-honestly-reported store behind.
//!
//! Three layers of guarantee, each its own property:
//!
//! * **Hard faults fail stop.** `EIO`/`ENOSPC`/torn writes at arbitrary occurrences
//!   poison the store: the failing `try_insert` returns a typed
//!   [`GssError::StoreFailed`], every later write is rejected with the same sticky
//!   cause, reads keep serving from cache, and the [`DurabilityReport`] is coherent
//!   (`durable ≤ acked`, `breached = acked − durable`).
//! * **No false acks across reopen.** After the fault clears (guard dropped), a
//!   successful reopen recovers at least every item the report counted durable; a
//!   failed reopen is only acceptable when the store had already confessed to the
//!   fault by poisoning itself.
//! * **Transient faults are invisible.** `EINTR`/short-read schedules complete the
//!   whole ingest with `io_retries` counted in [`GssStats`] and no poisoning.

use gss::prelude::*;
use gss_core::wal::wal_path;
use gss_core::{
    install_fault_plan, DurabilityReport, FaultKind, FaultOp, FaultPlan, FaultSite, GssError,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Items each schedule attempts to ingest — enough WAL/page traffic that most
/// scheduled occurrences are actually reached.
const ATTEMPTED_ITEMS: u64 = 600;

fn fault_config() -> GssConfig {
    // Small matrix + tiny cache: forces page-cache misses (read traffic), buffer
    // spills (extra WAL frames) and frequent write-back (write traffic).
    GssConfig::paper_small(24)
}

/// A unique sketch path whose file name doubles as the fault-plan token.
fn unique_path(tag: &str) -> (PathBuf, String) {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    let token = format!("gss-faultrobust-{tag}-{}-{sequence}", std::process::id());
    (std::env::temp_dir().join(format!("{token}.gss")), token)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

/// Deterministic edge stream shared by ingest and verification.
fn edge(state: &mut u64) -> (u64, u64, i64) {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) % 300, (*state >> 17) % 300, (*state % 7) as i64 + 1)
}

/// Strategy: one hard-fault site (`eio`/`enospc` on any write-side op, `torn` on
/// positioned writes only — tearing a sync has no meaning).
fn hard_site() -> impl Strategy<Value = FaultSite> {
    (0usize..5, 0usize..3, 1u64..400).prop_map(|(op, kind, at)| {
        let op =
            [FaultOp::Write, FaultOp::SyncData, FaultOp::SyncAll, FaultOp::SetLen, FaultOp::Write]
                [op];
        let kind = match kind {
            0 => FaultKind::Eio,
            1 => FaultKind::Enospc,
            _ if op == FaultOp::Write => FaultKind::TornWrite,
            _ => FaultKind::Eio,
        };
        FaultSite { op, kind, at }
    })
}

/// Strategy: one transient site (`eintr` on reads/writes, `short` on reads).  Syncs
/// are excluded: an interrupted fsync is *hard* by design — after any fsync failure
/// the kernel may have cleared dirty flags, so the page layer never retries it.
/// Occurrence numbers stay low enough that the schedule actually fires during the run.
fn transient_site() -> impl Strategy<Value = FaultSite> {
    (0usize..2, any::<bool>(), 1u64..40).prop_map(|(op, short, at)| {
        let op = [FaultOp::Read, FaultOp::Write][op];
        let kind =
            if short && op == FaultOp::Read { FaultKind::ShortRead } else { FaultKind::Eintr };
        FaultSite { op, kind, at }
    })
}

/// Ingests under the schedule and returns `(acked, first fault seen, report)`, holding
/// every read to an exact model of the acknowledged items on the way.  Panics anywhere
/// are test failures.
fn run_hard_schedule(path: &Path, seed: u64) -> (u64, bool, DurabilityReport) {
    let sketch = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: path.to_path_buf(), cache_pages: 4 },
    );
    let Ok(mut sketch) = sketch else {
        // The schedule hit file creation itself: a typed error, nothing durable,
        // nothing acknowledged — fail-stop at birth is a clean outcome.
        return (0, false, DurabilityReport::default());
    };
    let mut state = seed | 1;
    let mut acked = 0u64;
    let mut model = std::collections::HashMap::new();
    let mut faulted = false;
    for _ in 0..ATTEMPTED_ITEMS {
        let (source, destination, weight) = edge(&mut state);
        match sketch.try_insert(source, destination, weight) {
            Ok(()) => {
                acked += 1;
                *model.entry((source, destination)).or_insert(0i64) += weight;
            }
            Err(GssError::StoreFailed(_)) => {
                faulted = true;
                break;
            }
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
    if faulted {
        // Fail-stop is sticky: the store rejects new writes with the same cause...
        prop_assert!(sketch.is_poisoned(), "a StoreFailed insert must poison the store");
        prop_assert!(
            matches!(sketch.try_insert(1, 2, 3), Err(GssError::StoreFailed(_))),
            "poisoned store must reject writes"
        );
        let stats = sketch.detailed_stats();
        prop_assert_eq!(stats.store_poisoned, 1);
        prop_assert!(stats.injected_faults >= 1, "poison without an injected fault");
    }
    // ...while reads keep serving, and keep the paper's one-sided error: every
    // acknowledged edge is still there at no less than its exact weight — poisoned or
    // not, whichever of cache and file image each page is now read from.
    for (&(source, destination), &weight) in &model {
        let stored = sketch.edge_weight(source, destination);
        prop_assert!(
            stored.is_some_and(|stored| stored >= weight),
            "acknowledged edge {source}->{destination} (weight {weight}) reads {stored:?} \
             (faulted: {faulted})"
        );
        prop_assert!(
            sketch.successors(source).contains(&destination),
            "acknowledged neighbour {destination} missing from successors({source})"
        );
    }
    let report = sketch.durability_report();
    prop_assert_eq!(report.poisoned, faulted, "report and observed fail-stop agree");
    prop_assert!(report.durable_items <= report.acked_items, "durable is a prefix of acked");
    if report.poisoned {
        prop_assert_eq!(
            report.breached_items,
            report.acked_items - report.durable_items,
            "breach count must equal the acked-but-not-durable difference"
        );
    } else {
        prop_assert_eq!(report.breached_items, 0, "no breach without a fault");
    }
    // Simulated crash: walk away without the destructor's checkpoint.
    sketch.abandon();
    (acked, faulted, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary hard-fault schedules: ingest fail-stops (or completes, when the
    /// scheduled occurrences are never reached), the report stays coherent, and a
    /// post-fault reopen never loses an item the report called durable.
    #[test]
    fn hard_fault_schedules_fail_stop_without_false_acks(
        sites in prop::collection::vec(hard_site(), 1..4),
        seed in any::<u64>(),
    ) {
        let (path, token) = unique_path("hard");
        let guard = install_fault_plan(FaultPlan::for_path_token(&token, sites));
        let outcome = std::panic::catch_unwind(|| run_hard_schedule(&path, seed));
        drop(guard); // clear the schedule before reopening
        let (acked, faulted, report) = match outcome {
            Ok(values) => values,
            Err(panic_payload) => {
                cleanup(&path);
                std::panic::resume_unwind(panic_payload);
            }
        };
        if path.exists() {
            match GssSketch::open_file(&path, 4) {
                Ok(recovered) => {
                    prop_assert!(
                        recovered.items_inserted() >= report.durable_items,
                        "reopen lost durable items: recovered {} < durable {} (acked {acked})",
                        recovered.items_inserted(),
                        report.durable_items,
                    );
                    let _ = recovered.detailed_stats();
                }
                Err(_) => {
                    // A reopen may only fail after the store confessed: an unpoisoned
                    // run abandoned mid-stream is ordinary crash recovery and must work.
                    prop_assert!(
                        faulted,
                        "reopen failed although no hard fault ever fired (acked {acked})"
                    );
                }
            }
        }
        cleanup(&path);
    }

    /// Transient-only schedules are absorbed by the bounded retry layer: every insert
    /// acknowledges, nothing poisons, and the retries are visible in `GssStats`.
    #[test]
    fn transient_schedules_complete_with_counted_retries(
        sites in prop::collection::vec(transient_site(), 1..4),
        seed in any::<u64>(),
    ) {
        let (path, token) = unique_path("transient");
        let guard = install_fault_plan(FaultPlan::for_path_token(&token, sites));
        let mut sketch = GssSketch::with_storage(
            fault_config(),
            StorageBackend::File { path: path.clone(), cache_pages: 4 },
        )
        .expect("transient faults must not fail creation");
        let mut state = seed | 1;
        let mut expected = std::collections::HashMap::new();
        for _ in 0..ATTEMPTED_ITEMS {
            let (source, destination, weight) = edge(&mut state);
            prop_assert!(
                sketch.try_insert(source, destination, weight).is_ok(),
                "transient schedules must never surface an error"
            );
            *expected.entry((source, destination)).or_insert(0i64) += weight;
        }
        prop_assert!(!sketch.is_poisoned());
        let stats = sketch.detailed_stats();
        prop_assert_eq!(stats.store_poisoned, 0);
        if stats.injected_faults > 0 {
            prop_assert!(
                stats.io_retries >= 1,
                "an injected transient fault must be visible as a retry"
            );
        }
        // Point queries agree with the exact stream (GSS is exact up to room sharing;
        // weights only ever over-count, never drop).
        for (&(source, destination), &weight) in expected.iter().take(16) {
            let stored = sketch.edge_weight(source, destination).unwrap_or(0);
            prop_assert!(stored >= weight, "acked weight went missing under retries");
        }
        sketch.sync().expect("clean sync after transient faults");
        drop(sketch);
        drop(guard);
        let recovered = GssSketch::open_file(&path, 4).expect("clean reopen");
        prop_assert_eq!(recovered.items_inserted(), ATTEMPTED_ITEMS);
        cleanup(&path);
    }
}

/// The schedule the random ones may miss: the 13th sketch-file write is an eviction's
/// page write-back.  The cache used to drop the victim before writing it, so the failed
/// write-back threw away the only copy of acknowledged mutations and later reads of
/// that page served the stale file image.
#[test]
fn a_failed_eviction_write_back_loses_no_acknowledged_edge() {
    let (path, token) = unique_path("evict-eio");
    let guard =
        install_fault_plan(FaultPlan::parse("write:eio@13").unwrap().with_path_token(&token));
    let (_, faulted, _) = run_hard_schedule(&path, 0x1234_5679);
    assert!(faulted, "the scheduled write fault must fire within the run");
    drop(guard);
    cleanup(&path);
}

/// The environment-variable spec path (`GSS_FAULT_PLAN`) parses the same grammar the
/// harness ships; a bad spec must be rejected, a good one round-trips.
#[test]
fn fault_plan_spec_grammar_round_trips() {
    let plan = FaultPlan::parse("write:torn@12;sync_data:eio@3;read:short@1").unwrap();
    let guard = install_fault_plan(plan.with_path_token("no-such-file-token"));
    assert_eq!(guard.plan().injected(), 0);
    assert!(FaultPlan::parse("write:eio@0").is_err(), "occurrences are 1-based");
    assert!(FaultPlan::parse("fsync:eio@1").is_err(), "unknown op class");
}

/// Poisoning is per store: a second, healthy sketch in the same process is unaffected
/// by its sibling's fail-stop.
#[test]
fn poisoning_is_scoped_to_the_faulted_store() {
    let (faulted_path, token) = unique_path("scoped");
    let (healthy_path, _) = unique_path("scoped-healthy");
    // Token scoped to the WAL file alone: occurrence 1 is its magic header at create,
    // occurrence 2 the first post-create frame append.
    let guard = install_fault_plan(
        FaultPlan::parse("write:eio@2").unwrap().with_path_token(format!("{token}.gss.wal")),
    );
    let mut faulted = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: faulted_path.clone(), cache_pages: 4 },
    )
    .expect("creation survives (occurrence 1 is the WAL magic)");
    let mut healthy = GssSketch::with_storage(
        fault_config(),
        StorageBackend::File { path: healthy_path.clone(), cache_pages: 4 },
    )
    .expect("untokened sibling resolves no plan");
    let mut state = 7u64;
    let mut poisoned = false;
    for _ in 0..64 {
        let (source, destination, weight) = edge(&mut state);
        if faulted.try_insert(source, destination, weight).is_err() {
            poisoned = true;
            break;
        }
    }
    assert!(poisoned, "the scheduled write fault must fire within the run");
    assert!(faulted.is_poisoned());
    assert!(!healthy.is_poisoned(), "sibling store must stay healthy");
    for _ in 0..64 {
        let (source, destination, weight) = edge(&mut state);
        healthy.try_insert(source, destination, weight).expect("sibling keeps ingesting");
    }
    assert!(healthy.durability_report().breached_items == 0);
    faulted.abandon();
    healthy.abandon();
    drop(guard);
    cleanup(&faulted_path);
    cleanup(&healthy_path);
}

/// Which shard of a 3-shard `ShardedGss` owns each source in `0..sources` (routing
/// depends only on the source id and the shard count, so an in-memory twin tells).
fn shard_owners(sources: u64) -> Vec<usize> {
    let twin = ShardedGss::new(fault_config(), 3).unwrap();
    let items_per_shard =
        || (0..3).map(|i| twin.with_shard_read(i, |s| s.items_inserted())).collect::<Vec<u64>>();
    (0..sources)
        .map(|source| {
            let before = items_per_shard();
            twin.insert(source, source + 1, 1);
            items_per_shard()
                .iter()
                .zip(before)
                .position(|(&after, before)| after > before)
                .unwrap()
        })
        .collect()
}

/// Shards fail independently inside one batch: a fault plan scoped to shard 1's
/// write-ahead log fails that shard alone — `try_insert_batch` returns its fault, the
/// other shards' sub-batches are staged *and* acknowledged, and later batches that
/// touch only healthy shards keep succeeding.  With `contended`, a reader pins shard
/// 0's read lock until the writer has swept the free shards, so shard 0 is committed
/// by the blocking pass and the rest by the opportunistic one.
///
/// One-page caches make every shard evict (and therefore drain its log) while it is
/// still *staging*, so the injected fault fires inside the sweep — the lock-free
/// signal the contended run waits on.
fn sharded_batch_faults_stay_inside_their_shard(contended: bool) {
    const FAULTED: usize = 1;
    let (base, token) = unique_path(if contended { "shards-contended" } else { "shards" });
    // Occurrence 1 is the log's magic header at create, occurrence 2 its first drain.
    let guard = install_fault_plan(
        FaultPlan::parse("write:eio@2")
            .unwrap()
            .with_path_token(format!("{token}.gss.shard{FAULTED}.wal")),
    );
    let sharded = ShardedGss::with_storage(
        fault_config(),
        3,
        &StorageBackend::File { path: base.clone(), cache_pages: 1 },
    )
    .expect("creation survives (occurrence 1 is the log magic)");
    let owners = shard_owners(90);
    let batch_of = |sources: std::ops::Range<u64>, keep: &dyn Fn(usize) -> bool| {
        sources
            .filter(|&source| keep(owners[source as usize]))
            .map(|source| StreamEdge::new(source, source + 1, source, 2))
            .collect::<Vec<_>>()
    };
    let count_on = |batch: &[StreamEdge], shard: usize| {
        batch.iter().filter(|item| owners[item.source as usize] == shard).count() as u64
    };
    let shard_report = |shard: usize| sharded.with_shard_read(shard, |s| s.durability_report());

    // Batch 1 touches all three shards.
    let first = batch_of(0..60, &|_| true);
    assert!((0..3).all(|shard| count_on(&first, shard) > 0), "the batch must span every shard");
    let result = if contended {
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let pinned = sharded.clone();
        std::thread::scope(|scope| {
            let pin = scope.spawn(move || {
                pinned.with_shard_read(0, |_| {
                    locked_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                })
            });
            locked_rx.recv().unwrap();
            let writer = scope.spawn(|| sharded.try_insert_batch(&first));
            // The fault firing means the opportunistic sweep has reached the faulted
            // shard; shard 0 is still pinned, so it can only be committed by the
            // blocking pass.  The plan's counter is an atomic: polling it takes no
            // shard lock and cannot disturb the sweep.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while guard.plan().injected() == 0 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            let fired_while_pinned = guard.plan().injected() > 0;
            release_tx.send(()).unwrap();
            pin.join().unwrap();
            assert!(fired_while_pinned, "the fault must fire during staging, before the ack pass");
            writer.join().unwrap()
        })
    } else {
        sharded.try_insert_batch(&first)
    };
    let Err(GssError::StoreFailed(fault)) = result else {
        panic!("the faulted shard's error must come back, got {result:?}");
    };
    assert!(sharded.is_poisoned());
    assert!(shard_report(FAULTED).poisoned);
    assert_eq!(shard_report(FAULTED).acked_items, 0, "a failed sub-batch is never acknowledged");
    for healthy in [0, 2] {
        let report = shard_report(healthy);
        assert!(!report.poisoned, "shard {healthy} must stay healthy");
        assert_eq!(report.acked_items, count_on(&first, healthy), "staged and acknowledged");
        assert_eq!(report.breached_items, 0);
    }
    let total = sharded.durability_report();
    assert_eq!(total.acked_items, count_on(&first, 0) + count_on(&first, 2));
    assert_eq!(total.breached_items, shard_report(FAULTED).breached_items);
    assert_eq!(total.cause.as_ref().map(|cause| cause.kind()), Some(fault.kind()));
    // Reads keep serving on every shard the batch reached.
    let healthy_item = first.iter().find(|item| owners[item.source as usize] != FAULTED).unwrap();
    assert_eq!(sharded.edge_weight(healthy_item.source, healthy_item.destination), Some(2));

    // Batch 2 touches only healthy shards: it succeeds and is acknowledged in full.
    let second = batch_of(60..90, &|owner| owner != FAULTED);
    assert!(!second.is_empty());
    sharded.try_insert_batch(&second).expect("healthy shards keep ingesting");
    assert_eq!(
        sharded.durability_report().acked_items,
        total.acked_items + second.len() as u64,
        "the healthy batch is acknowledged item for item"
    );
    // Batch 3 reaches the poisoned shard again: same sticky cause, healthy part acked.
    let third = batch_of(0..60, &|_| true);
    let Err(GssError::StoreFailed(again)) = sharded.try_insert_batch(&third) else {
        panic!("a poisoned shard must keep rejecting writes");
    };
    assert_eq!(again.kind(), fault.kind());
    assert_eq!(
        sharded.durability_report().acked_items,
        total.acked_items + second.len() as u64 + count_on(&third, 0) + count_on(&third, 2),
    );

    sharded.abandon().expect("last handle");
    drop(guard);
    for shard in 0..3 {
        let name = format!("{}.shard{shard}", base.file_name().unwrap().to_string_lossy());
        cleanup(&base.with_file_name(name));
    }
}

#[test]
fn sharded_batch_faults_stay_inside_their_shard_uncontended() {
    sharded_batch_faults_stay_inside_their_shard(false);
}

#[test]
fn sharded_batch_faults_stay_inside_their_shard_contended() {
    sharded_batch_faults_stay_inside_their_shard(true);
}
