//! Property-based equivalence of the group-commit write-ahead path (proptest): a
//! file-backed sketch whose log drains through the group-commit coordinator must
//! recover to **exactly** the state a per-insert-synced sketch recovers to — group
//! commit batches `fdatasync` scheduling, never acknowledgement.
//!
//! Each case ingests one random stream into two file-backed sketches: one with
//! the default group-commit window (2 ms / 256 KiB) and one with a zero window
//! (`GroupCommit { max_delay_us: 0, max_bytes: 0 }`), which forces a sync on every
//! drain round and thereby reproduces the historical sync-per-insert behaviour.  Both
//! are crashed with no checkpoint ([`GssSketch::abandon`]) and recovered by log
//! replay; the recovered states must agree with each other and with an in-memory
//! reference on every query the sketch answers.

use gss::prelude::*;
use gss_core::{wal_path, GroupCommit};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-group-equiv-{}-{name}.gss", std::process::id()))
}

fn remove(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
}

/// Builds a small file-backed sketch whose log drains through a coordinator
/// with the given window knob (a tiny cache keeps evictions in play mid-stream).
fn build(path: &Path, knob: GroupCommit) -> GssSketch {
    GssBuilder::from_config(GssConfig::paper_small(24))
        .storage(StorageBackend::File { path: path.to_path_buf(), cache_pages: 2 })
        .group_commit(knob)
        .build()
        .unwrap()
}

/// Ingests `items` (mixing per-item and batched inserts on a fixed cadence so both
/// WAL commit shapes are exercised), crashes, and returns the recovered sketch.
fn ingest_crash_recover(path: &Path, items: &[(u64, u64, i64)], knob: GroupCommit) -> GssSketch {
    let mut sketch = build(path, knob);
    for (index, chunk) in items.chunks(7).enumerate() {
        if index % 2 == 0 {
            for &(s, d, w) in chunk {
                sketch.insert(s, d, w);
            }
        } else {
            let batch: Vec<StreamEdge> = chunk
                .iter()
                .enumerate()
                .map(|(t, &(s, d, w))| StreamEdge::new(s, d, t as u64, w))
                .collect();
            sketch.insert_batch(&batch);
        }
    }
    sketch.abandon();
    GssSketch::open_file(path, 8).expect("strict crash recovers by log replay")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Group-commit Strict ≡ per-insert Strict: both recover the *whole* acknowledged
    /// stream, and every query answers identically across the two recovered sketches
    /// and an in-memory reference.
    #[test]
    fn group_commit_strict_recovers_the_per_insert_strict_state(
        items in prop::collection::vec((0..120u64, 0..120u64, 1..20i64), 1..180),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let grouped_path = temp_path(&format!("{case}-grouped"));
        let per_insert_path = temp_path(&format!("{case}-per-insert"));
        let grouped = ingest_crash_recover(&grouped_path, &items, GroupCommit::default());
        let per_insert = ingest_crash_recover(
            &per_insert_path,
            &items,
            GroupCommit { max_delay_us: 0, max_bytes: 0 },
        );
        let mut reference = GssSketch::new(GssConfig::paper_small(24)).unwrap();
        for &(s, d, w) in &items {
            reference.insert(s, d, w);
        }

        // Strict acknowledges every item before insert returns, so a crash after the
        // last insert loses nothing under either sync schedule.
        prop_assert_eq!(grouped.items_inserted(), items.len() as u64);
        prop_assert_eq!(per_insert.items_inserted(), items.len() as u64);
        prop_assert_eq!(grouped.stored_edges(), reference.stored_edges());
        prop_assert_eq!(per_insert.stored_edges(), reference.stored_edges());

        let vertices: std::collections::BTreeSet<u64> =
            items.iter().flat_map(|&(s, d, _)| [s, d]).collect();
        for &s in &vertices {
            for &d in &vertices {
                prop_assert_eq!(
                    grouped.edge_weight(s, d),
                    reference.edge_weight(s, d),
                    "grouped recovery diverges on edge ({}, {})", s, d
                );
                prop_assert_eq!(
                    per_insert.edge_weight(s, d),
                    reference.edge_weight(s, d),
                    "per-insert recovery diverges on edge ({}, {})", s, d
                );
            }
            prop_assert_eq!(grouped.successors(s), reference.successors(s));
            prop_assert_eq!(per_insert.successors(s), reference.successors(s));
            prop_assert_eq!(grouped.precursors(s), reference.precursors(s));
            prop_assert_eq!(per_insert.precursors(s), reference.precursors(s));
        }
        drop(grouped);
        drop(per_insert);
        remove(&grouped_path);
        remove(&per_insert_path);
    }
}
