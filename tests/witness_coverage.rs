//! Every shard lock `ShardedGss` takes registers with the debug-build lock-order witness
//! — including the read-only reporting calls a serving layer makes under its registry
//! lock (`gss-server` calls `detailed_stats` there, the `NamespaceRegistry → Shard` edge).
//!
//! The witness's acquisition counters are process-global, so this file holds exactly one
//! test: nothing else in the process takes a shard lock while it counts.

#![cfg(debug_assertions)]

use gss::prelude::*;
use gss_core::witness::{self, LockClass};
use gss_core::ShardedGss;

#[test]
fn reporting_calls_register_every_shard_lock_with_the_witness() {
    const SHARDS: u64 = 3;
    let sketch = ShardedGss::new(GssConfig::paper_small(16), SHARDS as usize).unwrap();
    sketch.insert(1, 2, 3);
    let shard_locks = || witness::report().acquisitions_of(LockClass::Shard);
    // (call, shard locks it takes): the first five bypassed the witness before this test
    // existed; the last two always registered and still do, once per lock.
    let calls: [(&str, u64, &dyn Fn()); 7] = [
        ("stats", SHARDS, &|| assert_eq!(sketch.stats().items_inserted, 1)),
        ("detailed_stats", SHARDS, &|| assert_eq!(sketch.detailed_stats().matrix_edges, 1)),
        ("durability_report", SHARDS, &|| drop(sketch.durability_report())),
        ("merge", SHARDS, &|| drop(sketch.merge())),
        ("name", 1, &|| drop(SummaryRead::name(&sketch))),
        ("edge_weight", 1, &|| assert_eq!(sketch.edge_weight(1, 2), Some(3))),
        ("precursors", SHARDS, &|| drop(sketch.precursors(2))),
    ];
    for (name, expected, call) in calls {
        let before = shard_locks();
        call();
        assert_eq!(shard_locks() - before, expected, "{name}");
    }
}
