//! # gss-core — the Graph Stream Sketch
//!
//! A Rust implementation of **GSS**, the graph-stream summarization structure of
//! *Fast and Accurate Graph Stream Summarization* (Gou, Zou, Zhao, Yang — ICDE 2019).
//!
//! GSS compresses a graph stream into a fingerprint-annotated bucket matrix:
//!
//! * every node `v` is hashed to `H(v) ∈ [0, m·F)`, split into a matrix *address*
//!   `h(v) ∈ [0, m)` and a *fingerprint* `f(v) ∈ [0, F)`;
//! * every edge is stored in one room of an `m × m` bucket matrix together with its
//!   fingerprint pair, so edges with different endpoints can share rows/columns without
//!   being confused — this is what lets GSS use a hash range `M = m·F ≫ m` and is the
//!   source of its accuracy advantage over TCM;
//! * *square hashing* spreads the edges of high-degree nodes over `r` rows/columns chosen
//!   by a reversible linear-congruential sequence, and *candidate sampling* caps the probe
//!   cost at `k` buckets; edges that still find no room spill into a small exact buffer.
//!
//! The sketch implements [`gss_graph::SummaryRead`] and [`gss_graph::SummaryWrite`] (and
//! through them the [`gss_graph::GraphSummary`] umbrella), so every compound query in
//! [`gss_graph::algorithms`] (node queries, reachability, triangle counting, subgraph
//! matching, reconstruction) runs on it unchanged.  Ingestion is batch-first:
//! [`SummaryWrite::insert_batch`](gss_graph::SummaryWrite::insert_batch) hashes each
//! distinct endpoint once, reuses address sequences across items sharing an endpoint and
//! folds duplicate keys before probing, and [`ShardedGss`] runs ingest over several
//! sketch shards with per-shard locks for concurrent writers.
//!
//! The sketch itself is the [`sketch`] module, split along the paper's procedures: the
//! struct and its lifecycle, the write path (`sketch/ingest.rs`) and the read path
//! (`sketch/query.rs`: the edge lookup and the one neighbour scan both 1-hop queries
//! share).  A room is identified inside its bucket by a [`RoomKey`] — the fingerprint pair
//! and index pair ingest, queries and restore all hand to the store.
//!
//! Room storage is pluggable ([`storage::RoomStore`], ten required methods): the dense
//! in-memory matrix is the default, and [`StorageBackend::File`] keeps the matrix in a
//! paged sketch file (LRU page cache, dirty-page write-back) so a matrix larger than RAM
//! still runs — and the file doubles as its own checkpoint, reopenable in place via
//! [`GssSketch::open_file`].
//! Snapshots stream ([`GssSketch::write_snapshot_to`] / [`GssSketch::read_snapshot_from`])
//! and share the same fixed-size room-record layout as the sketch file.
//!
//! ## Quick start
//!
//! ```
//! use gss_core::GssSketch;
//! use gss_graph::{StreamEdge, SummaryRead, SummaryWrite};
//!
//! // The builder is the entry point: paper defaults, override what you need.
//! let mut sketch = GssSketch::builder().width(256).build().unwrap();
//! sketch.insert(1, 2, 10);
//! sketch.insert_batch(&[StreamEdge::new(1, 3, 1, 4), StreamEdge::new(1, 2, 2, 5)]);
//!
//! assert_eq!(sketch.edge_weight(1, 2), Some(15));
//! assert_eq!(sketch.successors(1), vec![2, 3]);
//! assert_eq!(sketch.precursors(2), vec![1]);
//!
//! // Concurrent ingest: shards partitioned by source vertex, cloneable handles.
//! let sharded = GssSketch::builder().width(256).build_sharded(4).unwrap();
//! sharded.insert(7, 8, 1); // takes &self — share clones across writer threads
//! assert_eq!(sharded.edge_weight(7, 8), Some(1));
//! ```

pub mod buffer;
pub mod builder;
pub mod concurrent;
pub mod config;
pub mod error;
pub mod file_store;
pub mod group_commit;
pub mod hashing;
pub mod matrix;
pub mod merge;
pub mod metrics;
pub mod node_map;
pub mod pager;
pub mod persistence;
pub mod sketch;
pub mod stats;
pub mod storage;
pub mod wal;

pub use builder::GssBuilder;
pub use concurrent::ShardedGss;
pub use config::{
    Durability, GroupCommit, GssConfig, MAX_FINGERPRINT_BITS, MAX_ROOMS_PER_BUCKET,
    MAX_SEQUENCE_LENGTH, MAX_TOTAL_ROOMS, MAX_WIDTH,
};
pub use error::{ConfigError, DurabilityReport, GssError, StoreFault, StoreHealth};
pub use file_store::{FileStore, FlushHook, FlushPoint};
pub use group_commit::GroupCommitter;
pub use hashing::{HashedNode, NodeHasher, Reciprocal, RecoverQCache};
pub use matrix::{MemoryStore, RoomKey};
pub use merge::HashedEdge;
pub use pager::faults::{
    install as install_fault_plan, FaultGuard, FaultKind, FaultOp, FaultPlan, FaultSite,
};
pub use persistence::PersistenceError;
pub use sketch::GssSketch;
pub use stats::GssStats;
pub use storage::{
    naive_probe_bucket, naive_scan_column, naive_scan_row, BucketProbe, OccupancyIndex,
    RoomStorage, RoomStore, StorageBackend, ROOM_RECORD_BYTES,
};
