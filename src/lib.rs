//! # gss — Rust reproduction of *Fast and Accurate Graph Stream Summarization* (ICDE 2019)
//!
//! This umbrella crate re-exports the workspace's public API so applications can depend on a
//! single crate:
//!
//! * [`core`] ([`gss_core`]) — the GSS sketch itself.
//! * [`graph`] ([`gss_graph`]) — the streaming-graph substrate: the [`graph::GraphSummary`]
//!   trait, the exact adjacency-list graph and the compound-query algorithms.
//! * [`baselines`] ([`gss_baselines`]) — TCM, TRIÈST, the exact windowed matcher and
//!   Table I's adjacency lists.
//! * [`datasets`] ([`gss_datasets`]) — deterministic generators for paper-scale workloads
//!   and a SNAP edge-list parser.
//! * [`analysis`] ([`gss_analysis`]) — the closed-form accuracy and buffer models of
//!   Section VI.
//! * [`experiments`] ([`gss_experiments`]) — the runners that regenerate every table and
//!   figure of the paper's evaluation.
//!
//! ## Quick start
//!
//! ```
//! use gss::prelude::*;
//!
//! // Summarise a small stream with the paper's default parameters (the builder is the
//! // entry point; `SummaryWrite` provides per-item, batch and stream ingestion).
//! let mut sketch = GssSketch::builder().width(128).build().unwrap();
//! sketch.insert(1, 2, 3);
//! sketch.insert_batch(&[StreamEdge::new(2, 3, 0, 5), StreamEdge::new(1, 2, 1, 4)]);
//!
//! // The three query primitives (`SummaryRead`)…
//! assert_eq!(sketch.edge_weight(1, 2), Some(7));
//! assert_eq!(sketch.successors(1), vec![2]);
//! assert_eq!(sketch.precursors(3), vec![2]);
//!
//! // …and compound queries built on top of them.
//! assert!(gss::graph::algorithms::is_reachable(&sketch, 1, 3));
//!
//! // Concurrent ingest: shards behind per-shard locks, routed by source vertex.
//! let sharded = GssSketch::builder().width(128).build_sharded(4).unwrap();
//! sharded.insert(1, 2, 3); // &self — clone the handle into writer threads
//! assert_eq!(sharded.edge_weight(1, 2), Some(3));
//! ```

pub use gss_analysis as analysis;
pub use gss_baselines as baselines;
pub use gss_core as core;
pub use gss_datasets as datasets;
pub use gss_experiments as experiments;
pub use gss_graph as graph;

/// The most commonly used items, re-exported for `use gss::prelude::*`.
pub mod prelude {
    pub use gss_baselines::TcmSketch;
    pub use gss_core::{GssBuilder, GssConfig, GssSketch, ShardedGss, StorageBackend};
    pub use gss_datasets::{DatasetProfile, SyntheticDataset};
    pub use gss_graph::{
        AdjacencyListGraph, GraphStream, GraphSummary, StreamEdge, StringInterner, SummaryRead,
        SummaryWrite, VertexId, Weight,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_core_types() {
        let mut sketch = GssSketch::new(GssConfig::paper_default(64)).unwrap();
        sketch.insert(10, 20, 1);
        assert_eq!(sketch.edge_weight(10, 20), Some(1));
        let mut exact = AdjacencyListGraph::new();
        exact.insert(10, 20, 1);
        assert_eq!(exact.successors(10), sketch.successors(10));
    }
}
