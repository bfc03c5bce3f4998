//! # gss-graph — streaming graph substrate
//!
//! This crate provides the substrate that every sketch and baseline in the workspace is
//! built on top of:
//!
//! * [`StreamEdge`] / [`GraphStream`] — the graph-stream data model of
//!   the paper (Definition 1): an unbounded, timestamped sequence of weighted directed edges.
//! * [`SummaryRead`] / [`SummaryWrite`] — the traits capturing the three *graph query
//!   primitives* of Definition 4 (edge query, 1-hop successor query, 1-hop precursor
//!   query) and stream ingestion (per-item, batch and iterator insertion).  GSS, TCM, the
//!   paper's adjacency list and the exact one all implement both halves, so every
//!   compound query and every experiment is written once, against these traits.
//!   [`GraphSummary`] is the blanket-implemented `SummaryRead + SummaryWrite` umbrella.
//! * [`exact::AdjacencyListGraph`] — an exact, loss-less implementation used as ground truth
//!   and as the "adjacency list" baseline of Table I.
//! * [`algorithms`] — compound graph queries written purely in terms of the primitives:
//!   node queries, reachability, k-hop neighbourhoods, triangle counting, subgraph matching
//!   and full graph reconstruction (Section III of the paper argues all of these reduce to
//!   the three primitives).
//! * [`interner::StringInterner`] — maps external identifiers (IP addresses, e-mail
//!   addresses, URLs…) to dense [`VertexId`]s, mirroring the `⟨H(v), v⟩` hash table the
//!   paper keeps next to the sketch.
//!
//! ## Quick start
//!
//! ```
//! use gss_graph::{AdjacencyListGraph, StreamEdge, SummaryRead, SummaryWrite};
//!
//! let mut graph = AdjacencyListGraph::new();
//! graph.insert(1, 2, 3);
//! graph.insert_batch(&[StreamEdge::new(2, 3, 0, 1)]);
//!
//! // The three query primitives of Definition 4…
//! assert_eq!(graph.edge_weight(1, 2), Some(3));
//! assert_eq!(graph.successors(2), vec![3]);
//! assert_eq!(graph.precursors(2), vec![1]);
//!
//! // …and a compound query written against `&dyn SummaryRead`.
//! assert!(gss_graph::algorithms::is_reachable(&graph, 1, 3));
//! ```

pub mod algorithms;
pub mod exact;
pub mod interner;
pub mod stream;
pub mod summary;
pub mod types;

pub use exact::AdjacencyListGraph;
pub use interner::StringInterner;
pub use stream::{GraphStream, StreamEdge, StreamWindows, VecStream};
pub use summary::{GraphSummary, SummaryRead, SummaryStats, SummaryWrite};
pub use types::{EdgeKey, Timestamp, VertexId, Weight};
