//! # gss-baselines — the comparison systems of the GSS paper
//!
//! The four systems the reproduced figures compare GSS against (Section VII), implemented
//! from scratch:
//!
//! * [`tcm`] — **TCM** (Tang, Chen, Mitra — SIGMOD 2016), the state-of-the-art graph-stream
//!   sketch the paper benchmarks against in every figure: `d` adjacency-matrix sketches of
//!   counters, each under an independent node hash.
//! * [`triest`] — **TRIÈST** (IMPR variant), the fixed-memory reservoir triangle counter
//!   used in the Fig. 14 comparison.
//! * [`exact_matcher`] — an exact windowed subgraph matcher standing in for SJ-tree in the
//!   Fig. 15 comparison: SJ-tree's implementation is not public, and an exact oracle at
//!   adjacency-list memory cost is the role it plays there.
//! * [`adjacency_baseline`] — the "Adjacency Lists" row of Table I: a map-indexed adjacency
//!   list with linear-scan aggregation (the hash-map-based exact graph used as ground truth
//!   lives in [`gss_graph::AdjacencyListGraph`]).
//!
//! ## Quick start
//!
//! TCM and the adjacency list implement [`gss_graph::SummaryRead`] and
//! [`gss_graph::SummaryWrite`] (and thereby the [`gss_graph::GraphSummary`] umbrella), so
//! they are ingested and queried exactly like GSS itself:
//!
//! ```
//! use gss_baselines::TcmSketch;
//! use gss_graph::{SummaryRead, SummaryWrite};
//!
//! let mut tcm = TcmSketch::new(64, 3);
//! tcm.insert(7, 9, 2);
//! tcm.insert(7, 9, 1);
//!
//! // Like every sketch, TCM over-estimates but never under-estimates.
//! assert!(tcm.edge_weight(7, 9).unwrap_or(0) >= 3);
//! ```

pub mod adjacency_baseline;
pub mod exact_matcher;
pub mod tcm;
pub mod triest;

pub use adjacency_baseline::PaperAdjacencyList;
pub use exact_matcher::ExactWindowMatcher;
pub use tcm::TcmSketch;
pub use triest::Triest;
