//! # gss-baselines — the comparison systems of the GSS paper
//!
//! Every system the paper compares against (Sections II and VII), implemented from scratch:
//!
//! * [`tcm`] — **TCM** (Tang, Chen, Mitra — SIGMOD 2016), the state-of-the-art graph-stream
//!   sketch the paper benchmarks against in every figure: `d` adjacency-matrix sketches of
//!   counters, each under an independent node hash.
//! * [`gmatrix`] — **gMatrix**, the TCM variant that uses reversible hash functions instead
//!   of an id table.
//! * [`cm`] — the **Count-Min sketch** and the conservative-update **CU sketch**, the
//!   counter-array summaries that support edge-weight queries but no topology queries.
//! * [`gsketch`] — **gSketch**, which partitions the edge stream over several CM sketches.
//! * [`triest`] — **TRIÈST** (IMPR variant), the fixed-memory reservoir triangle counter
//!   used in the Fig. 14 comparison.
//! * [`exact_matcher`] — an exact windowed subgraph matcher standing in for SJ-tree in the
//!   Fig. 15 comparison: SJ-tree's implementation is not public, and an exact oracle at
//!   adjacency-list memory cost is the role it plays there.
//!
//! * [`adjacency_baseline`] — the "Adjacency Lists" row of Table I: a map-indexed adjacency
//!   list with linear-scan aggregation (the hash-map-based exact graph used as ground truth
//!   lives in [`gss_graph::AdjacencyListGraph`]).
//!
//! ## Quick start
//!
//! Every topology-capable baseline implements [`gss_graph::SummaryRead`] and
//! [`gss_graph::SummaryWrite`] (and thereby the [`gss_graph::GraphSummary`] umbrella), so
//! it is ingested and queried exactly like GSS itself; the counter-only summaries
//! ([`GSketch`]) implement just the write half:
//!
//! ```
//! use gss_baselines::TcmSketch;
//! use gss_graph::{SummaryRead, SummaryWrite};
//!
//! let mut tcm = TcmSketch::new(64, 3);
//! tcm.insert(7, 9, 2);
//! tcm.insert(7, 9, 1);
//!
//! // Like all sketch baselines, TCM over-estimates but never under-estimates.
//! assert!(tcm.edge_weight(7, 9).unwrap_or(0) >= 3);
//! ```

pub mod adjacency_baseline;
pub mod cm;
pub mod exact_matcher;
pub mod gmatrix;
pub mod gsketch;
pub mod tcm;
pub mod triest;

pub use adjacency_baseline::PaperAdjacencyList;
pub use cm::{CmSketch, CuSketch};
pub use exact_matcher::ExactWindowMatcher;
pub use gmatrix::GMatrix;
pub use gsketch::GSketch;
pub use tcm::TcmSketch;
pub use triest::Triest;
