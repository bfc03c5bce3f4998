//! Compound graph queries built from the three query primitives.
//!
//! Section III of the paper argues that once a structure supports edge queries, 1-hop
//! successor queries and 1-hop precursor queries, "all kinds of queries and algorithms can
//! be supported" — either by reconstructing the graph or by invoking the primitives lazily
//! during the algorithm.  This module is the concrete realisation of that claim: every
//! function takes a `&dyn` [`SummaryRead`](crate::summary::SummaryRead), so the same
//! (un-monomorphised) code runs on the exact graph, on GSS and on TCM, and the
//! experiments compare their answers.
//!
//! * [`node_query`] — weighted out/in degree (the node query of Fig. 11).
//! * [`traversal`] — BFS, reachability (Fig. 12), k-hop neighbourhoods, connected reach sets.
//! * [`triangles`] — triangle counting through the primitives (Fig. 14).
//! * [`matching`] — VF2-style subgraph matching (Fig. 15).
//! * [`reconstruct`] — full graph reconstruction from a node universe.

pub mod matching;
pub mod node_query;
pub mod reconstruct;
pub mod traversal;
pub mod triangles;

pub use matching::{count_pattern_matches, find_pattern_matches, PatternGraph};
pub use node_query::{node_in_weight, node_out_weight};
pub use reconstruct::reconstruct_graph;
pub use traversal::{
    bfs_reachable_set, is_reachable, is_reachable_bounded, k_hop_successors, shortest_hop_distance,
};
pub use triangles::{count_triangles, local_triangle_count};
