//! The summary traits: [`SummaryRead`], [`SummaryWrite`] and the [`GraphSummary`] umbrella.
//!
//! Every summarization structure in this workspace — the GSS sketch, the TCM and adjacency-list
//! baselines, and the exact adjacency-list graph — supports the three graph query
//! primitives of Definition 4 plus edge insertion.  The API is split along the
//! read/write axis:
//!
//! * [`SummaryRead`] — the three query primitives (edge weight, 1-hop successors, 1-hop
//!   precursors) plus structural statistics.  Every compound query in
//!   [`crate::algorithms`] takes `&dyn SummaryRead`, which is exactly the argument the
//!   paper makes: once the three primitives are supported, "almost all algorithms for
//!   graphs can be implemented with these primitives".
//! * [`SummaryWrite`] — stream ingestion: per-item [`insert`](SummaryWrite::insert), the
//!   batch entry point [`insert_batch`](SummaryWrite::insert_batch) (which structures such
//!   as `gss_core::GssSketch` override to amortise hashing and candidate probing), and an
//!   object-safe [`insert_stream`](SummaryWrite::insert_stream).
//! * [`GraphSummary`] — the umbrella `SummaryRead + SummaryWrite`, blanket-implemented for
//!   every type that implements both, so existing `S: GraphSummary` bounds keep working.
//!
//! The split follows the borrow each half needs: queries take `&self`, ingestion `&mut self`,
//! so a compound query asks for the read half only and runs on any shared reference.  Both
//! traits are object-safe, so `Box<dyn GraphSummary>` supports streaming ingestion.

use crate::stream::StreamEdge;
use crate::types::{VertexId, Weight};
use serde::{Deserialize, Serialize};

/// Size and occupancy statistics reported by a summary, used for the memory accounting in
/// the experiments (equal-memory comparisons, buffer percentage of Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Total bytes of heap the structure currently occupies (approximate, structural).
    pub bytes: usize,
    /// Number of stream items inserted so far.
    pub items_inserted: u64,
    /// Number of distinct slots/buckets/entries the structure maintains.
    pub slots: usize,
    /// Number of slots currently occupied.
    pub occupied_slots: usize,
    /// Number of edges that overflowed into an auxiliary buffer (GSS-specific; 0 otherwise).
    pub buffered_edges: usize,
}

impl SummaryStats {
    /// Fraction of slots currently occupied, in `[0, 1]`.
    pub fn load_factor(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.occupied_slots as f64 / self.slots as f64
        }
    }

    /// Field-wise sum of two stat snapshots, used when aggregating over shards.
    pub fn merged_with(&self, other: &SummaryStats) -> SummaryStats {
        SummaryStats {
            bytes: self.bytes + other.bytes,
            items_inserted: self.items_inserted + other.items_inserted,
            slots: self.slots + other.slots,
            occupied_slots: self.occupied_slots + other.occupied_slots,
            buffered_edges: self.buffered_edges + other.buffered_edges,
        }
    }
}

/// The read half of a graph-stream summary: the three query primitives of Definition 4.
///
/// Implementations may be approximate.  The contract mirrors the paper:
///
/// * [`edge_weight`](SummaryRead::edge_weight) returns `None` when the edge is reported
///   absent (the paper returns `-1`); approximate structures may over-estimate weights and
///   may report false positives, but never false negatives for structures compared in the
///   paper (all errors are one-sided when weights are non-negative).
/// * [`successors`](SummaryRead::successors) / [`precursors`](SummaryRead::precursors)
///   return the 1-hop out/in neighbourhoods in the *original* vertex-id space; approximate
///   structures may include extra vertices (false positives) but must include every true
///   neighbour.
///
/// The trait is object-safe; compound queries ([`crate::algorithms`]) take
/// `&dyn SummaryRead`.
pub trait SummaryRead {
    /// Returns the accumulated weight of edge `(source, destination)`, or `None` if the
    /// structure reports the edge as absent.
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight>;

    /// Returns the set of vertices reported as 1-hop reachable from `vertex`
    /// (the 1-hop successor query primitive).
    fn successors(&self, vertex: VertexId) -> Vec<VertexId>;

    /// Returns the set of vertices reported as reaching `vertex` in one hop
    /// (the 1-hop precursor query primitive).
    fn precursors(&self, vertex: VertexId) -> Vec<VertexId>;

    /// Structural statistics (memory, occupancy).  Implementations should make this cheap.
    fn stats(&self) -> SummaryStats {
        SummaryStats::default()
    }

    /// Human-readable name used in experiment reports (e.g. `"GSS(fsize=16)"`).
    fn name(&self) -> String {
        std::any::type_name::<Self>().to_string()
    }
}

/// The write half of a graph-stream summary: stream-item ingestion.
///
/// The batch entry points exist so implementations can amortise per-item work:
/// [`insert_batch`](SummaryWrite::insert_batch) defaults to a per-item loop but structures
/// like the GSS sketch override it to hash each distinct endpoint once, reuse address
/// sequences across items sharing an endpoint, and fold duplicate `(source, destination)`
/// keys before probing.  A batched insert must be **observationally identical** to
/// inserting the same items one at a time, in order (same edge weights, same
/// successor/precursor sets, same item accounting).
///
/// The trait is object-safe — including [`insert_stream`](SummaryWrite::insert_stream),
/// which takes a `&mut dyn Iterator` so that streaming into a `Box<dyn GraphSummary>`
/// works.
pub trait SummaryWrite {
    /// Inserts one stream item, accumulating `weight` onto edge `(source, destination)`.
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight);

    /// Inserts a whole stream item (uses its weight; convenience wrapper).
    fn insert_item(&mut self, item: &StreamEdge) {
        self.insert(item.source, item.destination, item.weight);
    }

    /// Inserts a batch of stream items, in order.
    ///
    /// Equivalent to calling [`insert_item`](SummaryWrite::insert_item) for each item;
    /// implementations may (and should) amortise shared work across the batch.
    fn insert_batch(&mut self, items: &[StreamEdge]) {
        for item in items {
            self.insert_item(item);
        }
    }

    /// Inserts every item yielded by an iterator, in order.
    ///
    /// Object-safe (callable through `&mut dyn SummaryWrite`); call as
    /// `summary.insert_stream(&mut items.into_iter())`.
    fn insert_stream(&mut self, items: &mut dyn Iterator<Item = StreamEdge>) {
        for item in items {
            self.insert_item(&item);
        }
    }
}

/// A graph-stream summary supporting both ingestion and the three query primitives.
///
/// Blanket-implemented for every `SummaryRead + SummaryWrite` type, so it cannot be
/// implemented directly — implement the two halves instead.  Existing call sites that
/// bound on `S: GraphSummary` (or box a `dyn GraphSummary`) keep compiling.
pub trait GraphSummary: SummaryRead + SummaryWrite {}

impl<T: SummaryRead + SummaryWrite + ?Sized> GraphSummary for T {}

impl<T: SummaryRead + ?Sized> SummaryRead for Box<T> {
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        (**self).edge_weight(source, destination)
    }

    fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        (**self).successors(vertex)
    }

    fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        (**self).precursors(vertex)
    }

    fn stats(&self) -> SummaryStats {
        (**self).stats()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

impl<T: SummaryWrite + ?Sized> SummaryWrite for Box<T> {
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        (**self).insert(source, destination, weight);
    }

    fn insert_item(&mut self, item: &StreamEdge) {
        (**self).insert_item(item);
    }

    fn insert_batch(&mut self, items: &[StreamEdge]) {
        (**self).insert_batch(items);
    }

    fn insert_stream(&mut self, items: &mut dyn Iterator<Item = StreamEdge>) {
        (**self).insert_stream(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::AdjacencyListGraph;

    #[test]
    fn load_factor_handles_empty_structure() {
        let stats = SummaryStats::default();
        assert_eq!(stats.load_factor(), 0.0);
    }

    #[test]
    fn load_factor_is_fraction_of_occupied_slots() {
        let stats = SummaryStats { slots: 10, occupied_slots: 4, ..Default::default() };
        assert!((stats.load_factor() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn merged_stats_sum_every_field() {
        let a = SummaryStats {
            bytes: 10,
            items_inserted: 2,
            slots: 8,
            occupied_slots: 3,
            buffered_edges: 1,
        };
        let merged = a.merged_with(&a);
        assert_eq!(merged.bytes, 20);
        assert_eq!(merged.items_inserted, 4);
        assert_eq!(merged.slots, 16);
        assert_eq!(merged.occupied_slots, 6);
        assert_eq!(merged.buffered_edges, 2);
    }

    #[test]
    fn boxed_summary_delegates() {
        let mut graph: Box<dyn GraphSummary> = Box::new(AdjacencyListGraph::new());
        graph.insert(1, 2, 5);
        assert_eq!(graph.edge_weight(1, 2), Some(5));
        assert_eq!(graph.successors(1), vec![2]);
        assert_eq!(graph.precursors(2), vec![1]);
    }

    #[test]
    fn insert_stream_accumulates_all_items() {
        let mut graph = AdjacencyListGraph::new();
        let items = vec![StreamEdge::new(1, 2, 0, 1), StreamEdge::new(1, 2, 1, 2)];
        graph.insert_stream(&mut items.into_iter());
        assert_eq!(graph.edge_weight(1, 2), Some(3));
    }

    #[test]
    fn streaming_into_a_boxed_dyn_summary_works() {
        // The regression this trait split fixes: `insert_stream` used to carry a
        // `Self: Sized` bound, making it unusable through `Box<dyn GraphSummary>`.
        let mut boxed: Box<dyn GraphSummary> = Box::new(AdjacencyListGraph::new());
        let items = vec![
            StreamEdge::new(1, 2, 0, 1),
            StreamEdge::new(2, 3, 1, 4),
            StreamEdge::new(1, 2, 2, 2),
        ];
        boxed.insert_stream(&mut items.into_iter());
        assert_eq!(boxed.edge_weight(1, 2), Some(3));
        assert_eq!(boxed.edge_weight(2, 3), Some(4));
        assert_eq!(boxed.stats().items_inserted, 3);
    }

    #[test]
    fn write_only_trait_objects_support_batch_ingest() {
        let mut graph = AdjacencyListGraph::new();
        {
            let writer: &mut dyn SummaryWrite = &mut graph;
            writer.insert_batch(&[StreamEdge::new(7, 8, 0, 5), StreamEdge::new(7, 9, 1, 1)]);
        }
        assert_eq!(graph.edge_weight(7, 8), Some(5));
        assert_eq!(graph.successors(7), vec![8, 9]);
    }

    #[test]
    fn dyn_graph_summary_upcasts_to_its_halves() {
        let mut graph = AdjacencyListGraph::new();
        graph.insert(1, 2, 1);
        let whole: &dyn GraphSummary = &graph;
        let read: &dyn SummaryRead = whole;
        assert_eq!(read.edge_weight(1, 2), Some(1));
    }
}
