//! Property-based tests (proptest) of the batch-first ingest API: for **every** summary
//! implementor, feeding a random stream through `insert_batch` (in arbitrary chunk sizes)
//! must be observationally identical to feeding it one item at a time — same edge weights,
//! same successor/precursor sets, same `items_inserted` accounting.
//!
//! This is the contract `SummaryWrite::insert_batch` documents, and what lets every ingest
//! path (experiments, benches, `ShardedGss` writers) batch freely without changing
//! answers.  GSS is the interesting case (endpoint hash caching, address-sequence reuse
//! and duplicate folding must not alter room placement); the baselines exercise the
//! default per-item fallback.

use gss::baselines::PaperAdjacencyList;
use gss::prelude::*;
use proptest::prelude::*;

/// Strategy: a stream of up to `len` items over a vertex universe of `vertices`, with
/// weights in `1..50` plus occasional deletions.
fn stream_strategy(vertices: u64, len: usize) -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec((0..vertices, 0..vertices, -5..50i64), 1..len).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(t, (s, d, w))| StreamEdge::new(s, d, t as u64, w))
            .collect()
    })
}

/// Feeds `items` per-item into `sequential` and in `chunk`-sized batches into `batched`,
/// then asserts the two are observationally identical over the whole vertex universe.
fn assert_batch_equivalent<S: GraphSummary>(
    sequential: S,
    batched: S,
    items: &[StreamEdge],
    chunk: usize,
    vertices: u64,
) {
    assert_batch_route_equivalent(sequential, batched, items, chunk, vertices, |summary, batch| {
        summary.insert_batch(batch)
    });
}

/// [`assert_batch_equivalent`] with the batch ingest route as an input: `ingest` feeds
/// one chunk into the batched summary.
fn assert_batch_route_equivalent<S: GraphSummary>(
    mut sequential: S,
    mut batched: S,
    items: &[StreamEdge],
    chunk: usize,
    vertices: u64,
    mut ingest: impl FnMut(&mut S, &[StreamEdge]),
) {
    for item in items {
        sequential.insert_item(item);
    }
    for batch in items.chunks(chunk) {
        ingest(&mut batched, batch);
    }
    let name = sequential.name();
    assert_eq!(
        batched.stats().items_inserted,
        sequential.stats().items_inserted,
        "{name}: items_inserted diverged"
    );
    for item in items {
        assert_eq!(
            batched.edge_weight(item.source, item.destination),
            sequential.edge_weight(item.source, item.destination),
            "{name}: weight of ({}, {}) diverged",
            item.source,
            item.destination
        );
    }
    for v in 0..vertices {
        assert_eq!(batched.successors(v), sequential.successors(v), "{name}: successors of {v}");
        assert_eq!(batched.precursors(v), sequential.precursors(v), "{name}: precursors of {v}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch ≡ sequential for every `GraphSummary` implementor: GSS (augmented, small and
    /// basic variants — the overridden batch path), TCM, the paper's adjacency list and the
    /// exact adjacency list (the default per-item fallback).
    #[test]
    fn insert_batch_matches_per_item_insert_for_every_implementor(
        items in stream_strategy(64, 240),
        chunk in 1usize..64,
    ) {
        let gss = || GssSketch::builder().width(24).fingerprint_bits(8).build().unwrap();
        assert_batch_equivalent(gss(), gss(), &items, chunk, 64);
        let tight = || {
            // A deliberately overloaded matrix: most edges spill to the buffer, so the
            // batch path's placement must agree on the matrix *and* buffer state.
            GssSketch::builder().width(3).rooms(1).sequence_length(2).candidates(2)
                .build().unwrap()
        };
        assert_batch_equivalent(tight(), tight(), &items, chunk, 64);
        let basic = || GssSketch::new(GssConfig::basic(16)).unwrap();
        assert_batch_equivalent(basic(), basic(), &items, chunk, 64);
        assert_batch_equivalent(TcmSketch::new(16, 3), TcmSketch::new(16, 3), &items, chunk, 64);
        assert_batch_equivalent(
            PaperAdjacencyList::new(), PaperAdjacencyList::new(), &items, chunk, 64,
        );
        assert_batch_equivalent(
            AdjacencyListGraph::new(), AdjacencyListGraph::new(), &items, chunk, 64,
        );
    }

    /// Batch ≡ sequential for the sharded concurrent front-end (routing + per-shard
    /// batches must not change answers), through both public routes into its one batch
    /// body: the infallible `insert_batch` and the typed `try_insert_batch`.
    #[test]
    fn sharded_batches_match_per_item_inserts(
        items in stream_strategy(64, 240),
        chunk in 1usize..64,
    ) {
        let make = || ShardedGss::new(GssConfig::paper_small(24), 4).unwrap();
        assert_batch_equivalent(make(), make(), &items, chunk, 64);
        assert_batch_route_equivalent(make(), make(), &items, chunk, 64, |sharded, batch| {
            sharded.try_insert_batch(batch).expect("in-memory shards never fail")
        });
    }

    /// Streaming into a boxed `dyn GraphSummary` — the `Self: Sized` regression the trait
    /// split fixes — agrees with per-item ingestion for a dynamically chosen implementor.
    #[test]
    fn dyn_ingest_matches_per_item_insert(
        items in stream_strategy(48, 160),
        pick_gss in any::<bool>(),
    ) {
        let make = || -> Box<dyn GraphSummary> {
            if pick_gss {
                Box::new(GssSketch::builder().width(32).build().unwrap())
            } else {
                Box::new(AdjacencyListGraph::new())
            }
        };
        let mut streamed = make();
        streamed.insert_stream(&mut items.iter().copied());
        let mut reference = make();
        for item in &items {
            reference.insert_item(item);
        }
        prop_assert_eq!(streamed.stats().items_inserted, items.len() as u64);
        for item in &items {
            prop_assert_eq!(
                streamed.edge_weight(item.source, item.destination),
                reference.edge_weight(item.source, item.destination)
            );
        }
        for v in 0..48u64 {
            prop_assert_eq!(streamed.successors(v), reference.successors(v));
        }
    }
}
