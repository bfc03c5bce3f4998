//! Unit tests of the sketch, in one module so each keeps the name it has always had
//! (`sketch::tests::…`).

use super::*;
use crate::config::GssConfig;
use gss_graph::{AdjacencyListGraph, StreamEdge, SummaryRead, SummaryWrite};

fn paper_figure_one_items() -> Vec<(u64, u64, i64)> {
    vec![
        (1, 2, 1),
        (1, 3, 1),
        (2, 4, 1),
        (1, 3, 1),
        (1, 6, 1),
        (3, 6, 1),
        (1, 5, 1),
        (1, 3, 3),
        (3, 6, 1),
        (4, 1, 1),
        (4, 6, 1),
        (6, 5, 3),
        (1, 7, 1),
        (5, 2, 2),
        (4, 1, 1),
    ]
}

fn build_pair(config: GssConfig) -> (GssSketch, AdjacencyListGraph) {
    let mut sketch = GssSketch::new(config).unwrap();
    let mut exact = AdjacencyListGraph::new();
    for (s, d, w) in paper_figure_one_items() {
        sketch.insert(s, d, w);
        exact.insert(s, d, w);
    }
    (sketch, exact)
}

#[test]
fn edge_queries_match_exact_graph_when_width_is_ample() {
    let (sketch, exact) = build_pair(GssConfig::paper_default(64));
    for (key, weight) in exact.edges() {
        assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight), "edge {key:?}");
    }
    // Absent edges are reported absent (no collisions at this tiny scale).
    assert_eq!(sketch.edge_weight(2, 1), None);
    assert_eq!(sketch.edge_weight(7, 4), None);
}

#[test]
fn successor_and_precursor_queries_match_exact_graph() {
    let (sketch, exact) = build_pair(GssConfig::paper_default(64));
    for v in exact.vertices() {
        assert_eq!(sketch.successors(v), exact.successors(v), "successors of {v}");
        assert_eq!(sketch.precursors(v), exact.precursors(v), "precursors of {v}");
    }
}

#[test]
fn basic_version_answers_the_same_queries() {
    let (sketch, exact) = build_pair(GssConfig::basic(64));
    for (key, weight) in exact.edges() {
        assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
    }
    for v in exact.vertices() {
        assert_eq!(sketch.successors(v), exact.successors(v));
        assert_eq!(sketch.precursors(v), exact.precursors(v));
    }
}

#[test]
fn no_sampling_configuration_works() {
    let config = GssConfig::paper_small(64).with_sampling(false);
    let (sketch, exact) = build_pair(config);
    for (key, weight) in exact.edges() {
        assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
    }
}

#[test]
fn duplicate_items_accumulate_instead_of_duplicating() {
    let mut sketch = GssSketch::with_width(32);
    for _ in 0..10 {
        sketch.insert(5, 9, 2);
    }
    assert_eq!(sketch.edge_weight(5, 9), Some(20));
    assert_eq!(sketch.stored_edges(), 1);
}

#[test]
fn deletions_subtract_weight() {
    let mut sketch = GssSketch::with_width(32);
    sketch.insert(1, 2, 10);
    sketch.insert(1, 2, -4);
    assert_eq!(sketch.edge_weight(1, 2), Some(6));
}

#[test]
fn tiny_matrix_overflows_into_buffer_but_stays_accurate() {
    // A 2x2 matrix with 1 room cannot hold the 11 distinct edges: most must be buffered,
    // yet every query stays exact because the buffer is exact and fingerprints
    // disambiguate the matrix rooms.
    let config = GssConfig {
        width: 2,
        rooms: 1,
        sequence_length: 2,
        candidates: 2,
        ..GssConfig::paper_default(2)
    };
    let (sketch, exact) = build_pair(config);
    assert!(sketch.buffered_edges() > 0);
    assert!(sketch.buffer_percentage() > 0.0);
    for (key, weight) in exact.edges() {
        assert_eq!(sketch.edge_weight(key.source, key.destination), Some(weight));
    }
    for v in exact.vertices() {
        let reported = sketch.successors(v);
        for truth in exact.successors(v) {
            assert!(reported.contains(&truth), "successor {truth} of {v} missing");
        }
    }
}

#[test]
fn square_hashing_reduces_buffered_edges_under_pressure() {
    // Insert many edges sharing one source (a high-degree hub) into a small matrix:
    // without square hashing they all compete for one row and overflow; with square
    // hashing they spread over r rows.
    let hub_edges: Vec<(u64, u64, i64)> = (0..200u64).map(|d| (9999, d, 1)).collect();
    let mut basic = GssSketch::new(GssConfig::basic(32)).unwrap();
    let mut square =
        GssSketch::new(GssConfig { rooms: 1, ..GssConfig::paper_default(32) }).unwrap();
    for &(s, d, w) in &hub_edges {
        basic.insert(s, d, w);
        square.insert(s, d, w);
    }
    assert!(
        square.buffered_edges() < basic.buffered_edges(),
        "square hashing should buffer fewer edges ({} vs {})",
        square.buffered_edges(),
        basic.buffered_edges()
    );
}

#[test]
fn stats_track_structure_sizes() {
    let (sketch, _) = build_pair(GssConfig::paper_default(64));
    let stats = sketch.stats();
    assert_eq!(stats.items_inserted, 15);
    assert_eq!(stats.occupied_slots, 11);
    assert_eq!(stats.slots, 64 * 64 * 2);
    let detailed = sketch.detailed_stats();
    assert_eq!(detailed.matrix_edges, 11);
    assert_eq!(detailed.buffered_edges, 0);
    assert_eq!(detailed.buffer_percentage, 0.0);
    assert_eq!(detailed.distinct_hashed_nodes, 7);
    assert!(detailed.matrix_bytes > 0);
    assert!(sketch.memory_bytes() >= detailed.matrix_bytes);
}

#[test]
fn name_reflects_configuration() {
    let sketch = GssSketch::with_width(100);
    assert!(sketch.name().contains("fsize=16"));
    assert!(sketch.name().contains("w=100"));
    let basic = GssSketch::new(GssConfig::basic(10)).unwrap();
    assert!(basic.name().contains("basic"));
}

#[test]
fn invalid_config_is_rejected() {
    assert!(GssSketch::new(GssConfig { width: 0, ..GssConfig::paper_default(1) }).is_err());
}

fn random_items(seed: u64, count: usize, vertices: u64) -> Vec<StreamEdge> {
    let mut state = seed | 1;
    (0..count)
        .map(|t| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            StreamEdge::new(
                (state >> 33) % vertices,
                (state >> 17) % vertices,
                t as u64,
                (state % 5) as i64 + 1,
            )
        })
        .collect()
}

#[test]
fn insert_batch_is_observationally_identical_to_per_item_insert() {
    for config in [
        GssConfig::paper_default(48),
        GssConfig::paper_small(32),
        GssConfig::basic(32),
        GssConfig { width: 2, rooms: 1, sequence_length: 2, ..GssConfig::paper_default(2) },
    ] {
        let items = random_items(0xBA7C, 800, 120);
        let mut sequential = GssSketch::new(config).unwrap();
        let mut batched = GssSketch::new(config).unwrap();
        for item in &items {
            sequential.insert_item(item);
        }
        for chunk in items.chunks(97) {
            batched.insert_batch(chunk);
        }
        assert_eq!(batched.items_inserted(), sequential.items_inserted());
        assert_eq!(batched.stored_edges(), sequential.stored_edges());
        assert_eq!(batched.buffered_edges(), sequential.buffered_edges());
        for item in &items {
            assert_eq!(
                batched.edge_weight(item.source, item.destination),
                sequential.edge_weight(item.source, item.destination),
                "edge ({}, {})",
                item.source,
                item.destination
            );
        }
        for v in 0..120u64 {
            assert_eq!(batched.successors(v), sequential.successors(v), "successors of {v}");
            assert_eq!(batched.precursors(v), sequential.precursors(v), "precursors of {v}");
        }
    }
}

#[test]
fn insert_batch_folds_duplicates_and_counts_every_item() {
    let mut sketch = GssSketch::with_width(32);
    let items: Vec<StreamEdge> = (0..10).map(|t| StreamEdge::new(5, 9, t, 2)).collect();
    sketch.insert_batch(&items);
    assert_eq!(sketch.edge_weight(5, 9), Some(20));
    assert_eq!(sketch.stored_edges(), 1);
    assert_eq!(sketch.items_inserted(), 10);
}

#[test]
fn empty_and_singleton_batches_behave_like_per_item_inserts() {
    let mut sketch = GssSketch::with_width(16);
    sketch.insert_batch(&[]);
    assert_eq!(sketch.items_inserted(), 0);
    sketch.insert_batch(&[StreamEdge::new(1, 2, 0, 7)]);
    assert_eq!(sketch.edge_weight(1, 2), Some(7));
    assert_eq!(sketch.items_inserted(), 1);
}

#[test]
fn insert_stream_chunks_match_per_item_inserts() {
    // 2500 items crosses the internal 1024-item chunk boundary twice.
    let items = random_items(0x57E4, 2500, 300);
    let mut streamed = GssSketch::new(GssConfig::paper_small(40)).unwrap();
    let mut sequential = GssSketch::new(GssConfig::paper_small(40)).unwrap();
    streamed.insert_stream(&mut items.iter().copied());
    for item in &items {
        sequential.insert_item(item);
    }
    assert_eq!(streamed.items_inserted(), 2500);
    for item in &items {
        assert_eq!(
            streamed.edge_weight(item.source, item.destination),
            sequential.edge_weight(item.source, item.destination)
        );
    }
}

#[test]
fn weights_never_underestimate_on_random_streams() {
    // Over-estimation is allowed (collisions add weight), under-estimation is not.
    let mut sketch = GssSketch::new(GssConfig::paper_small(48).with_fingerprint_bits(8)).unwrap();
    let mut exact = AdjacencyListGraph::new();
    let mut state = 12345u64;
    for _ in 0..3000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let s = (state >> 33) % 400;
        let d = (state >> 17) % 400;
        let w = (state % 5) as i64 + 1;
        sketch.insert(s, d, w);
        exact.insert(s, d, w);
    }
    for (key, weight) in exact.edges() {
        let reported = sketch
            .edge_weight(key.source, key.destination)
            .expect("true edges are never reported absent");
        assert!(reported >= weight, "edge {key:?}: reported {reported} < true {weight}");
    }
}

#[test]
fn successor_sets_never_miss_true_successors_on_random_streams() {
    let mut sketch = GssSketch::new(GssConfig::paper_small(48).with_fingerprint_bits(8)).unwrap();
    let mut exact = AdjacencyListGraph::new();
    let mut state = 98765u64;
    for _ in 0..2000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let s = (state >> 33) % 300;
        let d = (state >> 17) % 300;
        sketch.insert(s, d, 1);
        exact.insert(s, d, 1);
    }
    for v in exact.vertices() {
        let reported = sketch.successors(v);
        for truth in exact.successors(v) {
            assert!(reported.contains(&truth), "missing successor {truth} of {v}");
        }
        let reported_pre = sketch.precursors(v);
        for truth in exact.precursors(v) {
            assert!(reported_pre.contains(&truth), "missing precursor {truth} of {v}");
        }
    }
}
