//! Micro-benchmarks of the individual GSS operations (insert, edge query, 1-hop successor
//! query, 1-hop precursor query) against TCM and the exact adjacency list.
//!
//! These are not a paper figure; they support the `O(1)` update / query-cost claims of
//! Section VI-A with wall-clock measurements on this machine.
//!
//! The last group, `sharded_memory`, is the in-process A/B shape for kernel and restore
//! changes (its `restore` row loads a snapshot of every shard):
//! build this target in two trees (each with its own `CARGO_TARGET_DIR`) and run the two
//! binaries alternately; in process it resolves costs smaller than the end-to-end
//! benchmark's run-to-run noise.

use gss_core::{GssConfig, GssSketch, ShardedGss};
use gss_datasets::{PreferentialAttachmentGenerator, SyntheticDataset};
use gss_experiments::{
    build_gss, build_tcm_with_ratio, gss_config_for, DatasetRun, ExperimentScale,
};
use gss_graph::{AdjacencyListGraph, StreamEdge, SummaryRead, SummaryWrite, VertexId};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed runs per row.
const SAMPLES: u32 = 20;
/// Items one insert run adds.
const INSERTS: usize = 1_000;

/// Times [`SAMPLES`] runs of `routine`, each doing `operations` operations, and prints one
/// row: the mean and best time per operation and the rate over all runs.
fn time(group: &str, name: &str, operations: usize, mut routine: impl FnMut() -> usize) {
    let (mut best, mut total) = (Duration::MAX, Duration::ZERO);
    for _ in 0..SAMPLES {
        let start = Instant::now();
        black_box(routine());
        let elapsed = start.elapsed();
        best = best.min(elapsed);
        total += elapsed;
    }
    let per_operation = |run: Duration| run.as_secs_f64() * 1e9 / operations as f64;
    println!(
        "  {group}/{name}: mean {:.1} ns/op, best {:.1} ns/op ({:.3} Mops/s)",
        per_operation(total / SAMPLES),
        per_operation(best),
        1e3 / per_operation(total / SAMPLES),
    );
}

/// Inserts the next [`INSERTS`] items of a synthetic stream numbered from `next`.
fn insert_run(summary: &mut impl SummaryWrite, next: &mut u64) -> usize {
    for _ in 0..INSERTS {
        *next = next.wrapping_add(1);
        summary.insert(black_box(*next % 10_000), black_box((*next * 7) % 10_000), 1);
    }
    INSERTS
}

/// A 2-shard width-128 memory `ShardedGss` holding `items` (load ≈ 0.73 for the
/// deduplicated stream of [`sharded_memory`]), fed in 4 096-item batches.
fn fill_sharded(items: &[StreamEdge]) -> ShardedGss {
    let sketch = ShardedGss::new(GssConfig::paper_default(128), 2).expect("valid configuration");
    for batch in items.chunks(4096) {
        sketch.insert_batch(batch);
    }
    sketch
}

/// Ingest and the three primitive queries on the sharded in-memory sketch, over a
/// deduplicated preferential-attachment stream; prints the load and an answer checksum so
/// two builds can be checked to answer identically.
fn sharded_memory() {
    let mut seen = HashSet::new();
    let items: Vec<StreamEdge> = PreferentialAttachmentGenerator::new(15_000, 60_000, 42)
        .generate()
        .into_iter()
        .filter(|item| seen.insert((item.source, item.destination)))
        .collect();
    time("sharded_memory", "insert_batch", items.len(), || {
        fill_sharded(&items).stats().items_inserted as usize
    });

    let sketch = fill_sharded(&items);
    let edges: Vec<(VertexId, VertexId)> = items
        .iter()
        .step_by(items.len() / 4096)
        .map(|item| (item.source, item.destination))
        .collect();
    let nodes: Vec<VertexId> = edges.iter().step_by(16).map(|&(source, _)| source).collect();
    let precursor_count = || nodes.iter().map(|&v| sketch.precursors(v).len()).sum::<usize>();
    println!(
        "  sharded_memory: {} items, load {:.3}, checksum {}/{}/{}",
        items.len(),
        sketch.detailed_stats().matrix_load_factor,
        edge_hits(&sketch, &edges),
        successor_count(&sketch, &nodes),
        precursor_count(),
    );
    time("sharded_memory", "edge_weight", edges.len(), || edge_hits(&sketch, &edges));
    time("sharded_memory", "successors", nodes.len(), || successor_count(&sketch, &nodes));
    time("sharded_memory", "precursors", nodes.len(), precursor_count);

    // Restore: `from_snapshot` of every shard, the in-process form of `lib_memory`'s
    // `recover_s` (one operation is one restore of the whole store).
    let snapshots: Vec<Vec<u8>> = (0..sketch.shard_count())
        .map(|shard| sketch.with_shard_read(shard, GssSketch::to_snapshot))
        .collect();
    let restore = || -> Vec<GssSketch> {
        snapshots.iter().map(|bytes| GssSketch::from_snapshot(bytes).expect("loads")).collect()
    };
    let restored = restore();
    println!(
        "  sharded_memory: restore checksum {} items, {} stored edges",
        restored.iter().map(GssSketch::items_inserted).sum::<u64>(),
        restored.iter().map(GssSketch::stored_edges).sum::<usize>(),
    );
    // Restored sketches are dropped after timing, as `lib_memory` drops its loads.
    let mut kept = Vec::new();
    time("sharded_memory", "restore", 1, || {
        kept.push(restore());
        kept.len()
    });
}

/// How many of `queries` the summary holds an edge for.
fn edge_hits(summary: &impl SummaryRead, queries: &[(VertexId, VertexId)]) -> usize {
    queries.iter().filter(|&&(s, d)| summary.edge_weight(s, d).is_some()).count()
}

/// The total successor count of `nodes`.
fn successor_count(summary: &impl SummaryRead, nodes: &[VertexId]) -> usize {
    nodes.iter().map(|&v| summary.successors(v).len()).sum()
}

fn main() {
    println!("## micro_operations — per-operation latencies (smoke-scale cit-HepPh stream)\n");
    let dataset = SyntheticDataset::CitHepPh;
    let run = DatasetRun::build(dataset, ExperimentScale::Smoke);
    let widths = run.widths(ExperimentScale::Smoke);
    let width = widths[widths.len() / 2];

    let config = gss_config_for(dataset, width, 16);
    let mut gss = build_gss(config, ExperimentScale::Smoke, &format!("micro-w{width}"));
    let mut tcm = build_tcm_with_ratio(width, 2, 8.0);
    let mut adjacency = AdjacencyListGraph::new();
    run.insert_into(&mut gss);
    run.insert_into(&mut tcm);
    run.insert_into(&mut adjacency);

    let queries: Vec<(VertexId, VertexId)> = run
        .edge_query_sample(256, 0xBEEF)
        .into_iter()
        .map(|(key, _)| (key.source, key.destination))
        .collect();
    let nodes: Vec<VertexId> = run.node_query_sample(256, 0xCAFE);

    let mut next = 0u64;
    time("insert_one_item", "gss", INSERTS, || insert_run(&mut gss, &mut next));
    time("insert_one_item", "tcm", INSERTS, || insert_run(&mut tcm, &mut next));
    time("insert_one_item", "adjacency_list", INSERTS, || insert_run(&mut adjacency, &mut next));

    time("edge_query", "gss", queries.len(), || edge_hits(&gss, &queries));
    time("edge_query", "tcm", queries.len(), || edge_hits(&tcm, &queries));
    time("edge_query", "adjacency_list", queries.len(), || edge_hits(&adjacency, &queries));

    time("one_hop_queries", "gss_successors", nodes.len(), || successor_count(&gss, &nodes));
    time("one_hop_queries", "gss_precursors", nodes.len(), || {
        nodes.iter().map(|&v| gss.precursors(v).len()).sum()
    });
    time("one_hop_queries", "adjacency_successors", nodes.len(), || {
        successor_count(&adjacency, &nodes)
    });

    sharded_memory();
}
