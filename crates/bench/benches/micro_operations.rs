//! Micro-benchmarks of the individual GSS operations (insert, edge query, 1-hop successor
//! query, 1-hop precursor query) against TCM and the exact adjacency list.
//!
//! These are not a paper figure; they support the `O(1)` update / query-cost claims of
//! Section VI-A with wall-clock measurements on this machine.

use gss_datasets::SyntheticDataset;
use gss_experiments::{build_gss, build_tcm_with_ratio, DatasetRun, ExperimentScale};
use gss_graph::{AdjacencyListGraph, SummaryRead, SummaryWrite, VertexId};
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

    let mut gss = build_gss(dataset, width, 16);
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
}
