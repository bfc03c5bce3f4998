//! Query-path scaling: successor/precursor/edge-query throughput across matrix load
//! factors on **both storage backends**, measuring the occupancy-indexed scans against
//! the naive full-grid baseline they replaced (and reporting page-touch counts on the
//! file backend, where a naive precursor query faults in nearly every page of the sketch
//! file because column scans stride across the row-major layout).
//!
//! The stream is a Zipf(α = 1.1) edge mix and the query vertices are drawn from the same
//! distribution, so hubs are queried more often — the shape of a read-heavy serving
//! workload.  Results are printed as a table and written as `BENCH_query.json` at the
//! workspace root via [`gss_experiments::BenchReport`], seeding the repo's first
//! query-performance trajectory next to `BENCH_ingest.json` and `BENCH_snapshot.json`.

use gss_core::{naive_scan_column, naive_scan_row, GssConfig, GssSketch, StorageBackend};
use gss_datasets::{Xoshiro256, ZipfSampler};
use gss_experiments::{fmt_float, BenchReport, ExperimentScale, Table};
use gss_graph::{StreamEdge, SummaryRead, SummaryWrite};
use std::path::PathBuf;
use std::time::Instant;

/// Swept matrix load factors (fraction of rooms occupied before querying) — the serving
/// regime, where a sketch is provisioned with headroom.  The index's win shrinks toward
/// 1× as the load factor approaches 1 (nothing is empty to skip); the equivalence
/// property tests pin that it never changes results at any load.
const LOAD_TARGETS: [f64; 3] = [0.01, 0.03, 0.08];
/// Items handed to one `insert_batch` call while filling.
const BATCH: usize = 512;

fn matrix_width(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 160,
        ExperimentScale::Laptop => 400,
        ExperimentScale::Paper => 1000,
    }
}

/// Queries per measurement on the indexed (production) path.
fn indexed_queries(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 400,
        ExperimentScale::Laptop => 2_000,
        ExperimentScale::Paper => 5_000,
    }
}

/// Queries per measurement on the naive full-grid baseline (fewer — the baseline is the
/// slow side by design; rates are reported per query, so the counts need not match).
fn naive_queries(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 60,
        ExperimentScale::Laptop => 200,
        ExperimentScale::Paper => 400,
    }
}

fn zipf_stream(items: usize, vertices: usize, seed: u64) -> Vec<StreamEdge> {
    let sampler = ZipfSampler::new(vertices, 1.1);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..items)
        .map(|t| {
            let source = sampler.sample(&mut rng) as u64 - 1;
            let destination = sampler.sample(&mut rng) as u64 - 1;
            StreamEdge::new(source, destination, t as u64, 1)
        })
        .collect()
}

fn zipf_vertices(count: usize, vertices: usize, seed: u64) -> Vec<u64> {
    let sampler = ZipfSampler::new(vertices, 1.1);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count).map(|_| sampler.sample(&mut rng) as u64 - 1).collect()
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-query-scaling-{}-{name}.gss", std::process::id()))
}

/// Inserts stream prefixes until the matrix holds at least `target_rooms` occupied rooms;
/// returns the number of items consumed.
fn fill_to_load(sketch: &mut GssSketch, stream: &[StreamEdge], target_rooms: usize) -> usize {
    let mut consumed = 0;
    for batch in stream.chunks(BATCH) {
        if sketch.stats().occupied_slots >= target_rooms {
            break;
        }
        sketch.insert_batch(batch);
        consumed += batch.len();
    }
    if sketch.stats().occupied_slots < target_rooms {
        eprintln!("warning: stream exhausted below the target load");
    }
    consumed
}

/// The production successor query restricted to the hashed space (isolates the scan path
/// from node-id translation, which is identical in both variants).
fn successor_len(sketch: &GssSketch, vertex: u64) -> usize {
    sketch.successor_hashes(vertex).len()
}

fn precursor_len(sketch: &GssSketch, vertex: u64) -> usize {
    sketch.precursor_hashes(vertex).len()
}

/// Naive reference successor query: the same loop as [`GssSketch::successor_hashes`], but
/// over full-grid row scans that ignore the occupancy index (matrix part only — the
/// left-over buffer is empty at the swept loads, which the driver asserts).
fn naive_successor_hashes(sketch: &GssSketch, vertex: u64) -> Vec<u64> {
    let hasher = sketch.hasher();
    let node = hasher.hashed_node(vertex);
    let mut result = Vec::new();
    for (index, &row) in hasher.address_sequence(node).iter().enumerate() {
        naive_scan_row(sketch.room_storage(), row, &mut |column, room| {
            if room.source_fingerprint == node.fingerprint && room.source_index as usize == index {
                result.push(hasher.recover_hash(
                    column,
                    room.destination_fingerprint,
                    room.destination_index as usize,
                ));
            }
        });
    }
    result.sort_unstable();
    result.dedup();
    result
}

fn naive_precursor_hashes(sketch: &GssSketch, vertex: u64) -> Vec<u64> {
    let hasher = sketch.hasher();
    let node = hasher.hashed_node(vertex);
    let mut result = Vec::new();
    for (index, &column) in hasher.address_sequence(node).iter().enumerate() {
        naive_scan_column(sketch.room_storage(), column, &mut |row, room| {
            if room.destination_fingerprint == node.fingerprint
                && room.destination_index as usize == index
            {
                result.push(hasher.recover_hash(
                    row,
                    room.source_fingerprint,
                    room.source_index as usize,
                ));
            }
        });
    }
    result.sort_unstable();
    result.dedup();
    result
}

/// Times `query` over `queries`, returning (seconds, page-touch delta per query when
/// file-backed).  The result length is accumulated so the loop cannot be optimised away.
fn measure(
    sketch: &GssSketch,
    queries: &[u64],
    mut query: impl FnMut(&GssSketch, u64) -> usize,
) -> (f64, f64, f64) {
    let pages = || {
        sketch.room_storage().as_file().map(|_| {
            let stats = sketch.detailed_stats();
            (stats.page_lookups, stats.page_faults)
        })
    };
    let before = pages();
    let start = Instant::now();
    let mut touched = 0usize;
    for &vertex in queries {
        touched += query(sketch, vertex);
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(touched);
    let (lookups, faults) = match (before, pages()) {
        (Some(before), Some(after)) => (
            (after.0 - before.0) as f64 / queries.len() as f64,
            (after.1 - before.1) as f64 / queries.len() as f64,
        ),
        _ => (0.0, 0.0),
    };
    (seconds, lookups, faults)
}

struct LoadPoint {
    load_factor: f64,
    items: usize,
    edge_qps: f64,
    successor_qps: f64,
    precursor_qps: f64,
    successor_naive_qps: f64,
    precursor_naive_qps: f64,
    indexed_pages_per_query: f64,
    naive_pages_per_query: f64,
    indexed_faults_per_query: f64,
    naive_faults_per_query: f64,
}

fn main() {
    let scale = gss_bench::bench_scale("query_scaling");
    let config = GssConfig::paper_default(matrix_width(scale));
    let room_count = config.room_count();
    let max_target = (LOAD_TARGETS[LOAD_TARGETS.len() - 1] * room_count as f64) as usize;
    // 8× headroom over the densest target covers Zipf duplicate folding.
    let stream = zipf_stream(max_target * 8, 60_000, 0x0051_CA1E);
    let query_vertices = zipf_vertices(indexed_queries(scale), 60_000, 0x00AD_BEEF);
    let naive_vertices: Vec<u64> =
        query_vertices.iter().copied().take(naive_queries(scale)).collect();
    // A page cache an eighth of the matrix: large enough to be a real cache, small enough
    // that full-grid column scans thrash it (the regime the index exists for).
    let matrix_pages = (room_count * gss_core::ROOM_RECORD_BYTES).div_ceil(4096).max(1);
    let cache_pages = (matrix_pages / 8).max(8);

    let mut table = Table::new(
        format!(
            "Query scaling — width {}, {} indexed / {} naive queries per point ({} scale)",
            config.width,
            query_vertices.len(),
            naive_vertices.len(),
            scale.name()
        ),
        &["backend", "load", "edge_qps", "succ_qps", "prec_qps", "prec_naive_qps", "prec_speedup"],
    );
    let mut report = BenchReport::new("query")
        .context("scale", scale.name())
        .context("width", config.width)
        .context("rooms_per_bucket", config.rooms)
        .context("sequence_length", config.sequence_length)
        .context("distinct_vertices", 60_000)
        .context("zipf_exponent", "1.1")
        .context("indexed_queries", query_vertices.len())
        .context("naive_queries", naive_vertices.len())
        .context("file_cache_pages", cache_pages)
        .context("matrix_pages", matrix_pages);

    for backend_name in ["memory", "file"] {
        let mut naive_seconds_total = 0.0;
        let mut indexed_seconds_total = 0.0;
        let mut points: Vec<LoadPoint> = Vec::new();
        for &load in &LOAD_TARGETS {
            let target_rooms = (load * room_count as f64) as usize;
            let file_path = (backend_name == "file")
                .then(|| temp_path(&format!("l{}", (load * 1000.0) as usize)));
            let storage = match &file_path {
                None => StorageBackend::Memory,
                Some(path) => StorageBackend::File { path: path.clone(), cache_pages },
            };
            let mut sketch = GssSketch::with_storage(config, storage).expect("valid config");
            let items = fill_to_load(&mut sketch, &stream, target_rooms);
            assert_eq!(
                sketch.buffered_edges(),
                0,
                "swept loads must stay below buffer spill so naive and indexed queries \
                 compare the same rooms"
            );
            // Sanity: the indexed query answers exactly what the naive reference answers.
            for &vertex in naive_vertices.iter().take(16) {
                assert_eq!(
                    sketch.successor_hashes(vertex),
                    naive_successor_hashes(&sketch, vertex)
                );
                assert_eq!(
                    sketch.precursor_hashes(vertex),
                    naive_precursor_hashes(&sketch, vertex)
                );
            }

            let pairs: Vec<(u64, u64)> = stream
                .iter()
                .take(query_vertices.len())
                .map(|edge| (edge.source, edge.destination))
                .collect();
            let edge_start = Instant::now();
            let mut present = 0usize;
            for &(s, d) in &pairs {
                present += usize::from(sketch.edge_weight(s, d).is_some());
            }
            let edge_seconds = edge_start.elapsed().as_secs_f64();
            std::hint::black_box(present);

            let (succ_seconds, _, _) = measure(&sketch, &query_vertices, successor_len);
            let (prec_seconds, prec_pages, prec_faults) =
                measure(&sketch, &query_vertices, precursor_len);
            let (succ_naive_seconds, _, _) =
                measure(&sketch, &naive_vertices, |s, v| naive_successor_hashes(s, v).len());
            let (prec_naive_seconds, prec_naive_pages, prec_naive_faults) =
                measure(&sketch, &naive_vertices, |s, v| naive_precursor_hashes(s, v).len());

            naive_seconds_total += prec_naive_seconds / naive_vertices.len() as f64;
            indexed_seconds_total += prec_seconds / query_vertices.len() as f64;
            points.push(LoadPoint {
                load_factor: sketch.detailed_stats().matrix_load_factor,
                items,
                edge_qps: pairs.len() as f64 / edge_seconds,
                successor_qps: query_vertices.len() as f64 / succ_seconds,
                precursor_qps: query_vertices.len() as f64 / prec_seconds,
                successor_naive_qps: naive_vertices.len() as f64 / succ_naive_seconds,
                precursor_naive_qps: naive_vertices.len() as f64 / prec_naive_seconds,
                indexed_pages_per_query: prec_pages,
                naive_pages_per_query: prec_naive_pages,
                indexed_faults_per_query: prec_faults,
                naive_faults_per_query: prec_naive_faults,
            });
            if let Some(path) = file_path {
                drop(sketch);
                std::fs::remove_file(path).ok();
            }
        }

        for point in &points {
            let speedup = point.precursor_qps / point.precursor_naive_qps;
            report.push(
                backend_name,
                &[
                    ("load_factor", point.load_factor),
                    ("items", point.items as f64),
                    ("edge_qps", point.edge_qps),
                    ("successor_qps", point.successor_qps),
                    ("precursor_qps", point.precursor_qps),
                    ("successor_naive_qps", point.successor_naive_qps),
                    ("precursor_naive_qps", point.precursor_naive_qps),
                    ("successor_speedup", point.successor_qps / point.successor_naive_qps),
                    ("precursor_speedup", speedup),
                    ("indexed_pages_per_query", point.indexed_pages_per_query),
                    ("naive_pages_per_query", point.naive_pages_per_query),
                    ("indexed_faults_per_query", point.indexed_faults_per_query),
                    ("naive_faults_per_query", point.naive_faults_per_query),
                ],
            );
            table.push_row(vec![
                backend_name.to_string(),
                format!("{:.3}", point.load_factor),
                fmt_float(point.edge_qps),
                fmt_float(point.successor_qps),
                fmt_float(point.precursor_qps),
                fmt_float(point.precursor_naive_qps),
                format!("{:.2}x", speedup),
            ]);
        }
        // Aggregate across the sweep: total per-query time, naive vs indexed.
        report.push(
            format!("{backend_name}_aggregate"),
            &[("precursor_speedup", naive_seconds_total / indexed_seconds_total)],
        );
    }

    table.print();
    match report.write() {
        Ok(path) => println!("(json written to {})", path.display()),
        Err(error) => eprintln!("warning: could not write BENCH_query.json: {error}"),
    }
}
