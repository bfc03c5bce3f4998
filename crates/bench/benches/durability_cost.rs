//! Durability cost: what crash consistency charges the ingest path, and what recovery
//! costs at reopen time.
//!
//! Two sweeps over one Zipf stream:
//!
//! * **Ingest throughput** — in-memory baseline vs the file backend (write-ahead log
//!   drained per commit through the group-commit coordinator, one cadence `fdatasync`
//!   per window).  The cache is sized *below* the room region, so page eviction and
//!   write-back show up in the reported numbers.
//! * **Recovery time vs WAL length** — file sketches abandoned (crash-simulated)
//!   at growing stream prefixes, then reopened through write-ahead-log replay; reports
//!   the log length and the wall-clock cost of `GssSketch::open_file`, plus the clean
//!   open time as the no-replay baseline.
//!
//! Results are printed as a table and written as `BENCH_durability.json` at the
//! workspace root via [`gss_experiments::BenchReport`].

use gss_core::{GssConfig, GssSketch, StorageBackend};
use gss_datasets::{Xoshiro256, ZipfSampler};
use gss_experiments::{fmt_float, BenchReport, ExperimentScale, Table};
use gss_graph::{StreamEdge, SummaryWrite};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Items handed to one `insert_batch` call.
const BATCH: usize = 512;

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

fn stream_items(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 100_000,
        ExperimentScale::Laptop => 500_000,
        ExperimentScale::Paper => 2_000_000,
    }
}

fn matrix_width(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 160,
        ExperimentScale::Laptop => 400,
        ExperimentScale::Paper => 1000,
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gss-durability-{}-{name}", std::process::id()))
}

fn ingest(sketch: &mut GssSketch, items: &[StreamEdge]) -> f64 {
    let start = Instant::now();
    for batch in items.chunks(BATCH) {
        sketch.insert_batch(batch);
    }
    start.elapsed().as_secs_f64()
}

fn file_sketch(config: GssConfig, path: &Path, cache_pages: usize) -> GssSketch {
    GssSketch::with_storage(config, StorageBackend::File { path: path.to_path_buf(), cache_pages })
        .expect("sketch file creatable in the temp dir")
}

fn main() {
    let scale = gss_bench::bench_scale("durability_cost");
    let items = zipf_stream(stream_items(scale), 60_000, 0xD04A_B1E5);
    let config = GssConfig::paper_default(matrix_width(scale));
    // Cap the cache below the room region so eviction and write-back are actually
    // exercised: with the whole matrix resident (smoke scale used to fit in
    // `file_cache_pages()`), every run reported `pages_flushed: 0` and the "write-back"
    // cost it claimed to measure never happened.
    let room_pages = (config.width * config.width * config.rooms * gss_core::ROOM_RECORD_BYTES)
        .div_ceil(gss_core::PAGE_BYTES);
    let cache_pages = scale.file_cache_pages().min(room_pages / 2).max(8);
    let mitems = |count: usize, seconds: f64| count as f64 / seconds / 1e6;

    let mut table = Table::new(
        format!(
            "Durability cost — {} Zipf items, width {} ({} scale)",
            items.len(),
            config.width,
            scale.name()
        ),
        &["measure", "seconds", "rate / detail"],
    );
    let mut report = BenchReport::new("durability")
        .context("scale", scale.name())
        .context("items", items.len())
        .context("width", config.width)
        .context("cache_pages", cache_pages)
        .context("batch", BATCH);

    // Ingest throughput: memory vs the file backend over the same stream.
    let mut memory_sketch = GssSketch::new(config).expect("valid config");
    let memory_seconds = ingest(&mut memory_sketch, &items);
    drop(memory_sketch);
    {
        let path = temp_path("ingest-strict.gss");
        let mut sketch = file_sketch(config, &path, cache_pages);
        let seconds = ingest(&mut sketch, &items);
        let stats = sketch.detailed_stats();
        drop(sketch);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(gss_core::wal_path(&path)).ok();
        table.push_row(vec![
            "ingest file (strict)".into(),
            fmt_float(seconds),
            format!(
                "{} Mitems/s, {} wal flushes, {} pages flushed, \
                 {} group commits ({} waited), {} fsyncs, \
                 {} io retries / {} injected faults / poisoned {}",
                fmt_float(mitems(items.len(), seconds)),
                stats.wal_flushes,
                stats.pages_flushed,
                stats.wal_group_commits,
                stats.wal_group_waits,
                stats.fsyncs,
                stats.io_retries,
                stats.injected_faults,
                stats.store_poisoned
            ),
        ]);
        // The fault-path counters belong in the trajectory precisely because they must
        // stay zero here: a bench run with injected faults or a poisoned store is not
        // measuring ingest cost, and any nonzero retry count on healthy I/O is news.
        // (The committed trajectory and the bench guard key on the row's `strict` name.)
        report.push(
            "ingest_file_strict",
            &[
                ("seconds", seconds),
                ("mitems_per_sec", mitems(items.len(), seconds)),
                ("wal_flushes", stats.wal_flushes as f64),
                ("pages_flushed", stats.pages_flushed as f64),
                ("wal_group_commits", stats.wal_group_commits as f64),
                ("wal_group_waits", stats.wal_group_waits as f64),
                ("fsyncs", stats.fsyncs as f64),
                ("io_retries", stats.io_retries as f64),
                ("injected_faults", stats.injected_faults as f64),
                ("store_poisoned", stats.store_poisoned as f64),
            ],
        );
    }
    table.push_row(vec![
        "ingest memory".into(),
        fmt_float(memory_seconds),
        format!("{} Mitems/s", fmt_float(mitems(items.len(), memory_seconds))),
    ]);
    report.push(
        "ingest_memory",
        &[("seconds", memory_seconds), ("mitems_per_sec", mitems(items.len(), memory_seconds))],
    );

    // Recovery time vs WAL length: abandon (crash-simulate) file sketches at growing
    // prefixes and time the write-ahead-log replay on reopen.
    for percent in [25usize, 50, 100] {
        let count = (items.len() * percent / 100).max(BATCH);
        let path = temp_path(&format!("recover-{percent}.gss"));
        let mut sketch = file_sketch(config, &path, cache_pages);
        ingest(&mut sketch, &items[..count]);
        let wal_bytes = sketch.detailed_stats().wal_bytes;
        sketch.abandon();
        let start = Instant::now();
        let recovered = GssSketch::open_file(&path, cache_pages).expect("recovery succeeds");
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(recovered.items_inserted(), count as u64, "no item loss in recovery");
        drop(recovered);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(gss_core::wal_path(&path)).ok();
        table.push_row(vec![
            format!("recover {percent}% ({count} items)"),
            fmt_float(seconds),
            format!("{:.1} MB wal replayed", wal_bytes as f64 / (1024.0 * 1024.0)),
        ]);
        report.push(
            format!("recover_{percent}pct"),
            &[("items", count as f64), ("wal_bytes", wal_bytes as f64), ("seconds", seconds)],
        );
    }

    // Clean-open baseline: the same file checkpointed properly, no replay needed.
    {
        let path = temp_path("clean-open.gss");
        let mut sketch = file_sketch(config, &path, cache_pages);
        ingest(&mut sketch, &items);
        sketch.sync().expect("checkpoint");
        drop(sketch);
        let start = Instant::now();
        let reopened = GssSketch::open_file(&path, cache_pages).expect("clean reopen");
        let seconds = start.elapsed().as_secs_f64();
        drop(reopened);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(gss_core::wal_path(&path)).ok();
        table.push_row(vec!["open clean (no replay)".into(), fmt_float(seconds), "-".into()]);
        report.push("open_clean", &[("seconds", seconds)]);
    }

    table.print();
    match report.write() {
        Ok(path) => println!("(json written to {})", path.display()),
        Err(error) => eprintln!("warning: could not write BENCH_durability.json: {error}"),
    }
}
