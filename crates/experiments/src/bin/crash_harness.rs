//! Crash-matrix harness: the halves of CI's kill test (`ci/crash_matrix.sh`).
//!
//! * `crash_harness ingest <sketch> <progress> <items>` — builds a file-backed sketch and
//!   feeds it a deterministic stream batch by batch, rewriting `<progress>` (atomically)
//!   with the acknowledged item count after every batch.  The driver SIGKILLs this
//!   process at a randomized offset.
//! * `crash_harness verify <sketch> <progress>` — reopens the killed sketch
//!   (write-ahead-log recovery), asserts the recovered item count is not behind the last
//!   acknowledged progress, regenerates the same stream and checks every recovered
//!   item's edge weight against an exact reference — GSS never under-estimates, so a
//!   lost item shows up as a missing or under-weight edge.
//! * `crash_harness ingest-threaded <sketch> <progress> <items>` — the multi-writer
//!   variant: [`WRITER_THREADS`] writer threads over one sharded file-backed sketch (one
//!   shard file and write-ahead log per shard), each acknowledging its own interleaved
//!   sub-stream in `<progress>.<t>`, while a reader thread queries concurrently.  The
//!   kill lands mid-flight across several shard files and their logs at once.
//! * `crash_harness verify-threaded <sketch> <progress>` — reopens every shard
//!   (recovering each through its own log — including reclaiming the killed process's
//!   stale `.lock` sidecars), asserts the summed recovered item count covers every
//!   per-thread acknowledgement, and checks the union of the acknowledged prefixes
//!   against an exact reference.
//! * `crash_harness ingest-group <sketch> <progress> <items>` /
//!   `verify-group <sketch> <progress>` — the threaded mode run under a deliberately
//!   **wide** group-commit window ([`GROUP_WINDOW`]), so the randomized SIGKILL almost
//!   always lands inside an unsynced window: acknowledgement is `write()`-based, so even
//!   a kill mid-window must lose zero acknowledged items.  Its shards also checkpoint
//!   automatically every [`GROUP_CHECKPOINT_BYTES`] of log, so kills land inside
//!   checkpoints that race the other writers' lock-free acknowledgement rounds too.
//! * `crash_harness fault-ingest <sketch> <progress> <items>` — the fault-matrix half
//!   (`ci/fault_matrix.sh`): the driver sets `GSS_FAULT_PLAN` to a randomized schedule
//!   of injected I/O faults (`EIO`, `ENOSPC`, torn writes, failed fsync — see
//!   `gss_core::pager::faults`), and ingest runs on the typed `try_insert_batch` path.
//!   A hard fault must fail stop — sticky poison, writes rejected, reads still served —
//!   and the run writes `<progress>.fault` with the [`DurabilityReport`] numbers so the
//!   verify half knows what was promised.
//! * `crash_harness fault-verify <sketch> <progress>` — reopens with the schedule cleared
//!   and holds the report to its word: every item the report called durable must be
//!   recovered (acked ⇒ recovered ∨ reported breached), and the recovered prefix's edges
//!   must answer with at least their exact weights.
//!
//! Exit code 0 means the crash was survived within the documented guarantees.

use gss_core::{
    DurabilityReport, GroupCommit, GssBuilder, GssConfig, GssError, GssSketch, StorageBackend,
};
use gss_graph::{StreamEdge, SummaryRead, SummaryWrite};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Items per `insert_batch` call (and per progress update).
const BATCH: usize = 64;
/// Distinct vertices of the deterministic stream.
const VERTICES: u64 = 20_000;
/// Stream seed: both halves must generate identical items.
const SEED: u64 = 0xC4A5_41D5;
/// Page-cache pages: deliberately smaller than the room region so evictions are exercised
/// mid-run.
const CACHE_PAGES: usize = 64;
/// Cap on exhaustively verified distinct edges (keeps verification seconds-scale).
const VERIFY_EDGE_CAP: usize = 150_000;
/// Writer threads (= shards) of the threaded mode.
const WRITER_THREADS: usize = 3;
/// Group-commit window of the `-group` mode: wide enough (50 ms / 4 MiB) that the
/// randomized kill almost always lands *inside* an unsynced window, proving
/// acknowledgement never leans on the cadence `fdatasync`.
const GROUP_WINDOW: GroupCommit = GroupCommit { max_delay_us: 50_000, max_bytes: 4 * 1024 * 1024 };
/// Per-shard log size at which the `-group` mode checkpoints automatically: small
/// enough that kills also land inside checkpoints racing the other writers' lock-free
/// acknowledgement rounds.  On a 2-core Xeon an unkilled run checkpoints 9 times in
/// 40 000 items (0.3 s) and 24 times in 150 000 (1.0 s), the final sync included (the
/// completion line prints the count).
const GROUP_CHECKPOINT_BYTES: u64 = 256 * 1024;

fn config() -> GssConfig {
    // Small enough to overflow some edges into the left-over buffer (its recovery is
    // part of what the matrix proves), large enough to be file-I/O bound.
    GssConfig::paper_small(128)
}

/// The deterministic stream: an LCG over a fixed vertex universe with weights 1..=5.
fn stream_item(state: &mut u64, time: usize) -> StreamEdge {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    StreamEdge::new(
        (*state >> 33) % VERTICES,
        (*state >> 17) % VERTICES,
        time as u64,
        (*state % 5) as i64 + 1,
    )
}

/// Atomically replaces `path` with `value` (write-to-temp + rename), so a kill between
/// syscalls can never leave a torn progress file.  The temp name *appends* `.tmp`:
/// the per-thread files `<progress>.0`, `.1`, … differ only in their extension, so
/// replacing it would make every writer thread share one temp file and rename each
/// other's counts into place.
fn write_progress(path: &Path, value: u64) {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if std::fs::write(&tmp, value.to_string()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn read_progress(path: &Path) -> u64 {
    std::fs::read_to_string(path).ok().and_then(|text| text.trim().parse().ok()).unwrap_or(0)
}

fn ingest(sketch_path: &Path, progress_path: &Path, items: usize) {
    let storage =
        StorageBackend::File { path: sketch_path.to_path_buf(), cache_pages: CACHE_PAGES };
    let mut sketch = GssSketch::with_storage(config(), storage).expect("sketch file creatable");
    write_progress(progress_path, 0);
    let mut state = SEED;
    let mut produced = 0usize;
    let mut batch = Vec::with_capacity(BATCH);
    while produced < items {
        batch.clear();
        while batch.len() < BATCH && produced + batch.len() < items {
            batch.push(stream_item(&mut state, produced + batch.len()));
        }
        sketch.insert_batch(&batch);
        produced += batch.len();
        // insert_batch returned: these items are now crash-safe, so acknowledging them in
        // the progress file is honest.
        write_progress(progress_path, produced as u64);
    }
    sketch.sync().expect("final checkpoint");
    println!("ingest completed all {produced} items (not killed)");
}

fn verify(sketch_path: &Path, progress_path: &Path) {
    let acknowledged = read_progress(progress_path);
    let sketch = match GssSketch::open_file(sketch_path, CACHE_PAGES) {
        Ok(sketch) => sketch,
        Err(error) if acknowledged == 0 => {
            // Killed before the sketch file finished being created: nothing was
            // acknowledged, so there is nothing to recover.
            println!("nothing acknowledged before the kill (open: {error}); vacuous pass");
            return;
        }
        Err(error) => {
            eprintln!(
                "FAIL: {acknowledged} items acknowledged but recovery failed: {error} \
                 ({})",
                sketch_path.display()
            );
            exit(1);
        }
    };
    let recovered = sketch.items_inserted();
    println!(
        "recovered {recovered} items ({acknowledged} acknowledged, {} matrix edges, \
         {} buffered)",
        sketch.stored_edges() - sketch.buffered_edges(),
        sketch.buffered_edges()
    );
    if recovered < acknowledged {
        eprintln!(
            "FAIL: recovered item count {recovered} is behind the acknowledged {acknowledged}"
        );
        exit(1);
    }
    // One-sidedness of the recovered prefix: every recovered item's edge must be
    // present with at least its exact weight.
    check_prefix_weights(&sketch, recovered);
}

/// Sidecar carrying the ingest half's [`DurabilityReport`] numbers to the verify half.
fn fault_report_path(progress_path: &Path) -> PathBuf {
    let mut name = progress_path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".fault");
    progress_path.with_file_name(name)
}

fn write_fault_report(progress_path: &Path, report: &DurabilityReport) {
    let line = format!(
        "poisoned={} acked={} durable={} breached={}",
        report.poisoned as u8, report.acked_items, report.durable_items, report.breached_items
    );
    if std::fs::write(fault_report_path(progress_path), line).is_err() {
        eprintln!("FAIL: could not record the fault report");
        exit(1);
    }
}

fn read_fault_report(progress_path: &Path) -> DurabilityReport {
    let text = std::fs::read_to_string(fault_report_path(progress_path)).unwrap_or_default();
    let mut report = DurabilityReport::default();
    for field in text.split_whitespace() {
        match field.split_once('=') {
            Some(("poisoned", value)) => report.poisoned = value == "1",
            Some(("acked", value)) => report.acked_items = value.parse().unwrap_or(0),
            Some(("durable", value)) => report.durable_items = value.parse().unwrap_or(0),
            Some(("breached", value)) => report.breached_items = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    report
}

/// One-sided weight check of the recovered prefix: regenerates the exact weights of
/// the stream's first `recovered` items and requires every sampled edge to answer
/// with at least its exact weight — GSS never under-estimates, so any loss shows up.
fn check_prefix_weights(sketch: &GssSketch, recovered: u64) {
    let mut state = SEED;
    let mut exact: HashMap<(u64, u64), i64> = HashMap::new();
    for time in 0..recovered as usize {
        let item = stream_item(&mut state, time);
        *exact.entry((item.source, item.destination)).or_insert(0) += item.weight;
    }
    let step = (exact.len() / VERIFY_EDGE_CAP).max(1);
    let mut checked = 0usize;
    for (index, (&(source, destination), &weight)) in exact.iter().enumerate() {
        if index % step != 0 {
            continue;
        }
        checked += 1;
        match sketch.edge_weight(source, destination) {
            Some(reported) if reported >= weight => {}
            Some(reported) => {
                eprintln!(
                    "FAIL: edge ({source}, {destination}) under-estimated after recovery: \
                     {reported} < {weight}"
                );
                exit(1);
            }
            None => {
                eprintln!(
                    "FAIL: edge ({source}, {destination}) lost after recovery (exact \
                     weight {weight})"
                );
                exit(1);
            }
        }
    }
    println!(
        "verified {checked}/{} recovered distinct edges: no loss, no under-count",
        exact.len()
    );
}

/// Fault-matrix ingest: the library picks the schedule up from `GSS_FAULT_PLAN`; this
/// half ingests on the typed fail-stop path and checks the poisoned-store contract at
/// the moment the first hard fault lands.
fn fault_ingest(sketch_path: &Path, progress_path: &Path, items: usize) {
    let storage =
        StorageBackend::File { path: sketch_path.to_path_buf(), cache_pages: CACHE_PAGES };
    write_progress(progress_path, 0);
    let mut sketch = match GssSketch::with_storage(config(), storage) {
        Ok(sketch) => sketch,
        Err(error) => {
            // The schedule hit creation itself: nothing acknowledged, nothing durable —
            // fail-stop at birth, recorded so the verify half expects an absent store.
            write_fault_report(
                progress_path,
                &DurabilityReport { poisoned: true, ..DurabilityReport::default() },
            );
            println!("fault at creation ({error}); fail-stop at birth, nothing acknowledged");
            return;
        }
    };
    let mut state = SEED;
    let mut produced = 0usize;
    let mut batch = Vec::with_capacity(BATCH);
    let mut probe = None;
    while produced < items {
        batch.clear();
        while batch.len() < BATCH && produced + batch.len() < items {
            batch.push(stream_item(&mut state, produced + batch.len()));
        }
        match sketch.try_insert_batch(&batch) {
            Ok(()) => {
                probe.get_or_insert((batch[0].source, batch[0].destination));
                produced += batch.len();
                write_progress(progress_path, produced as u64);
            }
            Err(GssError::StoreFailed(fault)) => {
                // The poisoned-store contract, checked at the scene of the fault:
                if !sketch.is_poisoned() {
                    eprintln!("FAIL: StoreFailed ingest left the store unpoisoned");
                    exit(1);
                }
                // ...writes are rejected with the same sticky cause...
                if sketch.try_insert(1, 2, 3).is_ok() {
                    eprintln!("FAIL: poisoned store accepted a write");
                    exit(1);
                }
                // ...and reads keep serving (cache hits and degraded image reads).
                if let Some((source, destination)) = probe {
                    let _ = sketch.edge_weight(source, destination);
                }
                let report = sketch.durability_report();
                if report.durable_items > report.acked_items {
                    eprintln!("FAIL: report claims more durable than acknowledged items");
                    exit(1);
                }
                if report.breached_items != report.acked_items - report.durable_items {
                    eprintln!("FAIL: breach count disagrees with acked - durable");
                    exit(1);
                }
                let stats = sketch.detailed_stats();
                write_fault_report(progress_path, &report);
                sketch.abandon();
                println!(
                    "fail-stopped after {produced} acknowledged items: {fault} \
                     (acked {} durable {} breached {}; injected_faults {} io_retries {} \
                     store_poisoned {})",
                    report.acked_items,
                    report.durable_items,
                    report.breached_items,
                    stats.injected_faults,
                    stats.io_retries,
                    stats.store_poisoned,
                );
                return;
            }
            Err(other) => {
                eprintln!("FAIL: unexpected error class from try_insert_batch: {other}");
                exit(1);
            }
        }
    }
    // The schedule never fired mid-stream (or held only transient faults): the run
    // must finish like any healthy ingest, including the final checkpoint — but a
    // sync-shaped schedule can land exactly there, and `checkpoint` fail-stops rather
    // than panics, so a checkpoint error is a legitimate fail-stop outcome too.
    if let Err(error) = sketch.sync() {
        if !sketch.is_poisoned() {
            eprintln!("FAIL: failed final checkpoint left the store unpoisoned: {error}");
            exit(1);
        }
        let report = sketch.durability_report();
        if report.durable_items > report.acked_items
            || report.breached_items != report.acked_items - report.durable_items
        {
            eprintln!("FAIL: incoherent report after checkpoint fail-stop");
            exit(1);
        }
        let stats = sketch.detailed_stats();
        write_fault_report(progress_path, &report);
        sketch.abandon();
        println!(
            "fail-stopped at the final checkpoint after {produced} acknowledged items: \
             {error} (acked {} durable {} breached {}; injected_faults {} io_retries {} \
             store_poisoned {})",
            report.acked_items,
            report.durable_items,
            report.breached_items,
            stats.injected_faults,
            stats.io_retries,
            stats.store_poisoned,
        );
        return;
    }
    let report = sketch.durability_report();
    let stats = sketch.detailed_stats();
    write_fault_report(progress_path, &report);
    println!(
        "fault ingest completed all {produced} items (schedule unfired or transient; \
         injected_faults {} io_retries {})",
        stats.injected_faults, stats.io_retries,
    );
}

/// Fault-matrix verify: runs with the schedule cleared and holds the ingest half's
/// report to its word.
fn fault_verify(sketch_path: &Path, progress_path: &Path) {
    let acknowledged = read_progress(progress_path);
    let report = read_fault_report(progress_path);
    let sketch = match GssSketch::open_file(sketch_path, CACHE_PAGES) {
        Ok(sketch) => sketch,
        Err(error) if report.poisoned && report.durable_items == 0 => {
            println!(
                "store unrecoverable after confessed fault with nothing durable \
                 (open: {error}); honest fail-stop"
            );
            return;
        }
        Err(error) => {
            eprintln!(
                "FAIL: {} durable items promised (poisoned={}) but recovery failed: {error}",
                report.durable_items, report.poisoned
            );
            exit(1);
        }
    };
    let recovered = sketch.items_inserted();
    println!(
        "recovered {recovered} items (report: acked {} durable {} breached {} poisoned {}; \
         progress file {acknowledged})",
        report.acked_items, report.durable_items, report.breached_items, report.poisoned,
    );
    if recovered < report.durable_items {
        eprintln!(
            "FAIL: recovered {recovered} items but the report promised {} durable",
            report.durable_items
        );
        exit(1);
    }
    if !report.poisoned && recovered < acknowledged {
        eprintln!(
            "FAIL: no fault was reported, yet {acknowledged} acknowledged items shrank \
             to {recovered}"
        );
        exit(1);
    }
    check_prefix_weights(&sketch, recovered);
}

/// Thread `t`'s sub-stream: the items of the shared stream whose time index is
/// `t (mod WRITER_THREADS)` — regenerable identically by the verify half.
fn thread_stream(thread: usize, items: usize) -> Vec<StreamEdge> {
    let mut state = SEED;
    (0..items)
        .map(|time| stream_item(&mut state, time))
        .enumerate()
        .filter(|(time, _)| time % WRITER_THREADS == thread)
        .map(|(_, item)| item)
        .collect()
}

fn thread_progress_path(progress_path: &Path, thread: usize) -> PathBuf {
    let mut name = progress_path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".{thread}"));
    progress_path.with_file_name(name)
}

fn shard_sketch_path(sketch_path: &Path, shard: usize) -> PathBuf {
    let mut name = sketch_path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(format!(".shard{shard}"));
    sketch_path.with_file_name(name)
}

fn ingest_threaded(sketch_path: &Path, progress_path: &Path, items: usize, builder: GssBuilder) {
    let storage =
        StorageBackend::File { path: sketch_path.to_path_buf(), cache_pages: CACHE_PAGES };
    let sharded =
        builder.storage(storage).build_sharded(WRITER_THREADS).expect("shard files creatable");
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let sharded = sharded.clone();
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Concurrent queries while the writers run (and while the kill lands): the
            // reader must never deadlock, panic, or see malformed answers.
            let mut vertex = 0u64;
            // relaxed: plain stop flag; reading it one iteration late is harmless.
            while !done.load(Ordering::Relaxed) {
                let successors = sharded.successors(vertex % VERTICES);
                assert!(successors.windows(2).all(|w| w[0] < w[1]));
                vertex += 1;
            }
        })
    };
    let writers: Vec<_> = (0..WRITER_THREADS)
        .map(|t| {
            let sharded = sharded.clone();
            let progress = thread_progress_path(progress_path, t);
            let stream = thread_stream(t, items);
            std::thread::spawn(move || {
                write_progress(&progress, 0);
                for (index, batch) in stream.chunks(BATCH).enumerate() {
                    sharded.insert_batch(batch);
                    // The batch is durable across every shard it touched.
                    write_progress(&progress, (index * BATCH + batch.len()) as u64);
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }
    // relaxed: same stop flag; the join below is the actual synchronization point.
    done.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread");
    sharded.sync().expect("final checkpoint");
    println!(
        "threaded ingest completed all {items} items (not killed) with {} checkpoints",
        sharded.detailed_stats().checkpoints
    );
}

fn verify_threaded(sketch_path: &Path, progress_path: &Path) {
    let acknowledged: Vec<u64> = (0..WRITER_THREADS)
        .map(|t| read_progress(&thread_progress_path(progress_path, t)))
        .collect();
    let total_acknowledged: u64 = acknowledged.iter().sum();
    let mut shards = Vec::new();
    for shard in 0..WRITER_THREADS {
        match GssSketch::open_file(shard_sketch_path(sketch_path, shard), CACHE_PAGES) {
            Ok(sketch) => shards.push(sketch),
            Err(error) if total_acknowledged == 0 => {
                println!("nothing acknowledged before the kill (open: {error}); vacuous pass");
                return;
            }
            Err(error) => {
                eprintln!(
                    "FAIL: {total_acknowledged} items acknowledged but shard {shard} failed to \
                     recover: {error}"
                );
                exit(1);
            }
        }
    }
    let recovered: u64 = shards.iter().map(GssSketch::items_inserted).sum();
    println!(
        "recovered {recovered} items across {WRITER_THREADS} shards \
         ({total_acknowledged} acknowledged: {acknowledged:?})"
    );
    if recovered < total_acknowledged {
        eprintln!(
            "FAIL: recovered item count {recovered} is behind the acknowledged \
             {total_acknowledged}"
        );
        exit(1);
    }
    // Union of the per-thread acknowledged prefixes: every one of these items was
    // durable when its writer's progress write happened, so each edge must answer with
    // at least the union's exact weight (one-sided error permits only over-counting).
    let mut exact: HashMap<(u64, u64), i64> = HashMap::new();
    for (t, &count) in acknowledged.iter().enumerate() {
        // Regenerate enough of the shared stream to cover this thread's first `count`
        // items, then take exactly the acknowledged prefix.
        let horizon = count as usize * WRITER_THREADS + WRITER_THREADS;
        for item in thread_stream(t, horizon).into_iter().take(count as usize) {
            *exact.entry((item.source, item.destination)).or_insert(0) += item.weight;
        }
    }
    let lookup = |source: u64, destination: u64| {
        shards
            .iter()
            .filter_map(|shard| shard.edge_weight(source, destination))
            .reduce(|a, b| a + b)
    };
    let step = (exact.len() / VERIFY_EDGE_CAP).max(1);
    let mut checked = 0usize;
    for (index, (&(source, destination), &weight)) in exact.iter().enumerate() {
        if index % step != 0 {
            continue;
        }
        checked += 1;
        match lookup(source, destination) {
            Some(reported) if reported >= weight => {}
            Some(reported) => {
                eprintln!(
                    "FAIL: edge ({source}, {destination}) under-estimated after threaded \
                     recovery: {reported} < {weight}"
                );
                exit(1);
            }
            None => {
                eprintln!(
                    "FAIL: edge ({source}, {destination}) lost after threaded recovery \
                     (exact weight {weight})"
                );
                exit(1);
            }
        }
    }
    println!(
        "verified {checked}/{} acknowledged distinct edges across shards: no loss, no \
         under-count",
        exact.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let path = |index: usize| PathBuf::from(&args[index]);
    let items = || -> usize { args[4].parse().expect("items must be a number") };
    match (args.get(1).map(String::as_str), args.len()) {
        (Some("ingest"), 5) => ingest(&path(2), &path(3), items()),
        (Some("verify"), 4) => verify(&path(2), &path(3)),
        (Some("ingest-threaded"), 5) => {
            ingest_threaded(&path(2), &path(3), items(), GssBuilder::from_config(config()))
        }
        (Some("ingest-group"), 5) => {
            let builder = GssBuilder::from_config(config())
                .group_commit(GROUP_WINDOW)
                .wal_checkpoint_bytes(GROUP_CHECKPOINT_BYTES);
            ingest_threaded(&path(2), &path(3), items(), builder)
        }
        (Some("verify-threaded" | "verify-group"), 4) => verify_threaded(&path(2), &path(3)),
        (Some("fault-ingest"), 5) => fault_ingest(&path(2), &path(3), items()),
        (Some("fault-verify"), 4) => fault_verify(&path(2), &path(3)),
        _ => {
            eprintln!(
                "usage: crash_harness ingest <sketch> <progress> <items>\n\
                 \x20      crash_harness verify <sketch> <progress>\n\
                 \x20      crash_harness ingest-threaded <sketch> <progress> <items>\n\
                 \x20      crash_harness verify-threaded <sketch> <progress>\n\
                 \x20      crash_harness ingest-group <sketch> <progress> <items>\n\
                 \x20      crash_harness verify-group <sketch> <progress>\n\
                 \x20      crash_harness fault-ingest <sketch> <progress> <items>   \
                 (schedule from GSS_FAULT_PLAN)\n\
                 \x20      crash_harness fault-verify <sketch> <progress>"
            );
            exit(2);
        }
    }
}
