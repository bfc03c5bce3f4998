//! Crash-matrix harness: the two halves of every run of `ci/crash_matrix.sh`.
//!
//! * `crash_harness ingest <lane> <base> <progress> <items>` — builds a file-backed
//!   [`ShardedGss`] at `<base>` with one shard (one sketch file and write-ahead log) per
//!   writer thread.  Writer `t` feeds its interleaved sub-stream of a deterministic
//!   stream through `try_insert_batch` and rewrites `<progress>.t` (atomically) with its
//!   acknowledged item count after every batch; with more than one writer a reader
//!   thread queries concurrently.  The driver either SIGKILLs the process at a
//!   randomized offset or arms `GSS_FAULT_PLAN` with a randomized schedule of injected
//!   I/O faults (`EIO`, `ENOSPC`, torn writes, failed fsync — see
//!   `gss_core::pager::faults`).  A hard fault must fail stop: the ingest checks the
//!   poisoned-store contract at the scene (writes rejected, reads still served, a
//!   coherent [`DurabilityReport`]) and records the report in `<progress>.fault`.
//! * `crash_harness verify <lane> <base> <progress>` — reopens the store the way
//!   `gss-server` restarts a tenant ([`ShardedGss::open_sharded`], which also reclaims a
//!   killed process's stale `.lock` sidecars) and holds the run to what it promised:
//!   every acknowledged item (only the durable ones after a confessed fault) is
//!   recovered, and every acknowledged edge answers with at least its exact weight —
//!   GSS never under-estimates, so a lost item shows up as a missing or under-weight
//!   edge.
//!
//! The lanes are `strict` (one writer), `threaded` (three) and `group` (three under a
//! deliberately wide group-commit window, [`GROUP_WINDOW`], so a kill almost always
//! lands inside an unsynced window, and with a checkpoint every
//! [`GROUP_CHECKPOINT_BYTES`] of shard log, so kills also land inside checkpoints
//! racing the other writers' lock-free acknowledgement rounds).
//!
//! Exit code 0 means the crash was survived within the documented guarantees; any
//! panicking thread ends the process at once with exit code 101.

use gss_core::{
    Durability, DurabilityReport, GroupCommit, GssBuilder, GssConfig, GssError, GssSketch,
    ShardedGss, StorageBackend,
};
use gss_graph::StreamEdge;
use std::collections::HashMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};

/// Items per `try_insert_batch` call (and per progress update).
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
/// Group-commit window of the `group` lane: wide enough (50 ms / 4 MiB) that the
/// randomized kill almost always lands *inside* an unsynced window, proving
/// acknowledgement never leans on the cadence `fdatasync`.
const GROUP_WINDOW: GroupCommit = GroupCommit { max_delay_us: 50_000, max_bytes: 4 * 1024 * 1024 };
/// Per-shard log size at which the `group` lane checkpoints automatically.  On a 2-core
/// Xeon an unkilled run checkpoints 9 times in 40 000 items (0.3 s) and 24 times in
/// 150 000 (1.0 s), the final sync included (the completion line prints the count).
const GROUP_CHECKPOINT_BYTES: u64 = 256 * 1024;

fn config() -> GssConfig {
    // Small enough to overflow some edges into the left-over buffer (its recovery is
    // part of what the matrix proves), large enough to be file-I/O bound.
    GssConfig::paper_small(128)
}

/// A lane's writer count (= shard count) and the builder its ingest starts from.
fn lane(name: &str) -> Option<(usize, GssBuilder)> {
    let builder = GssBuilder::from_config(config());
    match name {
        "strict" => Some((1, builder)),
        "threaded" => Some((3, builder)),
        "group" => Some((
            3,
            builder.group_commit(GROUP_WINDOW).wal_checkpoint_bytes(GROUP_CHECKPOINT_BYTES),
        )),
        _ => None,
    }
}

fn fail(message: impl Display) -> ! {
    eprintln!("FAIL: {message}");
    exit(1);
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

/// Writer `thread`'s sub-stream: the items among the stream's first `items` whose time
/// index is `thread (mod writers)` — regenerable identically by the verify half.
fn thread_stream(thread: usize, writers: usize, items: usize) -> Vec<StreamEdge> {
    let mut state = SEED;
    (0..items)
        .map(|time| stream_item(&mut state, time))
        .enumerate()
        .filter(|(time, _)| time % writers == thread)
        .map(|(_, item)| item)
        .collect()
}

/// `<progress>` with `suffix` appended to its file name.
fn sidecar(progress: &Path, suffix: impl Display) -> PathBuf {
    let mut name = progress.as_os_str().to_owned();
    name.push(format!(".{suffix}"));
    PathBuf::from(name)
}

/// Atomically replaces `path` with `value` (write-to-temp + rename), so a kill between
/// syscalls can never leave a torn progress file.  The temp name *appends* `.tmp`, so
/// the writers' files `<progress>.0`, `.1`, … never share one temp file.
fn write_progress(path: &Path, value: usize) {
    let tmp = sidecar(path, "tmp");
    if std::fs::write(&tmp, value.to_string()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

fn read_progress(path: &Path) -> u64 {
    std::fs::read_to_string(path).ok().and_then(|text| text.trim().parse().ok()).unwrap_or(0)
}

fn write_fault_report(progress: &Path, report: &DurabilityReport) {
    let line = format!(
        "poisoned={} acked={} durable={} breached={}",
        report.poisoned as u8, report.acked_items, report.durable_items, report.breached_items
    );
    if std::fs::write(sidecar(progress, "fault"), line).is_err() {
        fail("could not record the fault report");
    }
}

/// The ingest's [`DurabilityReport`] numbers; all zero (unpoisoned) when no fault was
/// recorded.
fn read_fault_report(progress: &Path) -> DurabilityReport {
    let text = std::fs::read_to_string(sidecar(progress, "fault")).unwrap_or_default();
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

fn ingest(writers: usize, builder: GssBuilder, base: &Path, progress: &Path, items: usize) {
    for thread in 0..writers {
        write_progress(&sidecar(progress, thread), 0);
    }
    let storage = StorageBackend::File { path: base.to_path_buf(), cache_pages: CACHE_PAGES };
    let sharded = match builder.storage(storage).build_sharded(writers) {
        Ok(sharded) => sharded,
        Err(error) => {
            // A fault hit creation itself: nothing acknowledged, nothing durable —
            // fail-stop at birth, recorded so verify expects nothing.
            write_fault_report(
                progress,
                &DurabilityReport { poisoned: true, ..Default::default() },
            );
            println!("fault at creation ({error}); fail-stop at birth, nothing acknowledged");
            return;
        }
    };
    let done = AtomicBool::new(false);
    let outcomes: Vec<Result<(), GssError>> = std::thread::scope(|scope| {
        if writers > 1 {
            // Concurrent queries while the writers run (and while the kill lands): the
            // reader must never deadlock, panic, or see malformed answers.
            scope.spawn(|| {
                let mut vertex = 0u64;
                // relaxed: plain stop flag; reading it one iteration late is harmless.
                while !done.load(Ordering::Relaxed) {
                    let successors = sharded.successors(vertex % VERTICES);
                    assert!(successors.windows(2).all(|w| w[0] < w[1]), "unsorted successors");
                    vertex += 1;
                }
            });
        }
        let writer_threads: Vec<_> = (0..writers)
            .map(|thread| {
                let sharded = &sharded;
                scope.spawn(move || {
                    let mut acknowledged = 0;
                    for batch in thread_stream(thread, writers, items).chunks(BATCH) {
                        sharded.try_insert_batch(batch)?;
                        // Returned: durable across every shard the batch touched.
                        acknowledged += batch.len();
                        write_progress(&sidecar(progress, thread), acknowledged);
                    }
                    Ok(())
                })
            })
            .collect();
        let outcomes = writer_threads.into_iter().map(|w| w.join().expect("writer")).collect();
        // relaxed: same stop flag; the scope's join is the actual synchronization point.
        done.store(true, Ordering::Relaxed);
        outcomes
    });
    match outcomes.into_iter().find_map(Result::err) {
        Some(GssError::StoreFailed(fault)) => return fail_stop(sharded, fault, progress),
        Some(other) => fail(format!("unexpected error class from try_insert_batch: {other}")),
        None => {}
    }
    // The schedule never fired mid-stream (or held only transient faults): the run
    // finishes like any healthy ingest — but a sync-shaped schedule can land on the
    // final checkpoint, which fail-stops rather than panics.
    if let Err(error) = sharded.sync() {
        return fail_stop(sharded, error, progress);
    }
    let stats = sharded.detailed_stats();
    println!(
        "ingest completed all {items} items (not killed): {} checkpoints, injected_faults {} \
         io_retries {}",
        stats.checkpoints, stats.injected_faults, stats.io_retries
    );
}

/// The poisoned-store contract, checked at the scene of the fault; then the report goes
/// to `<progress>.fault` and the store is abandoned as a kill would leave it.
fn fail_stop(sharded: ShardedGss, cause: impl Display, progress: &Path) {
    let poisoned =
        (0..sharded.shard_count()).find(|&s| sharded.with_shard_read(s, |g| g.is_poisoned()));
    let Some(poisoned) = poisoned else {
        fail(format!("fail-stop left the store unpoisoned: {cause}"))
    };
    // ...writes are rejected with the same sticky cause: a one-item write routed to the
    // poisoned shard (an in-memory twin with as many shards shows where a source lands)...
    let twin = ShardedGss::new(config(), sharded.shard_count()).expect("valid configuration");
    let source = (0..)
        .find(|&source| {
            twin.insert(source, 0, 1);
            twin.with_shard_read(poisoned, GssSketch::items_inserted) > 0
        })
        .expect("some source lands on every shard");
    if sharded.try_insert_batch(&[StreamEdge::new(source, 2, 0, 3)]).is_ok() {
        fail("poisoned store accepted a write");
    }
    // ...and reads of the poisoned shard keep serving (cache hits, degraded image reads).
    let _ = sharded.successors(source);
    let report = sharded.durability_report();
    if report.durable_items > report.acked_items
        || report.breached_items != report.acked_items - report.durable_items
    {
        fail(format!("incoherent durability report after fail-stop: {report:?}"));
    }
    let stats = sharded.detailed_stats();
    write_fault_report(progress, &report);
    if sharded.abandon().is_err() {
        fail("a writer still holds the store");
    }
    println!(
        "fail-stopped: {cause} (acked {} durable {} breached {}; injected_faults {} \
         io_retries {} store_poisoned {})",
        report.acked_items,
        report.durable_items,
        report.breached_items,
        stats.injected_faults,
        stats.io_retries,
        stats.store_poisoned,
    );
}

fn verify(writers: usize, base: &Path, progress: &Path) {
    let acknowledged: Vec<u64> =
        (0..writers).map(|thread| read_progress(&sidecar(progress, thread))).collect();
    let total: u64 = acknowledged.iter().sum();
    let report = read_fault_report(progress);
    // A confessed fault promises its durable items; otherwise every acknowledged one.
    let promised = report.durable_items.max(if report.poisoned { 0 } else { total });
    let opened = ShardedGss::open_sharded(
        base,
        writers,
        CACHE_PAGES,
        Durability::Strict,
        GroupCommit::default(),
    );
    let sharded = match opened {
        Ok(sharded) => sharded,
        Err(error) if promised == 0 => {
            println!("nothing promised before the crash (open: {error}); vacuous pass");
            return;
        }
        Err(error) => fail(format!("{promised} items promised but recovery failed: {error}")),
    };
    let recovered = sharded.stats().items_inserted;
    println!(
        "recovered {recovered} items across {writers} shard(s) ({total} acknowledged: \
         {acknowledged:?}; report: poisoned {} durable {})",
        report.poisoned, report.durable_items
    );
    if recovered < promised {
        fail(format!("recovered {recovered} items, fewer than the {promised} promised"));
    }
    // One-sidedness: a lone writer's recovered items are a prefix of its stream, so all
    // of them are checked; several writers' logs interleave, so the union of their
    // acknowledged prefixes is — each edge must answer with at least its exact weight.
    let prefixes = if writers == 1 { vec![recovered] } else { acknowledged };
    let mut exact: HashMap<(u64, u64), i64> = HashMap::new();
    for (thread, &count) in prefixes.iter().enumerate() {
        let horizon = count as usize * writers + writers;
        for item in thread_stream(thread, writers, horizon).into_iter().take(count as usize) {
            *exact.entry((item.source, item.destination)).or_insert(0) += item.weight;
        }
    }
    let step = (exact.len() / VERIFY_EDGE_CAP).max(1);
    for (&(source, destination), &weight) in exact.iter().step_by(step) {
        match sharded.edge_weight(source, destination) {
            Some(reported) if reported >= weight => {}
            reported => fail(format!(
                "edge ({source}, {destination}) lost or under-estimated after recovery: \
                 {reported:?} < {weight}"
            )),
        }
    }
    println!(
        "verified {}/{} acknowledged distinct edges: no loss, no under-count",
        exact.len().div_ceil(step),
        exact.len()
    );
}

fn main() {
    // A panicking writer or reader must end the run at once: left alone, its siblings
    // keep acknowledging, the kill lands as planned, and verify passes on the shorter
    // prefix the dead thread left behind.
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report_panic(info);
        exit(101);
    }));
    let args: Vec<String> = std::env::args().collect();
    let path = |index: usize| PathBuf::from(&args[index]);
    match (args.get(1).map(String::as_str), args.get(2).and_then(|name| lane(name)), args.len()) {
        (Some("ingest"), Some((writers, builder)), 6) => {
            let items = args[5].parse().unwrap_or_else(|_| fail("items must be a number"));
            ingest(writers, builder, &path(3), &path(4), items);
        }
        (Some("verify"), Some((writers, _)), 5) => verify(writers, &path(3), &path(4)),
        _ => {
            eprintln!(
                "usage: crash_harness ingest <lane> <base> <progress> <items>\n\
                 \x20      crash_harness verify <lane> <base> <progress>\n\
                 lanes: strict (1 writer), threaded (3), group (3, wide commit window); \
                 GSS_FAULT_PLAN arms injected I/O faults"
            );
            exit(2);
        }
    }
}
