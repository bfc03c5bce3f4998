//! The runtime counters of one file-backed store: [`StoreCounters`].
//!
//! A [`FileStore`](crate::FileStore) creates one set when it is created or opened and
//! shares it with everything that does counted work: its page cache, the file handles of
//! the sketch file and of the write-ahead log, the log writer, the log's group-commit
//! membership and the checkpoint path.  Counters are named after the
//! [`GssStats`](crate::GssStats) fields they fill, which
//! [`GssSketch::detailed_stats`](crate::GssSketch::detailed_stats) reads with one atomic
//! load each, taking none of the store's locks.  Every bump goes through [`add`] and every
//! read through [`get`], the one place a statistics counter's `Relaxed` ordering is
//! justified.

use std::sync::atomic::{AtomicU64, Ordering};

/// One store's cumulative runtime counters, all zero when the store is created or opened.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Drains of the write-ahead log's pending frames into the log file.
    pub wal_flushes: AtomicU64,
    /// Group-commit drain rounds this store's committers led.
    pub wal_group_commits: AtomicU64,
    /// Commits that parked behind another in-flight drain round instead of leading one.
    pub wal_group_waits: AtomicU64,
    /// `fdatasync` calls issued against the write-ahead log (cadence and checkpoints).
    pub fsyncs: AtomicU64,
    /// Dirty pages written back to the sketch file (on eviction and by checkpoints).
    pub pages_flushed: AtomicU64,
    /// Completed checkpoints.
    pub checkpoints: AtomicU64,
    /// Page-cache lookups (every room read or write touches one page).
    pub page_lookups: AtomicU64,
    /// Lookups that missed and faulted the page in from disk.
    pub page_faults: AtomicU64,
    /// Page-latch acquisitions that had to block behind another thread.
    pub page_latch_waits: AtomicU64,
    /// Bounded transient-failure retries (`EINTR`, short reads) of either file handle.
    pub io_retries: AtomicU64,
    /// Faults an armed [`FaultPlan`](crate::pager::faults::FaultPlan) injected through
    /// either handle (per handle, never the plan's shared count); 0 in production.
    pub injected_faults: AtomicU64,
}

/// Adds `n` to a statistics counter.
pub fn add(counter: &AtomicU64, n: u64) {
    // relaxed: a statistics counter orders no other memory — readers want an
    // eventually-fresh total, and an atomic add loses no bump either way.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Reads a statistics counter (see [`add`]).
pub fn get(counter: &AtomicU64) -> u64 {
    // relaxed: see `add`.
    counter.load(Ordering::Relaxed)
}
