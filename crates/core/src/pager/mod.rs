//! The pager: concurrent paged I/O shared by the file-backed room store.
//!
//! [`FileStore`](crate::FileStore) used to funnel every room read and write through one
//! `Mutex` around its file handle, page table and occupancy index, which serialized all
//! shards' readers and writers inside a single store.  This module family replaces that
//! monolith with independently locked pieces:
//!
//! * [`page_file::PageFile`] — positioned page I/O (`pread`/`pwrite` on Unix) over one
//!   shared file handle, so reads and writes of distinct pages need no lock at all;
//! * [`page_cache::PageCache`] — a lock-striped page table whose entries carry their own
//!   read/write latch and atomic dirty/recency state: cache hits on distinct pages never
//!   contend, and faults on distinct stripes read from disk concurrently;
//! * [`lock_file::LockFile`] — the advisory single-opener lock enforcing the sketch
//!   file's one-process contract;
//! * [`faults::FaultPlan`] — deterministic I/O fault injection beneath every
//!   [`page_file::PageFile`] (scheduled `EIO`/`ENOSPC`/short-read/torn-write/failed-
//!   fsync occurrences), zero-cost when disarmed.
//!
//! None of them keeps counters of its own: the cache and every file handle count into
//! the owning store's one [`StoreCounters`](crate::metrics::StoreCounters).
//!
//! ## Lock map
//!
//! ```text
//! page hit      stripe mutex (briefly) → per-page RwLock latch
//! page fault    stripe mutex (held across eviction + insert) → disk read under the
//!               fresh page's write latch, stripe mutex already released
//! room write    WAL append mutex (append + clean-flag) → page write latch
//! eviction      stripe mutex → group-commit mutex (write-ahead barrier) → file write
//! group commit  group-commit mutex (leader election, briefly) → WAL append mutex,
//!               group mutex already released → member log I/O outside all locks
//! checkpoint    sync-state mutex → WAL append mutex | stripe mutexes (never both)
//! ```
//!
//! Two global ordering rules: the WAL append mutex is **never held while taking a
//! stripe mutex** — WAL appends and page traffic stay independent, and the eviction
//! path (stripe → group → WAL) cannot deadlock against the checkpoint path (which
//! drains the WAL before touching any stripe) — and the group-commit mutex is a
//! **leaf below everything but the WAL**: it may be taken under shard, checkpoint,
//! stripe or latch guards, but is always released before any member's WAL append
//! mutex (or its log file) is touched, so no `group → wal` hold ever exists.
//!
//! This map is enforced, not just documented: `gss-lint` rule **L001** (lock-order)
//! flags any function that acquires the WAL append mutex while a stripe, latch or
//! group-commit guard is live, a stripe mutex under a latch, or the group-commit
//! mutex under a stripe or latch guard, and rule **L002** (io-under-stripe) flags
//! file I/O issued while a stripe guard is held.  At runtime, the [`witness`] module
//! re-checks the same order dynamically across call chains under `debug_assertions`.

pub mod faults;
pub mod lock_file;
pub mod page_cache;
pub mod page_file;
pub mod witness;

/// Bytes per cache page (and per on-disk page; room records never straddle pages because
/// [`ROOM_RECORD_BYTES`](crate::storage::ROOM_RECORD_BYTES) divides this).
pub const PAGE_BYTES: usize = 4096;
