//! Positioned page I/O over one shared file handle: [`PageFile`].
//!
//! Concurrent page access needs reads and writes at explicit offsets with no shared
//! cursor: `pread`/`pwrite` ([`std::os::unix::fs::FileExt`]) on a plain `&File` — no
//! locking, the kernel serializes per-call.  That is the crate's one platform
//! requirement, so it builds on Unix only.
//!
//! This is also the single choke point where two robustness concerns live:
//!
//! * **Deterministic fault injection** ([`crate::pager::faults`]): every handle
//!   resolves the [`FaultPlan`] covering its path when it is wrapped
//!   ([`PageFile::wrap`]), consults it before every real I/O call and fails the
//!   scheduled occurrences.  An unfaulted handle pays one `Option` branch per call.
//! * **Bounded transient retry**: genuinely transient failures — `EINTR`
//!   ([`io::ErrorKind::Interrupted`]) and injected short reads — are retried up to
//!   [`MAX_TRANSIENT_RETRIES`] times, counted in the owning store's
//!   [`StoreCounters::io_retries`] (injected faults in its `injected_faults`).  Hard
//!   errors and every `sync_data`/`sync_all` failure are **never** retried here:
//!   after a failed fsync the kernel may have dropped the dirty pages, so a retry
//!   that succeeds proves nothing (the "fsyncgate" hazard) — those propagate to the
//!   caller, which fail-stops the store (see [`crate::error::StoreHealth`]).

#[cfg(not(unix))]
compile_error!(
    "gss-core's paged file store needs positioned I/O (`pread`/`pwrite`) and builds on Unix only"
);

use crate::metrics::{self, StoreCounters};
use crate::pager::faults::{plan_for, FaultKind, FaultOp, FaultPlan};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Upper bound on retries of one transient (`EINTR`/short-read) failure before it is
/// reported as a hard error.
pub const MAX_TRANSIENT_RETRIES: u32 = 8;

/// Builds the injected error for a scheduled hard fault.
// `ErrorKind::StorageFull` stabilized in 1.83, after the declared MSRV — the recovery
// tests assert on this exact kind, so the injected error must carry it regardless.
#[allow(clippy::incompatible_msrv)]
fn fault_error(kind: FaultKind, op: &str) -> io::Error {
    match kind {
        FaultKind::Enospc => {
            io::Error::new(io::ErrorKind::StorageFull, format!("injected ENOSPC on {op}"))
        }
        FaultKind::Eintr | FaultKind::ShortRead => {
            io::Error::new(io::ErrorKind::Interrupted, format!("injected transient fault on {op}"))
        }
        FaultKind::Eio | FaultKind::TornWrite => io::Error::other(format!("injected EIO on {op}")),
    }
}

/// One shared file handle serving positioned reads and writes (see the module docs).
#[derive(Debug)]
pub struct PageFile {
    file: File,
    /// The fault plan covering this file, resolved once when it was wrapped.
    faults: Option<Arc<FaultPlan>>,
    /// The owning store's counters (transient retries, faults injected through *this
    /// handle* — not the plan's global count, so handles sharing a plan never
    /// double-count).
    counters: Arc<StoreCounters>,
}

impl PageFile {
    /// Wraps an open handle (read + write) on the file at `path`, under the fault plan
    /// covering that path ([`plan_for`]), counting into `counters`.
    pub fn wrap(file: File, path: &Path, counters: Arc<StoreCounters>) -> Self {
        Self { file, faults: plan_for(path), counters }
    }

    fn next_fault(&self, op: FaultOp) -> Option<FaultKind> {
        let kind = self.faults.as_ref()?.next(op);
        if kind.is_some() {
            metrics::add(&self.counters.injected_faults, 1);
        }
        kind
    }

    /// Reads exactly `buf.len()` bytes at `offset`, leaving no shared cursor state.
    /// Transient failures (`EINTR`, injected short reads) retry bounded.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let mut attempts = 0u32;
        loop {
            let result = match self.next_fault(FaultOp::Read) {
                Some(kind) => Err(fault_error(kind, "read_exact_at")),
                None => std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset),
            };
            match result {
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {
                    attempts += 1;
                    if attempts > MAX_TRANSIENT_RETRIES {
                        return Err(error);
                    }
                    metrics::add(&self.counters.io_retries, 1);
                }
                other => return other,
            }
        }
    }

    /// Writes all of `buf` at `offset`.  Transient failures retry bounded; an injected
    /// torn write leaves the first half of `buf` in the file and fails hard.
    pub fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let mut attempts = 0u32;
        loop {
            let result = match self.next_fault(FaultOp::Write) {
                Some(FaultKind::TornWrite) => {
                    // The partial image reaches the file before the error — the torn
                    // state WAL replay's longest-valid-prefix rule must absorb.  The
                    // result of the partial write is deliberately unused: the hard
                    // error below is what the caller must see either way.
                    let half = buf.len() / 2;
                    let _ =
                        std::os::unix::fs::FileExt::write_all_at(&self.file, &buf[..half], offset);
                    Err(fault_error(FaultKind::TornWrite, "write_all_at"))
                }
                Some(kind) => Err(fault_error(kind, "write_all_at")),
                None => std::os::unix::fs::FileExt::write_all_at(&self.file, buf, offset),
            };
            match result {
                Err(error) if error.kind() == io::ErrorKind::Interrupted => {
                    attempts += 1;
                    if attempts > MAX_TRANSIENT_RETRIES {
                        return Err(error);
                    }
                    metrics::add(&self.counters.io_retries, 1);
                }
                other => return other,
            }
        }
    }

    /// Truncates or extends the file.  Failures are hard (never retried).
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        match self.next_fault(FaultOp::SetLen) {
            Some(kind) => Err(fault_error(kind, "set_len")),
            None => self.file.set_len(len),
        }
    }

    /// Flushes file data (not metadata) to disk.  A failure is hard and must **not**
    /// be retried by any caller: the kernel may already have dropped the dirty pages,
    /// so a succeeding retry proves nothing about the lost write-back.
    pub fn sync_data(&self) -> io::Result<()> {
        match self.next_fault(FaultOp::SyncData) {
            Some(kind) => Err(fault_error(kind, "sync_data")),
            None => self.file.sync_data(),
        }
    }

    /// Flushes file data and metadata to disk.  Same no-retry contract as
    /// [`sync_data`](Self::sync_data).
    pub fn sync_all(&self) -> io::Result<()> {
        match self.next_fault(FaultOp::SyncAll) {
            Some(kind) => Err(fault_error(kind, "sync_all")),
            None => self.file.sync_all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::faults::{install, FaultGuard, FaultPlan, FaultSite};
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    /// A fresh temp file wrapped as a `PageFile` with its own counters, under `plan`
    /// (scoped to this file's name) when one is given — keep the guard alive.
    fn temp_file(name: &str, plan: Option<FaultPlan>) -> (PathBuf, PageFile, Option<FaultGuard>) {
        let path =
            std::env::temp_dir().join(format!("gss-page-file-{}-{name}.bin", std::process::id()));
        let token = path.file_name().unwrap().to_string_lossy().into_owned();
        let guard = plan.map(|plan| install(plan.with_path_token(token)));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        let file = PageFile::wrap(file, &path, Arc::default());
        (path, file, guard)
    }

    #[test]
    fn positioned_reads_and_writes_do_not_disturb_each_other() {
        let (path, file, _) = temp_file("positional", None);
        let file = Arc::new(file);
        file.set_len(8192).unwrap();
        file.write_all_at(b"tail", 8000).unwrap();
        file.write_all_at(b"head", 0).unwrap();
        let mut buf = [0u8; 4];
        file.read_exact_at(&mut buf, 8000).unwrap();
        assert_eq!(&buf, b"tail");
        file.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"head");
        // Concurrent writers at distinct offsets land both payloads intact.
        let writers: Vec<_> = (0..4u64)
            .map(|i| {
                let file = Arc::clone(&file);
                std::thread::spawn(move || {
                    for round in 0..50u8 {
                        file.write_all_at(&[i as u8, round], 100 + i * 2).unwrap();
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        for i in 0..4u64 {
            let mut pair = [0u8; 2];
            file.read_exact_at(&mut pair, 100 + i * 2).unwrap();
            assert_eq!(pair, [i as u8, 49]);
        }
        assert_eq!(metrics::get(&file.counters.io_retries), 0);
        assert_eq!(metrics::get(&file.counters.injected_faults), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_faults_retry_and_are_counted() {
        let plan = FaultPlan::parse("read:eintr@1;write:short@2").unwrap();
        let (path, file, _guard) = temp_file("transient", Some(plan));
        file.set_len(64).unwrap();
        file.write_all_at(b"abcd", 0).unwrap(); // write occurrence 1: clean
        file.write_all_at(b"efgh", 4).unwrap(); // occurrence 2: transient, retried
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, 0).unwrap(); // read occurrence 1: transient
        assert_eq!(&buf, b"abcdefgh");
        assert_eq!(metrics::get(&file.counters.io_retries), 2);
        assert_eq!(metrics::get(&file.counters.injected_faults), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hard_faults_fail_without_retry_and_torn_writes_leave_a_partial_image() {
        let plan = FaultPlan::parse("write:torn@1;sync_data:eio@1;set_len:enospc@2").unwrap();
        let (path, file, _guard) = temp_file("hard", Some(plan));
        file.set_len(64).unwrap();
        let error = file.write_all_at(b"ABCDEFGH", 0).unwrap_err();
        assert_ne!(error.kind(), io::ErrorKind::Interrupted);
        let mut buf = [0u8; 4];
        file.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"ABCD", "the first half of a torn write reaches the file");
        assert!(file.sync_data().is_err(), "scheduled fsync failure fires once");
        assert!(file.sync_data().is_ok(), "later fsyncs are clean (no sticky retry here)");
        assert_eq!(
            file.set_len(32).unwrap_err().kind(),
            io::ErrorKind::StorageFull,
            "ENOSPC surfaces as StorageFull"
        );
        assert_eq!(metrics::get(&file.counters.io_retries), 0, "hard faults are never retried");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unbroken_transient_storms_give_up_after_the_bound() {
        // Schedule more consecutive EINTRs than the retry budget on one read.
        let sites: Vec<FaultSite> = (1..=(MAX_TRANSIENT_RETRIES as u64 + 2))
            .map(|at| FaultSite {
                op: crate::pager::faults::FaultOp::Read,
                kind: FaultKind::Eintr,
                at,
            })
            .collect();
        let (path, file, _guard) = temp_file("storm", Some(FaultPlan::new(sites)));
        file.set_len(16).unwrap();
        let mut buf = [0u8; 4];
        let error = file.read_exact_at(&mut buf, 0).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::Interrupted);
        assert_eq!(metrics::get(&file.counters.io_retries), MAX_TRANSIENT_RETRIES as u64);
        std::fs::remove_file(&path).ok();
    }
}
