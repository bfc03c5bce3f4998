//! Group commit: one sync schedule for one or more write-ahead logs.
//!
//! A commit is acknowledged once its frames are *written* to the log file — the drain
//! rounds that get them there are the log's own (see [`crate::wal`]) — because `write(2)`
//! ordering survives a process kill.  Syncing is scheduled separately, so no commit waits
//! on an `fdatasync`:
//!
//! * **Rounds are shared.**  Committers that arrive while a round is in flight park on
//!   the log's drain token and ride the leader's round, so one positioned write carries
//!   many commits.
//! * **Syncs follow a cadence.**  Every led round counts its drained bytes against a
//!   [`GroupCommit`] budget.  When the budget or the delay window trips, one sweep syncs
//!   every registered log that holds written-but-unsynced bytes.  The shards of a
//!   [`ShardedGss`](crate::ShardedGss) register with one [`GroupCommitter`], so N logs
//!   share one cadence instead of N, and the knob bounds how far a power loss (not just a
//!   kill) can rewind the stream.
//! * **The sweep runs off the commit path.**  Under a non-zero knob a background thread
//!   (`gss-group-sync`) sweeps; under a zero knob every led round sweeps inline.  The
//!   thread starts when the first log registers, so a coordinator with no log — the one
//!   every in-memory sketch carries — never starts one.
//!
//! ## Ownership
//!
//! A log holds the coordinator's shared cadence state, never the [`GroupCommitter`] that
//! owns the cadence thread, and the cadence holds its logs weakly.  So no strong cycle
//! joins a log and its coordinator, an acknowledgement handle that outlives its store
//! never keeps the thread alive, and the thread — which holds the logs it is sweeping —
//! can never drop the last owner of itself.
//!
//! ## Locking
//!
//! Two kinds of mutex share lock class `GroupCommit`, and both are *leaves*: the
//! cadence's member list and each log's drain token are never held across I/O or any
//! other lock — a sweep clones the list and a leader flips the token before touching a
//! file.  Acquiring either while holding stripe, latch or checkpoint locks is legal; the
//! full order is `checkpoint ≺ stripe ≺ latch ≺ group ≺ wal` (enforced by `gss-lint` L001
//! and the runtime witness, lock class [`LockClass::GroupCommit`]).

use crate::config::GroupCommit;
use crate::error::StoreFault;
use crate::pager::witness::{self, LockClass};
use crate::wal::Wal;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError, Weak};
use std::time::Instant;

/// State shared between a coordinator's logs and its cadence thread.
pub(crate) struct Cadence {
    knob: GroupCommit,
    /// Every registered log, held weakly (dropped logs are pruned by the next sweep).
    /// Leaf mutex (lock class `GroupCommit`): held only to snapshot or edit the list.
    group: StdMutex<Vec<Weak<Wal>>>,
    /// Wakes the cadence thread early (byte-budget trip, shutdown).
    wake: Condvar,
    /// Cadence-thread control state; plain leaf mutex, never held across I/O.
    state: StdMutex<CadenceState>,
    /// Origin of the sync cadence clock.
    epoch: Instant,
    /// Bytes drained since the last sweep, across all logs.
    bytes_since_sync: AtomicU64,
    /// Cadence-clock reading (µs since `epoch`) of the last sweep.
    last_sync_micros: AtomicU64,
}

#[derive(Default)]
struct CadenceState {
    shutdown: bool,
    /// A committer tripped the byte budget; coalesced so one sweep answers many kicks.
    kicked: bool,
    /// First background `fdatasync` failure; latched and re-raised to the next writer
    /// that leads a round, so a broken staleness bound never passes silently.  Typed so
    /// the original [`io::ErrorKind`] survives the hop across threads.
    error: Option<StoreFault>,
}

/// Group-commit coordinator: owns the sync cadence of one or more write-ahead logs (the
/// shards of a [`ShardedGss`](crate::ShardedGss) share one).
///
/// With a non-zero [`GroupCommit`] knob the cadence sweep runs on a dedicated background
/// thread (`gss-group-sync`), started when the first log registers, so commits pay only
/// their positioned arena `write(2)` and a coordinator without a log — every in-memory
/// sketch has one — costs no thread.  A zero knob (either field) sweeps inline, syncing
/// every led round.
pub(crate) struct GroupCommitter {
    pub(crate) cadence: Arc<Cadence>,
    /// The cadence thread; `None` until a log registers under a non-zero knob, and
    /// forever under a zero knob (inline sweeps).  Leaf mutex, held only to start or
    /// take the handle.
    thread: StdMutex<Option<std::thread::JoinHandle<()>>>,
}

pub(crate) fn unpoison<T>(result: Result<T, PoisonError<T>>) -> T {
    // These mutexes only ever guard plain flag/Vec/map updates, so a poisoned lock (a
    // committer panicking mid-update) leaves consistent state behind.
    result.unwrap_or_else(PoisonError::into_inner)
}

impl GroupCommitter {
    /// Creates a coordinator with the given scheduling knob.  No thread starts here: the
    /// cadence thread starts with the first [`register`](Self::register)ed log.
    pub(crate) fn new(knob: GroupCommit) -> Arc<Self> {
        let cadence = Arc::new(Cadence {
            knob,
            group: StdMutex::new(Vec::new()),
            wake: Condvar::new(),
            state: StdMutex::new(CadenceState::default()),
            epoch: Instant::now(),
            bytes_since_sync: AtomicU64::new(0),
            last_sync_micros: AtomicU64::new(0),
        });
        Arc::new(Self { cadence, thread: StdMutex::new(None) })
    }

    /// Adds a log to the sweep, first starting the cadence thread if the knob is non-zero
    /// and no earlier log started it.
    ///
    /// # Errors
    /// The I/O error of a failed thread spawn; the log is then not registered.
    pub(crate) fn register(&self, wal: &Arc<Wal>) -> io::Result<()> {
        if self.cadence.threaded() {
            let mut thread = unpoison(self.thread.lock());
            if thread.is_none() {
                let cadence = Arc::clone(&self.cadence);
                *thread = Some(
                    std::thread::Builder::new()
                        .name("gss-group-sync".into())
                        .spawn(move || cadence.run())?,
                );
            }
        }
        self.cadence.register(wal);
        Ok(())
    }
}

impl Cadence {
    /// Whether a background thread sweeps (a non-zero knob) rather than every round.
    fn threaded(&self) -> bool {
        self.knob.max_delay_us > 0 && self.knob.max_bytes > 0
    }

    /// Adds a log to the sweep.
    fn register(&self, wal: &Arc<Wal>) {
        let _group_held = witness::acquire(LockClass::GroupCommit);
        unpoison(self.group.lock()).push(Arc::downgrade(wal));
    }

    /// Cadence thread body: sleep out the delay window (woken early by byte-budget
    /// kicks and shutdown), then sweep.  Sync failures latch into the control state
    /// and re-raise on the next led commit round.
    fn run(&self) {
        let window = std::time::Duration::from_micros(self.knob.max_delay_us);
        loop {
            {
                let mut state = unpoison(self.state.lock());
                if !state.shutdown && !state.kicked {
                    state = unpoison(self.wake.wait_timeout(state, window)).0;
                }
                if state.shutdown {
                    return;
                }
                state.kicked = false;
            }
            if let Err(error) = self.sweep() {
                let fault = StoreFault::from_io("background group-commit sync", &error);
                unpoison(self.state.lock()).error.get_or_insert(fault);
            }
        }
    }

    /// The cadence step of a commit round that drained `drained` bytes: re-raise a
    /// latched background sync failure, then — when the byte budget or the delay window
    /// tripped — kick the cadence thread (non-zero knob) or sweep inline (zero knob).
    pub(crate) fn after_round(&self, drained: u64) -> io::Result<()> {
        if let Some(fault) = &unpoison(self.state.lock()).error {
            return Err(fault.to_io());
        }
        // Drain tokens are per log, so leaders of different logs may race the cadence
        // heuristics below — at worst two rounds both trip the cadence, perturbing the
        // sync schedule by one sweep.  Acknowledgement never rides on these: it is
        // carried by each log's `written`/`synced` marks.
        // relaxed: cadence heuristics, see above.
        let since = self.bytes_since_sync.fetch_add(drained, Ordering::Relaxed) + drained;
        let now_micros = self.epoch.elapsed().as_micros() as u64;
        // relaxed: cadence heuristics, see above.
        let last = self.last_sync_micros.load(Ordering::Relaxed);
        if since < self.knob.max_bytes && now_micros.saturating_sub(last) < self.knob.max_delay_us {
            return Ok(());
        }
        if !self.threaded() {
            return self.sweep();
        }
        let mut state = unpoison(self.state.lock());
        if !state.kicked {
            state.kicked = true;
            self.wake.notify_one();
        }
        Ok(())
    }

    /// One cadence round: sync every registered log ([`Wal::sync`] skips a poisoned or
    /// already-synced one), resetting the budget first so concurrent trippers coalesce.
    fn sweep(&self) -> io::Result<()> {
        // relaxed: cadence heuristics; see `after_round`.
        self.bytes_since_sync.store(0, Ordering::Relaxed);
        self.last_sync_micros.store(self.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        let logs: Vec<Arc<Wal>> = {
            let _group_held = witness::acquire(LockClass::GroupCommit);
            let mut group = unpoison(self.group.lock());
            group.retain(|wal| wal.strong_count() > 0);
            group.iter().filter_map(Weak::upgrade).collect()
        };
        logs.iter().try_for_each(|wal| wal.sync())
    }
}

impl Drop for GroupCommitter {
    fn drop(&mut self) {
        if let Some(thread) = unpoison(self.thread.get_mut()).take() {
            unpoison(self.cadence.state.lock()).shutdown = true;
            self.cadence.wake.notify_all();
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for GroupCommitter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommitter").field("knob", &self.cadence.knob).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreHealth;
    use crate::metrics::{self, StoreCounters};
    use crate::wal::{commit_frame, read_replay, wal_path, COMMIT_FRAME_BYTES};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    /// A log registered with a coordinator, plus the counter set and fail-stop state its
    /// store would hold.  The file is removed on drop so test runs never collide.
    struct Log {
        wal: Arc<Wal>,
        counters: Arc<StoreCounters>,
        health: Arc<StoreHealth>,
        path: PathBuf,
    }

    impl Drop for Log {
        fn drop(&mut self) {
            std::fs::remove_file(&self.path).ok();
        }
    }

    impl Log {
        /// Appends a commit frame and returns its acknowledgement target.
        fn append_commit(&self, items: u64) -> u64 {
            self.wal.wal.lock().append(&commit_frame(items)).1
        }

        fn count(&self, counter: impl Fn(&StoreCounters) -> &AtomicU64) -> u64 {
            metrics::get(counter(&self.counters))
        }
    }

    fn log(name: &str, group: &GroupCommitter) -> Log {
        let path = wal_path(
            &std::env::temp_dir().join(format!("gss-group-{}-{name}.gss", std::process::id())),
        );
        let (counters, health) = (Arc::<StoreCounters>::default(), Arc::new(StoreHealth::new()));
        let wal = Wal::open(&path, None, true, Arc::clone(&counters), Arc::clone(&health), group)
            .expect("open wal");
        Log { wal, counters, health, path }
    }

    /// Whether `committer` holds a cadence thread.
    fn holds_thread(committer: &GroupCommitter) -> bool {
        unpoison(committer.thread.lock()).is_some()
    }

    #[test]
    fn the_cadence_thread_starts_with_the_first_log_and_drop_joins_it() {
        let committer = GroupCommitter::new(GroupCommit::default());
        assert!(!holds_thread(&committer), "a coordinator without a log starts no thread");
        let cadence = Arc::clone(&committer.cadence);
        let first = log("lifecycle-a", &committer);
        assert!(holds_thread(&committer), "the first log starts the cadence thread");
        let second = log("lifecycle-b", &committer);
        assert!(holds_thread(&committer));
        drop((first, second));
        // The cadence thread holds the cadence until it exits: once the coordinator is
        // dropped only the test does, so the thread has exited, not merely been told to.
        drop(committer);
        assert_eq!(Arc::strong_count(&cadence), 1, "drop joins the cadence thread");

        let zero = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        let member = log("lifecycle-zero", &zero);
        assert!(!holds_thread(&zero), "a zero knob sweeps inline and never starts a thread");
        drop(member);
    }

    #[test]
    fn commit_acknowledges_only_written_targets() {
        let committer = GroupCommitter::new(GroupCommit::default());
        let member = log("ack", &committer);
        let target = member.append_commit(3);
        member.wal.commit(target).expect("commit");
        assert!(member.wal.marks().0 >= target);
        let replay = read_replay(&member.path, 64).expect("replay").expect("decodes");
        assert_eq!(replay.items, Some(3));
        assert_eq!(member.count(|c| &c.wal_group_commits), 1);
    }

    #[test]
    fn barrier_drains_without_forcing_a_sync() {
        let committer =
            GroupCommitter::new(GroupCommit { max_delay_us: u64::MAX, max_bytes: u64::MAX });
        let member = log("barrier", &committer);
        member.append_commit(1);
        member.wal.barrier().expect("barrier");
        assert_eq!(member.wal.marks().2, 0);
        assert_eq!(member.count(|c| &c.fsyncs), 0, "barrier must not sync");
    }

    #[test]
    fn zero_budget_knob_syncs_every_round() {
        let committer = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        let member = log("zero-budget", &committer);
        for round in 1..=3u64 {
            let target = member.append_commit(round);
            member.wal.commit(target).expect("commit");
            assert_eq!(member.count(|c| &c.fsyncs), round);
        }
        assert_eq!(member.wal.marks().1, 3 * COMMIT_FRAME_BYTES as u64);
    }

    #[test]
    fn cadence_covers_every_registered_member_in_one_round() {
        let zero = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        let (a, b) = (log("cadence-a", &zero), log("cadence-b", &zero));
        // b drains via barrier (written, unsynced), then a commit on a trips a forced
        // cadence round: one sweep must sync both logs.
        b.append_commit(7);
        b.wal.barrier().expect("barrier b");
        let target = a.append_commit(1);
        a.wal.commit(target).expect("commit a");
        assert_eq!(a.count(|c| &c.fsyncs), 1);
        assert_eq!(b.count(|c| &c.fsyncs), 1, "unsynced member b is swept by a's cadence round");
    }

    #[test]
    fn concurrent_commits_share_drain_rounds() {
        let committer = GroupCommitter::new(GroupCommit::default());
        let member = log("concurrent", &committer);
        let items = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let target = member.append_commit(1);
                        member.wal.commit(target).expect("commit");
                        items.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });

        assert_eq!(items.load(Ordering::Relaxed), 200);
        let (written, _, pending) = member.wal.marks();
        assert_eq!(pending, 0);
        assert_eq!(written, 200 * COMMIT_FRAME_BYTES as u64);
        // Every acknowledged frame must be in the log image (write-ahead, pre-sync).
        let replay = read_replay(&member.path, 64).expect("replay").expect("decodes");
        assert_eq!(replay.items, Some(1));
    }

    #[test]
    fn failed_drain_poisons_the_member_and_errors_every_covered_commit() {
        let token = format!("gss-group-{}-failstop", std::process::id());
        // Occurrence 1 is the magic-header write at open; 2 is the drain itself.
        let _guard = crate::pager::faults::install(
            crate::pager::faults::FaultPlan::parse("write:eio@2")
                .expect("parse plan")
                .with_path_token(&token),
        );
        let committer = GroupCommitter::new(GroupCommit::default());
        let member = log("failstop", &committer);

        let target = member.append_commit(5);
        member.wal.record_commit(target, 5);
        let error = member.wal.commit(target).expect_err("drain write must fail");
        assert!(member.health.is_poisoned());
        // `written` advanced (parked committers must be released), but the poison makes
        // a later commit against the same covered target error instead of acking.
        assert!(member.wal.marks().0 >= target);
        let again = member.wal.commit(target).expect_err("sticky failure");
        assert_eq!(again.kind(), error.kind());
        // The failed bytes were never credited as durable.
        member.wal.record_ack(5);
        assert_eq!(member.wal.item_counts(), (5, 0));
    }

    #[test]
    fn sweep_skips_poisoned_members_and_never_retries_a_failed_sync() {
        let token = format!("gss-group-{}-syncfail", std::process::id());
        let _guard = crate::pager::faults::install(
            crate::pager::faults::FaultPlan::parse("sync_data:eio@1")
                .expect("parse plan")
                .with_path_token(&token),
        );
        // Zero knob: every led round sweeps inline, so the injected sync fault
        // surfaces on the first commit.
        let committer = GroupCommitter::new(GroupCommit { max_delay_us: 0, max_bytes: 0 });
        let member = log("syncfail", &committer);
        let target = member.append_commit(1);
        member.wal.commit(target).expect_err("fdatasync must fail");
        assert!(member.health.is_poisoned());
        assert_eq!(member.wal.marks().1, 0, "failed sync credits nothing");
        let fsyncs_before = member.count(|c| &c.fsyncs);
        // A later sweep must skip the poisoned member entirely (no fsync retry).
        committer.cadence.sweep().expect("sweep skips poisoned members");
        assert_eq!(
            member.count(|c| &c.fsyncs),
            fsyncs_before,
            "no sync_data retry against a poisoned log"
        );
    }

    #[test]
    fn durable_items_track_the_drained_prefix() {
        let committer = GroupCommitter::new(GroupCommit::default());
        let member = log("durable", &committer);
        let target = member.append_commit(4);
        member.wal.record_commit(target, 4);
        member.wal.record_ack(4);
        assert_eq!(member.wal.item_counts(), (4, 0), "nothing durable before the drain");
        member.wal.commit(target).expect("commit");
        assert_eq!(member.wal.item_counts(), (4, 4), "drained commit frames are durable");
    }
}
