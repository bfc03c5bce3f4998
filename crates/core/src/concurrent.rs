//! Sharded concurrent ingest: [`ShardedGss`].
//!
//! Graph streams are frequently consumed by several ingest threads (the paper's CAIDA use
//! case is a multi-link packet capture).  Instead of serialising all writers behind one
//! `RwLock`, [`ShardedGss`] keeps `N` independent sketch shards behind per-shard locks,
//! so writers touching different shards never contend (`ShardedGss::new(config, 1)` is
//! the single-lock special case).
//!
//! ## Sharding semantics
//!
//! Every stream item is routed to the shard owning its **source vertex** (a hash of the
//! source id modulo the shard count).  Because all `(s, *)` edges live in one shard:
//!
//! * **edge queries** and **1-hop successor queries** are answered by the source's shard
//!   alone — one read lock, same cost as a single sketch;
//! * **1-hop precursor queries** fan out: edges *into* a vertex may come from sources in
//!   any shard, so every shard is scanned and the answers are unioned (sorted, deduped).
//!   Each shard's column scans are steered by its bucket-occupancy index
//!   (`OccupancyIndex`), so the fan-out costs `shards ×` a
//!   load-proportional scan rather than `shards ×` a full-geometry scan — and per-shard
//!   load factors are `1/shards` of a single sketch's to begin with;
//! * **stats** aggregate field-wise across shards ([`SummaryStats::merged_with`]);
//!   [`ShardedGss::detailed_stats`] likewise folds the per-shard [`GssStats`] through
//!   [`GssStats::merged_with`] — note that a vertex appearing in several shards is counted
//!   once per shard there.
//!
//! All shards share one [`GssConfig`] (including the hash seed), so they stay mergeable:
//! [`ShardedGss::merge`] combines them through the existing [`GssSketch::merge_all`]
//! machinery into the single sketch a sequential run over the concatenated stream would
//! have produced (up to order-independent room placement).  Memory is `shards ×` a single
//! sketch of the same width; [`GssBuilder::build_sharded_equal_memory`] shrinks `width`
//! accordingly for equal-memory comparisons.
//!
//! [`GssBuilder::build_sharded_equal_memory`]: crate::GssBuilder::build_sharded_equal_memory
//!
//! Accuracy is unchanged in kind: every shard keeps GSS's one-sided error, so the sharded
//! front-end never under-estimates a weight and never drops a true neighbour.  Spreading
//! edges over `N` matrices *lowers* each shard's load factor, which in practice shortens
//! candidate probes and reduces buffer spills — the source of the ingest speed-up even
//! without contention.

use crate::config::{Durability, GroupCommit, GssConfig};
use crate::error::{ConfigError, GssError, StoreFault};
use crate::group_commit::GroupCommitter;
use crate::pager::witness::{self, LockClass, Tracked};
use crate::sketch::GssSketch;
use crate::stats::GssStats;
use crate::storage::StorageBackend;
use crate::wal::{Wal, WalAck};
use gss_graph::{StreamEdge, SummaryRead, SummaryStats, SummaryWrite, VertexId, Weight};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::Arc;

/// A cloneable, thread-safe handle to a set of GSS sketch shards partitioned by source
/// vertex (see the `concurrent` module docs for the sharding semantics).
#[derive(Debug, Clone)]
pub struct ShardedGss {
    config: GssConfig,
    shards: Arc<Vec<RwLock<GssSketch>>>,
    /// Per-shard lock-free commit acknowledgers (`None` for in-memory shards), captured
    /// at construction so the batched two-phase commit's acknowledgement pass never
    /// re-takes a shard lock.
    ack_handles: Arc<Vec<Option<Arc<Wal>>>>,
}

impl ShardedGss {
    /// Builds `shards` empty in-memory sketches sharing one configuration.  No thread
    /// starts: the shards have no log for a group-commit coordinator to sync.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid or `shards == 0`.
    pub fn new(config: GssConfig, shards: usize) -> Result<Self, ConfigError> {
        Self::with_storage(config, shards, &StorageBackend::Memory)
    }

    /// Builds `shards` empty sketches sharing one configuration on an explicit storage
    /// backend.  A [`StorageBackend::File`] base path fans out to one file per shard
    /// (`<name>.shard0`, `<name>.shard1`, …), so each shard owns its page cache, its
    /// portion of the on-disk matrix and its own write-ahead log (`<name>.shardN.wal`) —
    /// shards recover independently after a crash.  The shard logs share one
    /// group-commit coordinator under the default knob; set another through
    /// [`GssBuilder::group_commit`](crate::GssBuilder::group_commit).
    ///
    /// # Errors
    /// Returns a [`ConfigError`] if the configuration is invalid, `shards == 0`, or a
    /// shard file cannot be created.
    pub fn with_storage(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
    ) -> Result<Self, ConfigError> {
        Self::with_storage_grouped(config, shards, storage, GroupCommit::default())
    }

    /// [`with_storage`](Self::with_storage) with an explicit group-commit knob.  All
    /// shard logs register with **one** coordinator, so a single cadence `fdatasync`
    /// covers every shard that wrote since the last one — N writer threads share one
    /// fsync schedule instead of paying one each.  The coordinator's cadence thread
    /// starts with the first shard log, so a memory backend starts none.
    ///
    /// # Errors
    /// As [`with_storage`](Self::with_storage).
    pub(crate) fn with_storage_grouped(
        config: GssConfig,
        shards: usize,
        storage: &StorageBackend,
        group_commit: GroupCommit,
    ) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::new("need at least one shard"));
        }
        let group = GroupCommitter::new(group_commit);
        let shards = (0..shards)
            .map(|index| {
                GssSketch::with_storage_grouped(
                    config,
                    storage.for_shard(index),
                    Arc::clone(&group),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(config, shards))
    }

    /// Puts built or reopened sketches behind their shard locks and captures their
    /// acknowledgers — where both construction paths end.
    fn from_shards(config: GssConfig, sketches: Vec<GssSketch>) -> Self {
        let ack_handles = sketches.iter().map(GssSketch::wal_ack_handle).collect();
        let shards = sketches.into_iter().map(RwLock::new).collect();
        Self { config, shards: Arc::new(shards), ack_handles: Arc::new(ack_handles) }
    }

    /// Reopens an existing sharded, file-backed sketch **in place**: the per-shard
    /// files a previous run created at `<base>.shard0 … <base>.shard{N-1}` (see
    /// [`with_storage`](Self::with_storage)) become this handle's live storage, each
    /// shard recovering independently through its own write-ahead log — this is the
    /// restart path of a long-lived service (`gss-server` reopens every tenant this
    /// way).  All shard logs register with one fresh group-commit coordinator built
    /// from `group_commit`; `durability` has a single value and changes nothing.
    ///
    /// # Errors
    /// Returns a [`PersistenceError`](crate::PersistenceError) if `shards == 0`, any shard file is missing or
    /// unrecoverable, the shards disagree on their configuration (files from
    /// different builds mixed in one directory), or `<base>.shard{shards}` exists (the
    /// store was written with more shards).
    pub fn open_sharded(
        base: impl AsRef<std::path::Path>,
        shards: usize,
        cache_pages: usize,
        _durability: Durability,
        group_commit: GroupCommit,
    ) -> Result<Self, crate::persistence::PersistenceError> {
        use crate::persistence::PersistenceError;
        if shards == 0 {
            return Err(PersistenceError::InvalidConfig("need at least one shard".to_string()));
        }
        let backend = StorageBackend::File { path: base.as_ref().to_path_buf(), cache_pages };
        let shard_path = |index| match backend.for_shard(index) {
            StorageBackend::File { path, .. } => path,
            StorageBackend::Memory => unreachable!("file backend shards stay file-backed"),
        };
        // Checked before any shard is opened (opening may recover, which writes): with
        // fewer shards, edges routed to the missing ones would silently read as absent.
        if shard_path(shards).exists() {
            let written =
                shards + (shards..).take_while(|&index| shard_path(index).exists()).count();
            return Err(PersistenceError::InvalidConfig(format!(
                "the store at {} was written with {written} shards, not {shards}",
                base.as_ref().display()
            )));
        }
        let group = GroupCommitter::new(group_commit);
        let opened = (0..shards)
            .map(|index| {
                GssSketch::open_file_grouped(shard_path(index), cache_pages, Arc::clone(&group))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let config = *opened[0].config();
        if let Some(odd) = opened.iter().find(|sketch| *sketch.config() != config) {
            return Err(PersistenceError::Corrupt(format!(
                "shard files disagree on their configuration (width {} vs {}) — \
                 mixed builds in one directory?",
                config.width,
                odd.config().width
            )));
        }
        Ok(Self::from_shards(config, opened))
    }

    /// Whether **any** shard's backing store has fail-stopped (always `false` for
    /// in-memory shards) — the cheap health probe a serving layer checks before
    /// translating [`try_insert_batch`](Self::try_insert_batch) failures to the wire.
    pub fn is_poisoned(&self) -> bool {
        self.read_shards().any(|shard| shard.is_poisoned())
    }

    /// Checkpoints every file-backed shard ([`GssSketch::sync`]), taking each shard's
    /// write lock in turn.  A no-op for in-memory shards.
    ///
    /// # Errors
    /// Returns the first shard's [`PersistenceError`](crate::persistence::PersistenceError),
    /// leaving later shards unsynced (each shard file is independently consistent
    /// regardless).
    pub fn sync(&self) -> Result<(), crate::persistence::PersistenceError> {
        (0..self.shards.len()).try_for_each(|index| self.write_shard(index).sync())
    }

    /// Applies [`GssSketch::set_wal_checkpoint_bytes`] to every shard (the builder's
    /// `wal_checkpoint_bytes` knob on a sharded build).
    pub(crate) fn set_wal_checkpoint_bytes(&self, bytes: u64) {
        for index in 0..self.shards.len() {
            self.write_shard(index).set_wal_checkpoint_bytes(bytes);
        }
    }

    /// The configuration every shard was built with.
    pub fn config(&self) -> &GssConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `source` (a SplitMix64 mix of the source id, reduced modulo the
    /// shard count — deliberately independent of the sketch's own node hash).
    fn shard_index(&self, source: VertexId) -> usize {
        let mut z = source.wrapping_add(0xD6E8_FEB8_6659_FD93);
        z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        z ^= z >> 29;
        (z % self.shards.len() as u64) as usize
    }

    /// Read-locks shard `index`, registering with the lock-order witness first.  Every
    /// blocking shard lock in this file goes through this helper or
    /// [`write_shard`](Self::write_shard), so none can bypass the witness.
    fn read_shard(&self, index: usize) -> Tracked<RwLockReadGuard<'_, GssSketch>> {
        Tracked::new(witness::acquire(LockClass::Shard), self.shards[index].read())
    }

    /// Write-locks shard `index` (see [`read_shard`](Self::read_shard)).
    fn write_shard(&self, index: usize) -> Tracked<RwLockWriteGuard<'_, GssSketch>> {
        Tracked::new(witness::acquire(LockClass::Shard), self.shards[index].write())
    }

    /// Every shard read-locked in turn, one lock held at a time.
    fn read_shards(&self) -> impl Iterator<Item = Tracked<RwLockReadGuard<'_, GssSketch>>> {
        (0..self.shards.len()).map(|index| self.read_shard(index))
    }

    /// Inserts a stream item through a shared reference, locking only the owning shard.
    pub fn insert(&self, source: VertexId, destination: VertexId, weight: Weight) {
        self.write_shard(self.shard_index(source)).insert(source, destination, weight);
    }

    /// Inserts a batch through a shared reference.  This **is**
    /// [`try_insert_batch`](Self::try_insert_batch) plus a panic: the same partitioning,
    /// scheduling and per-shard commit, with a store fault (the faulted shard is already
    /// poisoned) unwinding instead of being returned.
    pub fn insert_batch(&self, items: &[StreamEdge]) {
        self.try_insert_batch(items)
            .unwrap_or_else(|error| panic!("sharded batch insert failed: {error}"));
    }

    /// Inserts a batch through a shared reference with typed fail-stop errors: items are
    /// grouped by shard, then each shard is locked once and fed its sub-batch — so a
    /// batch both amortises hashing *and* takes each lock once instead of per item.
    ///
    /// Shards fail independently: a fault poisons only its own shard, the remaining
    /// shards still stage and acknowledge their sub-batches, and the **first** fault
    /// encountered is returned.  A failed shard's sub-batch may be partially applied and
    /// is never acknowledged; its [`durability_report`](Self::durability_report)
    /// quantifies any breach.
    pub fn try_insert_batch(&self, items: &[StreamEdge]) -> Result<(), GssError> {
        if self.shards.len() == 1 {
            return self.write_shard(0).try_insert_batch(items);
        }
        // Not `vec![Vec::with_capacity(..); n]`: `Vec::clone` drops capacity, which would
        // silently discard the pre-sizing for every buffer but one.
        let mut per_shard: Vec<Vec<StreamEdge>> = (0..self.shards.len())
            .map(|_| Vec::with_capacity(items.len() / self.shards.len() + 1))
            .collect();
        for item in items {
            per_shard[self.shard_index(item.source)].push(*item);
        }
        // Two-phase commit across the shards: stage every sub-batch (mutations plus
        // commit frame) first, acknowledge second.  By the time the acknowledgement
        // pass runs, drain rounds led by concurrent writers have usually covered the
        // earlier shards' log bytes, so most acknowledgements return on the
        // log's already-written fast path instead of each leading a small
        // drain round of its own — the per-call round count stops scaling with the
        // shard count.  The acknowledgement pass runs through the lock-free per-shard
        // handles, so it never re-takes a shard lock.
        // Rotation striping: each call starts its shard sweep at a different offset, so
        // concurrent writers work distinct shards instead of convoying head-of-line on
        // shard 0, 1, … in lockstep (acute when writer threads outnumber cores and a
        // preempted lock holder stalls every follower).
        static SWEEP_OFFSET: std::sync::atomic::AtomicUsize =
            std::sync::atomic::AtomicUsize::new(0);
        // relaxed: only the spread of starting offsets matters, not ordering.
        let start = SWEEP_OFFSET.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut pending: Vec<usize> = (0..self.shards.len())
            .map(|step| (start + step) % self.shards.len())
            .filter(|&index| !per_shard[index].is_empty())
            .collect();
        let mut first_fault: Option<StoreFault> = None;
        let mut acks: Vec<(usize, WalAck)> = Vec::with_capacity(pending.len());
        let mut stage = |shard: &mut GssSketch, index: usize| match shard
            .insert_batch_deferred(&per_shard[index])
        {
            Ok(Some(ack)) => acks.push((index, ack)),
            Ok(None) => {}
            Err(fault) => {
                first_fault.get_or_insert(fault);
            }
        };
        // Opportunistic sweep first: take whichever shard locks are free right now, so a
        // writer never parks behind a peer while another shard's sub-batch could
        // proceed.  Whatever stays contended is processed blocking afterwards.
        pending.retain(|&index| {
            let _shard_held = witness::acquire(LockClass::Shard);
            match self.shards[index].try_write() {
                Some(mut shard) => {
                    stage(&mut shard, index);
                    false
                }
                None => true,
            }
        });
        for index in pending {
            stage(&mut self.write_shard(index), index);
        }
        for (index, ack) in acks {
            if let Some(handle) = &self.ack_handles[index] {
                if let Err(fault) = handle.ack(ack) {
                    first_fault.get_or_insert(fault);
                }
            }
        }
        first_fault.map_or(Ok(()), |fault| Err(fault.into()))
    }

    /// The honest durability account aggregated across shards: `poisoned` when **any**
    /// shard fail-stopped, `cause` the first poisoned shard's fault, counts summed.
    pub fn durability_report(&self) -> crate::error::DurabilityReport {
        let mut total = crate::error::DurabilityReport::default();
        for shard in self.read_shards() {
            let report = shard.durability_report();
            total.poisoned |= report.poisoned;
            if total.cause.is_none() {
                total.cause = report.cause;
            }
            total.acked_items += report.acked_items;
            total.durable_items += report.durable_items;
            total.breached_items += report.breached_items;
        }
        total
    }

    /// Edge query primitive (answered by the source's shard).
    pub fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        self.read_shard(self.shard_index(source)).edge_weight(source, destination)
    }

    /// 1-hop successor query primitive (answered by the vertex's shard).
    pub fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        self.read_shard(self.shard_index(vertex)).successors(vertex)
    }

    /// 1-hop precursor query primitive: fans out to every shard and unions the answers.
    pub fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = Vec::new();
        for shard in self.read_shards() {
            out.extend(shard.precursors(vertex));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Structural statistics aggregated field-wise across shards.
    pub fn stats(&self) -> SummaryStats {
        self.read_shards()
            .fold(SummaryStats::default(), |acc, shard| acc.merged_with(&shard.stats()))
    }

    /// Detailed statistics folded across shards by `GssStats::merged_with` (geometry
    /// fields are per-shard; vertices hashed in several shards are counted once per shard).
    pub fn detailed_stats(&self) -> GssStats {
        self.read_shards()
            .map(|shard| shard.detailed_stats())
            .reduce(|total, stats| total.merged_with(&stats))
            .expect("a sharded sketch has at least one shard")
    }

    /// Runs a closure with read access to one shard (for white-box inspection).
    ///
    /// # Panics
    /// Panics if `index >= self.shard_count()`.
    pub fn with_shard_read<R>(&self, index: usize, f: impl FnOnce(&GssSketch) -> R) -> R {
        f(&self.read_shard(index))
    }

    /// Merges `sketches` into one, carrying the summed stream-item counter across (the
    /// merge machinery replays stored edges and does not count items itself).
    fn merge_sketches(config: GssConfig, sketches: &[GssSketch]) -> GssSketch {
        let mut merged = GssSketch::merge_all(config, sketches)
            .expect("shards share one configuration by construction");
        merged
            .set_items_inserted(sketches.iter().map(GssSketch::items_inserted).sum())
            .expect("the merged sketch is in-memory and cannot fault");
        merged
    }

    /// Merges all shards into a single sequential sketch through the merge machinery
    /// (shards share a configuration by construction, so merging cannot fail).  The
    /// merged sketch keeps the total `items_inserted` of all shards.
    pub fn merge(&self) -> GssSketch {
        let sketches: Vec<GssSketch> = self.read_shards().map(|shard| shard.clone()).collect();
        Self::merge_sketches(self.config, &sketches)
    }

    /// Consumes the handle and returns its shards if this was the last clone, else the
    /// handle unchanged.
    fn into_shards(self) -> Result<Vec<GssSketch>, Self> {
        let Self { config, shards, ack_handles } = self;
        match Arc::try_unwrap(shards) {
            Ok(shards) => Ok(shards.into_iter().map(RwLock::into_inner).collect()),
            Err(shards) => Err(Self { config, shards, ack_handles }),
        }
    }

    /// Drops every shard with no checkpoint ([`GssSketch::abandon`] per shard), leaving
    /// file-backed shard files exactly as a process kill would — for crash tests over
    /// concurrent writers.
    ///
    /// # Errors
    /// Returns `self` unchanged when other handles still exist (they could still write).
    pub fn abandon(self) -> Result<(), Self> {
        self.into_shards()?.into_iter().for_each(GssSketch::abandon);
        Ok(())
    }
}

impl SummaryRead for ShardedGss {
    fn edge_weight(&self, source: VertexId, destination: VertexId) -> Option<Weight> {
        ShardedGss::edge_weight(self, source, destination)
    }

    fn successors(&self, vertex: VertexId) -> Vec<VertexId> {
        ShardedGss::successors(self, vertex)
    }

    fn precursors(&self, vertex: VertexId) -> Vec<VertexId> {
        ShardedGss::precursors(self, vertex)
    }

    fn stats(&self) -> SummaryStats {
        ShardedGss::stats(self)
    }

    fn name(&self) -> String {
        format!(
            "ShardedGss(shards={},{})",
            self.shard_count(),
            self.read_shard(0).name().trim_start_matches("GSS(").trim_end_matches(')')
        )
    }
}

impl SummaryWrite for ShardedGss {
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        ShardedGss::insert(self, source, destination, weight);
    }

    fn insert_batch(&mut self, items: &[StreamEdge]) {
        ShardedGss::insert_batch(self, items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persistence::PersistenceError;
    use gss_graph::AdjacencyListGraph;
    use std::thread;

    impl ShardedGss {
        /// Consumes the handle and returns the merged sketch if this was the last clone.
        ///
        /// # Errors
        /// Returns `self` unchanged when other handles still exist.
        fn try_into_inner(self) -> Result<GssSketch, Self> {
            let config = self.config;
            let mut sketches = self.into_shards()?;
            if sketches.len() == 1 {
                return Ok(sketches.pop().expect("length checked"));
            }
            Ok(Self::merge_sketches(config, &sketches))
        }
    }

    fn stream(seed: u64, items: usize) -> Vec<StreamEdge> {
        let mut state = seed | 1;
        (0..items)
            .map(|t| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                StreamEdge::new(
                    (state >> 33) % 300,
                    (state >> 17) % 300,
                    t as u64,
                    (state % 7) as i64 + 1,
                )
            })
            .collect()
    }

    #[test]
    fn concurrent_inserts_from_multiple_threads_are_all_applied() {
        let sketch = ShardedGss::new(GssConfig::paper_default(64), 4).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let handle = sketch.clone();
                thread::spawn(move || {
                    for i in 0..250u64 {
                        handle.insert(t, 1000 + i, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sketch.stats().items_inserted, 1000);
        for t in 0..4u64 {
            assert_eq!(sketch.successors(t).len(), 250);
        }
    }

    #[test]
    fn concurrent_batched_writers_never_lose_items() {
        let sketch = ShardedGss::new(GssConfig::paper_small(64), 4).unwrap();
        let items = stream(11, 4000);
        let threads: Vec<_> = items
            .chunks(1000)
            .map(|chunk| {
                let handle = sketch.clone();
                let chunk = chunk.to_vec();
                thread::spawn(move || handle.insert_batch(&chunk))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sketch.stats().items_inserted, 4000);
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sketch.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
    }

    #[test]
    fn queries_see_prior_inserts() {
        let sketch = ShardedGss::new(GssConfig::paper_default(32), 4).unwrap();
        sketch.insert(1, 2, 5);
        assert_eq!(sketch.edge_weight(1, 2), Some(5));
        assert_eq!(sketch.successors(1), vec![2]);
        assert_eq!(sketch.precursors(2), vec![1]);
        assert_eq!(sketch.detailed_stats().matrix_edges, 1);
        let total: usize =
            (0..4).map(|i| sketch.with_shard_read(i, |inner| inner.stored_edges())).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn precursor_queries_union_across_shards() {
        // Many different sources (spread over all shards) point at one destination; a
        // precursor query must recover every one of them.
        let sketch = ShardedGss::new(GssConfig::paper_default(64), 4).unwrap();
        for source in 0..40u64 {
            sketch.insert(source, 7777, 1);
        }
        let precursors = sketch.precursors(7777);
        assert_eq!(precursors, (0..40u64).collect::<Vec<_>>());
    }

    #[test]
    fn merged_shards_answer_like_a_sequential_sketch() {
        let config = GssConfig::paper_small(64);
        let items = stream(9, 2000);
        let sharded = ShardedGss::new(config, 4).unwrap();
        let mut reference = GssSketch::new(config).unwrap();
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            sharded.insert(item.source, item.destination, item.weight);
            reference.insert(item.source, item.destination, item.weight);
            exact.insert(item.source, item.destination, item.weight);
        }
        let merged = sharded.merge();
        assert_eq!(merged.items_inserted(), 2000); // the item counter survives the merge
        for (key, weight) in exact.edges() {
            let estimate = merged.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(estimate >= weight, "edge {key:?} under-estimated after merge");
        }
        // Every shard received some share of a 2000-item stream (the router is a hash).
        for index in 0..4 {
            assert!(sharded.with_shard_read(index, |inner| inner.items_inserted()) > 0);
        }
    }

    #[test]
    fn sharded_queries_keep_one_sided_error() {
        let items = stream(23, 3000);
        let sharded = ShardedGss::new(GssConfig::paper_small(48), 4).unwrap();
        let mut exact = AdjacencyListGraph::new();
        sharded.insert_batch(&items);
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sharded
                .edge_weight(key.source, key.destination)
                .expect("true edges are never reported absent");
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
        for v in exact.vertices().into_iter().take(100) {
            let successors = sharded.successors(v);
            for truth in exact.successors(v) {
                assert!(successors.contains(&truth), "missing successor {truth} of {v}");
            }
            let precursors = sharded.precursors(v);
            for truth in exact.precursors(v) {
                assert!(precursors.contains(&truth), "missing precursor {truth} of {v}");
            }
        }
    }

    #[test]
    fn try_into_inner_returns_sketch_when_unique() {
        let sketch = ShardedGss::new(GssConfig::paper_default(16), 1).unwrap();
        assert_eq!(sketch.shard_count(), 1);
        let inner = sketch.try_into_inner().expect("single handle");
        assert_eq!(inner.items_inserted(), 0);

        let sharded = ShardedGss::new(GssConfig::paper_default(16), 3).unwrap();
        sharded.insert(1, 2, 4);
        let merged = sharded.try_into_inner().expect("single handle");
        assert_eq!(merged.edge_weight(1, 2), Some(4));
        // Multi-shard unwrap carries the item counter, like the single-shard path.
        assert_eq!(merged.items_inserted(), 1);
    }

    #[test]
    fn try_into_inner_fails_when_shared() {
        let sketch = ShardedGss::new(GssConfig::paper_default(16), 2).unwrap();
        let clone = sketch.clone();
        assert!(sketch.try_into_inner().is_err());
        drop(clone);
    }

    #[test]
    fn zero_shards_is_rejected_and_defaults_are_sane() {
        assert!(ShardedGss::new(GssConfig::paper_default(8), 0).is_err());
        // The defaults of `new`: in-memory shards, one per requested shard, down to the
        // single-lock case.
        let single = ShardedGss::new(GssConfig::paper_default(8), 1).unwrap();
        assert_eq!(single.shard_count(), 1);
        assert_eq!(single.with_shard_read(0, |inner| inner.storage_backend()), "memory");
    }

    #[test]
    fn trait_object_access_works_for_both_halves() {
        let mut sketch = ShardedGss::new(GssConfig::paper_default(32), 2).unwrap();
        {
            let writer: &mut dyn SummaryWrite = &mut sketch;
            writer.insert(1, 2, 3);
            writer.insert_batch(&[StreamEdge::new(1, 2, 0, 2)]);
        }
        let reader: &dyn SummaryRead = &sketch;
        assert_eq!(reader.edge_weight(1, 2), Some(5));
        assert_eq!(reader.stats().items_inserted, 2);
        assert!(reader.name().contains("ShardedGss(shards=2"));
    }

    #[test]
    fn equal_memory_mode_keeps_the_total_matrix_budget() {
        let config = GssConfig::paper_default(64);
        let single = GssSketch::new(config).unwrap();
        let sharded = crate::GssBuilder::from_config(config).build_sharded_equal_memory(4).unwrap();
        assert_eq!(sharded.config().width, 32);
        let total: usize =
            (0..4).map(|i| sharded.with_shard_read(i, |inner| inner.config().matrix_bytes())).sum();
        assert_eq!(total, single.config().matrix_bytes());
        // Still a working sketch with one-sided error.
        let items = stream(31, 2000);
        sharded.insert_batch(&items);
        let mut exact = AdjacencyListGraph::new();
        for item in &items {
            exact.insert(item.source, item.destination, item.weight);
        }
        for (key, weight) in exact.edges() {
            let reported = sharded.edge_weight(key.source, key.destination).unwrap_or(0);
            assert!(reported >= weight, "edge {key:?} under-estimated");
        }
        assert!(crate::GssBuilder::from_config(config).build_sharded_equal_memory(0).is_err());
    }

    #[test]
    fn file_backed_shards_write_one_file_each_and_reopen() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-file.gss", std::process::id()));
        let config = GssConfig::paper_small(24);
        let items = stream(17, 1200);
        {
            let sharded = ShardedGss::with_storage(
                config,
                3,
                &StorageBackend::File { path: base.clone(), cache_pages: 16 },
            )
            .unwrap();
            sharded.insert_batch(&items);
            assert_eq!(sharded.stats().items_inserted, 1200);
            // Queries work while the shards live on disk.
            assert!(sharded.edge_weight(items[0].source, items[0].destination).is_some());
        } // drop syncs every shard file
        let mut total_items = 0;
        for index in 0..3 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            let shard = GssSketch::open_file(&path, 16).unwrap();
            assert_eq!(shard.config(), &config);
            total_items += shard.items_inserted();
            std::fs::remove_file(&path).ok();
            std::fs::remove_file(crate::wal::wal_path(&path)).ok();
        }
        assert_eq!(total_items, 1200);
    }

    #[test]
    fn dropping_a_sharded_store_stops_its_cadence_thread_while_ack_handles_live() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-cadence.gss", std::process::id()));
        let (config, storage) = (
            GssConfig::paper_small(24),
            StorageBackend::File { path: base.clone(), cache_pages: 16 },
        );
        let group = GroupCommitter::new(GroupCommit::default());
        let coordinator = Arc::downgrade(&group);
        let shards = (0..2)
            .map(|index| {
                GssSketch::with_storage_grouped(
                    config,
                    storage.for_shard(index),
                    Arc::clone(&group),
                )
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        drop(group);
        let sharded = ShardedGss::from_shards(config, shards);
        sharded.insert_batch(&stream(3, 300));
        let handles = Arc::clone(&sharded.ack_handles);
        drop(sharded);
        // The stores were the coordinator's only owners, so dropping the last one joined
        // its cadence thread — although every shard's log lives on in `handles`.
        assert!(coordinator.upgrade().is_none(), "the cadence thread outlived its stores");
        assert!(handles.iter().all(Option::is_some));
        drop(handles);
        for index in 0..2 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            std::fs::remove_file(crate::wal::wal_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_sharded_refuses_fewer_shards_than_were_written() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-shrink.gss", std::process::id()));
        let items = stream(5, 300);
        {
            let sharded = ShardedGss::with_storage(
                GssConfig::paper_small(24),
                3,
                &StorageBackend::File { path: base.clone(), cache_pages: 16 },
            )
            .unwrap();
            sharded.insert_batch(&items);
            sharded.sync().unwrap();
        }
        let open = |shards| {
            ShardedGss::open_sharded(&base, shards, 16, Durability::Strict, GroupCommit::default())
        };
        // Routed by `hash % 2`, most of the 300 acknowledged edges would read as absent.
        match open(2) {
            Err(PersistenceError::InvalidConfig(message)) => {
                assert!(message.contains("with 3 shards, not 2"), "{message}")
            }
            other => panic!("reopening 3 shards as 2 must be refused, got {:?}", other.err()),
        }
        // The refusal touched nothing: the right count still answers every edge.
        let reopened = open(3).unwrap();
        for item in &items {
            assert!(reopened.edge_weight(item.source, item.destination).is_some());
        }
        drop(reopened);
        for index in 0..3 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            std::fs::remove_file(crate::wal::wal_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_sharded_reopens_every_shard_in_place() {
        let base =
            std::env::temp_dir().join(format!("gss-sharded-{}-reopen.gss", std::process::id()));
        let config = GssConfig::paper_small(24);
        let items = stream(41, 900);
        {
            let sharded = ShardedGss::with_storage(
                config,
                3,
                &StorageBackend::File { path: base.clone(), cache_pages: 16 },
            )
            .unwrap();
            sharded.insert_batch(&items);
            sharded.sync().unwrap();
        }
        let reopened =
            ShardedGss::open_sharded(&base, 3, 16, Durability::Strict, GroupCommit::default())
                .unwrap();
        assert_eq!(reopened.config(), &config);
        assert_eq!(reopened.stats().items_inserted, 900);
        assert!(!reopened.is_poisoned());
        // Still writable after reopen, and queries see both old and new items.
        reopened.insert(123_456, 654_321, 9);
        assert_eq!(reopened.edge_weight(123_456, 654_321), Some(9));
        assert!(reopened.edge_weight(items[0].source, items[0].destination).is_some());
        drop(reopened);
        for index in 0..3 {
            let path = base.with_file_name(format!(
                "{}.shard{index}",
                base.file_name().unwrap().to_string_lossy()
            ));
            std::fs::remove_file(crate::wal::wal_path(&path)).ok();
            std::fs::remove_file(&path).ok();
        }
        // Zero shards and missing files are typed errors, not panics.
        assert!(ShardedGss::open_sharded(&base, 0, 16, Durability::Strict, GroupCommit::default())
            .is_err());
        assert!(ShardedGss::open_sharded(&base, 2, 16, Durability::Strict, GroupCommit::default())
            .is_err());
    }
}
