//! The write path: candidate buckets, edge placement, the staged and batched inserts, and
//! the write-ahead-log commit / acknowledgement that ends each of them.

use super::GssSketch;
use crate::config::MAX_SEQUENCE_LENGTH;
use crate::error::{GssError, StoreFault};
use crate::hashing::HashedNode;
use crate::matrix::RoomKey;
use crate::storage::{BucketProbe, PageSource, RoomStorage};
use crate::wal::{Wal, WalAck};
use gss_graph::{StreamEdge, SummaryWrite, VertexId, Weight};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A candidate bucket for an edge: matrix coordinates plus the sequence indices that
/// produced them.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Candidate {
    pub(super) row: usize,
    pub(super) column: usize,
    source_index: u8,
    destination_index: u8,
}

impl Candidate {
    /// The key the edge `source → destination` carries in this bucket: its fingerprint
    /// pair plus this candidate's index pair.
    pub(super) fn key(&self, source: HashedNode, destination: HashedNode) -> RoomKey {
        RoomKey {
            source_fingerprint: source.fingerprint,
            destination_fingerprint: destination.fingerprint,
            source_index: self.source_index,
            destination_index: self.destination_index,
        }
    }
}

/// Upper bound on probed candidates per edge (`r² ≤ 16²`); sized so the probe list lives on
/// the stack — the insert path performs no heap allocation.
pub(super) const MAX_CANDIDATES: usize = MAX_SEQUENCE_LENGTH * MAX_SEQUENCE_LENGTH;

/// A hashed endpoint together with its address sequence.  A batch caches one per distinct
/// vertex, so consecutive items sharing an endpoint reuse both.
#[derive(Debug, Clone, Copy)]
struct Endpoint {
    node: HashedNode,
    addresses: [usize; MAX_SEQUENCE_LENGTH],
}

impl GssSketch {
    /// Pairs a hashed node with its address sequence.
    fn endpoint(&self, node: HashedNode) -> Endpoint {
        let mut addresses = [0usize; MAX_SEQUENCE_LENGTH];
        self.hasher.address_sequence_into(node, &mut addresses);
        Endpoint { node, addresses }
    }

    /// Fills `out` with the candidate buckets probed for an edge, in probe order, and
    /// returns how many were produced.  Allocation-free: everything lives on the stack.
    /// The endpoints are built here, not by the callers: handing them into `edge_weight`
    /// by value measured 8–10 % off memory-backend edge queries.
    pub(super) fn collect_candidates(
        &self,
        source: HashedNode,
        destination: HashedNode,
        out: &mut [Candidate; MAX_CANDIDATES],
    ) -> usize {
        self.collect_candidates_from(&self.endpoint(source), &self.endpoint(destination), out)
    }

    /// [`collect_candidates`](Self::collect_candidates) over endpoints whose address
    /// sequences are already computed, so the batched insert path computes each
    /// endpoint's sequence once per batch instead of once per item.
    fn collect_candidates_from(
        &self,
        &Endpoint { node: source, addresses: ref source_addresses }: &Endpoint,
        &Endpoint { node: destination, addresses: ref destination_addresses }: &Endpoint,
        out: &mut [Candidate; MAX_CANDIDATES],
    ) -> usize {
        let candidate = |row, column, i: usize, j: usize| Candidate {
            row,
            column,
            source_index: i as u8,
            destination_index: j as u8,
        };
        if !self.config.square_hashing {
            out[0] = candidate(source.address, destination.address, 0, 0);
            return 1;
        }
        let r = self.config.sequence_length;
        if self.config.sampling {
            let count = self.config.effective_candidates();
            self.hasher.sample_into(
                source.fingerprint,
                destination.fingerprint,
                &mut out[..count],
                |i, j| candidate(source_addresses[i], destination_addresses[j], i, j),
            );
            count
        } else {
            // Probe the full r × r square in row-major order, as in Section V-A.
            let mut count = 0;
            for (i, &row) in source_addresses.iter().take(r).enumerate() {
                for (j, &column) in destination_addresses.iter().take(r).enumerate() {
                    out[count] = candidate(row, column, i, j);
                    count += 1;
                }
            }
            count
        }
    }

    /// Inserts an edge whose endpoints are already in the hashed space (used by merging);
    /// does not touch the node-id table.
    ///
    /// # Panics
    /// Merging is infallible by signature, so a store fault on a file-backed target
    /// panics (the store is already poisoned when it does).
    pub(crate) fn insert_hashed(
        &mut self,
        source_hash: u64,
        destination_hash: u64,
        weight: Weight,
    ) {
        self.insert_nodes(
            self.hasher.split(source_hash),
            self.hasher.split(destination_hash),
            weight,
        )
        .unwrap_or_else(|fault| panic!("sketch write failed during merge: {fault}"));
    }

    /// Registers a `⟨H(v), v⟩` pair, write-ahead logging the registration when it is new
    /// — the single mutation point of the table.
    fn register_node(&mut self, hash: u64, vertex: VertexId) -> Result<(), StoreFault> {
        if self.node_map.register(hash, vertex) {
            if let RoomStorage::File(store) = &self.matrix {
                store.log_node(hash, vertex)?;
            }
        }
        Ok(())
    }

    /// Marks the completion of an insert/batch in the write-ahead log (the log drains
    /// before this returns), and checkpoints the sketch automatically once the log
    /// outgrows [`wal_checkpoint_bytes`](Self::set_wal_checkpoint_bytes) — long runs
    /// that never call [`sync`](Self::sync) still keep bounded sidecar-log size and
    /// bounded crash-recovery replay time.
    fn commit_wal(&mut self) -> Result<(), StoreFault> {
        if let Some(ack) = self.commit_wal_deferred()? {
            self.ack_wal(ack)?;
        }
        Ok(())
    }

    /// The append half of [`commit_wal`](Self::commit_wal) for the sharded two-phase
    /// batch path: logs the commit frame and returns the token the caller must
    /// acknowledge once every shard of the batch has appended.  Returns `None` for
    /// in-memory sketches, and when the log outgrew its checkpoint bound — the
    /// automatic checkpoint runs inline (it needs the exclusive sketch lock still held
    /// here) and leaves the log durable past the token's target anyway.
    ///
    /// On a poisoned or newly failing store the sticky [`StoreFault`] comes back —
    /// including when the inline automatic checkpoint fails (the checkpoint poisons the
    /// store, so the fault it latched is returned).
    fn commit_wal_deferred(&mut self) -> Result<Option<WalAck>, StoreFault> {
        let (wal_bytes, ack) = match &self.matrix {
            RoomStorage::File(store) => store.log_commit_deferred(self.items_inserted)?,
            RoomStorage::Memory(_) => return Ok(None),
        };
        if wal_bytes >= self.wal_checkpoint_bytes {
            self.ack_wal(ack)?;
            // This is an insert/batch boundary, so the sketch state is consistent.
            if let Err(error) = self.sync() {
                // The failed checkpoint poisoned the store; report its latched cause.
                let fault = match &self.matrix {
                    RoomStorage::File(store) => store.health().cause(),
                    RoomStorage::Memory(_) => None,
                };
                return Err(fault.unwrap_or_else(|| {
                    StoreFault::new(
                        std::io::ErrorKind::Other,
                        format!("automatic write-ahead-log checkpoint failed: {error}"),
                    )
                }));
            }
            return Ok(None);
        }
        Ok(Some(ack))
    }

    /// The acknowledgement half of [`commit_wal_deferred`](Self::commit_wal_deferred):
    /// drains the log up to the deferred commit.
    fn ack_wal(&self, ack: WalAck) -> Result<(), StoreFault> {
        match &self.matrix {
            RoomStorage::File(store) => store.ack_commit(ack),
            RoomStorage::Memory(_) => Ok(()),
        }
    }

    /// A lock-free acknowledger for this sketch's deferred commits — its log, see
    /// [`Wal::ack`] (`None` for in-memory sketches).
    pub(crate) fn wal_ack_handle(&self) -> Option<Arc<Wal>> {
        match &self.matrix {
            RoomStorage::File(store) => Some(store.ack_handle()),
            RoomStorage::Memory(_) => None,
        }
    }

    /// Copies every `⟨H(v), v⟩` registration of `other` into this sketch's id table.
    ///
    /// # Panics
    /// As [`insert_hashed`](Self::insert_hashed): merging is infallible by signature.
    pub(crate) fn absorb_node_map(&mut self, other: &GssSketch) {
        for (hash, vertex) in other.node_map.iter() {
            self.register_node(hash, vertex)
                .unwrap_or_else(|fault| panic!("node registration failed during merge: {fault}"));
        }
    }

    /// Overrides the inserted-items counter (used by persistence and shard merging).
    pub(crate) fn set_items_inserted(&mut self, items: u64) -> Result<(), StoreFault> {
        self.items_inserted = items;
        self.commit_wal()
    }

    /// Shared insert path over hashed endpoints: probe the candidate buckets in order and
    /// stop at the first one that already holds this edge or has a free room; spill to the
    /// buffer when all candidates are full (Section V, edge updating).  Because rooms are
    /// never freed, stopping at the first free room can never split an edge across two
    /// rooms, so Theorem 1 (exact storage of `G_h`) is preserved.
    fn insert_nodes(
        &mut self,
        source_node: HashedNode,
        destination_node: HashedNode,
        weight: Weight,
    ) -> Result<(), StoreFault> {
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        let count = self.collect_candidates(source_node, destination_node, &mut candidates);
        self.place_edge(source_node, destination_node, &candidates[..count], weight)
    }

    /// Walks `candidates` in probe order and places the edge: add to a matching room, claim
    /// the first free room, or spill to the buffer.  Each bucket is probed in **one pass**
    /// ([`RoomStorage::probe_bucket`]) that answers match/first-empty/full together.
    fn place_edge(
        &mut self,
        source_node: HashedNode,
        destination_node: HashedNode,
        candidates: &[Candidate],
        weight: Weight,
    ) -> Result<(), StoreFault> {
        for candidate in candidates {
            let (row, column) = (candidate.row, candidate.column);
            let key = candidate.key(source_node, destination_node);
            match self.matrix.probe_bucket(row, column, key)? {
                BucketProbe::Match(slot) => {
                    return self.matrix.add_weight(row, column, slot, weight);
                }
                BucketProbe::Empty(slot) => {
                    return self.matrix.store_room(row, column, slot, key.room(weight));
                }
                BucketProbe::Full => {}
            }
        }
        self.buffer.insert(source_node.hash, destination_node.hash, weight);
        if let RoomStorage::File(store) = &self.matrix {
            store.log_buffer_insert(source_node.hash, destination_node.hash, weight)?;
        }
        Ok(())
    }

    /// Hashes `vertex` once per batch: returns the index of its cache entry, creating it
    /// (and registering the `⟨H(v), v⟩` pair) on first sight.
    fn batch_endpoint(
        &mut self,
        vertex: VertexId,
        index: &mut HashMap<VertexId, u32>,
        cached: &mut Vec<Endpoint>,
    ) -> Result<u32, StoreFault> {
        if let Some(&slot) = index.get(&vertex) {
            return Ok(slot);
        }
        let node = self.hasher.hashed_node(vertex);
        if self.config.track_node_ids {
            self.register_node(node.hash, vertex)?;
        }
        let slot = cached.len() as u32;
        cached.push(self.endpoint(node));
        index.insert(vertex, slot);
        Ok(slot)
    }

    /// [`SummaryWrite::insert`] without the commit frame.  On a fault the store is
    /// already poisoned — the caller must not acknowledge the item.
    fn insert_staged(
        &mut self,
        source: VertexId,
        destination: VertexId,
        weight: Weight,
    ) -> Result<(), StoreFault> {
        self.items_inserted += 1;
        let source_node = self.hasher.hashed_node(source);
        let destination_node = self.hasher.hashed_node(destination);
        if self.config.track_node_ids {
            self.register_node(source_node.hash, source)?;
            self.register_node(destination_node.hash, destination)?;
        }
        self.insert_nodes(source_node, destination_node, weight)
    }

    /// [`SummaryWrite::insert_batch`] without the commit frame: batched edge updating,
    /// observationally identical to per-item [`insert`] but with the per-item work
    /// amortised across the batch:
    ///
    /// * every distinct endpoint is hashed (and its `⟨H(v), v⟩` pair registered) once;
    /// * each endpoint's square-hashing address sequence is computed once and reused by
    ///   every item sharing that endpoint;
    /// * duplicate `(source, destination)` keys are folded into a single accumulated weight
    ///   before the candidate buckets are probed.  Folding preserves first-occurrence order
    ///   of the distinct keys, and since a room is claimed at an edge's *first* insertion
    ///   and later items only add weight, the resulting matrix/buffer state is exactly the
    ///   state the per-item path produces.
    ///
    /// Returns whether a commit is owed (`false` only for an empty batch, which mutates
    /// nothing).  On a fault the store is already poisoned and the batch may be partially
    /// applied — the caller must not acknowledge it.
    ///
    /// [`insert`]: SummaryWrite::insert
    fn insert_batch_staged(&mut self, items: &[StreamEdge]) -> Result<bool, StoreFault> {
        if items.len() < 2 {
            match items.first() {
                Some(item) => {
                    self.insert_staged(item.source, item.destination, item.weight)?;
                }
                None => return Ok(false),
            }
            return Ok(true);
        }
        self.items_inserted += items.len() as u64;
        let mut endpoint_index: HashMap<VertexId, u32> =
            HashMap::with_capacity(items.len().min(4096));
        let mut endpoints: Vec<Endpoint> = Vec::new();
        // Folded distinct edges in first-occurrence order: (source slot, destination slot,
        // accumulated weight).
        let mut folded: Vec<(u32, u32, Weight)> = Vec::with_capacity(items.len());
        let mut edge_index: HashMap<(VertexId, VertexId), u32> =
            HashMap::with_capacity(items.len().min(4096));
        for item in items {
            let source = self.batch_endpoint(item.source, &mut endpoint_index, &mut endpoints)?;
            let destination =
                self.batch_endpoint(item.destination, &mut endpoint_index, &mut endpoints)?;
            match edge_index.entry((item.source, item.destination)) {
                Entry::Occupied(slot) => {
                    folded[*slot.get() as usize].2 += item.weight;
                }
                Entry::Vacant(slot) => {
                    slot.insert(folded.len() as u32);
                    folded.push((source, destination, item.weight));
                }
            }
        }
        let mut candidates = [Candidate::default(); MAX_CANDIDATES];
        // Batch locality: the file backend visits the folded edges in page order of each
        // edge's *first* candidate room, so consecutive room writes land on the same
        // cache page and ride the pinned write cursor instead of re-probing the stripe
        // map.  The stable sort keeps first-occurrence order within a page, and
        // re-ordering across pages is observationally neutral: wherever an edge is
        // placed relative to the others, it ends up in a room of its own candidate set
        // or in the exact buffer, and every query answers from either location
        // identically.  The in-memory backend keeps first-occurrence order outright.
        let mut order: Vec<u32> = (0..folded.len() as u32).collect();
        if let Some(store) = self.matrix.as_file() {
            let keys: Vec<u64> = folded
                .iter()
                .map(|&(source, destination, _)| {
                    let (source, destination) =
                        (&endpoints[source as usize], &endpoints[destination as usize]);
                    let count = self.collect_candidates_from(source, destination, &mut candidates);
                    if count == 0 {
                        return u64::MAX;
                    }
                    store.grid().layout.page_of_bucket(candidates[0].row, candidates[0].column)
                })
                .collect();
            order.sort_by_key(|&index| keys[index as usize]);
        }
        for &index in &order {
            let (source, destination, weight) = folded[index as usize];
            let (source, destination) =
                (&endpoints[source as usize], &endpoints[destination as usize]);
            let count = self.collect_candidates_from(source, destination, &mut candidates);
            self.place_edge(source.node, destination.node, &candidates[..count], weight)?;
        }
        Ok(true)
    }

    /// [`SummaryWrite::insert_batch`] with the commit deferred — the per-shard half of
    /// the sharded two-phase commit: stages the batch, appends the commit frame, and
    /// returns the acknowledgement token for the shard's log ([`Wal::ack`]) — `None` when
    /// nothing is owed (empty batch, in-memory sketch, or an inline automatic checkpoint
    /// already made the commit durable).
    pub(crate) fn insert_batch_deferred(
        &mut self,
        items: &[StreamEdge],
    ) -> Result<Option<WalAck>, StoreFault> {
        if self.insert_batch_staged(items)? {
            self.commit_wal_deferred()
        } else {
            Ok(None)
        }
    }

    /// [`insert`](SummaryWrite::insert) with typed fail-stop errors instead of the
    /// infallible trait's storage-contract panics: on a poisoned store (or the write
    /// that first poisons it) the sticky [`GssError::StoreFailed`] comes back, reads
    /// keep working, and [`durability_report`](Self::durability_report) quantifies any
    /// acknowledged-but-possibly-lost items.  In-memory sketches never fail.
    pub fn try_insert(
        &mut self,
        source: VertexId,
        destination: VertexId,
        weight: Weight,
    ) -> Result<(), GssError> {
        self.insert_staged(source, destination, weight)?;
        self.commit_wal()?;
        Ok(())
    }

    /// [`insert_batch`](SummaryWrite::insert_batch) with typed fail-stop errors (see
    /// [`try_insert`](Self::try_insert)).  On an error the batch may be partially
    /// applied and is **not** acknowledged; the store rejects all further writes with
    /// the same sticky cause.
    pub(crate) fn try_insert_batch(&mut self, items: &[StreamEdge]) -> Result<(), GssError> {
        if self.insert_batch_staged(items)? {
            self.commit_wal()?;
        }
        Ok(())
    }
}

impl SummaryWrite for GssSketch {
    /// [`try_insert`](GssSketch::try_insert) plus a panic: the trait is infallible, so
    /// a store fault (the store is already poisoned) unwinds.
    fn insert(&mut self, source: VertexId, destination: VertexId, weight: Weight) {
        self.try_insert(source, destination, weight)
            .unwrap_or_else(|error| panic!("sketch write failed: {error}"));
    }

    /// `try_insert_batch` plus a panic (see
    /// [`insert`](SummaryWrite::insert)).
    fn insert_batch(&mut self, items: &[StreamEdge]) {
        self.try_insert_batch(items).unwrap_or_else(|error| panic!("sketch write failed: {error}"));
    }

    /// Streams through [`insert_batch`](SummaryWrite::insert_batch) in fixed-size chunks so
    /// unbounded iterators still benefit from batched hashing without unbounded buffering.
    fn insert_stream(&mut self, items: &mut dyn Iterator<Item = StreamEdge>) {
        const CHUNK: usize = 1024;
        let mut buffer: Vec<StreamEdge> = Vec::with_capacity(CHUNK);
        loop {
            buffer.clear();
            while buffer.len() < CHUNK {
                match items.next() {
                    Some(item) => buffer.push(item),
                    None => break,
                }
            }
            if buffer.is_empty() {
                return;
            }
            self.insert_batch(&buffer);
            if buffer.len() < CHUNK {
                return;
            }
        }
    }
}
