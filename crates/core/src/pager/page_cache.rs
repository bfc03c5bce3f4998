//! The lock-striped page cache: [`PageCache`] and its per-page [`PageSlot`]s.
//!
//! The page table is split into power-of-two stripes, each a small mutex-guarded map
//! from page index to a reference-counted slot.  A cache **hit** takes its stripe's
//! mutex only long enough to clone the slot's `Arc` and bump an atomic recency stamp;
//! the room bytes themselves are then read or written under the slot's own read/write
//! latch, so hits on distinct pages never touch a common lock.  A **fault** inserts a
//! fresh slot (holding its write latch) and performs the disk read after releasing the
//! stripe mutex — faults on pages of different stripes overlap their I/O, and hits on
//! the faulting page block on the page latch, not on the table.
//!
//! Eviction is per-stripe exact-LRU over the atomic stamps.  A slot still referenced
//! outside the table (`Arc` strong count > 1) is pinned: evicting it could write the
//! page back and then lose a mutation landing through the surviving reference, so such
//! slots are skipped and the stripe transiently overshoots its share instead.

use super::witness::{self, LockClass, Tracked};
use super::PAGE_BYTES;
use crate::metrics::{self, StoreCounters};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The backing store a [`PageCache`] faults from and evicts to.  Implemented by
/// `FileStore`, which routes `write_back` through the write-ahead barrier.
pub trait PageIo {
    /// Fills `into` with the current content of page `index`.
    fn load_page(&self, index: u64, into: &mut [u8; PAGE_BYTES]) -> io::Result<()>;
    /// Persists an evicted dirty page.
    fn write_back(&self, index: u64, data: &[u8; PAGE_BYTES]) -> io::Result<()>;
}

/// One cached page: its own latch plus atomic recency/dirty state, shared by `Arc` so
/// the table can evict other pages while this one is being read.
pub struct PageSlot {
    index: u64,
    /// Recency stamp from the cache-wide atomic clock (exact LRU within a stripe).
    stamp: AtomicU64,
    dirty: AtomicBool,
    data: RwLock<Box<[u8; PAGE_BYTES]>>,
}

impl PageSlot {
    /// The room-region page index this slot caches.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Marks the page dirtier than the file.  Call while holding the write latch.
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }
}

struct Stripe {
    slots: Mutex<HashMap<u64, Arc<PageSlot>>>,
}

/// A pinned-page cursor: remembers the slot of the last page it resolved, so a run of
/// lookups hitting the same page ([`PageCache::lookup_with`]) skips the stripe mutex
/// and recency bookkeeping entirely.  The held `Arc` pins the slot against eviction
/// (strong count > 1), which is exactly the existing pin contract — a cursor therefore
/// keeps at most one extra page resident.  Batch ingest sorts its room writes by page
/// offset to maximise run length.
#[derive(Default)]
pub struct PageCursor {
    slot: Option<Arc<PageSlot>>,
}

/// The striped page table (see the module docs).
pub struct PageCache {
    stripes: Box<[Stripe]>,
    /// Page capacity of each stripe (total budget divided evenly; a stripe may briefly
    /// exceed it while every resident slot is pinned).
    per_stripe_capacity: usize,
    /// Monotonic recency clock shared by all stripes.
    clock: AtomicU64,
    /// The owning store's counters (lookups, faults, latch waits).
    counters: Arc<StoreCounters>,
}

impl PageCache {
    /// A cache holding at most `capacity_pages` pages (clamped to at least 1).  Small
    /// caches get a single stripe so the page budget stays exact; larger ones get up to
    /// 16 so concurrent faults spread across locks.  Lookups, faults and latch waits
    /// are counted into `counters`.
    pub fn new(capacity_pages: usize, counters: Arc<StoreCounters>) -> Self {
        let capacity = capacity_pages.max(1);
        let stripes = (capacity / 4).next_power_of_two().clamp(1, 16);
        Self {
            stripes: (0..stripes).map(|_| Stripe { slots: Mutex::new(HashMap::new()) }).collect(),
            per_stripe_capacity: capacity.div_ceil(stripes),
            clock: AtomicU64::new(0),
            counters,
        }
    }

    fn stripe(&self, index: u64) -> &Stripe {
        // Adjacent pages round-robin across stripes, so a sequential scan's faults (and
        // a scan racing another scan) spread over all the table locks.
        &self.stripes[(index as usize) & (self.stripes.len() - 1)]
    }

    /// Returns the slot caching page `index`, faulting it in through `io` on a miss
    /// (evicting this stripe's least-recently-used unpinned page first when full).
    pub fn lookup(&self, index: u64, io: &impl PageIo) -> io::Result<Arc<PageSlot>> {
        // relaxed: the clock only orders evictions approximately; a stale tick merely
        // makes LRU slightly less exact, never incorrect.
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        metrics::add(&self.counters.page_lookups, 1);
        let stripe_held = witness::acquire(LockClass::StripeMap);
        let mut slots = self.stripe(index).slots.lock();
        if let Some(slot) = slots.get(&index) {
            // relaxed: recency stamps feed the same approximate LRU as the clock.
            slot.stamp.store(tick, Ordering::Relaxed);
            return Ok(Arc::clone(slot));
        }
        metrics::add(&self.counters.page_faults, 1);
        while slots.len() >= self.per_stripe_capacity {
            // A plain loop, not `filter().min_by_key()`: in some codegen-unit partitions
            // the adapter chain compiled to an out-of-line table fold, which cost every
            // fault enough to slow `wire_cold` precursor queries by a quarter.
            let mut victim = None;
            let mut oldest = u64::MAX;
            for (&candidate, slot) in slots.iter() {
                // relaxed: see the clock above — stamps order eviction approximately.
                let stamp = slot.stamp.load(Ordering::Relaxed);
                if Arc::strong_count(slot) == 1 && (victim.is_none() || stamp < oldest) {
                    (victim, oldest) = (Some((candidate, slot)), stamp);
                }
            }
            let Some((victim, slot)) = victim else { break };
            if slot.is_dirty() {
                // Uncontended: the strong count of 1 proved no one else holds the slot.
                let _latch_held = witness::acquire(LockClass::PageLatch);
                // The victim leaves the table only once its bytes are in the file: a
                // failed write-back returns with it still resident and dirty, because
                // it holds the only copy of mutations that were already acknowledged.
                io.write_back(victim, &slot.data.read())?;
            }
            slots.remove(&victim);
        }
        let slot = Arc::new(PageSlot {
            index,
            stamp: AtomicU64::new(tick),
            dirty: AtomicBool::new(false),
            data: RwLock::new(Box::new([0u8; PAGE_BYTES])),
        });
        // Hold the fresh slot's write latch across the disk read: concurrent lookups of
        // this page find the slot immediately and block on the latch — never on the
        // stripe mutex — while faults on other pages proceed.
        let latch_held = witness::acquire(LockClass::PageLatch);
        let mut data = slot.data.try_write().expect("fresh slot is uncontended");
        slots.insert(index, Arc::clone(&slot));
        drop(slots);
        drop(stripe_held);
        if let Err(error) = io.load_page(index, &mut data) {
            // Don't leave a zeroed slot masquerading as page content.  The latch held
            // here belongs to the fresh slot inserted above, which this very `Arc`
            // pins — no other thread can pick it as an eviction victim and close the
            // latch→stripe order cycle, hence the declared edge.
            let _stripe_held = witness::acquire_declared(LockClass::StripeMap);
            // gss-lint: allow(L001, held latch pins the fresh slot so it can never be another thread's eviction victim)
            self.stripe(index).slots.lock().remove(&index);
            return Err(error);
        }
        drop(data);
        drop(latch_held);
        Ok(slot)
    }

    /// [`lookup`](Self::lookup) through a [`PageCursor`]: a lookup of the same page the
    /// cursor last resolved returns its pinned slot without touching the stripe mutex
    /// or the recency clock (the pin itself keeps the slot resident, so no stamp is
    /// needed); any other page falls back to a full lookup and re-aims the cursor.
    pub fn lookup_with(
        &self,
        cursor: &mut PageCursor,
        index: u64,
        io: &impl PageIo,
    ) -> io::Result<Arc<PageSlot>> {
        if let Some(slot) = &cursor.slot {
            if slot.index == index {
                metrics::add(&self.counters.page_lookups, 1);
                return Ok(Arc::clone(slot));
            }
        }
        let slot = self.lookup(index, io)?;
        cursor.slot = Some(Arc::clone(&slot));
        Ok(slot)
    }

    /// Acquires `slot`'s read latch, counting the acquisition as contended if it blocks.
    pub fn read<'a>(
        &self,
        slot: &'a PageSlot,
    ) -> Tracked<RwLockReadGuard<'a, Box<[u8; PAGE_BYTES]>>> {
        let held = witness::acquire(LockClass::PageLatch);
        let guard = match slot.data.try_read() {
            Some(guard) => guard,
            None => {
                metrics::add(&self.counters.page_latch_waits, 1);
                slot.data.read()
            }
        };
        Tracked::new(held, guard)
    }

    /// Acquires `slot`'s write latch, counting the acquisition as contended if it blocks.
    pub fn write<'a>(
        &self,
        slot: &'a PageSlot,
    ) -> Tracked<RwLockWriteGuard<'a, Box<[u8; PAGE_BYTES]>>> {
        let held = witness::acquire(LockClass::PageLatch);
        let guard = match slot.data.try_write() {
            Some(guard) => guard,
            None => {
                metrics::add(&self.counters.page_latch_waits, 1);
                slot.data.write()
            }
        };
        Tracked::new(held, guard)
    }

    /// The currently cached dirty slots, ascending by page index (the flush path writes
    /// them in elevator order).  The returned `Arc`s pin the slots against eviction.
    pub fn dirty_slots(&self) -> Vec<Arc<PageSlot>> {
        let mut dirty: Vec<Arc<PageSlot>> = Vec::new();
        for stripe in &self.stripes {
            let _stripe_held = witness::acquire(LockClass::StripeMap);
            let slots = stripe.slots.lock();
            dirty.extend(slots.values().filter(|s| s.is_dirty()).map(Arc::clone));
        }
        dirty.sort_unstable_by_key(|slot| slot.index);
        dirty
    }

    /// Clears a slot's dirty flag after its content reached the file.  Caller must
    /// guarantee no mutation raced the write-back (the checkpoint path runs with no
    /// concurrent mutators by the sketch's `&mut self` contract).
    pub fn mark_clean(&self, slot: &PageSlot) {
        slot.clear_dirty();
    }
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("stripes", &self.stripes.len())
            .field("per_stripe_capacity", &self.per_stripe_capacity)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backing store over a plain in-memory byte vector, recording write-backs.
    struct MemIo {
        pages: Mutex<HashMap<u64, [u8; PAGE_BYTES]>>,
        write_backs: AtomicU64,
    }

    impl MemIo {
        fn new() -> Self {
            Self { pages: Mutex::new(HashMap::new()), write_backs: AtomicU64::new(0) }
        }
    }

    impl PageIo for MemIo {
        fn load_page(&self, index: u64, into: &mut [u8; PAGE_BYTES]) -> io::Result<()> {
            match self.pages.lock().get(&index) {
                Some(page) => into.copy_from_slice(page),
                None => into.fill(0),
            }
            Ok(())
        }

        fn write_back(&self, index: u64, data: &[u8; PAGE_BYTES]) -> io::Result<()> {
            self.pages.lock().insert(index, *data);
            self.write_backs.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn hits_and_faults_are_counted_and_content_round_trips() {
        let cache = PageCache::new(8, Arc::default());
        let io = MemIo::new();
        let slot = cache.lookup(3, &io).unwrap();
        {
            let mut data = cache.write(&slot);
            data[17] = 0xAB;
            slot.mark_dirty();
        }
        let again = cache.lookup(3, &io).unwrap();
        assert_eq!(cache.read(&again)[17], 0xAB);
        assert_eq!(metrics::get(&cache.counters.page_lookups), 2);
        assert_eq!(metrics::get(&cache.counters.page_faults), 1);
    }

    #[test]
    fn eviction_writes_dirty_pages_back_and_refaults_them() {
        let cache = PageCache::new(1, Arc::default());
        let io = MemIo::new();
        for index in 0..6u64 {
            let slot = cache.lookup(index, &io).unwrap();
            cache.write(&slot)[0] = index as u8 + 1;
            slot.mark_dirty();
        }
        assert!(io.write_backs.load(Ordering::Relaxed) >= 5, "a 1-page cache must evict");
        for index in 0..6u64 {
            let slot = cache.lookup(index, &io).unwrap();
            assert_eq!(cache.read(&slot)[0], index as u8 + 1);
        }
    }

    /// [`MemIo`] whose first `write_back` fails with `EIO`.
    struct FailOnceIo {
        inner: MemIo,
        failed: AtomicBool,
    }

    impl PageIo for FailOnceIo {
        fn load_page(&self, index: u64, into: &mut [u8; PAGE_BYTES]) -> io::Result<()> {
            self.inner.load_page(index, into)
        }

        fn write_back(&self, index: u64, data: &[u8; PAGE_BYTES]) -> io::Result<()> {
            if !self.failed.swap(true, Ordering::Relaxed) {
                return Err(io::Error::other("injected write-back failure"));
            }
            self.inner.write_back(index, data)
        }
    }

    #[test]
    fn a_failed_write_back_keeps_the_victim_cached_and_dirty() {
        let cache = PageCache::new(1, Arc::default());
        let io = FailOnceIo { inner: MemIo::new(), failed: AtomicBool::new(false) };
        let slot = cache.lookup(0, &io).unwrap();
        cache.write(&slot)[0] = 42;
        slot.mark_dirty();
        drop(slot);
        // Faulting page 1 must evict dirty page 0; its write-back fails, so the only
        // copy of the mutation has to stay resident — and still owed to the file.
        assert!(cache.lookup(1, &io).is_err());
        let faults = metrics::get(&cache.counters.page_faults);
        let kept = cache.lookup(0, &io).unwrap();
        assert_eq!(
            metrics::get(&cache.counters.page_faults),
            faults,
            "page 0 is still cached: a hit"
        );
        assert_eq!(cache.read(&kept)[0], 42);
        assert_eq!(cache.dirty_slots().len(), 1, "and still dirty");
        drop(kept);
        // The next eviction succeeds and finally writes the page.
        cache.lookup(1, &io).unwrap();
        assert_eq!(io.inner.pages.lock().get(&0).map(|page| page[0]), Some(42));
    }

    #[test]
    fn pinned_slots_survive_eviction_pressure() {
        let cache = PageCache::new(1, Arc::default());
        let io = MemIo::new();
        let pinned = cache.lookup(0, &io).unwrap();
        cache.write(&pinned)[0] = 77;
        pinned.mark_dirty();
        // Fault plenty of other pages through the same (single) stripe.
        for index in 1..10u64 {
            cache.lookup(index, &io).unwrap();
        }
        // The pinned slot was never written back or dropped: the mutation is still here.
        assert_eq!(cache.read(&pinned)[0], 77);
        let refetched = cache.lookup(0, &io).unwrap();
        assert!(Arc::ptr_eq(&pinned, &refetched), "pinned slot stayed in the table");
    }

    #[test]
    fn concurrent_readers_share_pages_without_latch_contention() {
        let cache = Arc::new(PageCache::new(64, Arc::default()));
        let io = Arc::new(MemIo::new());
        for index in 0..32u64 {
            let slot = cache.lookup(index, io.as_ref()).unwrap();
            cache.write(&slot)[0] = index as u8;
            slot.mark_dirty();
        }
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let io = Arc::clone(&io);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let index = (round * 7 + t) % 32;
                        let slot = cache.lookup(index, io.as_ref()).unwrap();
                        assert_eq!(cache.read(&slot)[0], index as u8);
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        // Read latches are shared: concurrent readers never block each other.
        assert_eq!(metrics::get(&cache.counters.page_latch_waits), 0);
    }

    #[test]
    fn cursor_reuses_the_pinned_slot_and_survives_eviction_pressure() {
        let cache = PageCache::new(1, Arc::default());
        let io = MemIo::new();
        let mut cursor = PageCursor::default();
        let slot = cache.lookup_with(&mut cursor, 5, &io).unwrap();
        cache.write(&slot)[0] = 9;
        slot.mark_dirty();
        drop(slot);
        let faults_after_first = metrics::get(&cache.counters.page_faults);
        // Same page through the cursor: no fault, and the identical slot comes back —
        // even after eviction pressure from other pages (the cursor's pin keeps it in).
        for index in 20..30u64 {
            cache.lookup(index, &io).unwrap();
        }
        let again = cache.lookup_with(&mut cursor, 5, &io).unwrap();
        assert_eq!(cache.read(&again)[0], 9);
        assert_eq!(
            metrics::get(&cache.counters.page_faults),
            faults_after_first + 10,
            "no re-fault of page 5"
        );
        // A different page re-aims the cursor; page 5 becomes evictable again.
        let moved = cache.lookup_with(&mut cursor, 6, &io).unwrap();
        assert_eq!(moved.index(), 6);
        assert!(cursor.slot.as_ref().is_some_and(|slot| Arc::ptr_eq(slot, &moved)));
    }

    #[test]
    fn dirty_slots_come_out_in_ascending_page_order() {
        let cache = PageCache::new(64, Arc::default());
        let io = MemIo::new();
        for &index in &[9u64, 2, 30, 17] {
            let slot = cache.lookup(index, &io).unwrap();
            slot.mark_dirty();
        }
        let order: Vec<u64> = cache.dirty_slots().iter().map(|s| s.index()).collect();
        assert_eq!(order, vec![2, 9, 17, 30]);
    }
}
