//! The `⟨H(v), v⟩` reverse table.
//!
//! Section IV: "We can store ⟨H(v), v⟩ pairs with hash tables to make this mapping procedure
//! reversible.  This needs O(|V|) additional memory…".  Successor/precursor queries recover
//! sketch-node hashes from the matrix and then translate them back to original vertex ids
//! through this table.  Several original vertices may share a hash (that is exactly the
//! collision the accuracy analysis quantifies), in which case all of them are returned —
//! the source of the false positives measured by the precision metric.
//!
//! **Layout.**  One flat open-addressing table of 16-byte `(hash, vertex)` slots with
//! linear probing: no per-entry allocation, and a lookup reads consecutive slots.  A vertex
//! that shares its hash with others gets a slot of its own on the same probe chain, so a
//! hash's vertices are found by walking its chain to the first empty slot.  The table
//! doubles before it is ¾ full.  An empty slot
//! holds hash [`u64::MAX`], which no [`NodeHasher`](crate::NodeHasher) produces (`H(v) <
//! m·F < 2³⁴`); a pair carrying that hash (only a corrupt input or a hand-built call makes
//! one) is kept in a small side list instead, so every `(hash, vertex)` pair registers.
//!
//! **Order.**  Without deletions, linear probing keeps a hash's vertices in registration
//! order along its probe chain, also when the chain wraps the table's end.  A resize and
//! [`iter`](NodeIdMap::iter) walk the slots cluster by cluster, starting at an empty
//! slot, which visits every chain in probe order; so registration order survives resizes,
//! merges and the snapshot encoder.
//!
//! **Memory.**  [`bytes`](NodeIdMap::bytes) is the allocation actually held: slot capacity
//! × 16, plus the side list (normally empty).
//!
//! **Threat model.**  Vertex ids are chosen by clients and the default `hash_seed` is
//! public, so anyone can compute `H(v)` and pick vertices whose hashes would crowd one
//! probe cluster if the slot index were a fixed function of the hash.  The slot index is
//! therefore keyed: a folded multiply of the hash under two words drawn once per process
//! from [`RandomState`].  Vertices that share one `H(v)` are the paper's collision and
//! cannot be spread: `k` of them cost a walk over `k` slots, as any per-hash list would.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// The hash an empty slot holds.
const EMPTY: u64 = u64::MAX;

/// One table slot: a registered `(hash, vertex)` pair, or empty.
#[derive(Clone, Copy)]
struct Slot {
    hash: u64,
    vertex: u64,
}

const EMPTY_SLOT: Slot = Slot { hash: EMPTY, vertex: 0 };

/// Size of one slot in bytes (what [`NodeIdMap::bytes`] counts per slot).
const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

/// Capacity of the first allocation.
const MIN_SLOTS: usize = 16;

/// The slot-index key, drawn once per process.
fn process_key() -> [u64; 2] {
    static KEY: OnceLock<[u64; 2]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        // An odd multiplier keeps the folded multiply from collapsing.
        [state.hash_one(0u64), state.hash_one(1u64) | 1]
    })
}

/// Reverse map from sketch-node hash `H(v)` to the original vertex ids mapped onto it.
#[derive(Clone)]
pub struct NodeIdMap {
    key: [u64; 2],
    /// A power of two many slots (or none before the first registration).
    slots: Box<[Slot]>,
    /// Occupied slots.
    used: usize,
    /// Vertices registered under hash [`EMPTY`], in registration order.
    side: Vec<u64>,
    colliding: usize,
}

impl Default for NodeIdMap {
    fn default() -> Self {
        Self { key: process_key(), slots: Box::default(), used: 0, side: Vec::new(), colliding: 0 }
    }
}

/// Leaves the slot-index key out of debug output.
impl std::fmt::Debug for NodeIdMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeIdMap")
            .field("vertices", &self.len())
            .field("slots", &self.slots.len())
            .field("colliding_hashes", &self.colliding)
            .finish_non_exhaustive()
    }
}

impl NodeIdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more vertices without a resize on the way.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.used.saturating_add(additional);
        if needed.saturating_mul(4) > self.slots.len() * 3 {
            self.resize(Self::capacity_for(needed));
        }
    }

    /// Registers that original vertex `vertex` hashes to `hash`.  Idempotent per vertex;
    /// returns `true` when the pair was new (callers use this to write-ahead log only
    /// real mutations).
    pub fn register(&mut self, hash: u64, vertex: u64) -> bool {
        if hash == EMPTY {
            if self.side.contains(&vertex) {
                return false;
            }
            self.colliding += usize::from(self.side.len() == 1);
            self.side.push(vertex);
            return true;
        }
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.resize(Self::capacity_for(self.used + 1));
        }
        let mask = self.slots.len() - 1;
        let mut index = self.home(hash);
        let mut same_hash = 0usize;
        loop {
            let slot = self.slots[index];
            if slot.hash == EMPTY {
                break;
            }
            if slot.hash == hash {
                if slot.vertex == vertex {
                    return false;
                }
                same_hash += 1;
            }
            index = (index + 1) & mask;
        }
        self.slots[index] = Slot { hash, vertex };
        self.used += 1;
        self.colliding += usize::from(same_hash == 1);
        true
    }

    /// All original vertices that map to `hash`, in registration order (none if the hash
    /// was never registered).
    pub fn vertices_for(&self, hash: u64) -> impl Iterator<Item = u64> + '_ {
        let side: &[u64] = if hash == EMPTY { &self.side } else { &[] };
        let mask = self.slots.len().wrapping_sub(1);
        let mut index =
            if hash == EMPTY || self.slots.is_empty() { None } else { Some(self.home(hash)) };
        let chain = std::iter::from_fn(move || loop {
            let slot = self.slots[index?];
            if slot.hash == EMPTY {
                index = None;
                return None;
            }
            index = Some((index? + 1) & mask);
            if slot.hash == hash {
                return Some(slot.vertex);
            }
        });
        chain.chain(side.iter().copied())
    }

    /// Number of distinct original vertices registered.
    pub fn len(&self) -> usize {
        self.used + self.side.len()
    }

    /// Returns `true` if no vertex has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of hash values onto which at least two vertices collide.
    pub fn colliding_hashes(&self) -> usize {
        self.colliding
    }

    /// Heap bytes held: the slot allocation plus the side list's.
    pub fn bytes(&self) -> usize {
        self.slots.len() * SLOT_BYTES + self.side.capacity() * std::mem::size_of::<u64>()
    }

    /// Iterates over every registered `(hash, vertex)` pair; the vertices of one hash come
    /// in registration order (used when merging sketches and encoding snapshots).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        cluster_order(&self.slots)
            .map(|slot| (slot.hash, slot.vertex))
            .chain(self.side.iter().map(|&vertex| (EMPTY, vertex)))
    }

    /// The slot a hash's probe chain starts at (the table must hold slots).
    #[inline]
    fn home(&self, hash: u64) -> usize {
        let product = u128::from(hash ^ self.key[0]) * u128::from(self.key[1]);
        ((product as u64) ^ ((product >> 64) as u64)) as usize & (self.slots.len() - 1)
    }

    /// The power-of-two capacity that keeps `entries` under ¾ load.
    fn capacity_for(entries: usize) -> usize {
        (entries.saturating_mul(4) / 3 + 1).next_power_of_two().max(MIN_SLOTS)
    }

    /// Moves every pair into a table of `capacity` slots, chains in probe order so each
    /// hash keeps its registration order.
    fn resize(&mut self, capacity: usize) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; capacity].into_boxed_slice());
        let mask = capacity - 1;
        for slot in cluster_order(&old) {
            let mut index = self.home(slot.hash);
            while self.slots[index].hash != EMPTY {
                index = (index + 1) & mask;
            }
            self.slots[index] = slot;
        }
    }
}

/// The occupied slots of `slots`, walked from an empty one and wrapping around, so each
/// cluster is visited from its first slot — every probe chain in probe order.
fn cluster_order(slots: &[Slot]) -> impl Iterator<Item = Slot> + '_ {
    let start = slots.iter().position(|slot| slot.hash == EMPTY).unwrap_or(0);
    slots[start..].iter().chain(&slots[..start]).copied().filter(|slot| slot.hash != EMPTY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut map = NodeIdMap::new();
        map.register(100, 1);
        map.register(100, 2);
        map.register(200, 3);
        assert_eq!(map.vertices_for(100).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(map.vertices_for(200).collect::<Vec<_>>(), [3]);
        assert_eq!(map.vertices_for(300).count(), 0);
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(map.colliding_hashes(), 1);
        assert!(map.bytes() > 0);
    }

    #[test]
    fn registration_is_idempotent_per_vertex() {
        let mut map = NodeIdMap::new();
        assert!(map.register(7, 42));
        assert!(!map.register(7, 42));
        assert!(map.register(7, 43));
        assert!(!map.register(7, 43));
        assert!(!map.register(7, 42));
        assert_eq!(map.vertices_for(7).collect::<Vec<_>>(), [42, 43]);
        assert_eq!(map.len(), 2);
        assert_eq!(map.colliding_hashes(), 1);
        // The empty-slot hash registers too, through the side list, just as idempotently.
        assert!(map.register(EMPTY, 5));
        assert!(!map.register(EMPTY, 5));
        assert!(map.register(EMPTY, 6));
        assert_eq!(map.vertices_for(EMPTY).collect::<Vec<_>>(), [5, 6]);
        assert_eq!((map.len(), map.colliding_hashes()), (4, 2));
    }

    #[test]
    fn iter_yields_every_registration() {
        let mut map = NodeIdMap::new();
        map.register(1, 10);
        map.register(1, 11);
        map.register(2, 20);
        let mut pairs: Vec<(u64, u64)> = map.iter().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(1, 10), (1, 11), (2, 20)]);
    }

    #[test]
    fn empty_map_reports_empty() {
        let map = NodeIdMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.colliding_hashes(), 0);
        assert_eq!(map.bytes(), 0);
        assert_eq!(map.vertices_for(3).count(), 0);
    }

    /// The node-section bytes `write_node_section` emits for `map`.
    fn node_section(map: &NodeIdMap) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::persistence::write_node_section(map, &mut bytes).unwrap();
        bytes
    }

    /// The node section of one hash holding `vertices`, in that order.
    fn one_hash_section(hash: u64, vertices: &[u64]) -> Vec<u8> {
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.extend(hash.to_le_bytes());
        bytes.extend((vertices.len() as u32).to_le_bytes());
        vertices.iter().for_each(|vertex| bytes.extend(vertex.to_le_bytes()));
        bytes
    }

    #[test]
    fn a_chain_that_wraps_the_end_keeps_registration_order_across_a_resize() {
        let mut map = NodeIdMap::new();
        map.reserve(1);
        let last = map.slots.len() - 1;
        // A hash whose chain starts in the last slot, so its second vertex wraps to slot 0.
        let hash = (0u64..).find(|&hash| map.home(hash) == last).unwrap();
        let vertices: Vec<u64> = (0..6).map(|i| 1_000 - i * 7).collect();
        for &vertex in &vertices {
            assert!(map.register(hash, vertex));
        }
        assert_eq!(map.slots[last].vertex, vertices[0]);
        assert_eq!(map.slots[0].vertex, vertices[1], "the chain wraps the table's end");
        assert_eq!(map.vertices_for(hash).collect::<Vec<_>>(), vertices);
        assert_eq!(node_section(&map), one_hash_section(hash, &vertices));

        // Other hashes force resizes; the wrapped chain keeps its order through each.
        let capacity = map.slots.len();
        for other in (0..400u64).filter(|&other| other != hash) {
            map.register(other, other);
        }
        assert!(map.slots.len() > capacity, "the table resized");
        assert_eq!(map.vertices_for(hash).collect::<Vec<_>>(), vertices);
        let mut copied = NodeIdMap::new();
        for (other_hash, vertex) in map.iter() {
            copied.register(other_hash, vertex);
        }
        assert_eq!(copied.vertices_for(hash).collect::<Vec<_>>(), vertices, "iter keeps order");
        let expected = one_hash_section(hash, &vertices);
        assert!(
            node_section(&map).windows(expected.len() - 8).any(|w| w == &expected[8..]),
            "the encoder writes the hash's vertices in registration order"
        );
    }

    #[test]
    fn many_vertices_under_one_hash_keep_registration_order() {
        let mut map = NodeIdMap::new();
        let vertices: Vec<u64> =
            (0..300u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        for (i, &vertex) in vertices.iter().enumerate() {
            assert!(map.register(77, vertex));
            map.register(1_000 + i as u64, vertex); // interleaved neighbours crowd the chain
        }
        assert_eq!(map.vertices_for(77).collect::<Vec<_>>(), vertices);
        assert_eq!(map.len(), 600);
        assert_eq!(map.colliding_hashes(), 1);
        let section = node_section(&map);
        let expected = one_hash_section(77, &vertices);
        assert!(section.windows(expected.len() - 8).any(|w| w == &expected[8..]));
    }

    #[test]
    fn bytes_is_the_held_slot_capacity() {
        let mut map = NodeIdMap::new();
        for vertex in 0..1_000u64 {
            map.register(vertex % 700, vertex);
            assert_eq!(map.bytes(), map.slots.len() * 16);
        }
        assert_eq!(SLOT_BYTES, 16);
        // 1 000 pairs stay under ¾ of 2 048 slots.
        assert_eq!(map.slots.len(), 2_048);
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.colliding_hashes(), 300);
    }
}
