//! The `⟨H(v), v⟩` reverse table.
//!
//! Section IV: "We can store ⟨H(v), v⟩ pairs with hash tables to make this mapping procedure
//! reversible.  This needs O(|V|) additional memory…".  Successor/precursor queries recover
//! sketch-node hashes from the matrix and then translate them back to original vertex ids
//! through this table.  Several original vertices may share a hash (that is exactly the
//! collision the accuracy analysis quantifies), in which case all of them are returned —
//! the source of the false positives measured by the precision metric.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Reverse map from sketch-node hash `H(v)` to the original vertex ids mapped onto it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NodeIdMap {
    by_hash: HashMap<u64, Vec<u64>>,
    distinct_vertices: usize,
}

impl NodeIdMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers that original vertex `vertex` hashes to `hash`.  Idempotent per vertex;
    /// returns `true` when the pair was new (callers use this to write-ahead log only
    /// real mutations).
    pub fn register(&mut self, hash: u64, vertex: u64) -> bool {
        let list = self.by_hash.entry(hash).or_default();
        if !list.contains(&vertex) {
            list.push(vertex);
            self.distinct_vertices += 1;
            return true;
        }
        false
    }

    /// All original vertices that map to `hash` (empty if the hash was never registered).
    pub fn vertices_for(&self, hash: u64) -> &[u64] {
        self.by_hash.get(&hash).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct original vertices registered.
    pub fn len(&self) -> usize {
        self.distinct_vertices
    }

    /// Returns `true` if no vertex has been registered.
    pub fn is_empty(&self) -> bool {
        self.distinct_vertices == 0
    }

    /// Number of hash values onto which at least two vertices collide.
    pub fn colliding_hashes(&self) -> usize {
        self.by_hash.values().filter(|list| list.len() > 1).count()
    }

    /// Approximate heap usage in bytes.
    pub fn bytes(&self) -> usize {
        self.by_hash.len() * 16 + self.distinct_vertices * 8
    }

    /// Iterates over `(hash, registered vertices)` pairs (used when merging sketches).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> {
        self.by_hash.iter().map(|(&hash, vertices)| (hash, vertices.as_slice()))
    }
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
        assert_eq!(map.vertices_for(100), &[1, 2]);
        assert_eq!(map.vertices_for(200), &[3]);
        assert_eq!(map.vertices_for(300), &[] as &[u64]);
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(map.colliding_hashes(), 1);
        assert!(map.bytes() > 0);
    }

    #[test]
    fn registration_is_idempotent_per_vertex() {
        let mut map = NodeIdMap::new();
        map.register(7, 42);
        map.register(7, 42);
        assert_eq!(map.vertices_for(7), &[42]);
        assert_eq!(map.len(), 1);
        assert_eq!(map.colliding_hashes(), 0);
    }

    #[test]
    fn iter_yields_every_registration() {
        let mut map = NodeIdMap::new();
        map.register(1, 10);
        map.register(1, 11);
        map.register(2, 20);
        let mut pairs: Vec<(u64, Vec<u64>)> =
            map.iter().map(|(hash, vertices)| (hash, vertices.to_vec())).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(1, vec![10, 11]), (2, vec![20])]);
    }

    #[test]
    fn empty_map_reports_empty() {
        let map = NodeIdMap::new();
        assert!(map.is_empty());
        assert_eq!(map.len(), 0);
        assert_eq!(map.colliding_hashes(), 0);
    }
}
