//! A Masstree-style cache-crafted index for fixed-width keys.
//!
//! Masstree (Mao, Kohler, Morris, EuroSys'12) is a trie of B+-trees: each
//! trie layer indexes one 8-byte slice of the key with a B+-tree whose
//! nodes hold at most 15 keys (so a node spans a small number of cache
//! lines), using optimistic concurrency control for reads and per-node
//! locks for writes.
//!
//! The paper's evaluation (and this repository's) uses fixed 8-byte keys,
//! for which Masstree degenerates to exactly **one** trie layer: a single
//! B+-tree with 15-key nodes and OCC.  [`MasstreeLite`] models it as such:
//! it composes the workspace's OCC B+-tree with Masstree's narrow node
//! geometry (15 keys ≈ 248 bytes of key material per node versus the
//! 1024-byte nodes of the `OccBTree` default and the 2048-byte nodes of the
//! B-skiplist).  The narrow nodes make the tree deeper, which reproduces
//! Masstree's relative behaviour in the paper: competitive but slightly
//! slower point operations and much slower range scans than the blocked
//! indices.  The README's *Substitutions* section records this one.
//!
//! # Structural deletion
//!
//! The trie layer shrinks structurally under churn: leaf underflow
//! triggers sibling borrow/merge through the OCC write protocol, freed
//! nodes are retired to an epoch-based collector, and a layer root
//! drained to a single child is collapsed away (see
//! [`OccBTree`](crate::OccBTree)'s module docs).  In full Masstree,
//! deleting the last key of a lower trie layer retires that entire
//! layer's tree; with fixed 8-byte keys there is exactly one layer, so
//! "retiring an emptied layer" degenerates to the layer tree collapsing
//! back to a single empty root leaf — which is precisely what the
//! underflow machinery produces.  The narrow 15-key nodes make the
//! underflow threshold proportionally tighter (3 keys by default).

use std::ops::Bound;

use bskip_index::{BatchCursor, ConcurrentIndex, Cursor, IndexKey, IndexStats, IndexValue};
use bskip_sync::EbrStats;

use crate::OccBTree;

/// Masstree's node width: at most 15 keys per node.
const MASSTREE_FANOUT: usize = 15;

/// A Masstree-style index for 8-byte keys: a single-layer trie of 15-key
/// B+-tree nodes with optimistic concurrency control.
///
/// # Example
///
/// ```
/// use bskip_baselines::MasstreeLite;
/// use bskip_index::ConcurrentIndex;
///
/// let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
/// tree.insert(8, 80);
/// assert_eq!(tree.get(&8), Some(80));
/// ```
pub struct MasstreeLite<K, V> {
    layer: OccBTree<K, V, MASSTREE_FANOUT>,
}

impl<K: IndexKey, V: IndexValue> Default for MasstreeLite<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue> MasstreeLite<K, V> {
    /// Creates an empty index (underflow threshold of 3 keys, the
    /// 15-key-node equivalent of the B+-tree default).
    pub fn new() -> Self {
        MasstreeLite {
            layer: OccBTree::new(),
        }
    }

    /// Creates an empty index with an explicit underflow threshold for
    /// the trie-layer nodes (see
    /// [`OccBTree::with_underflow_threshold`]).
    pub fn with_underflow_threshold(min_keys: usize) -> Self {
        MasstreeLite {
            layer: OccBTree::with_underflow_threshold(min_keys),
        }
    }

    /// Live structural node count of the trie layer.
    pub fn live_nodes(&self) -> u64 {
        self.layer.live_nodes()
    }

    /// Sibling pairs merged by structural deletion.
    pub fn nodes_merged(&self) -> u64 {
        self.layer.nodes_merged()
    }

    /// Epoch-reclamation counters for retired trie-layer nodes.
    pub fn reclamation(&self) -> EbrStats {
        self.layer.reclamation()
    }

    /// Attempts one epoch advancement; returns the number of nodes freed.
    pub fn try_reclaim(&self) -> usize {
        self.layer.try_reclaim()
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        self.layer.get(key)
    }

    /// Inserts `key → value` with upsert semantics.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.layer.insert(key, value)
    }

    /// Removes `key`.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.layer.remove(key)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.layer.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.layer.is_empty()
    }

    /// Operations that retired to the root with write locks.
    pub fn root_write_locks(&self) -> u64 {
        self.layer.root_write_locks()
    }
}

impl<K: IndexKey, V: IndexValue> ConcurrentIndex<K, V> for MasstreeLite<K, V> {
    fn insert(&self, key: K, value: V) -> Option<V> {
        MasstreeLite::insert(self, key, value)
    }
    fn get(&self, key: &K) -> Option<V> {
        MasstreeLite::get(self, key)
    }
    fn remove(&self, key: &K) -> Option<V> {
        MasstreeLite::remove(self, key)
    }
    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        // One 15-key trie-layer leaf per batch: Masstree's narrow nodes
        // make scan re-entries proportionally more frequent, which is
        // exactly the behaviour the paper measures for it on workload E.
        Cursor::new(BatchCursor::new(
            lo,
            hi,
            MASSTREE_FANOUT,
            Box::new(move |from, max, out| self.layer.fetch_batch(from, max, out)),
        ))
    }
    fn try_reclaim(&self) -> usize {
        MasstreeLite::try_reclaim(self)
    }
    fn len(&self) -> usize {
        MasstreeLite::len(self)
    }
    fn name(&self) -> &'static str {
        "Masstree-lite"
    }
    fn stats(&self) -> IndexStats {
        // The trie layer's snapshot carries the reclamation block,
        // merge/collapse counters and the live node count.
        ConcurrentIndex::stats(&self.layer)
    }
    fn reset_stats(&self) {
        ConcurrentIndex::reset_stats(&self.layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn basic_operations() {
        let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
        assert!(tree.is_empty());
        assert_eq!(tree.insert(1, 10), None);
        assert_eq!(tree.insert(1, 11), Some(10));
        assert_eq!(tree.get(&1), Some(11));
        assert_eq!(tree.remove(&1), Some(11));
        assert!(tree.is_empty());
    }

    #[test]
    fn narrow_nodes_split_often() {
        let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
        for key in 0..5000u64 {
            tree.insert(key, key);
        }
        assert_eq!(tree.len(), 5000);
        // With 15-key nodes, a 5000-key build must have split many times.
        assert!(tree.root_write_locks() > 100);
        for key in (0..5000u64).step_by(37) {
            assert_eq!(tree.get(&key), Some(key));
        }
    }

    #[test]
    fn differential_against_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
        let mut oracle = BTreeMap::new();
        for _ in 0..8000 {
            let key = rng.gen_range(0..1500u64);
            match rng.gen_range(0..10) {
                0..=6 => {
                    let value = rng.gen::<u64>();
                    assert_eq!(tree.insert(key, value), oracle.insert(key, value));
                }
                7 => assert_eq!(tree.remove(&key), oracle.remove(&key)),
                _ => assert_eq!(tree.get(&key), oracle.get(&key).copied()),
            }
        }
        let mut scanned = Vec::new();
        tree.range(&0, usize::MAX - 1, &mut |k, v| scanned.push((*k, *v)));
        assert_eq!(scanned, oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn emptying_the_layer_retires_its_tree() {
        let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
        for key in 0..4000u64 {
            tree.insert(key, key);
        }
        let grown = tree.live_nodes();
        assert!(grown > 300, "15-key nodes over 4000 keys");
        for key in 0..4000u64 {
            assert_eq!(tree.remove(&key), Some(key));
        }
        // The emptied single trie layer degenerates to one root leaf —
        // the layered-Masstree equivalent of retiring the layer's tree.
        assert_eq!(tree.live_nodes(), 1);
        assert!(tree.nodes_merged() > 0);
        for _ in 0..8 {
            tree.try_reclaim();
        }
        let stats = tree.reclamation();
        assert_eq!(stats.backlog, 0);
        assert_eq!(stats.freed, stats.retired);
        let index_stats = ConcurrentIndex::stats(&tree);
        assert_eq!(index_stats.get("live_nodes"), Some(1));
        assert!(index_stats.reclamation().is_some());
    }

    #[test]
    fn concurrent_inserts() {
        let tree = Arc::new(MasstreeLite::<u64, u64>::new());
        std::thread::scope(|scope| {
            for t in 0..6u64 {
                let tree = Arc::clone(&tree);
                scope.spawn(move || {
                    for i in 0..3000u64 {
                        tree.insert(i * 6 + t, i);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 18_000);
        for key in (0..18_000u64).step_by(997) {
            assert!(tree.contains_key(&key));
        }
    }
}
