//! The in-memory write buffer: a B-skiplist of [`Slot`]s.
//!
//! This is the paper's structure doing the job LSM papers assign to a
//! skiplist memtable (bLSM, LevelDB, RocksDB): absorb writes in sorted
//! order so a flush is a single sequential cursor walk.  The B-skiplist is
//! *better* suited than the classic one-element-per-node skiplist — flush
//! drains fat leaves sequentially.  The engine's group-commit ingest
//! writes one WAL record per batch but applies it here op by op, each
//! through [`Memtable::apply`] (a point `insert`).
//!
//! A memtable stores `Slot<V>` values, not `V`: deletions insert
//! [`Slot::Tombstone`] so they shadow older on-disk versions (see
//! [`crate::entry`]).  Each memtable also remembers which WAL segments its
//! contents came from; flushing it to an SSTable is what makes those
//! segments deletable.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use bskip_core::BSkipList;
use bskip_index::{Cursor, IndexKey, IndexValue, ReclamationStats};

use crate::codec::Persist;
use crate::entry::Slot;

/// Per-entry bookkeeping overhead charged against the rotation budget, on
/// top of the encoded key/value bytes (tower pointers, slot headers).
const ENTRY_OVERHEAD: u64 = 24;

/// One write buffer: a concurrent sorted map from keys to [`Slot`]s plus
/// the WAL segments that back it.
pub struct Memtable<K: IndexKey, V: IndexValue> {
    list: BSkipList<K, Slot<V>>,
    /// Approximate encoded payload bytes, maintained on every apply; the
    /// engine rotates the memtable when this crosses its threshold.
    bytes: AtomicU64,
    /// Ids of the WAL segments whose records live (only) here.  Deleted
    /// once this memtable has been flushed to a table.
    wal_ids: Vec<u64>,
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> Memtable<K, V> {
    /// Creates an empty memtable backed by the given WAL segments.
    pub fn new(wal_ids: Vec<u64>) -> Self {
        Memtable {
            list: BSkipList::new(),
            bytes: AtomicU64::new(0),
            wal_ids,
        }
    }

    /// Applies one upsert-or-tombstone, returning the slot it displaced.
    pub fn apply(&self, key: K, slot: Slot<V>) -> Option<Slot<V>> {
        let mut charge = key.encoded_len() as u64 + ENTRY_OVERHEAD;
        if let Slot::Put(value) = &slot {
            charge += value.encoded_len() as u64;
        }
        self.bytes.fetch_add(charge, Ordering::Relaxed);
        self.list.insert(key, slot)
    }

    /// The slot this memtable holds for `key`, if any.  `Some(Tombstone)`
    /// and `None` are different answers: the former settles the lookup
    /// (deleted), the latter sends it to older layers.
    pub fn get(&self, key: &K) -> Option<Slot<V>> {
        self.list.get(key)
    }

    /// Approximate encoded payload bytes applied so far.  Monotonic:
    /// overwrites charge again, which deliberately counts WAL/ingest volume
    /// rather than live size (the quantity rotation should bound).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Number of distinct keys with a slot (tombstones included).
    pub fn entries(&self) -> usize {
        self.list.len()
    }

    /// Whether the memtable holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The WAL segments backing this memtable.
    pub fn wal_ids(&self) -> &[u64] {
        &self.wal_ids
    }

    /// Opens a cursor over the slots in `[lo, hi]` — tombstones included,
    /// which is what the merged read path and the flush both need.
    pub fn cursor(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, Slot<V>> {
        self.list.scan_bounds(lo, hi)
    }

    /// One step of epoch reclamation on the underlying list.
    pub fn try_reclaim(&self) -> usize {
        self.list.try_reclaim()
    }

    /// The underlying list's reclamation counters.
    pub fn reclamation(&self) -> ReclamationStats {
        self.list.reclamation()
    }

    /// Live structural nodes in the underlying list (bounded-memory
    /// assertions in the examples check this).
    pub fn live_nodes(&self) -> u64 {
        self.list.live_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_get_and_shadowing() {
        let memtable: Memtable<u64, u64> = Memtable::new(vec![0]);
        assert!(memtable.is_empty());
        assert_eq!(memtable.apply(1, Slot::Put(10)), None);
        assert_eq!(memtable.apply(1, Slot::Put(11)), Some(Slot::Put(10)));
        assert_eq!(memtable.apply(2, Slot::Tombstone), None);
        assert_eq!(memtable.get(&1), Some(Slot::Put(11)));
        assert_eq!(memtable.get(&2), Some(Slot::Tombstone));
        assert_eq!(memtable.get(&3), None);
        assert_eq!(memtable.entries(), 2);
        assert_eq!(memtable.wal_ids(), &[0]);
    }

    #[test]
    fn bytes_grow_with_ingest_volume() {
        let memtable: Memtable<u64, u64> = Memtable::new(Vec::new());
        assert_eq!(memtable.bytes(), 0);
        memtable.apply(1, Slot::Put(10));
        let one = memtable.bytes();
        assert!(one >= 16, "key + value bytes at minimum");
        // Overwrites still charge: rotation bounds ingest volume.
        memtable.apply(1, Slot::Put(11));
        assert_eq!(memtable.bytes(), 2 * one);
        // Tombstones charge key + overhead only.
        memtable.apply(2, Slot::Tombstone);
        assert!(memtable.bytes() < 3 * one);
    }

    #[test]
    fn cursor_yields_tombstones_in_order() {
        let memtable: Memtable<u64, u64> = Memtable::new(Vec::new());
        memtable.apply(3, Slot::Put(30));
        memtable.apply(1, Slot::Put(10));
        memtable.apply(2, Slot::Tombstone);
        let all: Vec<(u64, Slot<u64>)> = memtable
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .collect();
        assert_eq!(
            all,
            vec![(1, Slot::Put(10)), (2, Slot::Tombstone), (3, Slot::Put(30)),]
        );
        let window: Vec<u64> = memtable
            .cursor(Bound::Excluded(1), Bound::Unbounded)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(window, vec![2, 3]);
    }
}
