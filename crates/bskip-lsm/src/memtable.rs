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
//! A memtable stores slots, not bare `V`s: deletions insert
//! [`Slot::Tombstone`] so they shadow older on-disk versions (see
//! [`crate::entry`]).  The list holds each slot as a padding-free
//! `Stored<V>`, a [`Racy`] value its lock-free readers may copy torn, and
//! converts at the API.  Each memtable also remembers which WAL segments
//! its contents came from; flushing it to an SSTable is what makes those
//! segments deletable.

use std::mem::size_of;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use bskip_core::BSkipList;
use bskip_index::{Cursor, IndexKey, IndexValue, ReclamationStats};
use bskip_sync::Racy;

use crate::codec::Persist;
use crate::entry::Slot;

/// Per-entry bookkeeping overhead charged against the rotation budget, on
/// top of the encoded key/value bytes (tower pointers, slot headers).
const ENTRY_OVERHEAD: u64 = 24;

/// A [`Slot`] as the list stores it: a whole word for the put/tombstone
/// tag ahead of the value, so no byte is padding.  A tombstone is
/// [`Racy::ZERO`].
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Stored<V> {
    /// Nonzero for a put.
    live: u64,
    /// The put's value; zero in a tombstone.
    value: V,
}

// SAFETY: `#[repr(C)]` places `value` right after the 8-byte `live`, and
// `ZERO` asserts the size is exactly the two fields' (every `V` the list
// stores instantiates it for its fresh slots), so there is no padding.
// A byte-wise mix of `Stored`s is then a field-wise mix of `u64`s and
// `V`s, valid because both are `Racy`, and `ZERO` is all zero bytes.
unsafe impl<V: Racy> Racy for Stored<V> {
    const ZERO: Self = {
        assert!(
            size_of::<Self>() == 8 + size_of::<V>(),
            "Stored<V> has padding"
        );
        Stored {
            live: 0,
            value: V::ZERO,
        }
    };
}

impl<V: Racy> From<Slot<V>> for Stored<V> {
    fn from(slot: Slot<V>) -> Self {
        match slot {
            Slot::Put(value) => Stored { live: 1, value },
            Slot::Tombstone => Stored::ZERO,
        }
    }
}

impl<V> From<Stored<V>> for Slot<V> {
    fn from(stored: Stored<V>) -> Self {
        match stored.live {
            0 => Slot::Tombstone,
            _ => Slot::Put(stored.value),
        }
    }
}

/// One write buffer: a concurrent sorted map from keys to [`Slot`]s plus
/// the WAL segments that back it.
pub struct Memtable<K: IndexKey + Persist, V: IndexValue + Persist> {
    list: BSkipList<K, Stored<V>>,
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
        self.list.insert(key, slot.into()).map(Slot::from)
    }

    /// The slot this memtable holds for `key`, if any.  `Some(Tombstone)`
    /// and `None` are different answers: the former settles the lookup
    /// (deleted), the latter sends it to older layers.
    pub fn get(&self, key: &K) -> Option<Slot<V>> {
        self.list.get(key).map(Slot::from)
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
    pub fn cursor(&self, lo: Bound<K>, hi: Bound<K>) -> MemtableCursor<'_, K, V> {
        MemtableCursor(self.list.scan_bounds(lo, hi))
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

/// A [`Memtable::cursor`]: the list's cursor, its entries mapped back to
/// [`Slot`]s.
pub struct MemtableCursor<'a, K: IndexKey, V: IndexValue>(Cursor<'a, K, Stored<V>>);

impl<K: IndexKey, V: IndexValue> Iterator for MemtableCursor<'_, K, V> {
    type Item = (K, Slot<V>);

    fn next(&mut self) -> Option<(K, Slot<V>)> {
        self.0.next().map(|(key, stored)| (key, stored.into()))
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
    fn stored_slots_are_padding_free_and_round_trip() {
        assert_eq!(size_of::<Stored<u64>>(), 16);
        assert_eq!(size_of::<Stored<i64>>(), 16);
        for slot in [Slot::Put(0u64), Slot::Put(u64::MAX), Slot::Tombstone] {
            assert_eq!(Slot::from(Stored::from(slot)), slot);
        }
        let memtable: Memtable<u64, u64> = Memtable::new(Vec::new());
        memtable.apply(1, Slot::Put(0));
        memtable.apply(2, Slot::Tombstone);
        memtable.apply(3, Slot::Put(u64::MAX));
        assert_eq!(memtable.get(&1), Some(Slot::Put(0)));
        assert_eq!(memtable.get(&2), Some(Slot::Tombstone));
        assert_eq!(memtable.get(&3), Some(Slot::Put(u64::MAX)));
        assert_eq!(memtable.apply(2, Slot::Put(7)), Some(Slot::Tombstone));
        assert_eq!(memtable.apply(1, Slot::Tombstone), Some(Slot::Put(0)));
        let all: Vec<(u64, Slot<u64>)> = memtable
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .collect();
        assert_eq!(
            all,
            vec![
                (1, Slot::Tombstone),
                (2, Slot::Put(7)),
                (3, Slot::Put(u64::MAX))
            ]
        );
    }

    // A tombstone is `Stored::ZERO`, so a read torn between a put and a
    // tombstone would decode as `Put(0)`, a value nobody wrote.  The
    // list's version check must reject every such read.
    #[test]
    fn a_flipping_slot_never_reads_torn() {
        let memtable: Memtable<u64, u64> = Memtable::new(Vec::new());
        for key in 0..16 {
            memtable.apply(key, Slot::Put(key + 1_000));
        }
        let rounds: u64 = if cfg!(miri) { 50 } else { 100_000 };
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (memtable, stop) = (&memtable, &stop);
            scope.spawn(move || {
                for value in 1..=rounds {
                    memtable.apply(8, Slot::Put(value));
                    memtable.apply(8, Slot::Tombstone);
                }
                stop.store(true, Ordering::Relaxed);
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match memtable.get(&8) {
                            Some(Slot::Tombstone) => {}
                            Some(Slot::Put(value)) => assert!(
                                value == 1_008 || (1..=rounds).contains(&value),
                                "read a value never written: {value}"
                            ),
                            None => panic!("the key is never absent"),
                        }
                    }
                });
            }
        });
        assert_eq!(memtable.get(&8), Some(Slot::Tombstone));
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
