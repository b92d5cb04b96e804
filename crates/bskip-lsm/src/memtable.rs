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
//!
//! # The key filter
//!
//! Once the data lives in tables, most point lookups are ones the
//! memtable cannot answer, and each would still walk the list from its
//! top level to a leaf to miss there.  So every memtable keeps a
//! whole-key bloom filter beside its list — RocksDB's
//! `memtable_whole_key_filtering` — and the engine reads the list only
//! when the filter admits the key (`Memtable::get_hashed`).
//!
//! * **Layout.**  A fixed array of `AtomicU64` words, blocked to one word
//!   per key: the cache-blocked filter of Putze, Sanders and Singler
//!   (WEA 2007) at its smallest block.  The key's filter hash — the one
//!   the tables' filters use, computed once per engine operation — picks
//!   the word by a multiply-shift, and one multiply of the same hash gives
//!   the four bit positions within it.  Adding a key is one `fetch_or`,
//!   skipped when its bits are already set; checking one is one `Acquire`
//!   load.  Bits are never cleared: a memtable only grows until it is
//!   flushed and dropped.
//! * **Sizing.**  Fixed when the memtable is made, from the engine's
//!   rotation budget ([`Memtable::with_budget`]): 10 bits for each key
//!   that budget can admit at most — every entry charges at least its
//!   encoded key and `ENTRY_OVERHEAD` — so 160 KiB for the default
//!   4 MiB budget over `u64` keys.
//! * **False positives.**  At that capacity a word holds 6.4 keys on
//!   average, a third of the bits are set, and 1.8 % of absent keys pass
//!   (a classic filter with the same bits passes about 1 %; a unit test
//!   bounds it at 3 %).  A false positive costs the list walk the filter
//!   would have saved, nothing more.  There are no false negatives.
//! * **Order.**  A key's bits are set *before* the list is given the key
//!   (the argument is at the `fetch_or`), so a reader that could know the
//!   key is here finds its bits set.
//! * **Oversized memtables.**  The memtable that recovery replays every
//!   WAL segment into can hold more keys than one budget admits, and so
//!   can one whose rotation an I/O failure deferred.  Its filter keeps its
//!   size and only admits more absent keys.

use std::mem::size_of;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use bskip_core::{BSkipList, LeafCursor};
use bskip_index::{IndexKey, IndexValue, ReclamationStats};
use bskip_sync::Racy;

use crate::codec::Persist;
use crate::engine::LsmConfig;
use crate::entry::Slot;

/// Per-entry bookkeeping overhead charged against the rotation budget, on
/// top of the encoded key/value bytes (tower pointers, slot headers).
const ENTRY_OVERHEAD: u64 = 24;

/// Filter bits per key at the most keys a memtable's budget admits.
const FILTER_BITS_PER_KEY: u64 = 10;

/// Bits a key sets in its filter word.
const FILTER_PROBES: u32 = 4;

/// A concurrent bloom filter blocked to one 64-bit word per key (see the
/// module docs).
struct KeyFilter {
    words: Box<[AtomicU64]>,
}

impl KeyFilter {
    /// An empty filter with [`FILTER_BITS_PER_KEY`] bits for each of
    /// `keys` keys.  A 32-bit hash reaches 2^32 words at most.
    fn with_capacity(keys: u64) -> Self {
        let words = keys
            .saturating_mul(FILTER_BITS_PER_KEY)
            .div_ceil(64)
            .clamp(1, 1 << 32);
        KeyFilter {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The word `hash` selects and the bits it sets there.  The word comes
    /// from the hash's high bits (multiply-shift, no division), the bits
    /// from the top 24 of a Fibonacci multiply, six to a position.
    fn locate(&self, hash: u32) -> (&AtomicU64, u64) {
        let at = (u64::from(hash) * self.words.len() as u64) >> 32;
        let mut mix = u64::from(hash).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut bits = 0;
        for _ in 0..FILTER_PROBES {
            bits |= 1 << (mix >> 58);
            mix <<= 6;
        }
        (&self.words[at as usize], bits)
    }

    /// Adds the key hashing to `hash`.
    fn insert(&self, hash: u32) {
        let (word, bits) = self.locate(hash);
        // No false negative, even mid-race.  `Memtable::apply_hashed`
        // sets the bits here *before* it hands the key to the list, and
        // the list publishes a new key with a `Release` store that a
        // reader finding the key loads with `Acquire`.  So every thread
        // that can know the key is in the memtable — it found the key in
        // the list, or the put returned to it, or it heard of either from
        // a thread that did — has this `fetch_or` (or the load that found
        // the bits already set) in its happens-before past, and coherence
        // makes its own load of the word return that value or a later one.
        // Bits are never cleared, so every later value has them too.  A
        // check that races the apply may miss the bits; it then answers
        // as if it ran before the apply, which is what it raced.  Coherence
        // alone carries this; `Release` pairs with the check's `Acquire`
        // so the filter's own orderings are the usual publication pair, at
        // no cost on x86 (a locked `or` and a plain load either way).
        if word.load(Ordering::Relaxed) & bits != bits {
            word.fetch_or(bits, Ordering::Release);
        }
    }

    /// Whether the key hashing to `hash` may have been added (false ⇒
    /// definitely not).
    fn may_contain(&self, hash: u32) -> bool {
        let (word, bits) = self.locate(hash);
        word.load(Ordering::Acquire) & bits == bits
    }

    /// The fraction of bits set, in parts per million, rounded up so that
    /// one key reads above zero.
    fn fill_ppm(&self) -> u64 {
        let set: u64 = self
            .words
            .iter()
            .map(|word| u64::from(word.load(Ordering::Relaxed).count_ones()))
            .sum();
        (set * 1_000_000).div_ceil(self.words.len() as u64 * 64)
    }
}

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
    /// Every key ever applied, set before the list sees it.
    filter: KeyFilter,
    /// Approximate encoded payload bytes, maintained on every apply; the
    /// engine rotates the memtable when this crosses its threshold.
    bytes: AtomicU64,
    /// Ids of the WAL segments whose records live (only) here.  Deleted
    /// once this memtable has been flushed to a table.
    wal_ids: Vec<u64>,
}

impl<K: IndexKey + Persist, V: IndexValue + Persist> Memtable<K, V> {
    /// Creates an empty memtable backed by the given WAL segments, its
    /// filter sized for the default configuration's rotation budget.
    pub fn new(wal_ids: Vec<u64>) -> Self {
        Self::with_budget(wal_ids, LsmConfig::default().memtable_bytes)
    }

    /// Creates an empty memtable backed by the given WAL segments, its
    /// filter sized for the most keys `budget_bytes` of ingest admits.
    pub fn with_budget(wal_ids: Vec<u64>, budget_bytes: u64) -> Self {
        let smallest_charge = K::ZERO.encoded_len() as u64 + ENTRY_OVERHEAD;
        Memtable {
            list: BSkipList::new(),
            filter: KeyFilter::with_capacity(budget_bytes / smallest_charge),
            bytes: AtomicU64::new(0),
            wal_ids,
        }
    }

    /// Applies one upsert-or-tombstone, returning the slot it displaced.
    pub fn apply(&self, key: K, slot: Slot<V>) -> Option<Slot<V>> {
        self.apply_hashed(key, slot, key.filter_hash())
    }

    /// [`Memtable::apply`] for a key whose filter hash the caller has
    /// already computed.
    pub(crate) fn apply_hashed(&self, key: K, slot: Slot<V>, hash: u32) -> Option<Slot<V>> {
        let mut charge = key.encoded_len() as u64 + ENTRY_OVERHEAD;
        if let Slot::Put(value) = &slot {
            charge += value.encoded_len() as u64;
        }
        self.bytes.fetch_add(charge, Ordering::Relaxed);
        // The filter first: see `KeyFilter::insert`.
        self.filter.insert(hash);
        self.list.insert(key, slot.into()).map(Slot::from)
    }

    /// The slot this memtable's list holds for `key`, if any.
    /// `Some(Tombstone)` and `None` are different answers: the former
    /// settles the lookup (deleted), the latter sends it to older layers.
    pub fn get(&self, key: &K) -> Option<Slot<V>> {
        self.list.get(key).map(Slot::from)
    }

    /// [`Memtable::get`] behind the key filter: `None` without touching
    /// the list when the filter rules out the key hashing to `hash`.
    pub(crate) fn get_hashed(&self, key: &K, hash: u32) -> Option<Slot<V>> {
        if self.filter.may_contain(hash) {
            self.get(key)
        } else {
            None
        }
    }

    /// The fraction of the key filter's bits that are set, in parts per
    /// million (rounded up, so any key reads above zero).  Counts the
    /// bits, so it costs a pass over the filter.
    pub fn filter_fill_ppm(&self) -> u64 {
        self.filter.fill_ppm()
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

/// A [`Memtable::cursor`]: the list's own cursor, unboxed, its entries
/// mapped back to [`Slot`]s.
pub struct MemtableCursor<'a, K: IndexKey + Persist, V: IndexValue + Persist>(
    LeafCursor<'a, K, Stored<V>>,
);

impl<K: IndexKey + Persist, V: IndexValue + Persist> Iterator for MemtableCursor<'_, K, V> {
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

    /// The `i`-th of a pseudo-random sequence of distinct keys (SplitMix64's
    /// finalizer, a bijection).
    fn random_key(i: u64) -> u64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn the_filter_has_no_false_negatives() {
        const KEYS: u64 = 100_000;
        let memtable: Memtable<u64, u64> = Memtable::with_budget(Vec::new(), KEYS * 32);
        let slot = |i: u64| match i % 3 {
            0 => Slot::Tombstone,
            _ => Slot::Put(i),
        };
        for i in 0..KEYS {
            memtable.apply(random_key(i), slot(i));
        }
        for i in 0..KEYS {
            let key = random_key(i);
            assert!(memtable.filter.may_contain(key.filter_hash()), "key {key}");
            assert_eq!(memtable.get_hashed(&key, key.filter_hash()), Some(slot(i)));
        }
    }

    #[test]
    fn the_filter_admits_few_absent_keys_at_its_capacity() {
        const ABSENT: u64 = 100_000;
        let budget = LsmConfig::default().memtable_bytes;
        let memtable: Memtable<u64, u64> = Memtable::with_budget(Vec::new(), budget);
        // Tombstones charge the least, so the budget admits the most of them.
        let capacity = budget / (8 + ENTRY_OVERHEAD);
        for i in 0..capacity {
            memtable.apply(random_key(i), Slot::Tombstone);
        }
        assert_eq!(memtable.bytes(), budget);
        let admitted = (capacity..capacity + ABSENT)
            .filter(|&i| memtable.filter.may_contain(random_key(i).filter_hash()))
            .count() as u64;
        assert!(
            admitted * 100 <= 3 * ABSENT,
            "{admitted} of {ABSENT} absent keys admitted"
        );
        let fill = memtable.filter_fill_ppm();
        assert!(
            (300_000..=500_000).contains(&fill),
            "{fill} ppm of bits set"
        );
    }
}
