//! A partitioned front-end composing any [`ConcurrentIndex`] into shards.
//!
//! [`ShardedIndex<K, V, I>`] owns N cache-line-padded inner indices and
//! routes every operation by key partition:
//!
//! * **point operations** go straight to the owning shard — no extra
//!   synchronization, so uncontended throughput is the inner index's;
//! * **batches** ([`ConcurrentIndex::execute`]) are split per shard,
//!   preserving each operation's result slot, and the per-shard
//!   sub-batches are applied one after the other on the calling thread —
//!   callers that want shards to work in parallel bring their own
//!   threads, as the network server's connections do;
//! * **scans** ([`ConcurrentIndex::scan_bounds`]) open one cursor per
//!   shard and compose them: hash partitioning interleaves keys across
//!   shards, so the shards' cursors are *K-way merged* (the shared
//!   [`MergeCursor`]); range partitioning keeps each shard a contiguous
//!   key interval, so the per-shard cursors are simply *concatenated* in
//!   shard order — no per-entry comparison fan-out at all.  Both composed
//!   cursors support `seek` and (when every shard's cursor does) `prev`
//!   across shard boundaries.
//!
//! The partitioning strategy lives in a [`ShardSpec`]:
//! [`ShardPartition::Hash`] balances arbitrary key distributions,
//! [`ShardPartition::Range`] preserves locality (and buys the
//! concatenating scan fast path) when the key distribution is known.
//!
//! Because the combinator needs nothing but the trait surface, it
//! composes with every index in the workspace — the B-skiplist, the five
//! baselines, even the durable LSM engine — and with itself.
//!
//! ```
//! use bskip_index::{ConcurrentIndex, ShardedIndex};
//! # use std::collections::BTreeMap;
//! # use std::sync::Mutex;
//! # struct Map(Mutex<BTreeMap<u64, u64>>);
//! # impl Map { fn new() -> Self { Map(Mutex::new(BTreeMap::new())) } }
//! # impl ConcurrentIndex<u64, u64> for Map {
//! #     fn insert(&self, k: u64, v: u64) -> Option<u64> { self.0.lock().unwrap().insert(k, v) }
//! #     fn get(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().get(k).copied() }
//! #     fn remove(&self, k: &u64) -> Option<u64> { self.0.lock().unwrap().remove(k) }
//! #     fn len(&self) -> usize { self.0.lock().unwrap().len() }
//! #     fn name(&self) -> &'static str { "map" }
//! #     fn scan_bounds(
//! #         &self,
//! #         lo: std::ops::Bound<u64>,
//! #         hi: std::ops::Bound<u64>,
//! #     ) -> bskip_index::Cursor<'_, u64, u64> {
//! #         bskip_index::Cursor::new(bskip_index::BatchCursor::new(
//! #             lo,
//! #             hi,
//! #             8,
//! #             Box::new(move |from, max, out| {
//! #                 out.extend(
//! #                     self.0.lock().unwrap()
//! #                         .range((from, std::ops::Bound::Unbounded))
//! #                         .take(max)
//! #                         .map(|(k, v)| (*k, *v)),
//! #                 )
//! #             }),
//! #         ))
//! #     }
//! # }
//! let sharded = ShardedIndex::hash(4, |_shard| Map::new());
//! for key in 0..100u64 {
//!     sharded.insert(key, key * 2);
//! }
//! assert_eq!(sharded.len(), 100);
//! assert_eq!(sharded.get(&7), Some(14));
//! // Cross-shard scans come back in global key order.
//! let window: Vec<u64> = sharded.scan(10..15).map(|(k, _)| k).collect();
//! assert_eq!(window, vec![10, 11, 12, 13, 14]);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Bound;

use bskip_sync::{CachePadded, RelaxedCounter};

use crate::cursor::{Cursor, MergeCursor, Mode};
use crate::ops::Op;
use crate::traits::ConcurrentIndex;
use crate::{IndexCursor, IndexKey, IndexStats, IndexValue, StatKind};

/// How a [`ShardedIndex`] maps keys to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardPartition<K> {
    /// `shard = hash(key) % shards` with the standard library's default
    /// (SipHash) hasher.  Balances any key distribution; cross-shard
    /// scans pay a K-way merge.
    Hash {
        /// Number of shards (at least 1).
        shards: usize,
    },
    /// Contiguous key intervals split by `shards - 1` strictly ascending
    /// boundary keys: keys below `boundaries[0]` go to shard 0, keys in
    /// `[boundaries[i-1], boundaries[i])` to shard `i`, keys at or above
    /// the last boundary to the last shard.  Preserves locality and lets
    /// scans *concatenate* per-shard cursors instead of merging them.
    Range {
        /// The `shards - 1` split keys, strictly ascending.
        boundaries: Box<[K]>,
    },
}

impl<K: Ord + Hash> ShardPartition<K> {
    /// Number of shards this partition maps onto.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardPartition::Hash { shards } => *shards,
            ShardPartition::Range { boundaries } => boundaries.len() + 1,
        }
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &K) -> usize {
        match self {
            ShardPartition::Hash { shards } => {
                let mut hasher = DefaultHasher::new();
                key.hash(&mut hasher);
                (hasher.finish() % *shards as u64) as usize
            }
            ShardPartition::Range { boundaries } => boundaries.partition_point(|b| b <= key),
        }
    }
}

/// Configuration for a [`ShardedIndex`]: the partitioning strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec<K> {
    partition: ShardPartition<K>,
}

impl<K: Ord + Hash> ShardSpec<K> {
    /// Hash partitioning across `shards` shards (clamped to at least 1).
    pub fn hash(shards: usize) -> Self {
        ShardSpec {
            partition: ShardPartition::Hash {
                shards: shards.max(1),
            },
        }
    }

    /// Range partitioning with the given strictly ascending boundary
    /// keys (`boundaries.len() + 1` shards).
    ///
    /// # Panics
    ///
    /// Panics when the boundaries are not strictly ascending.
    pub fn range(boundaries: Vec<K>) -> Self {
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "range-partition boundaries must be strictly ascending"
        );
        ShardSpec {
            partition: ShardPartition::Range {
                boundaries: boundaries.into_boxed_slice(),
            },
        }
    }

    /// Number of shards this spec builds.
    pub fn shards(&self) -> usize {
        self.partition.shard_count()
    }
}

impl ShardSpec<u64> {
    /// Range partitioning that splits the full `u64` key space into
    /// `shards` equal-width intervals — the right default for uniformly
    /// distributed keys (YCSB's hashed keys, random benchmark keys).
    pub fn range_uniform(shards: usize) -> Self {
        let shards = shards.max(1);
        let width = u64::MAX / shards as u64;
        ShardSpec::range((1..shards as u64).map(|i| i * width).collect())
    }
}

crate::stat_block! {
    /// The sharded front-end's own counters (shard routing and batch-split
    /// accounting), exported through [`ConcurrentIndex::stats`] alongside
    /// the merged per-shard snapshots.
    struct ShardedCounters {
        /// Batches accepted by `execute`.
        batches: RelaxedCounter => Counter "sharded_batches",
        /// Batches whose keys all landed in one shard (delegated whole).
        single_shard_batches: RelaxedCounter => Counter "sharded_single_shard_batches",
        /// Scans served by a K-way merging cursor (hash partitioning).
        merge_scans: RelaxedCounter => Counter "sharded_merge_scans",
        /// Scans served by a concatenating cursor (range partitioning).
        concat_scans: RelaxedCounter => Counter "sharded_concat_scans",
    }
}

/// A partitioned index: N inner indices behind one [`ConcurrentIndex`]
/// face.  See the [module docs](self) for the design.
pub struct ShardedIndex<K, V, I> {
    shards: Box<[CachePadded<I>]>,
    partition: ShardPartition<K>,
    counters: ShardedCounters,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V, I> ShardedIndex<K, V, I>
where
    K: IndexKey + Hash,
    V: IndexValue,
    I: ConcurrentIndex<K, V>,
{
    /// Builds a sharded index from `spec`, constructing each shard with
    /// `factory(shard_index)`.
    pub fn new(spec: ShardSpec<K>, mut factory: impl FnMut(usize) -> I) -> Self {
        let count = spec.shards();
        ShardedIndex {
            shards: (0..count).map(|i| CachePadded::new(factory(i))).collect(),
            partition: spec.partition,
            counters: ShardedCounters::default(),
            _marker: PhantomData,
        }
    }

    /// Hash-partitioned shortcut: `ShardedIndex::new(ShardSpec::hash(n), f)`.
    pub fn hash(shards: usize, factory: impl FnMut(usize) -> I) -> Self {
        ShardedIndex::new(ShardSpec::hash(shards), factory)
    }

    /// Range-partitioned shortcut: `ShardedIndex::new(ShardSpec::range(b), f)`.
    pub fn range(boundaries: Vec<K>, factory: impl FnMut(usize) -> I) -> Self {
        ShardedIndex::new(ShardSpec::range(boundaries), factory)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The inner index backing shard `shard`.
    pub fn shard(&self, shard: usize) -> &I {
        &self.shards[shard]
    }

    /// The shard index owning `key`.
    pub fn shard_of(&self, key: &K) -> usize {
        self.partition.shard_of(key)
    }

    /// The partitioning strategy in use.
    pub fn partition(&self) -> &ShardPartition<K> {
        &self.partition
    }

    /// One statistics snapshot per shard, in shard order (the aggregate
    /// is what [`ConcurrentIndex::stats`] returns).
    pub fn shard_stats(&self) -> Vec<IndexStats> {
        self.shards.iter().map(|shard| shard.stats()).collect()
    }
}

impl<K, V, I> ConcurrentIndex<K, V> for ShardedIndex<K, V, I>
where
    K: IndexKey + Hash,
    V: IndexValue,
    I: ConcurrentIndex<K, V>,
{
    fn insert(&self, key: K, value: V) -> Option<V> {
        self.shards[self.partition.shard_of(&key)].insert(key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shards[self.partition.shard_of(key)].get(key)
    }

    fn contains_key(&self, key: &K) -> bool {
        self.shards[self.partition.shard_of(key)].contains_key(key)
    }

    fn remove(&self, key: &K) -> Option<V> {
        self.shards[self.partition.shard_of(key)].remove(key)
    }

    fn execute(&self, ops: &mut [Op<K, V>]) {
        if ops.is_empty() {
            return;
        }
        self.counters.batches.incr();
        if self.shards.len() == 1 {
            self.counters.single_shard_batches.incr();
            self.shards[0].execute(ops);
            return;
        }
        // Every operation's `(shard, slot)`, in slot order.
        let mut order: Vec<(usize, usize)> = ops
            .iter()
            .enumerate()
            .map(|(slot, op)| (self.partition.shard_of(op.key()), slot))
            .collect();
        let first = order[0].0;
        if order.iter().all(|&(shard, _)| shard == first) {
            // Every key lives in one shard: delegate the caller's slice
            // directly, no copies.
            self.counters.single_shard_batches.incr();
            self.shards[first].execute(ops);
            return;
        }
        // Sorted by shard, then slot: each shard's operations stay in
        // slot order — same-key operations always share a shard, so the
        // split preserves the batch reordering contract of [`crate::ops`]
        // — and become one contiguous run of the scratch copy.
        order.sort_unstable();
        let mut scratch: Vec<Op<K, V>> = order.iter().map(|&(_, slot)| ops[slot]).collect();
        let mut start = 0;
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            let end = start + run.len();
            self.shards[run[0].0].execute(&mut scratch[start..end]);
            start = end;
        }
        // Copy each executed operation (result slot included) back into
        // the caller's slot.
        for (&(_, slot), executed) in order.iter().zip(&scratch) {
            ops[slot] = *executed;
        }
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        match &self.partition {
            ShardPartition::Hash { .. } => {
                self.counters.merge_scans.incr();
                Cursor::new(MergeCursor::new(
                    self.shards.iter().map(|shard| shard.scan_bounds(lo, hi)),
                ))
            }
            ShardPartition::Range { boundaries } => {
                self.counters.concat_scans.incr();
                // Only shards whose key interval can intersect [lo, hi]
                // get a cursor; over-inclusion at the edges is harmless
                // (the shard cursor just comes up empty).
                let first = match &lo {
                    Bound::Included(key) | Bound::Excluded(key) => {
                        boundaries.partition_point(|b| b <= key)
                    }
                    Bound::Unbounded => 0,
                };
                let last = match &hi {
                    Bound::Included(key) | Bound::Excluded(key) => {
                        boundaries.partition_point(|b| b <= key)
                    }
                    Bound::Unbounded => self.shards.len() - 1,
                };
                let sources = if first <= last {
                    self.shards[first..=last]
                        .iter()
                        .map(|shard| shard.scan_bounds(lo, hi))
                        .collect()
                } else {
                    // Reversed bounds: an empty range, like everywhere
                    // else in the workspace.
                    Vec::new()
                };
                Cursor::new(ConcatCursor::new(sources))
            }
        }
    }

    fn try_reclaim(&self) -> usize {
        self.shards.iter().map(|shard| shard.try_reclaim()).sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    fn is_empty(&self) -> bool {
        self.shards.iter().all(|shard| shard.is_empty())
    }

    fn name(&self) -> &'static str {
        match self.partition {
            ShardPartition::Hash { .. } => "sharded-hash",
            ShardPartition::Range { .. } => "sharded-range",
        }
    }

    /// A partitioned index is degraded as soon as any shard is: a write
    /// for that shard's key space would be rejected, so the node as a
    /// whole must drain.
    fn degraded(&self) -> bool {
        self.shards.iter().any(|shard| shard.degraded())
    }

    fn stats(&self) -> IndexStats {
        // `shards` is a level counting *leaf* indices: a shard that is
        // itself sharded reports its own count, any other shard is one
        // leaf, and the merge adds the levels up.
        let shard_snapshots = self.shard_stats();
        let leaves = shard_snapshots
            .iter()
            .filter(|snapshot| snapshot.get("shards").is_none())
            .count();
        let mut stats = IndexStats::new().with_kind("shards", StatKind::Gauge, leaves as u64);
        stats.merge(&self.counters.snapshot());
        for snapshot in &shard_snapshots {
            stats.merge(snapshot);
        }
        stats
    }

    fn reset_stats(&self) {
        self.counters.reset();
        for shard in self.shards.iter() {
            shard.reset_stats();
        }
    }
}

impl<K: IndexKey, V, I> fmt::Debug for ShardedIndex<K, V, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("partition", &self.partition)
            .finish_non_exhaustive()
    }
}

/// Concatenating cursor over per-shard cursors (range partitioning).
///
/// Sources arrive in shard order, and shard key intervals are disjoint
/// and ascending, so the concatenation *is* the globally ordered stream:
/// forward steps run the active source and cross to the next non-empty
/// one on exhaustion, backward steps cross to the previous.  Boundary
/// crossings resynchronize the entered source with `seek` (robust against
/// whatever state an earlier excursion left it in) rather than trusting
/// its resting position.
struct ConcatCursor<'a, K: IndexKey, V: IndexValue> {
    sources: Vec<Cursor<'a, K, V>>,
    active: usize,
    current: Option<(K, V)>,
    mode: Mode,
    supports_prev: bool,
}

impl<'a, K: IndexKey, V: IndexValue> ConcatCursor<'a, K, V> {
    fn new(sources: Vec<Cursor<'a, K, V>>) -> Self {
        let supports_prev = sources.iter().all(|source| source.supports_prev());
        ConcatCursor {
            sources,
            active: 0,
            current: None,
            mode: Mode::Fresh,
            supports_prev,
        }
    }

    fn won(&mut self, active: usize, entry: (K, V), mode: Mode) -> Option<(K, V)> {
        self.active = active;
        self.current = Some(entry);
        self.mode = mode;
        Some(entry)
    }
}

impl<K: IndexKey, V: IndexValue> IndexCursor<K, V> for ConcatCursor<'_, K, V> {
    fn next(&mut self) -> Option<(K, V)> {
        match (self.mode, self.current) {
            (Mode::Fresh, _) | (Mode::Backward, None) => {
                for i in 0..self.sources.len() {
                    if let Some(entry) = self.sources[i].next() {
                        return self.won(i, entry, Mode::Forward);
                    }
                }
                None
            }
            (Mode::Forward, _) => {
                if let Some(entry) = self.sources[self.active].next() {
                    self.current = Some(entry);
                    return Some(entry);
                }
                let key = self.current.map(|(key, _)| key);
                for i in self.active + 1..self.sources.len() {
                    // Later shards hold only keys above `key`, so seeking
                    // to it lands on the shard's first in-range entry —
                    // regardless of how a backward excursion left the
                    // source.
                    let entry = match key {
                        Some(key) => self.sources[i].seek(&key),
                        None => self.sources[i].next(),
                    };
                    if let Some(entry) = entry {
                        return self.won(i, entry, Mode::Forward);
                    }
                }
                None
            }
            (Mode::Backward, Some((key, _))) => {
                for i in self.active..self.sources.len() {
                    let mut entry = self.sources[i].seek(&key);
                    if entry.is_some_and(|(k, _)| k == key) {
                        entry = self.sources[i].next();
                    }
                    if let Some(entry) = entry {
                        return self.won(i, entry, Mode::Forward);
                    }
                }
                None
            }
        }
    }

    fn prev(&mut self) -> Option<(K, V)> {
        if !self.supports_prev {
            return None;
        }
        match self.current {
            Some((key, _)) => {
                // The active source rests on `key` in both directions, so
                // its native `prev` is exact; once it bottoms out, walk
                // down through earlier shards (all of whose keys are
                // below `key`): a missed `seek` then `prev` yields each
                // shard's last in-range entry.
                if let Some(entry) = self.sources[self.active].prev() {
                    let active = self.active;
                    return self.won(active, entry, Mode::Backward);
                }
                for i in (0..self.active).rev() {
                    self.sources[i].seek(&key);
                    if let Some(entry) = self.sources[i].prev() {
                        return self.won(i, entry, Mode::Backward);
                    }
                }
                self.mode = Mode::Backward;
                None
            }
            None => {
                for i in (0..self.sources.len()).rev() {
                    if let Some(entry) = self.sources[i].prev() {
                        return self.won(i, entry, Mode::Backward);
                    }
                }
                None
            }
        }
    }

    fn seek(&mut self, key: &K) -> Option<(K, V)> {
        for i in 0..self.sources.len() {
            if let Some(entry) = self.sources[i].seek(key) {
                return self.won(i, entry, Mode::Forward);
            }
        }
        self.active = 0;
        self.current = None;
        self.mode = Mode::Fresh;
        None
    }

    fn entry(&self) -> Option<(K, V)> {
        self.current
    }

    fn supports_prev(&self) -> bool {
        self.supports_prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A reference shard: `Mutex<BTreeMap>` with a native, prev-capable
    /// cursor mirroring the B-skiplist leaf cursor's semantics (failed
    /// seek leaves `prev` falling back to the last in-range entry;
    /// draining backwards then calling `next` resumes from the resting
    /// position).
    struct MirrorIndex {
        map: Mutex<BTreeMap<u64, u64>>,
        inserts: AtomicU64,
    }

    impl MirrorIndex {
        fn new() -> Self {
            MirrorIndex {
                map: Mutex::new(BTreeMap::new()),
                inserts: AtomicU64::new(0),
            }
        }
    }

    struct MirrorCursor<'a> {
        map: &'a Mutex<BTreeMap<u64, u64>>,
        lo: Bound<u64>,
        hi: Bound<u64>,
        current: Option<u64>,
        /// Set by a missed seek: `next` reports exhaustion until the
        /// cursor is repositioned by `prev` or another `seek`.
        dead_forward: bool,
    }

    impl MirrorCursor<'_> {
        fn in_range(&self, key: &u64) -> bool {
            crate::cursor::above_lower(key, &self.lo) && crate::cursor::below_upper(key, &self.hi)
        }
    }

    /// `BTreeMap::range` panics on reversed bounds; treat those as empty
    /// like every cursor in the workspace does.
    fn ordered(lo: &Bound<u64>, hi: &Bound<u64>) -> bool {
        match (lo, hi) {
            (Bound::Excluded(a), Bound::Excluded(b)) => a < b,
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                a <= b
            }
            _ => true,
        }
    }

    impl IndexCursor<u64, u64> for MirrorCursor<'_> {
        fn next(&mut self) -> Option<(u64, u64)> {
            if self.dead_forward {
                return None;
            }
            let lower = match self.current {
                Some(key) => Bound::Excluded(key),
                None => self.lo,
            };
            if !ordered(&lower, &self.hi) {
                return None;
            }
            let guard = self.map.lock().unwrap();
            let entry = guard
                .range((lower, self.hi))
                .next()
                .map(|(k, v)| (*k, *v))
                .filter(|(k, _)| self.in_range(k));
            drop(guard);
            if let Some((key, _)) = entry {
                self.current = Some(key);
            }
            entry
        }

        fn prev(&mut self) -> Option<(u64, u64)> {
            let upper = match self.current {
                Some(key) => Bound::Excluded(key),
                None => self.hi,
            };
            if !ordered(&self.lo, &upper) {
                return None;
            }
            let guard = self.map.lock().unwrap();
            let entry = guard
                .range((self.lo, upper))
                .next_back()
                .map(|(k, v)| (*k, *v))
                .filter(|(k, _)| self.in_range(k));
            drop(guard);
            if let Some((key, _)) = entry {
                self.current = Some(key);
                self.dead_forward = false;
            }
            entry
        }

        fn seek(&mut self, key: &u64) -> Option<(u64, u64)> {
            let from = if crate::cursor::above_lower(key, &self.lo) {
                Bound::Included(*key)
            } else {
                self.lo
            };
            if !ordered(&from, &self.hi) {
                self.current = None;
                self.dead_forward = true;
                return None;
            }
            let guard = self.map.lock().unwrap();
            let entry = guard
                .range((from, self.hi))
                .next()
                .map(|(k, v)| (*k, *v))
                .filter(|(k, _)| self.in_range(k));
            drop(guard);
            match entry {
                Some((key, _)) => {
                    self.current = Some(key);
                    self.dead_forward = false;
                }
                None => {
                    self.current = None;
                    self.dead_forward = true;
                }
            }
            entry
        }

        fn entry(&self) -> Option<(u64, u64)> {
            let key = self.current?;
            self.map.lock().unwrap().get(&key).map(|v| (key, *v))
        }

        fn supports_prev(&self) -> bool {
            true
        }
    }

    impl ConcurrentIndex<u64, u64> for MirrorIndex {
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.map.lock().unwrap().insert(key, value)
        }
        fn get(&self, key: &u64) -> Option<u64> {
            self.map.lock().unwrap().get(key).copied()
        }
        fn remove(&self, key: &u64) -> Option<u64> {
            self.map.lock().unwrap().remove(key)
        }
        fn scan_bounds(&self, lo: Bound<u64>, hi: Bound<u64>) -> Cursor<'_, u64, u64> {
            Cursor::new(MirrorCursor {
                map: &self.map,
                lo,
                hi,
                current: None,
                dead_forward: false,
            })
        }
        fn len(&self) -> usize {
            self.map.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "mirror"
        }
        fn stats(&self) -> IndexStats {
            IndexStats::new().with("mirror_inserts", self.inserts.load(Ordering::Relaxed))
        }
        fn reset_stats(&self) {
            self.inserts.store(0, Ordering::Relaxed);
        }
    }

    fn populated(
        spec: ShardSpec<u64>,
        keys: impl Iterator<Item = u64>,
    ) -> ShardedIndex<u64, u64, MirrorIndex> {
        let sharded = ShardedIndex::new(spec, |_| MirrorIndex::new());
        for key in keys {
            sharded.insert(key, key * 10);
        }
        sharded
    }

    #[test]
    fn point_ops_route_by_partition() {
        for spec in [ShardSpec::hash(4), ShardSpec::range(vec![25, 50, 75])] {
            let sharded = populated(spec, 0..100);
            assert_eq!(sharded.len(), 100);
            assert!(!sharded.is_empty());
            for key in 0..100 {
                assert_eq!(sharded.get(&key), Some(key * 10));
                assert!(sharded.contains_key(&key));
                // The key lives in exactly the shard the partition says.
                let owner = sharded.shard_of(&key);
                assert_eq!(sharded.shard(owner).get(&key), Some(key * 10));
                for other in (0..sharded.shards()).filter(|&s| s != owner) {
                    assert_eq!(sharded.shard(other).get(&key), None);
                }
            }
            assert_eq!(sharded.remove(&7), Some(70));
            assert_eq!(sharded.remove(&7), None);
            assert_eq!(sharded.len(), 99);
        }
    }

    #[test]
    fn range_partition_respects_boundaries() {
        let partition = ShardPartition::Range {
            boundaries: vec![10u64, 20].into_boxed_slice(),
        };
        assert_eq!(partition.shard_count(), 3);
        assert_eq!(partition.shard_of(&0), 0);
        assert_eq!(partition.shard_of(&9), 0);
        assert_eq!(partition.shard_of(&10), 1); // boundary key goes right
        assert_eq!(partition.shard_of(&19), 1);
        assert_eq!(partition.shard_of(&20), 2);
        assert_eq!(partition.shard_of(&u64::MAX), 2);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_boundaries_are_rejected() {
        let _ = ShardSpec::range(vec![10u64, 10]);
    }

    #[test]
    fn uniform_range_spec_covers_the_key_space() {
        let spec = ShardSpec::range_uniform(4);
        assert_eq!(spec.shards(), 4);
        let sharded: ShardedIndex<u64, u64, MirrorIndex> =
            ShardedIndex::new(spec, |_| MirrorIndex::new());
        assert_eq!(sharded.shard_of(&0), 0);
        assert_eq!(sharded.shard_of(&u64::MAX), 3);
        // Midpoints land in ascending shards.
        let width = u64::MAX / 4;
        for i in 0..4u64 {
            assert_eq!(sharded.shard_of(&(i * width + width / 2)), i as usize);
        }
        // Degenerate request still builds one shard.
        assert_eq!(ShardSpec::range_uniform(0).shards(), 1);
        assert_eq!(ShardSpec::<u64>::hash(0).shards(), 1);
    }

    /// Differential check of a composed cursor (one per `open` call)
    /// against a `BTreeMap` over a battery of bounds, including seeks and
    /// reverse steps that cross source boundaries.
    fn cursor_battery<'a>(
        open: impl Fn(Bound<u64>, Bound<u64>) -> Cursor<'a, u64, u64>,
        oracle: &BTreeMap<u64, u64>,
    ) {
        let bounds: Vec<(Bound<u64>, Bound<u64>)> = vec![
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(13), Bound::Excluded(77)),
            (Bound::Excluded(13), Bound::Included(77)),
            (Bound::Included(40), Bound::Included(49)), // within one range shard
            (Bound::Included(90), Bound::Excluded(90)), // empty
            (Bound::Included(77), Bound::Excluded(13)), // reversed -> empty
        ];
        for (lo, hi) in bounds {
            let expected: Vec<(u64, u64)> = if ordered(&lo, &hi) {
                oracle.range((lo, hi)).map(|(k, v)| (*k, *v)).collect()
            } else {
                Vec::new()
            };

            // Forward drain.
            let got: Vec<(u64, u64)> = open(lo, hi).collect();
            assert_eq!(got, expected, "forward drain over {lo:?}..{hi:?}");

            // Reverse drain from a fresh cursor (prev starts at the last
            // in-range entry).
            let mut cursor = open(lo, hi);
            assert!(cursor.supports_prev());
            let mut reversed = Vec::new();
            while let Some(entry) = cursor.prev() {
                reversed.push(entry);
            }
            let mut expected_rev = expected.clone();
            expected_rev.reverse();
            assert_eq!(reversed, expected_rev, "reverse drain over {lo:?}..{hi:?}");
            // Having drained to the start, forward resumes from the
            // resting position.
            assert_eq!(
                cursor.next(),
                expected.get(1).copied(),
                "forward resume after reverse drain over {lo:?}..{hi:?}"
            );

            // Seek battery: every probe lands where the oracle says, and
            // both directions continue correctly from there.
            for probe in [0u64, 13, 14, 42, 76, 77, 90, 200] {
                let mut cursor = open(lo, hi);
                let expect_at = expected.iter().find(|(k, _)| *k >= probe).copied();
                assert_eq!(
                    cursor.seek(&probe),
                    expect_at,
                    "seek({probe}) over {lo:?}..{hi:?}"
                );
                match expect_at {
                    Some((at, _)) => {
                        let expect_next = expected.iter().find(|(k, _)| *k > at).copied();
                        assert_eq!(cursor.next(), expect_next, "next after seek({probe})");
                        // Step back twice: over the just-consumed entry,
                        // then across whatever boundary precedes it.  A
                        // `next` that hit the range end leaves the cursor
                        // resting on the last yielded entry, so `prev`
                        // continues strictly below it.
                        let resting = expect_next.map_or(at, |(n, _)| n);
                        let mut below: Vec<(u64, u64)> = expected
                            .iter()
                            .filter(|(k, _)| *k < resting)
                            .copied()
                            .collect();
                        below.reverse();
                        assert_eq!(cursor.prev(), below.first().copied());
                        assert_eq!(cursor.prev(), below.get(1).copied());
                    }
                    None => {
                        // Failed seek: `next` stays exhausted, `prev`
                        // falls back to the last in-range entry.
                        assert_eq!(cursor.next(), None, "next after failed seek({probe})");
                        assert_eq!(
                            cursor.prev(),
                            expected.last().copied(),
                            "prev after failed seek({probe})"
                        );
                    }
                }
            }

            // Direction zigzag starting mid-range.
            let mut cursor = open(lo, hi);
            if expected.len() >= 3 {
                let mid = expected[expected.len() / 2];
                assert_eq!(cursor.seek(&mid.0), Some(mid));
                let after = expected[expected.len() / 2 + 1];
                let before = expected[expected.len() / 2 - 1];
                assert_eq!(cursor.next(), Some(after));
                assert_eq!(cursor.prev(), Some(mid));
                assert_eq!(cursor.prev(), Some(before));
                assert_eq!(cursor.next(), Some(mid));
                assert_eq!(cursor.entry(), Some(mid));
            }
        }
    }

    #[test]
    fn merging_cursor_matches_the_oracle() {
        let sharded = populated(ShardSpec::hash(4), (0..100).map(|i| i * 3 % 101));
        let oracle: BTreeMap<u64, u64> =
            (0..100).map(|i| i * 3 % 101).map(|k| (k, k * 10)).collect();
        cursor_battery(|lo, hi| sharded.scan_bounds(lo, hi), &oracle);
        assert!(sharded.stats().get("sharded_merge_scans").unwrap() > 0);
        assert_eq!(sharded.stats().get("sharded_concat_scans"), Some(0));
    }

    #[test]
    fn concatenating_cursor_matches_the_oracle() {
        // Boundaries chosen so the battery's bounds and probes cross them.
        let sharded = populated(
            ShardSpec::range(vec![15, 45, 75]),
            (0..100).map(|i| i * 3 % 101),
        );
        let oracle: BTreeMap<u64, u64> =
            (0..100).map(|i| i * 3 % 101).map(|k| (k, k * 10)).collect();
        cursor_battery(|lo, hi| sharded.scan_bounds(lo, hi), &oracle);
        assert!(sharded.stats().get("sharded_concat_scans").unwrap() > 0);
        assert_eq!(sharded.stats().get("sharded_merge_scans"), Some(0));
    }

    /// Stand-in for the LSM engine's tombstone slot in the layered
    /// inputs below (the merge itself never looks at values).
    const TOMB: u64 = u64::MAX;

    /// The merge over *overlapping* sources in priority order — how the
    /// LSM engine stacks its layers, newest first.  The oracle applies
    /// the layers oldest to newest, so the newest version of every key
    /// survives; the battery then checks `next`, `prev`, `seek`-then-
    /// `prev` and direction changes against it.  That merged stream is
    /// the engine's raw view (tombstones included); dropping the
    /// tombstones from it must give the live view.
    #[test]
    fn merging_cursor_resolves_overlapping_sources_by_priority() {
        /// One source's contents, in ascending key order.
        type Layer = Vec<(u64, u64)>;
        let dense = |step: u64, value: fn(u64) -> u64| -> Layer {
            (0..100)
                .map(|i| i * 3 % 101)
                .filter(|k| k % step == 0)
                .map(|k| (k, value(k)))
                .collect()
        };
        let cases: Vec<(&str, Vec<Layer>)> = vec![
            (
                "newest source wins ties",
                vec![vec![(1, 100), (3, 300)], vec![(1, 1), (2, 2), (3, 3)]],
            ),
            (
                "tombstones survive raw, shadow live",
                vec![vec![(2, TOMB)], vec![(1, 1), (2, 2), (3, 3)]],
            ),
            (
                "three-layer history",
                vec![
                    vec![(1, 111)],
                    vec![(1, TOMB), (2, TOMB)],
                    vec![(1, 1), (2, 2), (3, 3)],
                ],
            ),
            (
                "empty and disjoint sources",
                vec![vec![], vec![(5, 5)], vec![(1, 1), (9, 9)]],
            ),
            ("no sources", vec![]),
            (
                // Keys the battery's bounds and probes land on, most of
                // them held by two or three layers at once.
                "dense three-layer overlap",
                vec![
                    dense(6, |_| TOMB),
                    dense(2, |k| k * 10 + 1),
                    dense(1, |k| k * 10),
                ],
            ),
        ];
        for (label, layers) in cases {
            let mut oracle = BTreeMap::new();
            for layer in layers.iter().rev() {
                oracle.extend(layer.iter().copied());
            }
            let sources: Vec<MirrorIndex> = layers
                .iter()
                .map(|layer| {
                    let source = MirrorIndex::new();
                    for &(key, value) in layer {
                        source.insert(key, value);
                    }
                    source
                })
                .collect();
            let open = |lo, hi| {
                Cursor::new(MergeCursor::new(
                    sources.iter().map(|source| source.scan_bounds(lo, hi)),
                ))
            };
            cursor_battery(open, &oracle);
            let live: Vec<(u64, u64)> = open(Bound::Unbounded, Bound::Unbounded)
                .filter(|&(_, value)| value != TOMB)
                .collect();
            let expected: Vec<(u64, u64)> = oracle
                .iter()
                .map(|(k, v)| (*k, *v))
                .filter(|&(_, value)| value != TOMB)
                .collect();
            assert_eq!(live, expected, "live view of {label}");
        }
    }

    #[test]
    fn sharded_over_sharded_composes() {
        // The combinator needs only the trait surface, so it nests.
        let sharded: ShardedIndex<u64, u64, ShardedIndex<u64, u64, MirrorIndex>> =
            ShardedIndex::hash(2, |_| ShardedIndex::range(vec![50], |_| MirrorIndex::new()));
        for key in 0..60u64 {
            sharded.insert(key, key);
        }
        assert_eq!(sharded.len(), 60);
        let drained: Vec<u64> = sharded
            .scan_bounds(Bound::Unbounded, Bound::Unbounded)
            .map(|(k, _)| k)
            .collect();
        assert_eq!(drained, (0..60).collect::<Vec<_>>());
        // `shards` counts leaf indices (2 x 2), not every level's fan-out
        // summed (2 + 2 + 2).
        assert_eq!(sharded.stats().get("shards"), Some(4));
    }

    #[test]
    fn execute_matches_slot_order_semantics_and_routes_results() {
        // Four operations per key — same-key runs (insert/get/insert,
        // plus a remove reaching half a batch ahead) must keep their
        // relative order while distinct keys spread over shards — and
        // the two degenerate splits: every operation in one shard, and
        // one operation per shard.
        let mixed = |keys: u64| -> Vec<Op<u64, u64>> {
            (0..keys)
                .flat_map(|k| {
                    [
                        Op::insert(k, k),
                        Op::get(k),
                        Op::insert(k, k + 1),
                        Op::remove(k + keys / 2),
                    ]
                })
                .collect()
        };
        let one_shard: Vec<Op<u64, u64>> = (50..60).map(|k| Op::insert(k, k)).collect();
        let one_op_per_shard: Vec<Op<u64, u64>> =
            [80, 5, 55, 30].into_iter().map(Op::get).collect();
        for (spec, template, multi_shard) in [
            (ShardSpec::hash(4), mixed(15), true),
            (ShardSpec::hash(4), mixed(50), true),
            (ShardSpec::range(vec![25, 50, 75]), mixed(50), true),
            (ShardSpec::range(vec![25, 50, 75]), one_shard, false),
            (ShardSpec::range(vec![25, 50, 75]), one_op_per_shard, true),
        ] {
            let label = format!("{} ops over {spec:?}", template.len());
            let sharded: ShardedIndex<u64, u64, MirrorIndex> =
                ShardedIndex::new(spec, |_| MirrorIndex::new());
            let oracle = MirrorIndex::new();
            for key in (0..100).step_by(5) {
                sharded.insert(key, key * 10);
                oracle.insert(key, key * 10);
            }
            let mut expected = template.clone();
            for op in expected.iter_mut() {
                op.apply_point(&oracle);
            }
            let mut got = template;
            sharded.execute(&mut got);
            assert_eq!(got, expected, "{label} execute results");
            let stats = sharded.stats();
            assert_eq!(stats.get("sharded_batches"), Some(1), "{label}");
            assert_eq!(
                stats.get("sharded_single_shard_batches"),
                Some(u64::from(!multi_shard)),
                "{label}"
            );
            let drained: Vec<(u64, u64)> = sharded
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect();
            let oracle_drained: Vec<(u64, u64)> = oracle
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect();
            assert_eq!(drained, oracle_drained, "{label} final state");
        }
    }

    #[test]
    fn single_shard_batches_delegate_without_splitting() {
        let sharded = populated(ShardSpec::range(vec![50]), 0..0);
        // All keys below 50 -> shard 0 only.
        let mut ops: Vec<Op<u64, u64>> = (0..10).map(|k| Op::insert(k, k)).collect();
        sharded.execute(&mut ops);
        let stats = sharded.stats();
        assert_eq!(stats.get("sharded_batches"), Some(1));
        assert_eq!(stats.get("sharded_single_shard_batches"), Some(1));
        assert!(ops.iter().all(|op| op.result().is_executed()));
        // Empty batches are not counted.
        sharded.execute(&mut []);
        assert_eq!(sharded.stats().get("sharded_batches"), Some(1));
    }

    #[test]
    fn stats_aggregate_per_shard_counters_through_the_merge_api() {
        let sharded = populated(ShardSpec::hash(4), 0..100);
        let stats = sharded.stats();
        assert_eq!(stats.get("shards"), Some(4));
        // Every shard's own snapshot sums into the aggregate.
        assert_eq!(stats.get("mirror_inserts"), Some(100));
        let per_shard: u64 = sharded
            .shard_stats()
            .iter()
            .map(|s| s.get("mirror_inserts").unwrap())
            .sum();
        assert_eq!(per_shard, 100);
        sharded.reset_stats();
        let stats = sharded.stats();
        assert_eq!(stats.get("mirror_inserts"), Some(0));
        assert_eq!(stats.get("sharded_batches"), Some(0));
    }

    #[test]
    fn debug_formats_without_inner_debug() {
        let sharded: ShardedIndex<u64, u64, MirrorIndex> =
            ShardedIndex::hash(2, |_| MirrorIndex::new());
        let rendered = format!("{sharded:?}");
        assert!(rendered.contains("ShardedIndex"));
        assert!(rendered.contains("shards: 2"));
    }
}
