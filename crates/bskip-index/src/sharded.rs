//! A hash-partitioned front-end composing any [`ConcurrentIndex`] into
//! shards.
//!
//! [`ShardedIndex<K, V, I>`] owns N cache-line-padded inner indices and
//! routes every operation by `shard = hash(key) % N`, with the standard
//! library's default (SipHash) hasher, so any key distribution balances:
//!
//! * **point operations** go straight to the owning shard — no extra
//!   synchronization, so uncontended throughput is the inner index's;
//! * **batches** ([`ConcurrentIndex::execute`]) are split per shard,
//!   preserving each operation's result slot, and the per-shard
//!   sub-batches are applied one after the other on the calling thread —
//!   callers that want shards to work in parallel bring their own
//!   threads, as the network server's connections do.  The split's
//!   scratch comes from [`crate::ops::with_scratch`], on the stack for
//!   the batches of up to 64 operations a server window makes;
//! * **scans** ([`ConcurrentIndex::scan_bounds`]) open one cursor per
//!   shard and *K-way merge* them with the shared [`MergeCursor`] into
//!   one ascending stream.
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

use crate::cursor::{Cursor, MergeCursor};
use crate::ops::{with_scratch, Op};
use crate::traits::ConcurrentIndex;
use crate::{IndexKey, IndexStats, IndexValue, StatKind};

crate::stat_block! {
    /// The sharded front-end's own counters (shard routing and batch-split
    /// accounting), exported through [`ConcurrentIndex::stats`] alongside
    /// the merged per-shard snapshots.
    struct ShardedCounters {
        /// Batches accepted by `execute`.
        batches: RelaxedCounter => Counter "sharded_batches",
        /// Batches whose keys all landed in one shard (delegated whole).
        single_shard_batches: RelaxedCounter => Counter "sharded_single_shard_batches",
        /// Scans served by the K-way merging cursor.
        merge_scans: RelaxedCounter => Counter "sharded_merge_scans",
    }
}

/// A hash-partitioned index: N inner indices behind one
/// [`ConcurrentIndex`] face.  See the [module docs](self) for the design.
pub struct ShardedIndex<K, V, I> {
    shards: Box<[CachePadded<I>]>,
    counters: ShardedCounters,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V, I> ShardedIndex<K, V, I>
where
    K: IndexKey + Hash,
    V: IndexValue,
    I: ConcurrentIndex<K, V>,
{
    /// Builds `shards` shards (clamped to at least 1), constructing each
    /// with `factory(shard_index)`.
    pub fn hash(shards: usize, factory: impl FnMut(usize) -> I) -> Self {
        ShardedIndex {
            shards: (0..shards.max(1))
                .map(factory)
                .map(CachePadded::new)
                .collect(),
            counters: ShardedCounters::default(),
            _marker: PhantomData,
        }
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
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
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
        self.shards[self.shard_of(&key)].insert(key, value)
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shards[self.shard_of(key)].get(key)
    }

    fn contains_key(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].contains_key(key)
    }

    fn remove(&self, key: &K) -> Option<V> {
        self.shards[self.shard_of(key)].remove(key)
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
        with_scratch(ops.len(), (0, 0), |order| {
            for (slot, (entry, op)) in order.iter_mut().zip(ops.iter()).enumerate() {
                *entry = (self.shard_of(op.key()), slot);
            }
            let first = order[0].0;
            if order.iter().all(|&(shard, _)| shard == first) {
                // Every key lives in one shard: delegate the caller's
                // slice directly, no copies.
                self.counters.single_shard_batches.incr();
                self.shards[first].execute(ops);
                return;
            }
            // Sorted by shard, then slot: each shard's operations stay in
            // slot order — same-key operations always share a shard, so
            // the split preserves the batch reordering contract of
            // [`crate::ops`] — and become one contiguous run of the
            // scratch copy.
            order.sort_unstable();
            with_scratch(ops.len(), ops[0], |scratch| {
                for (copy, &(_, slot)) in scratch.iter_mut().zip(order.iter()) {
                    *copy = ops[slot];
                }
                let mut start = 0;
                for run in order.chunk_by(|a, b| a.0 == b.0) {
                    let end = start + run.len();
                    self.shards[run[0].0].execute(&mut scratch[start..end]);
                    start = end;
                }
                // Copy each executed operation (result slot included)
                // back into the caller's slot.
                for (&(_, slot), executed) in order.iter().zip(scratch.iter()) {
                    ops[slot] = *executed;
                }
            });
        });
    }

    fn scan_bounds(&self, lo: Bound<K>, hi: Bound<K>) -> Cursor<'_, K, V> {
        self.counters.merge_scans.incr();
        Cursor::new(MergeCursor::new(
            self.shards.iter().map(|shard| shard.scan_bounds(lo, hi)),
        ))
    }

    fn try_reclaim(&self) -> usize {
        self.shards.iter().map(|shard| shard.try_reclaim()).sum()
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len()).sum()
    }

    fn name(&self) -> &'static str {
        "sharded-hash"
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

impl<K, V, I> fmt::Debug for ShardedIndex<K, V, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{above_lower, INLINE_SOURCES};
    use crate::ops::STACK_SCRATCH;
    use crate::IndexCursor;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A reference shard: `Mutex<BTreeMap>` with a native cursor that
    /// re-enters the map once per entry.
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
        /// The range's `lo` until an entry is yielded, then
        /// `Excluded(last key)`.
        from: Bound<u64>,
        hi: Bound<u64>,
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
            if !ordered(&self.from, &self.hi) {
                return None;
            }
            let entry = self
                .map
                .lock()
                .unwrap()
                .range((self.from, self.hi))
                .next()
                .map(|(k, v)| (*k, *v));
            if let Some((key, _)) = entry {
                self.from = Bound::Excluded(key);
            }
            entry
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
                from: lo,
                hi,
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
        shards: usize,
        keys: impl Iterator<Item = u64>,
    ) -> ShardedIndex<u64, u64, MirrorIndex> {
        let sharded = ShardedIndex::hash(shards, |_| MirrorIndex::new());
        for key in keys {
            sharded.insert(key, key * 10);
        }
        sharded
    }

    #[test]
    fn point_ops_route_by_partition() {
        let sharded = populated(4, 0..100);
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
        // A degenerate request still builds one shard.
        assert_eq!(populated(0, 0..0).shards(), 1);
    }

    /// The key→shard map, pinned: a different hasher or modulus would
    /// silently re-shard every deployment (and the benchmark's `svc_pipe`
    /// backend), so it fails here instead.
    #[test]
    fn shard_of_keeps_the_parent_key_map() {
        let sharded = populated(4, 0..0);
        let map: Vec<usize> = (0..32).map(|key| sharded.shard_of(&key)).collect();
        assert_eq!(
            map,
            [
                1, 1, 2, 2, 1, 0, 0, 3, 2, 0, 3, 2, 0, 3, 2, 2, 3, 2, 3, 2, 2, 2, 0, 1, 3, 1, 2, 3,
                1, 0, 0, 0
            ]
        );
    }

    /// Differential check of a composed cursor (one per `open` call)
    /// against a `BTreeMap` over a battery of bounds, including cursors
    /// opened at probes that cross source boundaries.
    fn cursor_battery<'a>(
        open: impl Fn(Bound<u64>, Bound<u64>) -> Cursor<'a, u64, u64>,
        oracle: &BTreeMap<u64, u64>,
    ) {
        let bounds: Vec<(Bound<u64>, Bound<u64>)> = vec![
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(13), Bound::Excluded(77)),
            (Bound::Excluded(13), Bound::Included(77)),
            (Bound::Included(40), Bound::Included(49)),
            (Bound::Included(90), Bound::Excluded(90)), // empty
            (Bound::Included(77), Bound::Excluded(13)), // reversed -> empty
        ];
        for (lo, hi) in bounds {
            let expected: Vec<(u64, u64)> = if ordered(&lo, &hi) {
                oracle.range((lo, hi)).map(|(k, v)| (*k, *v)).collect()
            } else {
                Vec::new()
            };

            // Forward drain; a drained cursor stays drained.
            let mut cursor = open(lo, hi);
            let got: Vec<(u64, u64)> = cursor.by_ref().collect();
            assert_eq!(got, expected, "forward drain over {lo:?}..{hi:?}");
            assert_eq!(cursor.next(), None, "past the end of {lo:?}..{hi:?}");

            // A cursor opened at each probe (clamped to `lo`) starts where
            // the oracle says, and `next` continues correctly from there.
            for probe in [0u64, 13, 14, 42, 76, 77, 90, 200] {
                let from = if above_lower(&probe, &lo) {
                    Bound::Included(probe)
                } else {
                    lo
                };
                let mut cursor = open(from, hi);
                let mut expect = expected.iter().filter(|(k, _)| *k >= probe).copied();
                assert_eq!(
                    cursor.next(),
                    expect.next(),
                    "opened at {probe} over {lo:?}..{hi:?}"
                );
                assert_eq!(cursor.next(), expect.next(), "next after {probe}");
            }
        }
    }

    #[test]
    fn merging_cursor_matches_the_oracle() {
        let sharded = populated(4, (0..100).map(|i| i * 3 % 101));
        let oracle: BTreeMap<u64, u64> =
            (0..100).map(|i| i * 3 % 101).map(|k| (k, k * 10)).collect();
        cursor_battery(|lo, hi| sharded.scan_bounds(lo, hi), &oracle);
        assert!(sharded.stats().get("sharded_merge_scans").unwrap() > 0);
    }

    /// Stand-in for the LSM engine's tombstone slot in the layered
    /// inputs below (the merge itself never looks at values).
    const TOMB: u64 = u64::MAX;

    /// The merge over *overlapping* sources in priority order — how the
    /// LSM engine stacks its layers, newest first.  The oracle applies
    /// the layers oldest to newest, so the newest version of every key
    /// survives; the battery then checks full drains and cursors opened
    /// at its probes against it.  That merged stream is
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
        let mut cases: Vec<(&str, Vec<Layer>)> = vec![
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
        // Merges as wide as the inline reserve, one past it and well past
        // it.  Source `i` of `count` holds 23 keys from `10 i` (from the
        // top down when mirrored), so neighbouring sources tie on three
        // keys and three sources on each key they all hold: the ties
        // straddle index `INLINE_SOURCES`, and the lowest-indexed source
        // must win whichever side of it sits on.  Every third source
        // holds tombstones.
        let window = |count: usize, i: usize, mirrored: bool| -> Layer {
            let from = 10 * if mirrored { count - 1 - i } else { i } as u64;
            let value = |k: u64| if i % 3 == 2 { TOMB } else { k * 100 + i as u64 };
            (from..=from + 22).map(|k| (k, value(k))).collect()
        };
        for count in [INLINE_SOURCES, INLINE_SOURCES + 1, 2 * INLINE_SOURCES + 3] {
            for mirrored in [false, true] {
                let layers = (0..count).map(|i| window(count, i, mirrored));
                cases.push(("windows across the inline reserve", layers.collect()));
            }
        }
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
            assert_eq!(
                live,
                expected,
                "live view of {label}, {} sources",
                layers.len()
            );
        }
    }

    #[test]
    fn sharded_over_sharded_composes() {
        // The combinator needs only the trait surface, so it nests.  (Both
        // levels hash alike, so here each outer shard fills only one of
        // its inner shards; the leaf count below is structural.)
        let sharded: ShardedIndex<u64, u64, ShardedIndex<u64, u64, MirrorIndex>> =
            ShardedIndex::hash(2, |_| ShardedIndex::hash(2, |_| MirrorIndex::new()));
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
        // Keys picked by the partition itself: ten keys of one shard, and
        // one stored key of each shard, shards out of order.
        let probe = populated(4, 0..0);
        let stored = || (0..100).step_by(5);
        let one_shard: Vec<Op<u64, u64>> = (0..100)
            .filter(|k| probe.shard_of(k) == probe.shard_of(&50))
            .take(10)
            .map(|k| Op::insert(k, k))
            .collect();
        let one_op_per_shard: Vec<Op<u64, u64>> = [3, 0, 2, 1]
            .into_iter()
            .map(|shard| Op::get(stored().find(|k| probe.shard_of(k) == shard).unwrap()))
            .collect();
        // Both sides of the split scratch's stack bound.
        let at_bound = mixed(16);
        let mut past_bound = mixed(16);
        past_bound.push(Op::get(3));
        assert_eq!(
            (at_bound.len(), past_bound.len()),
            (STACK_SCRATCH, STACK_SCRATCH + 1)
        );
        for (name, template, multi_shard) in [
            ("mixed", mixed(15), true),
            ("mixed", at_bound, true),
            ("mixed", past_bound, true),
            ("mixed", mixed(50), true),
            ("one shard", one_shard, false),
            ("one op per shard", one_op_per_shard, true),
        ] {
            let label = format!("{} ops ({name})", template.len());
            let sharded = populated(4, 0..0);
            let oracle = MirrorIndex::new();
            for key in stored() {
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
        let sharded = populated(4, 0..0);
        let mut ops: Vec<Op<u64, u64>> = (0..)
            .filter(|k| sharded.shard_of(k) == 0)
            .take(10)
            .map(|k| Op::insert(k, k))
            .collect();
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
        let sharded = populated(4, 0..100);
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
