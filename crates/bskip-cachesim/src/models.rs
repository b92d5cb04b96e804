//! The three indices compared in Table 1, as sources of cache touches.
//!
//! None of them is a model of a traversal: [`TracedBSkipList`] runs
//! `bskip-core`'s sequential reference list, and [`TracedIndex`] runs the
//! baselines' OCC B+-tree or Folly-style skiplist.  Each reports to a
//! [`Tracer`] that turns its events (header peeks of a right-walk, in-node
//! searches, the shifted suffix of an insertion, both sides of a split,
//! the forward pointers a tower walk follows, ...) into touches.  What
//! *is* modelled is the byte layout: every node at a synthetic address in
//! allocation order (as a bump allocator would place it), starting on a
//! fresh cache line and as long as the footprint the index announced for
//! it; a fixed header, 16-byte slots for `u64` keys with 8-byte values or
//! child pointers, as in the paper, and 8-byte forward pointers.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bskip_baselines::{reseed_tower_rng, LazySkipList, OccBTree};
use bskip_core::seq::SeqBSkipList;
use bskip_core::BSkipConfig;
use bskip_index::trace::Tracer;
use bskip_index::ConcurrentIndex;

use crate::cache::CacheSim;

/// Bytes per key/value entry (8-byte key + 8-byte value or child pointer).
const ENTRY_BYTES: u64 = 16;
/// Fixed per-node header footprint (lock word, length, next pointer, ...).
const NODE_HEADER_BYTES: u64 = 24;
/// Bytes per forward pointer of a pointer array.
const LINK_BYTES: u64 = 8;
/// Bytes per cache line: every node starts on a fresh one.
const LINE_BYTES: u64 = 64;

/// Common interface of the traced indices, as driven by the Table 1
/// harness.
pub trait TraceIndexModel {
    /// Inserts `key`, touching the cache with every byte the insert reads
    /// or writes.
    fn insert(&mut self, key: u64, cache: &mut CacheSim);
    /// Point lookup; returns whether the key was found.
    fn get(&self, key: u64, cache: &mut CacheSim) -> bool;
    /// Scans up to `len` keys starting at the smallest key `>= start`;
    /// returns how many were visited.
    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize;
    /// Number of keys stored.
    fn len(&self) -> usize;
    /// Whether the model is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Touches the probe positions of a binary search over `len` entries laid
/// out from `base` (used for searches inside blocked nodes).
fn touch_binary_search(mut touch: impl FnMut(u64, usize), base: u64, len: usize) {
    let lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        touch(base + mid as u64 * ENTRY_BYTES, 8);
        // The model only needs the probe *positions*; which way the search
        // turns does not change how many lines are touched, so always
        // narrow towards the lower half.
        hi = mid;
    }
}

/// [`Tracer`] that lays the nodes of an index out in allocation order and
/// records every event as the byte range `(address, bytes)` it covers
/// under the layout constants above.  A handle: its clones share one
/// layout, so an index can report to one while its model charges the
/// other.
#[derive(Clone, Default)]
struct LayoutTracer(Arc<Mutex<Layout>>);

/// What a [`LayoutTracer`] has recorded.
#[derive(Default)]
struct Layout {
    /// The first free address, on a line boundary.
    end: u64,
    /// Address and footprint, in whole lines, of every announced id.
    nodes: HashMap<usize, (u64, u64)>,
    /// Touches not yet charged to a cache.
    touches: Vec<(u64, usize)>,
}

impl LayoutTracer {
    fn layout(&self) -> std::sync::MutexGuard<'_, Layout> {
        self.0.lock().expect("a tracer event panicked")
    }

    fn touch(&self, id: usize, offset: u64, bytes: usize) {
        let mut layout = self.layout();
        let node = layout.nodes.get(&id).copied();
        let (address, footprint) =
            node.unwrap_or_else(|| panic!("event for unannounced node {id}"));
        let end = offset + bytes as u64;
        assert!(
            end <= footprint,
            "event up to byte {end} of node {id}, {footprint} long"
        );
        layout.touches.push((address + offset, bytes));
    }

    /// Replays the touches recorded since the last call into `cache`.
    fn charge(&self, cache: &mut CacheSim) {
        for (address, bytes) in self.layout().touches.drain(..) {
            cache.touch(address, bytes);
        }
    }
}

impl Tracer for LayoutTracer {
    fn node_allocated(&self, id: usize, bytes: usize) {
        let bytes = bytes as u64;
        {
            let mut layout = self.layout();
            let (address, footprint) = (layout.end, bytes.div_ceil(LINE_BYTES) * LINE_BYTES);
            layout.end += footprint;
            layout.nodes.insert(id, (address, footprint));
        }
        // Initialising the fresh node's header is a write to it.
        self.touch(id, 0, bytes.min(NODE_HEADER_BYTES) as usize);
    }

    fn header_peeked(&self, id: usize) {
        self.touch(id, NODE_HEADER_BYTES, 8);
    }

    fn node_searched(&self, id: usize, len: usize) {
        self.touch(id, 0, NODE_HEADER_BYTES as usize);
        let probe = |offset, bytes| self.touch(id, offset, bytes);
        touch_binary_search(probe, NODE_HEADER_BYTES, len);
    }

    fn slots_read(&self, id: usize, from: usize, count: usize) {
        let offset = NODE_HEADER_BYTES + from as u64 * ENTRY_BYTES;
        self.touch(id, offset, count * ENTRY_BYTES as usize);
    }

    fn slots_written(&self, id: usize, from: usize, count: usize) {
        self.slots_read(id, from, count); // a write touches the same lines
    }

    fn link_used(&self, id: usize, index: usize) {
        self.touch(id, index as u64 * LINK_BYTES, LINK_BYTES as usize);
    }
}

/// The B-skiplist of Table 1: `bskip-core`'s sequential reference list
/// ([`SeqBSkipList`], the structure and algorithm the differential tests
/// verify against the concurrent list) with `B`-entry nodes, reporting to
/// a tracer that turns its events into cache touches.
pub struct TracedBSkipList<const B: usize> {
    list: SeqBSkipList<u64, u64, B, LayoutTracer>,
}

impl<const B: usize> TracedBSkipList<B> {
    /// Creates an empty list with the given configuration (promotion
    /// probability `1/(c·B)`, maximum height) and height-sampler seed.
    pub fn new(config: BSkipConfig, seed: u64) -> Self {
        let list = SeqBSkipList::with_tracer(config, seed, LayoutTracer::default());
        TracedBSkipList { list }
    }
}

impl<const B: usize> TraceIndexModel for TracedBSkipList<B> {
    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        self.list.insert(key, key);
        self.list.tracer().charge(cache);
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let found = self.list.get(&key).is_some();
        self.list.tracer().charge(cache);
        found
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let visited = self.list.range(&start, len, &mut |_, _| {});
        self.list.tracer().charge(cache);
        visited
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

/// The B+-tree and the skiplist of Table 1: a `bskip-baselines` index
/// reporting to the same tracer as [`TracedBSkipList`] — the [`OccBTree`]
/// Figures 7 and 8 measure, or the Folly-style [`LazySkipList`] of
/// Figures 1 and 6.  It runs through its `ConcurrentIndex` surface, so a
/// scan is a cursor: even a short one copies a whole cursor batch, as the
/// shipped index does.
pub struct TracedIndex {
    index: Box<dyn ConcurrentIndex<u64, u64>>,
    layout: LayoutTracer,
}

impl TracedIndex {
    /// The B+-tree, with `F`-key nodes.
    pub fn btree<const F: usize>() -> Self {
        let layout = LayoutTracer::default();
        let index = Box::new(OccBTree::<u64, u64, F, _>::with_tracer(layout.clone()));
        TracedIndex { index, layout }
    }

    /// The skiplist, drawing its tower heights from this thread's tower
    /// RNG reseeded with `seed`: a run is reproducible when this thread
    /// inserts and no other tower skiplist draws in between.
    pub fn skiplist(seed: u64) -> Self {
        reseed_tower_rng(seed);
        let layout = LayoutTracer::default();
        let index = Box::new(LazySkipList::with_tracer(layout.clone()));
        TracedIndex { index, layout }
    }
}

impl TraceIndexModel for TracedIndex {
    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        self.index.insert(key, key);
        self.layout.charge(cache);
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let found = self.index.get(&key).is_some();
        self.layout.charge(cache);
        found
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let visited = self.index.range(&start, len, &mut |_, _| {});
        self.layout.charge(cache);
        visited
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheSim, CacheStats};

    /// A B-skiplist of `B`-entry nodes, promotion probability `1/(c·B)`
    /// with `c` = 0.5, and `max_height` levels.
    fn bskip<const B: usize>(max_height: usize, seed: u64) -> TracedBSkipList<B> {
        TracedBSkipList::new(BSkipConfig::default().with_max_height(max_height), seed)
    }

    fn drive<M: TraceIndexModel>(model: &mut M, keys: u64) -> CacheSim {
        let mut cache = CacheSim::new(CacheConfig::default());
        for i in 0..keys {
            model.insert(i.wrapping_mul(0x9E3779B97F4A7C15), &mut cache);
        }
        cache
    }

    #[test]
    fn models_store_and_find_their_keys() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let mut skip = TracedIndex::skiplist(1);
        let mut btree = TracedIndex::btree::<16>();
        let mut bskip = bskip::<16>(4, 1);
        for i in 0..5000u64 {
            let key = i.wrapping_mul(0x9E3779B97F4A7C15);
            skip.insert(key, &mut cache);
            btree.insert(key, &mut cache);
            bskip.insert(key, &mut cache);
        }
        assert_eq!(skip.len(), 5000);
        assert_eq!(btree.len(), 5000);
        assert_eq!(bskip.len(), 5000);
        for i in (0..5000u64).step_by(131) {
            let key = i.wrapping_mul(0x9E3779B97F4A7C15);
            assert!(skip.get(key, &mut cache), "skiplist lost {key}");
            assert!(btree.get(key, &mut cache), "btree lost {key}");
            assert!(bskip.get(key, &mut cache), "bskiplist lost {key}");
        }
        assert!(!skip.get(12345, &mut cache));
        assert!(!btree.get(12345, &mut cache));
        assert!(!bskip.get(12345, &mut cache));
    }

    #[test]
    fn duplicate_inserts_do_not_grow_models() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let mut btree = TracedIndex::btree::<8>();
        let mut bskip = bskip::<8>(4, 2);
        let mut skip = TracedIndex::skiplist(2);
        for _ in 0..3 {
            for key in 0..100u64 {
                btree.insert(key, &mut cache);
                bskip.insert(key, &mut cache);
                skip.insert(key, &mut cache);
            }
        }
        assert_eq!(btree.len(), 100);
        assert_eq!(bskip.len(), 100);
        assert_eq!(skip.len(), 100);
    }

    #[test]
    fn scans_return_requested_counts() {
        let mut cache = CacheSim::new(CacheConfig::default());
        let mut bskip = bskip::<16>(4, 3);
        let mut btree = TracedIndex::btree::<16>();
        let mut skip = TracedIndex::skiplist(3);
        for key in 0..1000u64 {
            bskip.insert(key * 2, &mut cache);
            btree.insert(key * 2, &mut cache);
            skip.insert(key * 2, &mut cache);
        }
        assert_eq!(bskip.scan(100, 50, &mut cache), 50);
        assert_eq!(btree.scan(100, 50, &mut cache), 50);
        assert_eq!(skip.scan(100, 50, &mut cache), 50);
        // Scanning past the end returns fewer.
        assert!(bskip.scan(1990, 50, &mut cache) < 50);
        assert!(btree.scan(1990, 50, &mut cache) < 50);
        assert!(skip.scan(1990, 50, &mut cache) < 50);
    }

    #[test]
    fn blocked_structures_miss_less_than_the_skiplist() {
        // The content of Table 1: on an insert-then-lookup workload larger
        // than the cache, the unblocked skiplist incurs several times more
        // misses than the blocked structures.
        let keys = 60_000u64;
        let skip_cache = drive(&mut TracedIndex::skiplist(7), keys);
        let btree_cache = drive(&mut TracedIndex::btree::<64>(), keys);
        let bskip_cache = drive(&mut bskip::<128>(5, 7), keys);
        let skip_misses = skip_cache.stats().misses as f64;
        let btree_misses = btree_cache.stats().misses as f64;
        let bskip_misses = bskip_cache.stats().misses as f64;
        assert!(
            skip_misses > 1.5 * btree_misses,
            "skiplist {skip_misses} vs btree {btree_misses}"
        );
        assert!(
            skip_misses > 1.5 * bskip_misses,
            "skiplist {skip_misses} vs bskiplist {bskip_misses}"
        );
    }

    /// Load + C on a fresh model.
    fn load_c<M: TraceIndexModel>(mut model: M) -> CacheStats {
        let mut cache = drive(&mut model, 20_000);
        for i in (0..20_000u64).rev() {
            assert!(model.get(i.wrapping_mul(0x9E3779B97F4A7C15), &mut cache));
        }
        cache.stats()
    }

    #[test]
    fn traced_runs_are_deterministic() {
        // Each traced structure twice: addresses derived from pointers or
        // hash order would show up as differing counts.
        let runs: [fn() -> CacheStats; 3] = [
            || load_c(bskip::<128>(5, 1)),
            || load_c(TracedIndex::btree::<64>()),
            || load_c(TracedIndex::skiplist(1)),
        ];
        for run in runs {
            let first = run();
            assert!(first.misses > 0 && first.accesses > 20 * 20_000);
            assert_eq!(first, run());
        }
    }

    #[test]
    fn paper_default_model_matches_parameters() {
        let config = BSkipConfig::paper_default();
        let model = TracedBSkipList::<128>::new(config, 1);
        assert_eq!(model.list.node_capacity(), 128);
        assert_eq!(model.list.max_height(), 5);
        assert_eq!(config.promotion_denominator(model.list.node_capacity()), 64);
        assert!(model.is_empty());
    }
}
