//! The three indices compared in Table 1, as sources of cache touches.
//!
//! [`TraceSkipList`] is a *model*: it keeps the node/pointer structure of a
//! skiplist in an arena and touches in the [`CacheSim`] the byte ranges a
//! real implementation reads or writes.  [`TracedBSkipList`] and
//! [`TracedBTree`] are not models of a traversal: they run `bskip-core`'s
//! sequential reference list and the baselines' OCC B+-tree and turn the
//! events of their [`Tracer`] (header peeks of a right-walk, in-node
//! searches, the shifted suffix of an insertion, both sides of a split,
//! ...) into touches.  What all three share, and what *is* modelled, is the
//! byte layout: nodes at synthetic addresses in allocation order (as a bump
//! allocator would place them), a fixed header, and 16-byte entries for
//! `u64` keys with 8-byte values or child pointers, as in the paper.

use std::collections::HashMap;
use std::sync::Mutex;

use bskip_baselines::OccBTree;
use bskip_core::seq::SeqBSkipList;
use bskip_core::BSkipConfig;
use bskip_index::trace::Tracer;
use bskip_index::ConcurrentIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cache::CacheSim;

/// Bytes per key/value entry (8-byte key + 8-byte value or child pointer).
const ENTRY_BYTES: u64 = 16;
/// Fixed per-node header footprint (lock word, length, next pointer, ...).
const NODE_HEADER_BYTES: u64 = 24;

/// Common interface of the traversal models, as driven by the Table 1
/// harness.
pub trait TraceIndexModel {
    /// Display name used in the experiment output.
    fn name(&self) -> &'static str;
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

const NIL: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Traditional skiplist: one element per node.
// ---------------------------------------------------------------------------

struct SkipNode {
    key: u64,
    addr: u64,
    next: Vec<usize>,
}

/// Traversal model of a traditional (unblocked) skiplist with promotion
/// probability 1/2: every element is its own heap node, so every visited
/// element costs at least one cache line.
pub struct TraceSkipList {
    arena: Vec<SkipNode>,
    head: Vec<usize>,
    max_levels: usize,
    rng: SmallRng,
    next_addr: u64,
    len: usize,
}

impl TraceSkipList {
    /// Creates an empty model with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        let max_levels = 28;
        TraceSkipList {
            arena: Vec::new(),
            head: vec![NIL; max_levels],
            max_levels,
            rng: SmallRng::seed_from_u64(seed),
            next_addr: 0,
            len: 0,
        }
    }

    fn alloc_addr(&mut self, bytes: u64) -> u64 {
        let addr = self.next_addr;
        self.next_addr += bytes.div_ceil(64) * 64;
        addr
    }

    fn sample_height(&mut self) -> usize {
        let mut height = 1;
        while height < self.max_levels && self.rng.gen_bool(0.5) {
            height += 1;
        }
        height
    }

    /// Walks towards `key`, touching every visited node, and returns the
    /// predecessor arena index per level.
    fn find_preds(&self, key: u64, cache: &mut CacheSim) -> Vec<usize> {
        let mut preds = vec![NIL; self.max_levels];
        let mut pred = NIL;
        for level in (0..self.max_levels).rev() {
            let mut curr = if pred == NIL {
                self.head[level]
            } else {
                self.arena[pred].next[level]
            };
            while curr != NIL && self.arena[curr].key < key {
                // Reading the candidate's key and next pointer touches its
                // cache line.
                cache.touch(self.arena[curr].addr, 16);
                pred = curr;
                curr = self.arena[curr].next[level];
            }
            if curr != NIL {
                cache.touch(self.arena[curr].addr, 8);
            }
            preds[level] = pred;
        }
        preds
    }

    fn succ_of(&self, pred: usize, level: usize) -> usize {
        if pred == NIL {
            self.head[level]
        } else {
            self.arena[pred].next[level]
        }
    }
}

impl TraceIndexModel for TraceSkipList {
    fn name(&self) -> &'static str {
        "skiplist"
    }

    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        let preds = self.find_preds(key, cache);
        let succ0 = self.succ_of(preds[0], 0);
        if succ0 != NIL && self.arena[succ0].key == key {
            // Update in place.
            cache.touch(self.arena[succ0].addr + 8, 8);
            return;
        }
        let height = self.sample_height();
        let footprint = 16 + NODE_HEADER_BYTES + 8 * height as u64;
        let addr = self.alloc_addr(footprint);
        let id = self.arena.len();
        let mut next = vec![NIL; self.max_levels];
        #[allow(clippy::needless_range_loop)]
        for level in 0..height {
            next[level] = self.succ_of(preds[level], level);
        }
        // Writing the freshly allocated node.
        cache.touch(addr, footprint as usize);
        self.arena.push(SkipNode { key, addr, next });
        #[allow(clippy::needless_range_loop)]
        for level in 0..height {
            // Updating each predecessor's forward pointer is a write to
            // that predecessor's cache line.
            if preds[level] == NIL {
                self.head[level] = id;
            } else {
                cache.touch(self.arena[preds[level]].addr + 16 + 8 * level as u64, 8);
                self.arena[preds[level]].next[level] = id;
            }
        }
        self.len += 1;
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let preds = self.find_preds(key, cache);
        let succ = self.succ_of(preds[0], 0);
        succ != NIL && self.arena[succ].key == key
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let preds = self.find_preds(start, cache);
        let mut curr = self.succ_of(preds[0], 0);
        let mut visited = 0;
        while curr != NIL && visited < len {
            cache.touch(self.arena[curr].addr, 24);
            visited += 1;
            curr = self.arena[curr].next[0];
        }
        visited
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// B-skiplist and B+-tree: the real structures, traced.
// ---------------------------------------------------------------------------

/// [`Tracer`] that lays the `B`-entry nodes of an index out in allocation
/// order and records every event as the byte range `(address, bytes)` it
/// covers under the layout constants above.  A node id maps to the
/// allocation-order slot it was announced with, so the sequential list's
/// arena ids map to themselves and the B+-tree's addresses to dense slots.
#[derive(Default)]
struct LayoutTracer<const B: usize>(Mutex<Layout>);

/// What a [`LayoutTracer`] has recorded.
#[derive(Default)]
struct Layout {
    /// Nodes announced so far.
    allocated: u64,
    /// Allocation-order slot of every announced id.
    slots: HashMap<usize, u64>,
    /// Touches not yet charged to a cache.
    touches: Vec<(u64, usize)>,
}

impl<const B: usize> LayoutTracer<B> {
    /// Bytes from one node to the next: its footprint in whole lines.
    const STRIDE: u64 = (NODE_HEADER_BYTES + B as u64 * ENTRY_BYTES).div_ceil(64) * 64;

    fn touch(&self, id: usize, offset: u64, bytes: usize) {
        let mut layout = self.0.lock().expect("a tracer event panicked");
        let slot = layout.slots.get(&id).copied();
        let slot = slot.unwrap_or_else(|| panic!("event for unannounced node {id}"));
        layout.touches.push((slot * Self::STRIDE + offset, bytes));
    }

    /// Replays the touches recorded since the last call into `cache`.
    fn charge(&self, cache: &mut CacheSim) {
        let mut layout = self.0.lock().expect("a tracer event panicked");
        for (address, bytes) in layout.touches.drain(..) {
            cache.touch(address, bytes);
        }
    }
}

impl<const B: usize> Tracer for LayoutTracer<B> {
    fn node_allocated(&self, id: usize) {
        {
            let mut layout = self.0.lock().expect("a tracer event panicked");
            let slot = layout.allocated;
            layout.allocated += 1;
            layout.slots.insert(id, slot);
        }
        // Initialising the fresh node's header is a write to it.
        self.touch(id, 0, NODE_HEADER_BYTES as usize);
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
}

/// The B-skiplist of Table 1: `bskip-core`'s sequential reference list
/// ([`SeqBSkipList`], the structure and algorithm the differential tests
/// verify against the concurrent list) with `B`-entry nodes, reporting to
/// a tracer that turns its events into cache touches.
pub struct TracedBSkipList<const B: usize> {
    list: SeqBSkipList<u64, u64, B, LayoutTracer<B>>,
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
    fn name(&self) -> &'static str {
        "B-skiplist"
    }

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

/// The B+-tree of Table 1: the baselines' [`OccBTree`] (the tree Figures 7
/// and 8 measure) with `F`-key nodes, reporting to the same tracer as
/// [`TracedBSkipList`].  It runs through its `ConcurrentIndex` surface, so
/// a scan is a cursor: even a short one copies a whole cursor batch (the
/// `F` entries from its start key on), as the shipped tree does.
pub struct TracedBTree<const F: usize> {
    tree: OccBTree<u64, u64, F, LayoutTracer<F>>,
}

impl<const F: usize> Default for TracedBTree<F> {
    fn default() -> Self {
        let tree = OccBTree::with_tracer(LayoutTracer::default());
        TracedBTree { tree }
    }
}

impl<const F: usize> TraceIndexModel for TracedBTree<F> {
    fn name(&self) -> &'static str {
        "B+-tree"
    }

    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        self.tree.insert(key, key);
        self.tree.tracer().charge(cache);
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let found = self.tree.get(&key).is_some();
        self.tree.tracer().charge(cache);
        found
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let visited = self.tree.range(&start, len, &mut |_, _| {});
        self.tree.tracer().charge(cache);
        visited
    }

    fn len(&self) -> usize {
        self.tree.len()
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
        let mut skip = TraceSkipList::new(1);
        let mut btree = TracedBTree::<16>::default();
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
        let mut btree = TracedBTree::<8>::default();
        let mut bskip = bskip::<8>(4, 2);
        let mut skip = TraceSkipList::new(2);
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
        let mut btree = TracedBTree::<16>::default();
        for key in 0..1000u64 {
            bskip.insert(key * 2, &mut cache);
            btree.insert(key * 2, &mut cache);
        }
        assert_eq!(bskip.scan(100, 50, &mut cache), 50);
        assert_eq!(btree.scan(100, 50, &mut cache), 50);
        // Scanning past the end returns fewer.
        assert!(bskip.scan(1990, 50, &mut cache) < 50);
        assert!(btree.scan(1990, 50, &mut cache) < 50);
    }

    #[test]
    fn blocked_structures_miss_less_than_the_skiplist() {
        // The content of Table 1: on an insert-then-lookup workload larger
        // than the cache, the unblocked skiplist incurs several times more
        // misses than the blocked structures.
        let keys = 60_000u64;
        let skip_cache = drive(&mut TraceSkipList::new(7), keys);
        let btree_cache = drive(&mut TracedBTree::<64>::default(), keys);
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
        let runs: [fn() -> CacheStats; 2] = [
            || load_c(bskip::<128>(5, 1)),
            || load_c(TracedBTree::<64>::default()),
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
