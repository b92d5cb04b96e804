//! The three indices compared in Table 1, as sources of cache touches.
//!
//! [`TraceSkipList`] and [`TraceBTree`] are *models*: each keeps the
//! node/pointer structure of its index in an arena and touches in the
//! [`CacheSim`] the byte ranges the real implementation reads or writes.
//! [`TracedBSkipList`] is not a model of the traversal: it runs
//! `bskip-core`'s sequential reference list and turns the events of its
//! [`Tracer`] (header peeks of a right-walk, in-node searches, the shifted
//! suffix of an insertion, both sides of a split, ...) into touches.  What
//! all three share, and what *is* modelled, is the byte layout: nodes at
//! synthetic addresses in allocation order (as a bump allocator would place
//! them), a fixed header, and 16-byte entries for `u64` keys with 8-byte
//! values or child pointers, as in the paper.

use std::cell::{Cell, RefCell};

use bskip_core::seq::{SeqBSkipList, Tracer};
use bskip_core::BSkipConfig;
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
// B+-tree with blocked nodes.
// ---------------------------------------------------------------------------

struct BtNode {
    addr: u64,
    is_leaf: bool,
    keys: Vec<u64>,
    /// children.len() == keys.len() + 1 for internal nodes.
    children: Vec<usize>,
    next: usize,
}

/// Traversal model of a B+-tree with `node_keys` entries per node
/// (64 entries ≈ the paper's 1024-byte nodes).
pub struct TraceBTree {
    arena: Vec<BtNode>,
    root: usize,
    node_keys: usize,
    next_addr: u64,
    len: usize,
}

impl TraceBTree {
    /// Creates an empty tree with `node_keys` entries per node.
    pub fn new(node_keys: usize) -> Self {
        assert!(node_keys >= 4);
        let mut model = TraceBTree {
            arena: Vec::new(),
            root: 0,
            node_keys,
            next_addr: 0,
            len: 0,
        };
        model.root = model.alloc_node(true);
        model
    }

    fn node_footprint(&self) -> u64 {
        NODE_HEADER_BYTES + self.node_keys as u64 * ENTRY_BYTES
    }

    fn alloc_node(&mut self, is_leaf: bool) -> usize {
        let addr = self.next_addr;
        self.next_addr += self.node_footprint().div_ceil(64) * 64;
        self.arena.push(BtNode {
            addr,
            is_leaf,
            keys: Vec::new(),
            children: Vec::new(),
            next: NIL,
        });
        self.arena.len() - 1
    }

    fn child_slot(&self, node: usize, key: u64) -> usize {
        self.arena[node].keys.partition_point(|k| *k <= key)
    }

    /// Splits the full child at `child_slot` of `parent`; both nodes'
    /// touched bytes are charged to the cache.
    fn split_child(&mut self, parent: usize, child: usize, cache: &mut CacheSim) {
        let is_leaf = self.arena[child].is_leaf;
        let right = self.alloc_node(is_leaf);
        let half = self.node_keys / 2;
        let (separator, moved_keys, moved_children) = {
            let node = &mut self.arena[child];
            if is_leaf {
                let moved = node.keys.split_off(half);
                (moved[0], moved, Vec::new())
            } else {
                let mut moved = node.keys.split_off(half);
                let separator = moved.remove(0);
                let children = node.children.split_off(half + 1);
                (separator, moved, children)
            }
        };
        // The split copies the moved half: reads from the left node, writes
        // to the right node.
        let moved_bytes = (moved_keys.len().max(1) as u64) * ENTRY_BYTES;
        cache.touch(
            self.arena[child].addr + half as u64 * ENTRY_BYTES,
            moved_bytes as usize,
        );
        cache.touch(self.arena[right].addr, moved_bytes as usize);
        {
            let right_node = &mut self.arena[right];
            right_node.keys = moved_keys;
            right_node.children = moved_children;
        }
        if is_leaf {
            let old_next = self.arena[child].next;
            self.arena[right].next = old_next;
            self.arena[child].next = right;
        }
        // Insert the separator into the parent (a write into the parent).
        let position = self.arena[parent].keys.partition_point(|k| *k < separator);
        cache.touch(
            self.arena[parent].addr + position as u64 * ENTRY_BYTES,
            ((self.arena[parent].keys.len() - position + 1) as u64 * ENTRY_BYTES) as usize,
        );
        self.arena[parent].keys.insert(position, separator);
        self.arena[parent].children.insert(position + 1, right);
    }
}

impl TraceIndexModel for TraceBTree {
    fn name(&self) -> &'static str {
        "B+-tree"
    }

    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        // Preemptive-split descent (matches the OCC B+-tree's pessimistic
        // pass; the optimistic pass touches the same nodes).
        if self.arena[self.root].keys.len() == self.node_keys {
            let old_root = self.root;
            let new_root = self.alloc_node(false);
            self.arena[new_root].children.push(old_root);
            self.root = new_root;
            self.split_child(new_root, old_root, cache);
        }
        let mut node = self.root;
        loop {
            cache.touch(self.arena[node].addr, NODE_HEADER_BYTES as usize);
            touch_binary_search(
                |address, bytes| cache.touch(address, bytes),
                self.arena[node].addr + NODE_HEADER_BYTES,
                self.arena[node].keys.len(),
            );
            if self.arena[node].is_leaf {
                let position = self.arena[node].keys.partition_point(|k| *k < key);
                if self.arena[node].keys.get(position) == Some(&key) {
                    cache.touch(self.arena[node].addr + position as u64 * ENTRY_BYTES, 8);
                    return;
                }
                // Shifting the suffix to make room is a write.
                let shifted = (self.arena[node].keys.len() - position + 1) as u64 * ENTRY_BYTES;
                cache.touch(
                    self.arena[node].addr + NODE_HEADER_BYTES + position as u64 * ENTRY_BYTES,
                    shifted as usize,
                );
                self.arena[node].keys.insert(position, key);
                self.len += 1;
                return;
            }
            let slot = self.child_slot(node, key);
            let child = self.arena[node].children[slot];
            if self.arena[child].keys.len() == self.node_keys {
                self.split_child(node, child, cache);
                let slot = self.child_slot(node, key);
                node = self.arena[node].children[slot];
            } else {
                node = child;
            }
        }
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let mut node = self.root;
        loop {
            cache.touch(self.arena[node].addr, NODE_HEADER_BYTES as usize);
            touch_binary_search(
                |address, bytes| cache.touch(address, bytes),
                self.arena[node].addr + NODE_HEADER_BYTES,
                self.arena[node].keys.len(),
            );
            if self.arena[node].is_leaf {
                return self.arena[node].keys.binary_search(&key).is_ok();
            }
            let slot = self.child_slot(node, key);
            node = self.arena[node].children[slot];
        }
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let mut node = self.root;
        loop {
            cache.touch(self.arena[node].addr, NODE_HEADER_BYTES as usize);
            touch_binary_search(
                |address, bytes| cache.touch(address, bytes),
                self.arena[node].addr + NODE_HEADER_BYTES,
                self.arena[node].keys.len(),
            );
            if self.arena[node].is_leaf {
                break;
            }
            let slot = self.child_slot(node, start);
            node = self.arena[node].children[slot];
        }
        let mut visited = 0;
        let mut position = self.arena[node].keys.partition_point(|k| *k < start);
        loop {
            let keys = &self.arena[node].keys;
            let take = (keys.len() - position).min(len - visited);
            if take > 0 {
                cache.touch(
                    self.arena[node].addr + NODE_HEADER_BYTES + position as u64 * ENTRY_BYTES,
                    take * ENTRY_BYTES as usize,
                );
                visited += take;
            }
            if visited == len || self.arena[node].next == NIL {
                break;
            }
            node = self.arena[node].next;
            position = 0;
        }
        visited
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// B-skiplist: the real sequential list, traced.
// ---------------------------------------------------------------------------

/// [`Tracer`] that lays the `B`-entry nodes of a [`SeqBSkipList`] out in
/// allocation order and records every event as the byte range `(address,
/// bytes)` it covers under the layout constants above.
#[derive(Default)]
struct LayoutTracer<const B: usize> {
    allocated: Cell<usize>,
    touches: RefCell<Vec<(u64, usize)>>,
}

impl<const B: usize> LayoutTracer<B> {
    fn touch(&self, id: usize, offset: u64, bytes: usize) {
        assert!(id < self.allocated.get(), "event for unallocated node {id}");
        let stride = (NODE_HEADER_BYTES + B as u64 * ENTRY_BYTES).div_ceil(64) * 64;
        self.touches
            .borrow_mut()
            .push((id as u64 * stride + offset, bytes));
    }
}

impl<const B: usize> Tracer for LayoutTracer<B> {
    fn node_allocated(&self, id: usize) {
        assert_eq!(id, self.allocated.replace(id + 1), "node ids are dense");
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

    /// Replays the touches recorded since the last call into `cache`.
    fn charge(&self, cache: &mut CacheSim) {
        for (address, bytes) in self.list.tracer().touches.borrow_mut().drain(..) {
            cache.touch(address, bytes);
        }
    }
}

impl<const B: usize> TraceIndexModel for TracedBSkipList<B> {
    fn name(&self) -> &'static str {
        "B-skiplist"
    }

    fn insert(&mut self, key: u64, cache: &mut CacheSim) {
        self.list.insert(key, key);
        self.charge(cache);
    }

    fn get(&self, key: u64, cache: &mut CacheSim) -> bool {
        let found = self.list.get(&key).is_some();
        self.charge(cache);
        found
    }

    fn scan(&self, start: u64, len: usize, cache: &mut CacheSim) -> usize {
        let visited = self.list.range(&start, len, &mut |_, _| {});
        self.charge(cache);
        visited
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CacheSim};

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
        let mut btree = TraceBTree::new(16);
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
        let mut btree = TraceBTree::new(8);
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
        let mut btree = TraceBTree::new(16);
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
        let btree_cache = drive(&mut TraceBTree::new(64), keys);
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

    #[test]
    fn traced_runs_are_deterministic() {
        // Load + C twice: addresses derived from pointers or hash order
        // would show up as differing counts.
        let run = || {
            let mut model = bskip::<128>(5, 1);
            let mut cache = drive(&mut model, 20_000);
            for i in (0..20_000u64).rev() {
                assert!(model.get(i.wrapping_mul(0x9E3779B97F4A7C15), &mut cache));
            }
            cache.stats()
        };
        let first = run();
        assert!(first.misses > 0 && first.accesses > 20 * 20_000);
        assert_eq!(first, run());
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
