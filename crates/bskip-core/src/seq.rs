//! A safe, single-threaded reference B-skiplist.
//!
//! [`SeqBSkipList`] implements exactly the same logical structure and the
//! same top-down single-pass insertion algorithm as the concurrent
//! [`crate::BSkipList`], but with index-based nodes in a plain `Vec` arena
//! and no locking or `unsafe` code.  It serves three purposes:
//!
//! 1. it is the differential-testing oracle for the concurrent list (both
//!    are driven with identical keys *and identical promotion heights*, so
//!    after insertions their structure must match node for node);
//! 2. it is the structure walked by the cache simulator experiments
//!    (`bskip-cachesim` drives it through a [`Tracer`]), where
//!    single-threaded determinism matters more than parallel throughput;
//! 3. it documents the algorithm of Section 3 without the concurrency
//!    machinery of Section 4, which makes it the easiest entry point for
//!    readers of the code.
//!
//! It inserts, reads and scans; it has no removal, which neither the
//! differential tests nor the cache simulator perform.
//!
//! The last type parameter is a [`Tracer`] (`bskip_index::trace`), told
//! which nodes an operation allocates, peeks at, searches, reads and
//! writes; a node's id is its arena index, so the `n`-th node allocated
//! has id `n`, and its footprint is that of the concurrent list's node
//! with the same `B` (`to_vec`, `nodes_per_level` and `validate` are
//! diagnostics and report nothing).  It only observes; the default,
//! [`NoTrace`], is zero-sized and its empty inlined methods compile to
//! nothing.  An
//! insertion reports both of its descents — `replace_existing`, then
//! `insert_absent` from the top again: the second revisits nodes the first
//! just loaded, so a cache model sees more accesses, not more misses.

use bskip_index::trace::{NoTrace, Tracer};
use bskip_index::{IndexKey, IndexValue};

use crate::config::BSkipConfig;
use crate::height::HeightSampler;

/// Index of a node in the arena.
type NodeId = usize;

/// Sentinel meaning "no node".
const NIL: NodeId = usize::MAX;

/// A node of the sequential B-skiplist.
#[derive(Debug, Clone)]
struct SeqNode<K, V> {
    /// Level of the node (0 = leaf).
    level: usize,
    /// Whether this node is the left sentinel of its level.
    is_head: bool,
    /// Sorted keys (at most `B`).
    keys: Vec<K>,
    /// Values aligned with `keys` (leaf nodes only).
    values: Vec<V>,
    /// Down pointers aligned with `keys` (internal nodes only).
    children: Vec<NodeId>,
    /// Down pointer of the implicit `-∞` entry (head nodes above level 0).
    head_child: NodeId,
    /// Right neighbour at the same level.
    next: NodeId,
}

impl<K, V> SeqNode<K, V> {
    fn new(level: usize, is_head: bool) -> Self {
        SeqNode {
            level,
            is_head,
            keys: Vec::new(),
            values: Vec::new(),
            children: Vec::new(),
            head_child: NIL,
            next: NIL,
        }
    }
}

/// A single-threaded B-skiplist with fixed-size nodes.
///
/// # Example
///
/// ```
/// use bskip_core::seq::SeqBSkipList;
///
/// let mut list: SeqBSkipList<u64, u64> = SeqBSkipList::new();
/// list.insert(1, 10);
/// list.insert(2, 20);
/// assert_eq!(list.get(&1), Some(10));
/// assert_eq!(list.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SeqBSkipList<K, V, const B: usize = 128, T = NoTrace> {
    tracer: T,
    arena: Vec<SeqNode<K, V>>,
    /// Head node of every level, bottom (index 0) to top.
    heads: Vec<NodeId>,
    config: BSkipConfig,
    sampler: HeightSampler,
    len: usize,
}

impl<K: IndexKey, V: IndexValue, const B: usize> Default for SeqBSkipList<K, V, B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: IndexKey, V: IndexValue, const B: usize> SeqBSkipList<K, V, B> {
    /// Creates an empty list with the default configuration and a fixed
    /// height-sampling seed.
    pub fn new() -> Self {
        Self::with_config_and_seed(BSkipConfig::default(), 0xB5C1)
    }

    /// Creates an empty list with an explicit configuration and seed for
    /// the promotion-height sampler.
    pub fn with_config_and_seed(config: BSkipConfig, seed: u64) -> Self {
        Self::with_tracer(config, seed, NoTrace)
    }
}

impl<K: IndexKey, V: IndexValue, const B: usize, T: Tracer> SeqBSkipList<K, V, B, T> {
    /// The footprint a node is announced with: the concurrent list's.
    const NODE_BYTES: usize = size_of::<crate::node::Node<K, V, B>>();

    /// [`SeqBSkipList::with_config_and_seed`], reporting to `tracer` from
    /// the allocation of the level heads on.
    pub fn with_tracer(config: BSkipConfig, seed: u64, tracer: T) -> Self {
        config
            .validate()
            .unwrap_or_else(|err| panic!("invalid BSkipConfig: {err}"));
        assert!(B >= 2, "node capacity B must be at least 2");
        let mut arena = Vec::new();
        let mut heads = Vec::with_capacity(config.max_height);
        for level in 0..config.max_height {
            let id = arena.len();
            let mut node = SeqNode::new(level, true);
            if level > 0 {
                node.head_child = heads[level - 1];
            }
            arena.push(node);
            heads.push(id);
            tracer.node_allocated(id, Self::NODE_BYTES);
        }
        let denominator = config.promotion_denominator(B);
        SeqBSkipList {
            tracer,
            arena,
            heads,
            config,
            sampler: HeightSampler::new(denominator, config.max_height, seed),
            len: 0,
        }
    }

    /// The tracer the list reports to.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of key slots per node.
    pub const fn node_capacity(&self) -> usize {
        B
    }

    /// Number of levels.
    pub fn max_height(&self) -> usize {
        self.config.max_height
    }

    /// Total number of nodes currently allocated, per level (index 0 is the
    /// leaf level).  Used by the structural statistics experiments.
    pub fn nodes_per_level(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.max_height];
        for (level, count) in counts.iter_mut().enumerate() {
            let mut node = self.heads[level];
            while node != NIL {
                *count += 1;
                node = self.arena[node].next;
            }
        }
        counts
    }

    fn node(&self, id: NodeId) -> &SeqNode<K, V> {
        &self.arena[id]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SeqNode<K, V> {
        &mut self.arena[id]
    }

    fn alloc(&mut self, level: usize) -> NodeId {
        let id = self.arena.len();
        self.arena.push(SeqNode::new(level, false));
        self.tracer.node_allocated(id, Self::NODE_BYTES);
        id
    }

    /// Moves right from `node` while the successor's header is `<= key`.
    fn walk_right(&self, mut node: NodeId, key: &K) -> NodeId {
        loop {
            let next = self.node(node).next;
            if next == NIL || self.peek(next) > *key {
                return node;
            }
            node = next;
        }
    }

    /// The header (first key) of `next`, as a right-walk reads it.
    fn peek(&self, next: NodeId) -> K {
        self.tracer.header_peeked(next);
        self.node(next).keys[0]
    }

    /// `node`, reported as searched: every caller binary-searches its keys.
    fn searched(&self, node: NodeId) -> &SeqNode<K, V> {
        let n = self.node(node);
        self.tracer.node_searched(node, n.keys.len());
        n
    }

    /// The child to descend into from `node` when searching for `key`.
    fn descend(&self, node: NodeId, key: &K) -> NodeId {
        let n = self.searched(node);
        match n.keys.partition_point(|k| k <= key) {
            0 => {
                debug_assert!(n.is_head);
                n.head_child
            }
            pos => n.children[pos - 1],
        }
    }

    /// The leaf whose key range covers `key`: one root-to-leaf descent.
    fn covering_leaf(&self, key: &K) -> NodeId {
        let mut level = self.config.max_height - 1;
        let mut node = self.heads[level];
        loop {
            node = self.walk_right(node, key);
            if level == 0 {
                return node;
            }
            node = self.descend(node, key);
            level -= 1;
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<V> {
        let leaf = self.covering_leaf(key);
        let index = self.searched(leaf).keys.binary_search(key).ok()?;
        self.tracer.slots_read(leaf, index, 1);
        Some(self.node(leaf).values[index])
    }

    /// Range scan: visits up to `len` pairs with keys `>= start` in order.
    pub fn range(&self, start: &K, len: usize, visit: &mut dyn FnMut(&K, &V)) -> usize {
        if len == 0 {
            return 0;
        }
        let mut current = self.covering_leaf(start);
        let mut index = self.searched(current).keys.partition_point(|k| k < start);
        let mut visited = 0;
        loop {
            let n = self.node(current);
            let from = index;
            while index < n.keys.len() && visited < len {
                visit(&n.keys[index], &n.values[index]);
                visited += 1;
                index += 1;
            }
            self.tracer.slots_read(current, from, index - from);
            if visited == len || n.next == NIL {
                return visited;
            }
            current = n.next;
            index = 0;
        }
    }

    /// Collects the entire contents in key order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut node = self.heads[0];
        while node != NIL {
            let n = self.node(node);
            for index in 0..n.keys.len() {
                out.push((n.keys[index], n.values[index]));
            }
            node = n.next;
        }
        out
    }

    /// Replaces the value of a present key, returning the old one; the
    /// "leaf first" half of an insertion.
    fn replace_existing(&mut self, key: &K, value: V) -> Option<V> {
        let leaf = self.covering_leaf(key);
        let index = self.searched(leaf).keys.binary_search(key).ok()?;
        self.tracer.slots_written(leaf, index, 1);
        Some(std::mem::replace(
            &mut self.node_mut(leaf).values[index],
            value,
        ))
    }

    /// Inserts `key → value`, returning the previous value if the key
    /// existed.  Leaf first, height second, like the concurrent list: an
    /// overwrite only replaces the value, and only a key that is absent
    /// draws a height from the deterministic sampler.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(previous) = self.replace_existing(&key, value) {
            return Some(previous);
        }
        let height = self.sampler.sample();
        self.insert_absent(key, value, height);
        None
    }

    /// Inserts with an explicit promotion height (clamped to the maximum).
    /// On a present key only the value changes and `height` is ignored.
    pub fn insert_with_height(&mut self, key: K, value: V, height: usize) -> Option<V> {
        if let Some(previous) = self.replace_existing(&key, value) {
            return Some(previous);
        }
        self.insert_absent(key, value, height.min(self.config.max_height - 1));
        None
    }

    /// The sequential version of the paper's Algorithm 1, for a key known
    /// to be absent: one top-down pass that navigates above `height`,
    /// writes the key at level `height` and promotion-splits below it.
    fn insert_absent(&mut self, key: K, value: V, height: usize) {
        // Pre-allocate the nodes for levels height-1 .. 0, chained through
        // their first child pointer, exactly as the concurrent version does.
        let mut prealloc: Vec<NodeId> = Vec::with_capacity(height);
        if height > 0 {
            let leaf = self.alloc(0);
            self.node_mut(leaf).keys.push(key);
            self.node_mut(leaf).values.push(value);
            self.tracer.slots_written(leaf, 0, 1);
            prealloc.push(leaf);
            for level in 1..height {
                let internal = self.alloc(level);
                self.node_mut(internal).keys.push(key);
                let child = prealloc[level - 1];
                self.node_mut(internal).children.push(child);
                self.tracer.slots_written(internal, 0, 1);
                prealloc.push(internal);
            }
        }

        let mut level = self.config.max_height - 1;
        let mut node = self.heads[level];
        loop {
            node = self.walk_right(node, &key);
            let descend_child = if level > height {
                self.descend(node, &key)
            } else {
                let insert_pos = self
                    .searched(node)
                    .keys
                    .binary_search(&key)
                    .expect_err("insert_absent is only called for absent keys");
                if level == height {
                    self.insert_at_top_level(node, insert_pos, key, value, level, &prealloc)
                } else {
                    self.promotion_split(node, insert_pos, level, &prealloc)
                }
            };
            if level == 0 {
                break;
            }
            debug_assert_ne!(descend_child, NIL);
            node = descend_child;
            level -= 1;
        }
        self.len += 1;
    }

    /// Plain insertion at the key's topmost level, with an overflow split
    /// if the target node is full.  Returns the child to descend into (the
    /// predecessor's down pointer) for internal levels, `NIL` at the leaf.
    fn insert_at_top_level(
        &mut self,
        node: NodeId,
        insert_pos: usize,
        key: K,
        value: V,
        level: usize,
        prealloc: &[NodeId],
    ) -> NodeId {
        let (target, local_pos) = if self.node(node).keys.len() == B {
            let new_node = self.alloc(level);
            let half = B / 2;
            self.split_off_into(node, half, new_node);
            self.link_after(node, new_node);
            if insert_pos <= half {
                (node, insert_pos)
            } else {
                (new_node, insert_pos - half)
            }
        } else {
            (node, insert_pos)
        };
        let shifted = self.node(target).keys.len() + 1 - local_pos;
        self.tracer.slots_written(target, local_pos, shifted);
        let target_node = self.node_mut(target);
        target_node.keys.insert(local_pos, key);
        if level == 0 {
            target_node.values.insert(local_pos, value);
            NIL
        } else {
            target_node.children.insert(local_pos, prealloc[level - 1]);
            // Descend from the predecessor, immediately left of the new key.
            if local_pos == 0 {
                debug_assert!(self.node(target).is_head);
                self.node(target).head_child
            } else {
                self.node(target).children[local_pos - 1]
            }
        }
    }

    /// Promotion split at a level below the key's height: the pre-allocated
    /// node becomes the right half, headed by the key.  Returns the child to
    /// descend into (the predecessor's down pointer) for internal levels.
    fn promotion_split(
        &mut self,
        node: NodeId,
        insert_pos: usize,
        level: usize,
        prealloc: &[NodeId],
    ) -> NodeId {
        let pnode = prealloc[level];
        let move_count = self.node(node).keys.len() - insert_pos;
        if 1 + move_count > B {
            // Spill the tail into one extra node to respect the fixed size.
            let spill = self.alloc(level);
            let spill_from = insert_pos + (B - 1);
            self.split_off_into(node, spill_from, spill);
            self.split_off_into(node, insert_pos, pnode);
            self.link_after(node, pnode);
            self.link_after(pnode, spill);
        } else {
            self.split_off_into(node, insert_pos, pnode);
            self.link_after(node, pnode);
        }
        if level == 0 {
            NIL
        } else if insert_pos == 0 {
            debug_assert!(self.node(node).is_head);
            self.node(node).head_child
        } else {
            self.node(node).children[insert_pos - 1]
        }
    }

    /// Moves `src`'s entries from `from` onward to the end of `dst`.
    fn split_off_into(&mut self, src: NodeId, from: usize, dst: NodeId) {
        let level = self.node(src).level;
        let count = self.node(src).keys.len() - from;
        self.tracer.slots_read(src, from, count);
        self.tracer
            .slots_written(dst, self.node(dst).keys.len(), count);
        let keys: Vec<K> = self.node_mut(src).keys.split_off(from);
        self.node_mut(dst).keys.extend(keys);
        if level == 0 {
            let values: Vec<V> = self.node_mut(src).values.split_off(from);
            self.node_mut(dst).values.extend(values);
        } else {
            let children: Vec<NodeId> = self.node_mut(src).children.split_off(from);
            self.node_mut(dst).children.extend(children);
        }
    }

    /// Links `new_node` immediately after `node` in its level's list.
    fn link_after(&mut self, node: NodeId, new_node: NodeId) {
        let next = self.node(node).next;
        self.node_mut(new_node).next = next;
        self.node_mut(node).next = new_node;
    }

    /// Checks the structural invariants (sorted levels, fixed node size,
    /// child headers, inclusion).  Returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        use std::collections::BTreeSet;
        let mut below: Option<BTreeSet<K>> = None;
        for level in 0..self.config.max_height {
            let mut keys = BTreeSet::new();
            let mut last: Option<K> = None;
            let mut node = self.heads[level];
            let mut first = true;
            while node != NIL {
                let n = self.node(node);
                if n.is_head != first {
                    return Err(format!("level {level}: misplaced head flag"));
                }
                if !n.is_head && n.keys.is_empty() {
                    return Err(format!("level {level}: empty non-head node"));
                }
                if n.keys.len() > B {
                    return Err(format!("level {level}: node exceeds capacity"));
                }
                if level == 0 && n.values.len() != n.keys.len() {
                    return Err(format!("level {level}: values misaligned"));
                }
                if level > 0 && n.children.len() != n.keys.len() {
                    return Err(format!("level {level}: children misaligned"));
                }
                for (slot, &key) in n.keys.iter().enumerate() {
                    if let Some(previous) = last {
                        if previous >= key {
                            return Err(format!("level {level}: keys out of order"));
                        }
                    }
                    last = Some(key);
                    keys.insert(key);
                    if level > 0 {
                        let child = n.children[slot];
                        let child_node = self.node(child);
                        if child_node.level != level - 1 {
                            return Err(format!("level {level}: child at wrong level"));
                        }
                        if child_node.keys.first() != Some(&key) {
                            return Err(format!(
                                "level {level}: child header mismatch for {key:?}"
                            ));
                        }
                    }
                }
                node = n.next;
                first = false;
            }
            if let Some(ref below_keys) = below {
                for key in &keys {
                    if !below_keys.contains(key) {
                        return Err(format!("inclusion violation at level {level} for {key:?}"));
                    }
                }
            } else if keys.len() != self.len {
                return Err(format!(
                    "leaf level holds {} keys but len() is {}",
                    keys.len(),
                    self.len
                ));
            }
            below = Some(keys);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type List = SeqBSkipList<u64, u64, 4>;

    fn small() -> List {
        List::with_config_and_seed(BSkipConfig::default().with_max_height(4), 1)
    }

    #[test]
    fn empty_list_behaviour() {
        let list = small();
        assert!(list.is_empty());
        assert_eq!(list.get(&1), None);
        assert_eq!(list.to_vec(), vec![]);
        list.validate().unwrap();
    }

    #[test]
    fn insert_get_update() {
        let mut list = small();
        assert_eq!(list.insert_with_height(3, 30, 0), None);
        assert_eq!(list.insert_with_height(1, 10, 1), None);
        assert_eq!(list.insert_with_height(2, 20, 2), None);
        assert_eq!(list.insert_with_height(2, 21, 0), Some(20));
        assert_eq!(list.get(&2), Some(21));
        assert_eq!(list.len(), 3);
        list.validate().unwrap();
    }

    #[test]
    fn sorted_bulk_build_and_scan() {
        let mut list = small();
        for key in 0..500u64 {
            list.insert(key, key * 3);
        }
        assert_eq!(list.len(), 500);
        let all = list.to_vec();
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        list.validate().unwrap();
        let mut window = Vec::new();
        assert_eq!(list.range(&100, 7, &mut |k, _| window.push(*k)), 7);
        assert_eq!(window, vec![100, 101, 102, 103, 104, 105, 106]);
    }

    #[test]
    fn differential_against_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let mut list = small();
        let mut oracle = BTreeMap::new();
        for _ in 0..4000 {
            let key = rng.gen_range(0..800u64);
            if rng.gen_range(0..10) < 6 {
                let value = rng.gen::<u64>();
                assert_eq!(list.insert(key, value), oracle.insert(key, value));
            } else {
                assert_eq!(list.get(&key), oracle.get(&key).copied());
            }
        }
        list.validate().unwrap();
        assert_eq!(list.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    /// Counts the events of each kind, in trait order.
    #[derive(Default)]
    struct Counting([std::cell::Cell<u64>; 5]);

    impl Counting {
        fn bump(&self, kind: usize) {
            self.0[kind].set(self.0[kind].get() + 1);
        }
    }

    impl Tracer for Counting {
        fn node_allocated(&self, _: usize, _: usize) {
            self.bump(0);
        }
        fn header_peeked(&self, _: usize) {
            self.bump(1);
        }
        fn node_searched(&self, _: usize, _: usize) {
            self.bump(2);
        }
        fn slots_read(&self, _: usize, _: usize, _: usize) {
            self.bump(3);
        }
        fn slots_written(&self, _: usize, _: usize, _: usize) {
            self.bump(4);
        }
    }

    /// One operation stream — forced heights with an overflow, a spill and
    /// promotion splits, overwrites, gets and ranges — applied to
    /// `list`; returns everything observable about the run.
    #[allow(clippy::type_complexity)]
    fn observe<const B: usize, T: Tracer>(
        list: &mut SeqBSkipList<u64, u64, B, T>,
    ) -> (Vec<Option<u64>>, Vec<(u64, u64)>, Vec<usize>) {
        let b = B as u64;
        let mut results = Vec::new();
        // `B` ascending height-0 keys fill the head leaf; one more
        // overflows it, leaving the lower half behind.
        for key in 0..b {
            results.push(list.insert_with_height(100 + key * 10, key, 0));
        }
        assert_eq!(list.nodes_per_level(), [1, 1, 1, 1]);
        results.push(list.insert_with_height(100 + b * 10, b, 0));
        assert_eq!(list.nodes_per_level(), [2, 1, 1, 1], "overflow split");
        // Refill the head leaf to exactly `B` keys, then promote a key
        // smaller than all of them: the `B` keys behind it do not fit into
        // the pre-allocated node next to it, so one extra node takes the
        // tail.
        for key in 0..b - b / 2 {
            results.push(list.insert_with_height(101 + key * 10, key, 0));
        }
        assert_eq!(list.nodes_per_level(), [2, 1, 1, 1]);
        results.push(list.insert_with_height(5, 55, 2));
        assert_eq!(list.nodes_per_level(), [4, 2, 1, 1], "spill split");
        // Scattered keys of every height: promotion splits at all levels.
        let mut heights = HeightSampler::new(2, 4, 99);
        for i in 0..100 * b {
            let key = 100 + (i * 2654435761) % (1_000 * b);
            results.push(list.insert_with_height(key, i, heights.sample()));
        }
        for i in 0..300u64 {
            let key = 100 + (i * 40503) % (1_000 * b);
            results.push(list.insert(key, i)); // overwrites and fresh keys
            results.push(list.get(&(key + i % 2)));
            let mut seen = Vec::new();
            let visited = list.range(&key, 1 + (i as usize % (3 * B)), &mut |k, v| {
                seen.push(Some(*k ^ *v));
            });
            assert_eq!(visited, seen.len());
            results.extend(seen);
        }
        list.validate().unwrap();
        (results, list.to_vec(), list.nodes_per_level())
    }

    fn tracer_is_observational<const B: usize>() {
        let config = BSkipConfig::default().with_max_height(4);
        let mut plain: SeqBSkipList<u64, u64, B> = SeqBSkipList::with_config_and_seed(config, 9);
        let mut traced: SeqBSkipList<u64, u64, B, Counting> =
            SeqBSkipList::with_tracer(config, 9, Counting::default());
        assert_eq!(observe(&mut plain), observe(&mut traced));
        let nodes: usize = traced.nodes_per_level().iter().sum();
        // The tracer saw events of every kind.
        let counts = traced.tracer().0.each_ref().map(std::cell::Cell::get);
        assert!(counts.iter().all(|&count| count > 0), "{counts:?}");
        assert!(counts[0] >= nodes as u64, "every node was announced");
    }

    #[test]
    fn tracing_changes_nothing_and_sees_every_kind_of_event() {
        tracer_is_observational::<4>();
        tracer_is_observational::<8>();
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
        // The default tracer adds no bytes to the list either.
        assert_eq!(
            std::mem::size_of::<SeqBSkipList<u64, u64>>(),
            std::mem::size_of::<SeqBSkipList<u64, u64, 128, Counting>>()
                - std::mem::size_of::<Counting>()
        );
    }

    #[test]
    fn nodes_per_level_shrinks_upward() {
        let mut list: SeqBSkipList<u64, u64, 16> =
            SeqBSkipList::with_config_and_seed(BSkipConfig::default().with_max_height(5), 3);
        for key in 0..20_000u64 {
            list.insert(key, key);
        }
        let counts = list.nodes_per_level();
        assert!(counts[0] > counts[1]);
        assert!(counts[1] >= counts[2]);
        list.validate().unwrap();
    }

    #[test]
    fn matches_concurrent_list_structure() {
        // Drive the sequential and concurrent implementations with the same
        // keys and heights; their contents and their node counts per level
        // (head sentinels included on both sides) must agree exactly.
        let mut seq: SeqBSkipList<u64, u64, 8> =
            SeqBSkipList::with_config_and_seed(BSkipConfig::default().with_max_height(4), 5);
        let conc: crate::BSkipList<u64, u64, 8> =
            crate::BSkipList::with_config(BSkipConfig::default().with_max_height(4));
        let mut sampler = HeightSampler::new(8, 4, 1234);
        for i in 0..5000u64 {
            let key = (i * 2654435761) % 100_000;
            let height = sampler.sample();
            seq.insert_with_height(key, i, height);
            conc.insert_with_height(key, i, height);
        }
        assert_eq!(seq.to_vec(), conc.to_vec());
        let conc_nodes: Vec<usize> = conc.level_shape().iter().map(|&(nodes, _)| nodes).collect();
        assert_eq!(seq.nodes_per_level(), conc_nodes);
        seq.validate().unwrap();
        conc.validate().unwrap();
    }
}
