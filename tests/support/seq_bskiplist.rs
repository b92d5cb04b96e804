//! A safe, single-threaded reference B-skiplist: test-only support for
//! `sequential_and_concurrent_structures_agree`.
//!
//! [`SeqBSkipList`] implements the same logical structure and the same
//! top-down single-pass insertion algorithm as the concurrent
//! `BSkipList`, with index-based nodes in a plain `Vec` arena and no
//! locking or `unsafe` code.  Driven with the same keys and the same
//! promotion heights, the two must build the same list node for node:
//! a second implementation of the algorithm of Section 3 to check the
//! shipped one against.  It inserts only; it has no lookup, scan or
//! removal, and draws no heights.

use bskip_suite::BSkipConfig;

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
#[derive(Debug, Clone)]
pub struct SeqBSkipList<K, V, const B: usize> {
    arena: Vec<SeqNode<K, V>>,
    /// Head node of every level, bottom (index 0) to top.
    heads: Vec<NodeId>,
    max_height: usize,
    len: usize,
}

impl<K: Copy + Ord + std::fmt::Debug, V: Copy, const B: usize> SeqBSkipList<K, V, B> {
    /// Creates an empty list with `config`'s number of levels.
    pub fn with_config(config: BSkipConfig) -> Self {
        config.validate().expect("valid BSkipConfig");
        assert!(B >= 2, "node capacity B must be at least 2");
        let mut arena = Vec::new();
        let mut heads = Vec::with_capacity(config.max_height);
        for level in 0..config.max_height {
            let mut node = SeqNode::new(level, true);
            if level > 0 {
                node.head_child = heads[level - 1];
            }
            heads.push(arena.len());
            arena.push(node);
        }
        SeqBSkipList {
            arena,
            heads,
            max_height: config.max_height,
            len: 0,
        }
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of nodes per level, head sentinels included (index 0 is the
    /// leaf level).
    pub fn nodes_per_level(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.max_height];
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
        self.arena.push(SeqNode::new(level, false));
        self.arena.len() - 1
    }

    /// Moves right from `node` while the successor's header is `<= key`.
    fn walk_right(&self, mut node: NodeId, key: &K) -> NodeId {
        loop {
            let next = self.node(node).next;
            if next == NIL || self.node(next).keys[0] > *key {
                return node;
            }
            node = next;
        }
    }

    /// The child to descend into from `node` when searching for `key`.
    fn descend(&self, node: NodeId, key: &K) -> NodeId {
        let n = self.node(node);
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
        let mut level = self.max_height - 1;
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

    /// Collects the entire contents in key order.
    pub fn to_vec(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len);
        let mut node = self.heads[0];
        while node != NIL {
            let n = self.node(node);
            out.extend(n.keys.iter().copied().zip(n.values.iter().copied()));
            node = n.next;
        }
        out
    }

    /// Inserts with an explicit promotion height (clamped to the maximum),
    /// returning the previous value if the key existed; on a present key
    /// only the value changes and `height` is ignored.  Leaf first, height
    /// second, like the concurrent list.
    pub fn insert_with_height(&mut self, key: K, value: V, height: usize) -> Option<V> {
        let leaf = self.covering_leaf(&key);
        if let Ok(index) = self.node(leaf).keys.binary_search(&key) {
            return Some(std::mem::replace(
                &mut self.node_mut(leaf).values[index],
                value,
            ));
        }
        self.insert_absent(key, value, height.min(self.max_height - 1));
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
            prealloc.push(leaf);
            for level in 1..height {
                let internal = self.alloc(level);
                self.node_mut(internal).keys.push(key);
                let child = prealloc[level - 1];
                self.node_mut(internal).children.push(child);
                prealloc.push(internal);
            }
        }

        let mut level = self.max_height - 1;
        let mut node = self.heads[level];
        loop {
            node = self.walk_right(node, &key);
            let descend_child = if level > height {
                self.descend(node, &key)
            } else {
                let insert_pos = self
                    .node(node)
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
        let keys = self.node_mut(src).keys.split_off(from);
        self.node_mut(dst).keys.extend(keys);
        if self.node(src).level == 0 {
            let values = self.node_mut(src).values.split_off(from);
            self.node_mut(dst).values.extend(values);
        } else {
            let children = self.node_mut(src).children.split_off(from);
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
        for level in 0..self.max_height {
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
                    if last.is_some_and(|previous| previous >= key) {
                        return Err(format!("level {level}: keys out of order"));
                    }
                    last = Some(key);
                    keys.insert(key);
                    if level > 0 {
                        let child = self.node(n.children[slot]);
                        if child.level != level - 1 {
                            return Err(format!("level {level}: child at wrong level"));
                        }
                        if child.keys.first() != Some(&key) {
                            return Err(format!(
                                "level {level}: child header mismatch for {key:?}"
                            ));
                        }
                    }
                }
                node = n.next;
                first = false;
            }
            if let Some(below_keys) = &below {
                if let Some(key) = keys.iter().find(|key| !below_keys.contains(key)) {
                    return Err(format!("inclusion violation at level {level} for {key:?}"));
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
