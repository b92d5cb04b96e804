//! Top-down single-pass insertion (paper Section 3 + Algorithm 1) and the
//! corresponding top-down concurrency-control scheme (Section 4).
//!
//! An insertion goes **leaf first, height second**:
//!
//! 1. Reach the covering leaf through the optimistic descent and lock it —
//!    the first lock taken (`leaf.rs`, `lock_covering`).  A present key
//!    has its value replaced there and the insertion is over: no height is
//!    drawn, no node allocated, the structure is untouched.
//! 2. An absent key draws its promotion height `h` *now*.  With `h = 0`
//!    the key is written into the held leaf — through the pass below,
//!    entered at `(level 0, this leaf)`, if the leaf is full and has to be
//!    split in half first (an *overflow split*).
//! 3. With `h > 0` the leaf is released, the `h` new nodes the insertion
//!    will create are pre-allocated (one per level `h-1..0`), already
//!    containing the key (and the value at the leaf) and chained together
//!    through their first down pointer, and the node covering the key at
//!    level `h` is reached and locked the same optimistic way.  The new
//!    nodes are created *write-locked*: they are not yet reachable, so
//!    holding their locks costs nothing, and it guarantees that as soon as
//!    one of them becomes reachable (via a down pointer installed at the
//!    level above) any concurrent traversal blocks until this insert has
//!    finished populating and linking it.
//! 4. The **pass** (`Pin::insert_inner`) runs once from level `h`
//!    down to the leaf under write locks, hand-over-hand within and across
//!    levels, with nothing locked above `h`: at level `h` it writes the
//!    key into the node that contains its predecessor (overflow-splitting
//!    a full node first); at every level below `h` it performs a
//!    *promotion split* — the pre-allocated node becomes the right half of
//!    the predecessor's node, headed by the new key.
//!
//! A single pass suffices because the height is independent of the current
//! structure — the one property that distinguishes skiplists from B-trees;
//! drawing it only for keys that are actually inserted keeps the height
//! distribution of the stored keys exactly geometric, whatever the
//! overwrite history.

use bskip_index::trace::Tracer;
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::Racy;

use super::BSkipList;
use crate::guard::{NodeRef, Pin, WriteGuard};
use crate::node::{prefetch_node, Node, NodeSearch};

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> BSkipList<K, V, B, T> {
    /// Inserts `key → value` with an explicit promotion height instead of a
    /// randomly sampled one.  Returns the previous value if the key was
    /// already present — in which case only the value changes and `height`
    /// is **ignored**: a stored key keeps the tower it was inserted with.
    ///
    /// This is the deterministic entry point used by tests, benchmarks and
    /// structure-shape experiments; [`BSkipList::insert`] is the same call
    /// with the height drawn from the configured geometric distribution
    /// once the key is known to be absent.  Heights are clamped to
    /// `max_height - 1`.
    pub fn insert_with_height(&self, key: K, value: V, height: usize) -> Option<V> {
        self.insert_impl(key, value, Some(height.min(self.top_level())))
    }

    /// Pins the collector for [`Pin::insert_pinned`]; `height` is `None`
    /// to draw one.
    pub(super) fn insert_impl(&self, key: K, value: V, height: Option<usize>) -> Option<V> {
        // One pin for the whole operation: the descents need epoch
        // protection and the pass runs under the same pin.
        self.pin().insert_pinned(key, value, height)
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> Pin<'_, K, V, B, T> {
    /// The one point-insert entry, under this pin: leaf first, height
    /// second (steps 1–3 of the module docs).  `lock_covering` returns the
    /// covering leaf write-locked, which is the kernel's contract; the
    /// guard is dropped here or handed to the pass.  `height`, if given,
    /// is `<= top_level()`.
    pub(super) fn insert_pinned(&self, key: K, value: V, height: Option<usize>) -> Option<V> {
        let leaf = self.lock_covering(&key, 0);
        match self.upsert_in_leaf(&leaf, key, value, height) {
            Ok(previous) => {
                drop(leaf);
                if let Some(stats) = self.stats_enabled() {
                    stats.optimistic_writes.incr();
                }
                previous
            }
            // Overflow split: it touches only this leaf and the node it
            // allocates, so the pass starts right here.
            Err(0) => self.insert_inner(key, value, Vec::new(), leaf),
            Err(height) => {
                drop(leaf);
                self.insert_structural(key, value, height)
            }
        }
    }

    /// Inserts a key that the leaf kernel found absent and could not place
    /// leaf-locally, with the height already drawn for it: pre-allocates
    /// the key's tower (before any lock is taken), reaches the node
    /// covering the key at level `height <= top_level()` and runs the pass
    /// from there.  The key may have appeared since the kernel looked; the
    /// pass handles that.
    pub(super) fn insert_structural(&self, key: K, value: V, height: usize) -> Option<V> {
        // The nodes for levels `0 .. height`, pre-locked and chained
        // through their first child pointer.
        let mut prealloc: Vec<WriteGuard<'_, K, V, B>> = Vec::with_capacity(height);
        for level in 0..height {
            let node = self.alloc(level);
            match prealloc.last() {
                None => node.push_leaf(key, value, self.tracer()),
                Some(below) => node.push_internal(key, **below, self.tracer()),
            }
            prealloc.push(node);
        }
        let entry = self.lock_covering(&key, height);
        self.insert_inner(key, value, prealloc, entry)
    }

    /// The write-locked pass (step 4 of the module docs) for a key of
    /// promotion height `prealloc.len()`: from `entry` — the node covering
    /// `key` at that level — down to the leaf, linking in `prealloc[level]`
    /// at every level below.  `prealloc` is as built by
    /// [`Self::insert_structural`], and is consumed from the top down.
    pub(super) fn insert_inner<'p>(
        &'p self,
        key: K,
        value: V,
        mut prealloc: Vec<WriteGuard<'p, K, V, B>>,
        entry: WriteGuard<'p, K, V, B>,
    ) -> Option<V> {
        let height = prealloc.len();
        if let Some(stats) = self.stats_enabled() {
            stats.inserts.incr();
            stats.structural_writes.incr();
            if height == self.top_level() {
                stats.top_level_write_locks.incr();
            }
        }
        let mut level = height;
        let mut curr = entry;
        // Predecessor node retained (locked) below the entry level so that
        // a node emptied by a duplicate-key splice can be unlinked
        // immediately.
        let mut prev: Option<WriteGuard<'p, K, V, B>> = None;
        let mut existing_found = false;
        let mut old_value: Option<V> = None;

        loop {
            if let Some(stats) = self.stats_enabled() {
                stats.levels_visited.incr();
            }

            // ---- per-level processing ----
            // The node this level links in right after `curr` (pre-allocated
            // or split off) and a spill node: locked until the child is.
            let mut right: Option<WriteGuard<'p, K, V, B>> = None;
            let mut spill: Option<WriteGuard<'p, K, V, B>> = None;
            // `curr` was emptied by a duplicate-key splice and unlinked: it
            // is retired once its lock is dropped.
            let mut emptied = false;
            let mut descend_child: Option<NodeRef<'p, K, V, B>> = None;

            if !existing_found {
                let found = curr.search(&key, self.tracer());
                match found {
                    // The key was absent when the leaf kernel looked, so
                    // finding it means another thread inserted it since.
                    NodeSearch::Found(idx) => {
                        existing_found = true;
                        if level == height {
                            // We have not written anything yet: reuse the
                            // existing tower and just update the value at
                            // the leaf.
                            if level == 0 {
                                old_value = Some(curr.replace_value_at(idx, value, self.tracer()));
                            } else {
                                descend_child = self.child_at(*curr, idx);
                            }
                        } else {
                            // The level above now points at the
                            // pre-allocated node for this level (the other
                            // insertion's height was exactly this level).
                            // Make the key the header of that node,
                            // reusing its existing downward structure, and
                            // splice it in right after `curr`.
                            let pnode = prealloc.pop().expect("a node per level below");
                            if level == 0 {
                                curr.trace_payload(self.tracer(), idx..idx + 1);
                                old_value = Some(curr.value_at(idx));
                            } else {
                                descend_child = self.child_at(*curr, idx);
                                pnode.set_child_at(0, descend_child, self.tracer());
                            }
                            curr.move_suffix_to(idx + 1, &pnode, self.tracer());
                            curr.remove_at(idx, self.tracer());
                            pnode.set_next(curr.next());
                            curr.set_next(Some(*pnode));
                            if let Some(stats) = self.stats_enabled() {
                                stats.promotion_splits.incr();
                            }
                            if curr.is_empty() && !curr.is_head() {
                                prev.as_ref()
                                    .expect("emptied a non-head node without a locked predecessor")
                                    .set_next(Some(*pnode));
                                emptied = true;
                            }
                            right = Some(pnode);
                        }
                    }
                    NodeSearch::Pred(_) | NodeSearch::Before => {
                        let insert_pos = match found {
                            NodeSearch::Pred(idx) => idx + 1,
                            NodeSearch::Before => 0,
                            NodeSearch::Found(_) => unreachable!(),
                        };
                        if level == height {
                            // Plain insertion at the key's topmost level,
                            // preceded by an overflow split if the node is at
                            // capacity (Algorithm 1, lines 21–35).
                            let half = B / 2;
                            if curr.is_full() {
                                let new_node = self.alloc(level);
                                curr.move_suffix_to(half, &new_node, self.tracer());
                                new_node.set_next(curr.next());
                                curr.set_next(Some(*new_node));
                                self.note_nodes_linked(1);
                                if let Some(stats) = self.stats_enabled() {
                                    stats.overflow_splits.incr();
                                }
                                right = Some(new_node);
                            }
                            let (target, local_pos) = match &right {
                                Some(new_node) if insert_pos > half => {
                                    (new_node, insert_pos - half)
                                }
                                _ => (&curr, insert_pos),
                            };
                            // The node below is the last pre-allocated
                            // one, and there is one exactly when level > 0.
                            if let Some(below) = prealloc.last() {
                                target.insert_internal_at(local_pos, key, **below, self.tracer());
                                // Descend from the predecessor, which sits
                                // immediately to the left of the freshly
                                // inserted key.
                                descend_child = if local_pos == 0 {
                                    debug_assert!(target.is_head());
                                    target.head_child()
                                } else {
                                    self.child_at(**target, local_pos - 1)
                                };
                            } else {
                                target.insert_leaf_at(local_pos, key, value, self.tracer());
                            }
                        } else {
                            // Promotion split (Algorithm 1, lines 39–47): the
                            // pre-allocated node becomes the right half of
                            // `curr`, headed by the new key.
                            let pnode = prealloc.pop().expect("a node per level below");
                            let move_count = curr.len() - insert_pos;
                            if 1 + move_count > B {
                                // The moved run plus the key exceeds the fixed
                                // node size (only possible when the split
                                // lands at the very front of a full node):
                                // spill the tail into one extra node — an
                                // overflow split combined with the promotion
                                // split.
                                let new_spill = self.alloc(level);
                                let spill_from = insert_pos + (B - 1);
                                curr.move_suffix_to(spill_from, &new_spill, self.tracer());
                                curr.move_suffix_to(insert_pos, &pnode, self.tracer());
                                new_spill.set_next(curr.next());
                                pnode.set_next(Some(*new_spill));
                                curr.set_next(Some(*pnode));
                                spill = Some(new_spill);
                                self.note_nodes_linked(1);
                                if let Some(stats) = self.stats_enabled() {
                                    stats.overflow_splits.incr();
                                }
                            } else {
                                curr.move_suffix_to(insert_pos, &pnode, self.tracer());
                                pnode.set_next(curr.next());
                                curr.set_next(Some(*pnode));
                            }
                            right = Some(pnode);
                            if let Some(stats) = self.stats_enabled() {
                                stats.promotion_splits.incr();
                            }
                            if level > 0 {
                                descend_child = if insert_pos == 0 {
                                    debug_assert!(curr.is_head());
                                    curr.head_child()
                                } else {
                                    self.child_at(*curr, insert_pos - 1)
                                };
                            }
                        }
                    }
                }
            } else if level == 0 {
                // Reached the leaf after detecting that the key already
                // exists higher up: update its value in place.
                if let NodeSearch::Found(idx) = curr.search(&key, self.tracer()) {
                    if old_value.is_none() {
                        old_value = Some(curr.replace_value_at(idx, value, self.tracer()));
                    }
                }
                // Otherwise a concurrent remove raced this insert on the
                // same key; see the crate-level concurrency notes.
            } else {
                // Post-duplicate navigation: follow the down pointer of
                // the largest key not exceeding the search key.
                descend_child = Some(self.descend_pointer(*curr, &key));
            }

            // ---- descend or finish: hand-over-hand, the child is locked
            // before this level's locks are dropped ----
            debug_assert_eq!(descend_child.is_some(), level > 0);
            let child = descend_child.map(|child| {
                prefetch_node(child.as_ptr());
                child.lock()
            });
            drop((prev, right, spill));
            if emptied {
                self.defer_free(curr);
            } else {
                drop(curr);
            }
            let Some(child) = child else { break };
            level -= 1;
            // The entry node needs no walk (it covers the key); every level
            // below it does.
            (prev, curr) = self.walk_right_keeping_prev(child, &key);
        }

        // Pre-allocated nodes still here were never linked in (only
        // happens when the key turned out to exist); the rest were.
        self.note_nodes_linked(height - prealloc.len());
        for node in prealloc {
            // SAFETY: a pre-allocated node still in `prealloc` was never
            // reachable from any head — only from other unlinked
            // pre-allocations — so no other thread can hold a pointer to
            // it, and it is freed directly rather than retired.
            unsafe { Node::free(node) };
        }
        if old_value.is_none() {
            self.bump_len();
        }
        old_value
    }
}

#[cfg(test)]
mod tests {
    use crate::config::BSkipConfig;
    use crate::BSkipList;

    type List = BSkipList<u64, u64, 4>;

    fn list() -> List {
        List::with_config(BSkipConfig::default().with_max_height(4))
    }

    #[test]
    fn insert_with_explicit_heights_builds_correct_structure() {
        let list = list();
        // Heights chosen to exercise every level of a 4-level list.
        let plan = [
            (10u64, 0usize),
            (20, 1),
            (30, 0),
            (40, 2),
            (50, 0),
            (60, 3),
            (70, 1),
            (80, 0),
        ];
        for (key, height) in plan {
            assert_eq!(list.insert_with_height(key, key * 10, height), None);
        }
        for (key, _) in plan {
            assert_eq!(list.get(&key), Some(key * 10), "missing key {key}");
        }
        list.validate().expect("structure invariants violated");
        assert_eq!(list.len(), plan.len());
    }

    /// Everything an overwrite must leave alone: the shape of every level,
    /// the live node count, the key count and the retirement count.
    fn structure(list: &List) -> (Vec<(usize, usize)>, u64, usize, u64) {
        (
            list.level_shape(),
            list.live_nodes(),
            list.len(),
            list.reclamation().retired,
        )
    }

    #[test]
    fn promoted_insert_splits_existing_nodes() {
        let list = list();
        // Fill a few leaf nodes with non-promoted keys first.
        for key in 0..12u64 {
            list.insert_with_height(key, key, 0);
        }
        list.validate().expect("pre-split structure");
        // Now promote a key in the middle of an existing node.
        let leaves = list.level_shape()[0].0;
        list.insert_with_height(100, 100, 2);
        assert_eq!(list.level_shape()[0].0, leaves + 1, "promotion split");
        let before = structure(&list);
        list.insert_with_height(5, 500, 0); // 5 already exists -> update
        assert_eq!(list.get(&5), Some(500));
        // An existing key with a larger height: the value changes, the
        // height is ignored and the structure stays exactly as it was.
        assert_eq!(list.insert_with_height(6, 600, 2), Some(6));
        assert_eq!(list.get(&6), Some(600));
        assert_eq!(structure(&list), before);
        list.validate().expect("post-split structure");
        assert_eq!(list.len(), 13);
    }

    #[test]
    fn reinserting_with_larger_height_changes_values_only() {
        let list = list();
        for key in 0..32u64 {
            list.insert_with_height(key, key, 0);
        }
        let before = structure(&list);
        // Re-insert several existing keys with the maximum height; their
        // values must be updated and nothing else may move.
        for key in (0..32u64).step_by(5) {
            assert_eq!(list.insert_with_height(key, key + 1000, 3), Some(key));
        }
        assert_eq!(structure(&list), before, "an overwrite reshaped the list");
        for key in 0..32u64 {
            let expected = if key % 5 == 0 { key + 1000 } else { key };
            assert_eq!(list.get(&key), Some(expected), "key {key}");
        }
        list.validate().expect("structure after overwrites");
    }

    #[test]
    fn structural_pass_splices_a_key_that_appeared_since_the_leaf_check() {
        // The duplicate-splice branch of the pass handles one race: the
        // key was absent when the leaf kernel looked, a height was drawn,
        // and another thread inserted the key before the pass arrived.  It
        // cannot happen on one thread through the public entry, so drive
        // the pass directly with a key that is already there.
        let list = list();
        for key in 0..32u64 {
            list.insert_with_height(key, key, 0);
        }
        list.insert_with_height(40, 40, 1);
        let nodes = list.live_nodes();
        // Heights are below `max_height`.
        let pin = list.pin();
        // Interior key of a leaf, taller tower: spliced in as a header.
        assert_eq!(pin.insert_structural(9, 900, 3), Some(9));
        // Header of a non-head leaf (the overflow splits of a B = 4
        // build leave one every two keys): the splice empties that
        // leaf, which must be unlinked and retired.
        let retired = list.reclamation().retired;
        assert_eq!(pin.insert_structural(2, 200, 2), Some(2));
        assert_eq!(list.reclamation().retired, retired + 1);
        // Same height as the tower that is there: reused as it is.
        assert_eq!(pin.insert_structural(40, 400, 1), Some(40));
        // Shorter than the tower that is there: only the value moves.
        assert_eq!(pin.insert_structural(9, 901, 1), Some(900));
        drop(pin);
        list.validate().expect("structure after duplicate splices");
        assert_eq!(list.len(), 33);
        // Three new nodes for key 9 and two for key 2, one leaf retired;
        // the pre-allocations of the last two calls were freed unlinked.
        assert_eq!(list.live_nodes(), nodes + 5 - 1);
        for key in (0..32u64).chain([40]) {
            let expected = match key {
                2 => 200,
                9 => 901,
                40 => 400,
                other => other,
            };
            assert_eq!(list.get(&key), Some(expected), "key {key}");
        }
        crate::list::leaf::tests::assert_unlocked(&list);
    }

    #[test]
    fn overflow_splits_keep_fixed_size_nodes() {
        let list = list();
        // All keys at height 0 forces pure overflow splits at the leaf level
        // (B = 4, so every 4th insert into the same region splits).
        for key in 0..64u64 {
            list.insert_with_height(key * 2, key, 0);
        }
        list.validate().expect("overflow-split structure");
        let stats_list =
            BSkipList::<u64, u64, 4>::with_config(BSkipConfig::default().with_stats(true));
        for key in 0..64u64 {
            stats_list.insert_with_height(key, key, 0);
        }
        assert!(stats_list.stats().overflow_splits.get() > 0);
    }

    #[test]
    fn promotion_split_at_front_of_full_node_spills() {
        let list = list();
        // Build one full leaf node: keys 10, 11, 12, 13 (B = 4).
        for key in 10..14u64 {
            list.insert_with_height(key, key, 0);
        }
        // Insert a smaller, promoted key: the split lands at the very front
        // of the full head node at the leaf level, forcing the spill path.
        list.insert_with_height(1, 1, 2);
        for key in [1u64, 10, 11, 12, 13] {
            assert_eq!(list.get(&key), Some(key), "key {key}");
        }
        list.validate().expect("spill structure");
    }

    #[test]
    fn interleaved_heights_random_order() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut keys: Vec<u64> = (0..2000).collect();
        keys.shuffle(&mut rng);
        let list = list();
        for &key in &keys {
            let height = rng.gen_range(0..4);
            list.insert_with_height(key, key ^ 0xdead, height);
        }
        list.validate().expect("random structure");
        assert_eq!(list.len(), 2000);
        for &key in &keys {
            assert_eq!(list.get(&key), Some(key ^ 0xdead));
        }
        // Full scan is sorted and complete.
        let scanned = list.to_vec();
        assert_eq!(scanned.len(), 2000);
        assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn heights_are_clamped_to_max() {
        let list = list();
        list.insert_with_height(1, 1, 100);
        assert_eq!(list.get(&1), Some(1));
        list.validate().expect("clamped height structure");
    }
}
