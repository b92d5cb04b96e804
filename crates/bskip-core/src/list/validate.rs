//! Structural invariant checking.
//!
//! [`BSkipList::validate`] walks the whole structure and verifies the
//! invariants the paper's correctness argument relies on:
//!
//! 1. every level is strictly sorted, within and across nodes;
//! 2. non-head nodes are never empty and never exceed the fixed capacity;
//! 3. every internal entry's down pointer leads to a non-head node one
//!    level below whose header equals the entry's key (so a key present at
//!    level `ℓ + 1` heads its own node at level `ℓ` — what the removal
//!    pass reads a stored key's height from);
//! 4. the head spine is linked level by level;
//! 5. the inclusion invariant: every key present at level `ℓ > 0` is also
//!    present at level `ℓ - 1`;
//! 6. the leaf level holds exactly `len()` keys.
//!
//! The walk takes hand-over-hand read locks, so it can run against a live
//! list, but the cross-level checks are only meaningful when no writers are
//! active (tests call it at quiescence).

use std::collections::BTreeSet;

use bskip_index::trace::Tracer;
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::Racy;

use super::BSkipList;
use crate::guard::{NodeRef, Pin, ReadGuard};

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> BSkipList<K, V, B, T> {
    /// Checks every structural invariant, returning a description of the
    /// first violation found.
    ///
    /// Intended for tests and debugging; the full walk is `O(n)` per level.
    pub fn validate(&self) -> Result<(), String> {
        let pin = self.pin();
        let mut keys_below: Option<BTreeSet<K>> = None;
        // Walk levels bottom-up so the inclusion check always has the level
        // below available.
        for level in 0..self.max_height() {
            let level_keys = pin.validate_level(level)?;
            if level > 0 {
                let below = keys_below.as_ref().expect("level below was validated");
                for key in &level_keys {
                    if !below.contains(key) {
                        return Err(format!(
                            "inclusion violation: key {key:?} present at level {level} \
                             but missing from level {}",
                            level - 1
                        ));
                    }
                }
            } else if level_keys.len() != self.len() {
                return Err(format!(
                    "leaf level holds {} keys but len() reports {}",
                    level_keys.len(),
                    self.len()
                ));
            }
            keys_below = Some(level_keys);
        }
        Ok(())
    }

    /// The shape of the structure: `(nodes, keys)` per level, index 0 the
    /// leaf level, head sentinels included in the node counts.  The key
    /// count of level `l` is the number of stored keys whose tower reaches
    /// `l`, so the sequence is the realised promotion-height distribution.
    ///
    /// Walks every level under hand-over-hand read locks (`O(nodes)`);
    /// like [`BSkipList::validate`] it may run against a live list but is
    /// only exact at quiescence.
    pub fn level_shape(&self) -> Vec<(usize, usize)> {
        let pin = self.pin();
        (0..self.max_height())
            .map(|level| {
                let (mut nodes, mut keys) = (0, 0);
                let mut curr: ReadGuard<'_, K, V, B> = pin.head(level).lock();
                loop {
                    nodes += 1;
                    keys += curr.len();
                    let Some(next) = curr.next() else { break };
                    curr = next.lock();
                }
                (nodes, keys)
            })
            .collect()
    }
}

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> Pin<'_, K, V, B, T> {
    /// Validates a single level and returns the set of keys stored in it.
    /// The walk is hand-over-hand under read locks; child headers are read
    /// under the child's own read lock while the parent is held.
    fn validate_level(&self, level: usize) -> Result<BTreeSet<K>, String> {
        let mut keys = BTreeSet::new();
        let mut last_key: Option<K> = None;
        let mut curr: ReadGuard<'_, K, V, B> = self.head(level).lock();
        let mut is_first = true;
        loop {
            if curr.is_head() != is_first {
                return Err(format!(
                    "level {level}: node at position {} has is_head={} ",
                    keys.len(),
                    curr.is_head()
                ));
            }
            if !curr.is_head() && curr.is_empty() {
                return Err(format!("level {level}: empty non-head node"));
            }
            if curr.len() > B {
                return Err(format!("level {level}: node exceeds capacity"));
            }
            if level > 0 && curr.is_head() {
                let expected = self.head(level - 1).as_ptr();
                if curr.head_child().map(NodeRef::as_ptr) != Some(expected) {
                    return Err(format!(
                        "level {level}: head node's -infinity child does not point \
                         to the head of level {}",
                        level - 1
                    ));
                }
            }
            for index in 0..curr.len() {
                let key = curr.key_at(index);
                if let Some(previous) = last_key {
                    if previous >= key {
                        return Err(format!(
                            "level {level}: keys out of order ({previous:?} before {key:?})"
                        ));
                    }
                }
                last_key = Some(key);
                keys.insert(key);
                if level > 0 {
                    let Some(child) = curr.child_at(index) else {
                        return Err(format!("level {level}: null child for key {key:?}"));
                    };
                    let child: ReadGuard<'_, K, V, B> = child.lock();
                    let child_level = child.level();
                    let child_header = (!child.is_empty()).then(|| child.header());
                    if child_level as usize != level - 1 {
                        return Err(format!(
                            "level {level}: child of {key:?} is at level {child_level}"
                        ));
                    }
                    if child_header != Some(key) {
                        return Err(format!(
                            "level {level}: child of {key:?} has header {child_header:?}"
                        ));
                    }
                    if child.is_head() {
                        return Err(format!("level {level}: child of {key:?} is a head node"));
                    }
                }
            }
            let Some(next) = curr.next() else { break };
            curr = next.lock();
            is_first = false;
        }
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use bskip_index::trace::NoTrace;

    use crate::config::BSkipConfig;
    use crate::guard::WriteGuard;
    use crate::list::leaf::tests::assert_unlocked;
    use crate::BSkipList;

    #[test]
    fn empty_list_is_valid() {
        let list: BSkipList<u64, u64, 4> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(3));
        list.validate().expect("empty list must be valid");
    }

    #[test]
    fn randomly_built_lists_are_valid() {
        for seed in 0..5u64 {
            crate::height::reseed_thread_rng(seed);
            let list: BSkipList<u64, u64, 8> =
                BSkipList::with_config(BSkipConfig::default().with_max_height(5));
            for key in 0..3000u64 {
                list.insert(key.wrapping_mul(0x9E3779B97F4A7C15), key);
            }
            list.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn validation_rejects_a_down_pointer_to_a_head_node() {
        // The head leaf holds 10 as its first key, and a level-1 entry for
        // 10 points at it: sorted, included, the child's header matches —
        // everything the other checks ask — but 10 does not head a node of
        // its own, which is what the removal pass's entry rule relies on.
        let list: BSkipList<u64, u64, 4> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(3));
        list.insert_with_height(10, 100, 0);
        list.validate().expect("healthy before the corruption");
        let pin = list.pin();
        let head: WriteGuard<'_, u64, u64, 4> = pin.head(1).lock();
        head.insert_internal_at(0, 10, pin.head(0), &NoTrace);
        drop(head);
        let error = list.validate().expect_err("head-targeting down pointer");
        assert!(error.contains("is a head node"), "{error}");
        assert_unlocked(&list);
        // Undo it, so that dropping the list frees every node once.
        let head: WriteGuard<'_, u64, u64, 4> = pin.head(1).lock();
        head.remove_at(0, &NoTrace);
        drop(head);
        list.validate().expect("healthy again");
    }

    #[test]
    fn validation_detects_length_mismatch() {
        // White-box check of invariant 6: build a healthy list, then lie
        // about its length through the private counter.
        let list: BSkipList<u64, u64, 4> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(3));
        list.insert(1, 1);
        list.validate().expect("consistent before the lie");
        list.bump_len();
        let error = list.validate().expect_err("one key held, two reported");
        assert!(error.contains("len() reports"), "{error}");
        list.drop_len();
        list.validate().expect("consistent again");
    }
}
