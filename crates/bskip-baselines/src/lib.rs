//! Baseline concurrent indices, re-implemented from scratch.
//!
//! The paper's evaluation (Section 5) compares the B-skiplist against five
//! existing systems.  None of them is available as a Rust crate, so this
//! crate re-implements each comparison system's *algorithmic skeleton*:
//!
//! | Paper system | This crate | Design |
//! |---|---|---|
//! | Facebook Folly `ConcurrentSkipList` | [`LockFreeSkipList`] | one element per node, towers of atomic `next` pointers, CAS insertion |
//! | Java `ConcurrentSkipListMap` | [`LazySkipList`] | optimistic traversal + per-node locks with validation (Herlihy et al. style) |
//! | No Hot Spot skiplist (NHS) | [`NhsSkipList`] | lock-free bottom lane, background thread rebuilds the index lanes |
//! | tlx/BP-tree concurrent B+-tree (OBT) | [`OccBTree`] | reader-lock descent, writer-locked leaf, *retire to the root* with write locks on structural modification (classical OCC) |
//! | Masstree | [`MasstreeLite`] | an alias: `OccBTree` with 15-key nodes, the one trie layer Masstree is for 8-byte keys |
//!
//! Each one is a `new()` plus its [`bskip_index::ConcurrentIndex`] impl,
//! which holds the operations and exports every counter through
//! `stats()`, so the YCSB driver and every experiment binary treats them
//! uniformly.
//!
//! The goal is not to beat the original C++/Java systems on absolute
//! numbers but to preserve the *shape* of the comparison: unblocked
//! skiplists pay one cache line per element, the OCC B+-tree pays root
//! retries on splits, and so on.  The README's *Substitutions* section
//! records what stands in for what.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod btree_occ;
mod skiplist_lazy;
mod skiplist_lockfree;
mod skiplist_nhs;
mod tower;

pub use btree_occ::{MasstreeLite, OccBTree};
pub use skiplist_lazy::LazySkipList;
pub use skiplist_lockfree::LockFreeSkipList;
pub use skiplist_nhs::NhsSkipList;

#[cfg(test)]
mod cursor_contract_tests {
    //! Every baseline implements the cursor scan interface through a
    //! structure-aware batch-fetch primitive; these tests pin the shared
    //! contract (bounds, seek, exhaustion) for all five at once.

    use super::*;
    use bskip_index::ConcurrentIndex;

    fn indices() -> Vec<Box<dyn ConcurrentIndex<u64, u64>>> {
        vec![
            Box::new(LockFreeSkipList::new()),
            Box::new(LazySkipList::new()),
            Box::new(NhsSkipList::new()),
            Box::new(OccBTree::<u64, u64>::new()),
            Box::new(MasstreeLite::<u64, u64>::new()),
        ]
    }

    #[test]
    fn scan_respects_bounds_and_order() {
        for index in indices() {
            for key in (0..200u64).rev() {
                index.insert(key, key + 1);
            }
            let window: Vec<(u64, u64)> = index.scan(50..=60).collect();
            let expected: Vec<(u64, u64)> = (50..=60).map(|k| (k, k + 1)).collect();
            assert_eq!(window, expected, "{}", index.name());
            assert_eq!(index.scan(10..10).count(), 0, "{}", index.name());
            assert_eq!(index.scan(..).count(), 200, "{}", index.name());
            assert_eq!(index.scan(199..).count(), 1, "{}", index.name());
            assert_eq!(index.scan(200..).count(), 0, "{}", index.name());
        }
    }

    #[test]
    fn scans_skip_logically_removed_keys() {
        for index in indices() {
            for key in 0..32u64 {
                index.insert(key, key);
            }
            index.remove(&5);
            index.remove(&6);
            let keys: Vec<u64> = index.scan(4..=8).map(|(k, _)| k).collect();
            assert_eq!(keys, vec![4, 7, 8], "{}", index.name());
        }
    }

    #[test]
    fn batched_execute_agrees_with_point_ops_on_every_baseline() {
        use bskip_index::ops::{Op, OpResult};
        for index in indices() {
            for key in 0..64u64 {
                index.insert(key, key);
            }
            let mut batch = vec![
                Op::get(10),
                Op::insert(100, 1),
                Op::update(10, 11),
                Op::remove(20),
                Op::remove(500),
                Op::get(10),
                // Same-key sequence: slot order must be preserved.
                Op::insert(7, 70),
                Op::remove(7),
            ];
            index.execute(&mut batch);
            let name = index.name();
            assert_eq!(batch[0].result().value(), Some(10), "{name}");
            assert_eq!(*batch[1].result(), OpResult::Missing, "{name}");
            assert_eq!(batch[2].result().value(), Some(10), "{name}");
            assert_eq!(batch[3].result().value(), Some(20), "{name}");
            assert_eq!(*batch[4].result(), OpResult::Missing, "{name}");
            assert_eq!(batch[5].result().value(), Some(11), "{name}");
            assert_eq!(batch[6].result().value(), Some(7), "{name}");
            assert_eq!(batch[7].result().value(), Some(70), "{name}");
            assert_eq!(index.get(&10), Some(11), "{name}");
            assert!(!index.contains_key(&7), "{name}");
            assert!(!index.contains_key(&20), "{name}");
            assert!(index.contains_key(&100), "{name}");
        }
    }

    #[test]
    fn trait_level_range_flows_through_the_cursor_path() {
        for index in indices() {
            for key in 0..50u64 {
                index.insert(key, key * 2);
            }
            let mut seen = Vec::new();
            let visited = index.range(&40, 100, &mut |k, v| seen.push((*k, *v)));
            assert_eq!(visited, 10, "{}", index.name());
            assert_eq!(seen.first(), Some(&(40, 80)), "{}", index.name());
            assert_eq!(seen.last(), Some(&(49, 98)), "{}", index.name());
        }
    }
}
