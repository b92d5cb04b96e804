//! Property-based differential tests: the concurrent B-skiplist, the
//! sequential reference B-skiplist and `std::collections::BTreeMap` must
//! agree on arbitrary operation sequences, and the structural invariants
//! must hold after every sequence.

use std::collections::BTreeMap;

use proptest::prelude::*;

use bskip_suite::core::seq::SeqBSkipList;
use bskip_suite::{BSkipConfig, BSkipList, ConcurrentIndex};

/// A single dictionary operation drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Insert { key: u64, value: u64, height: usize },
    Remove { key: u64 },
    Get { key: u64 },
    Range { start: u64, len: usize },
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..key_space, any::<u64>(), 0usize..5).prop_map(|(key, value, height)| Op::Insert {
            key,
            value,
            height
        }),
        2 => (0..key_space).prop_map(|key| Op::Remove { key }),
        2 => (0..key_space).prop_map(|key| Op::Get { key }),
        1 => (0..key_space, 0usize..50).prop_map(|(start, len)| Op::Range { start, len }),
    ]
}

/// A dictionary operation against the durable LSM engine; `Pump` forces a
/// memtable rotation plus a full flush+compaction pass mid-sequence, so
/// the oracle comparison crosses every storage layer transition.
#[derive(Debug, Clone)]
enum LsmOp {
    Insert { key: u64, value: u64 },
    Remove { key: u64 },
    Get { key: u64 },
    Range { start: u64, len: usize },
    Pump,
}

fn lsm_op_strategy(key_space: u64) -> impl Strategy<Value = LsmOp> {
    prop_oneof![
        4 => (0..key_space, any::<u64>()).prop_map(|(key, value)| LsmOp::Insert { key, value }),
        2 => (0..key_space).prop_map(|key| LsmOp::Remove { key }),
        2 => (0..key_space).prop_map(|key| LsmOp::Get { key }),
        1 => (0..key_space, 0usize..50).prop_map(|(start, len)| LsmOp::Range { start, len }),
        1 => (0u64..1).prop_map(|_| LsmOp::Pump),
    ]
}

/// A unique scratch directory for one durable-engine test case.
fn lsm_scratch() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "bskip-proptest-lsm-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The concurrent B-skiplist behaves exactly like BTreeMap under any
    /// sequence of inserts, removes, gets and range scans (driven with
    /// explicit promotion heights so every structural path is exercised).
    #[test]
    fn bskiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(300), 1..400)) {
        let list: BSkipList<u64, u64, 4> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(4));
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert { key, value, height } => {
                    prop_assert_eq!(list.insert_with_height(key, value, height), oracle.insert(key, value));
                }
                Op::Remove { key } => {
                    prop_assert_eq!(list.remove(&key), oracle.remove(&key));
                }
                Op::Get { key } => {
                    prop_assert_eq!(list.get(&key), oracle.get(&key).copied());
                }
                Op::Range { start, len } => {
                    let mut got = Vec::new();
                    list.range(&start, len, &mut |k, v| got.push((*k, *v)));
                    let expected: Vec<(u64, u64)> =
                        oracle.range(start..).take(len).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, expected);
                }
            }
        }
        list.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(list.len(), oracle.len());
        let collected: Vec<(u64, u64)> = list.to_vec();
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        prop_assert_eq!(collected, expected);
    }

    /// The sequential reference implementation and the concurrent
    /// implementation build identical contents when driven with the same
    /// keys and the same promotion heights.
    #[test]
    fn sequential_and_concurrent_structures_agree(
        inserts in proptest::collection::vec((0u64..500, any::<u64>(), 0usize..4), 1..300)
    ) {
        let seq_list: &mut SeqBSkipList<u64, u64, 8> = &mut SeqBSkipList::with_config_and_seed(
            BSkipConfig::default().with_max_height(4), 9,
        );
        let conc_list: BSkipList<u64, u64, 8> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(4));
        for (key, value, height) in &inserts {
            seq_list.insert_with_height(*key, *value, *height);
            conc_list.insert_with_height(*key, *value, *height);
        }
        seq_list.validate().map_err(TestCaseError::fail)?;
        conc_list.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(seq_list.to_vec(), conc_list.to_vec());
        prop_assert_eq!(seq_list.len(), conc_list.len());
        let conc_nodes: Vec<usize> =
            conc_list.level_shape().iter().map(|&(nodes, _)| nodes).collect();
        prop_assert_eq!(seq_list.nodes_per_level(), conc_nodes);
    }

    /// Range scans always return sorted, deduplicated keys bounded by the
    /// requested length, from any start point.
    #[test]
    fn range_scans_are_sorted_and_bounded(
        keys in proptest::collection::btree_set(0u64..10_000, 0..500),
        start in 0u64..12_000,
        len in 0usize..200,
    ) {
        let list: BSkipList<u64, u64, 16> = BSkipList::new();
        for &key in &keys {
            list.insert(key, key);
        }
        let mut scanned = Vec::new();
        let visited = list.range(&start, len, &mut |k, _| scanned.push(*k));
        prop_assert_eq!(visited, scanned.len());
        prop_assert!(scanned.len() <= len);
        prop_assert!(scanned.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(scanned.iter().all(|k| *k >= start && keys.contains(k)));
        let expected_count = keys.range(start..).take(len).count();
        prop_assert_eq!(scanned.len(), expected_count);
    }

    /// Cursor differential: on every `ConcurrentIndex` implementation —
    /// the six in-memory indices, the durable LSM engine, and the sharded
    /// front-end (hash-partitioned with a K-way merging cursor) —
    /// `scan_bounds` must agree with `BTreeMap::range` for arbitrary
    /// bounded ranges (half-open and inclusive), empty ranges, full scans,
    /// trait-level `range` calls, and cursors opened at any key, past the
    /// end of the data included.
    /// The LSM engine runs with a tiny memtable and is pumped mid-load, so
    /// its cursors merge memtable, immutables and SSTables; the sharded
    /// ranges cross shard boundaries (hashed keys interleave
    /// across shards).
    #[test]
    fn cursors_match_btreemap_range_on_all_implementations(
        pairs in proptest::collection::vec((0u64..600, any::<u64>()), 0..250),
        lo in 0u64..700,
        span in 0u64..300,
        from in 0u64..900,
    ) {
        use std::ops::Bound;
        use bskip_suite::{
            ConcurrentIndex, LazySkipList, LockFreeSkipList, LsmConfig, LsmEngine, MasstreeLite,
            NhsSkipList, OccBTree, ShardedIndex,
        };

        let bskip: BSkipList<u64, u64, 8> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(4));
        let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        let lazy: LazySkipList<u64, u64> = LazySkipList::new();
        let nhs: NhsSkipList<u64, u64> = NhsSkipList::new();
        let btree: OccBTree<u64, u64, 8> = OccBTree::new();
        let masstree: MasstreeLite<u64, u64> = MasstreeLite::new();
        let lsm_dir = lsm_scratch();
        let lsm: LsmEngine<u64, u64> =
            LsmEngine::open(&lsm_dir, LsmConfig::small()).expect("open LSM engine");
        let sharded: ShardedIndex<u64, u64, BSkipList<u64, u64, 8>> =
            ShardedIndex::hash(4, |_| {
                BSkipList::with_config(BSkipConfig::default().with_max_height(4))
            });
        let indices: Vec<&dyn ConcurrentIndex<u64, u64>> =
            vec![&bskip, &lockfree, &lazy, &nhs, &btree, &masstree, &lsm, &sharded];
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for (at, (key, value)) in pairs.iter().enumerate() {
            oracle.insert(*key, *value);
            for index in &indices {
                index.insert(*key, *value);
            }
            if at == pairs.len() / 2 {
                // Seal the engine's first half into SSTables so the scans
                // below cross the memtable/table boundary.
                lsm.rotate().expect("rotate LSM memtable");
                lsm.maintain().expect("flush+compact LSM backlog");
            }
        }
        let hi = lo.saturating_add(span);

        for index in &indices {
            // Half-open [lo, hi) — empty whenever span == 0.
            let got: Vec<(u64, u64)> = index
                .scan_bounds(Bound::Included(lo), Bound::Excluded(hi))
                .collect();
            let expected: Vec<(u64, u64)> =
                oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expected, "{} half-open", index.name());

            // Inclusive [lo, hi].
            let got: Vec<(u64, u64)> = index
                .scan_bounds(Bound::Included(lo), Bound::Included(hi))
                .collect();
            let expected: Vec<(u64, u64)> =
                oracle.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expected, "{} inclusive", index.name());

            // Open on both sides.
            let got: Vec<(u64, u64)> = index
                .scan_bounds(Bound::Excluded(lo), Bound::Unbounded)
                .collect();
            let expected: Vec<(u64, u64)> = oracle
                .range((Bound::Excluded(lo), Bound::Unbounded))
                .map(|(k, v)| (*k, *v))
                .collect();
            prop_assert_eq!(got, expected, "{} excluded-lo", index.name());

            // Full scan equals the oracle's full contents.
            let got: Vec<(u64, u64)> = index
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect();
            let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expected, "{} full", index.name());

            // The trait-level `range` shim must keep the paper's semantics
            // now that it is expressed over cursors.
            let mut via_shim = Vec::new();
            let visited = index.range(&lo, 40, &mut |k, v| via_shim.push((*k, *v)));
            let expected: Vec<(u64, u64)> =
                oracle.range(lo..).take(40).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(visited, expected.len(), "{} shim count", index.name());
            prop_assert_eq!(via_shim, expected, "{} shim entries", index.name());

            // A cursor opened at any key agrees with the oracle, including
            // one opened past the end.
            let mut cursor = index.scan(from..);
            let mut expected = oracle.range(from..).map(|(k, v)| (*k, *v));
            prop_assert_eq!(cursor.next(), expected.next(), "{} first", index.name());
            prop_assert_eq!(cursor.next(), expected.next(), "{} second", index.name());
        }
        drop(indices);
        drop(lsm);
        let _ = std::fs::remove_dir_all(&lsm_dir);
    }

    /// The durable LSM engine behaves exactly like `BTreeMap` under any
    /// sequence of inserts, removes, gets and range scans, with forced
    /// rotation+flush+compaction transitions (`Pump`) interleaved at
    /// arbitrary points — and a reopen at the end recovers the exact same
    /// contents from WAL + manifest.
    #[test]
    fn lsm_engine_matches_btreemap_across_rotation_flush_compaction(
        ops in proptest::collection::vec(lsm_op_strategy(300), 1..300),
    ) {
        use std::ops::Bound;
        use bskip_suite::{ConcurrentIndex, LsmConfig, LsmEngine};

        let dir = lsm_scratch();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let engine: LsmEngine<u64, u64> =
                LsmEngine::open(&dir, LsmConfig::small()).expect("open LSM engine");
            for op in &ops {
                match *op {
                    LsmOp::Insert { key, value } => {
                        prop_assert_eq!(engine.insert(key, value), oracle.insert(key, value));
                    }
                    LsmOp::Remove { key } => {
                        prop_assert_eq!(engine.remove(&key), oracle.remove(&key));
                    }
                    LsmOp::Get { key } => {
                        prop_assert_eq!(engine.get(&key), oracle.get(&key).copied());
                    }
                    LsmOp::Range { start, len } => {
                        let mut got = Vec::new();
                        engine.range(&start, len, &mut |k, v| got.push((*k, *v)));
                        let expected: Vec<(u64, u64)> =
                            oracle.range(start..).take(len).map(|(k, v)| (*k, *v)).collect();
                        prop_assert_eq!(got, expected);
                    }
                    LsmOp::Pump => {
                        engine.rotate().expect("rotate memtable");
                        engine.maintain().expect("flush and compact");
                    }
                }
            }
            prop_assert_eq!(engine.len(), oracle.len());
            let collected: Vec<(u64, u64)> = engine
                .scan_bounds(Bound::Unbounded, Bound::Unbounded)
                .collect();
            let expected: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(collected, expected);
        }

        // Reopen: WAL replay + manifest load reproduce the exact contents.
        let reopened: LsmEngine<u64, u64> =
            LsmEngine::open(&dir, LsmConfig::small()).expect("reopen LSM engine");
        prop_assert_eq!(reopened.len(), oracle.len());
        let collected: Vec<(u64, u64)> = reopened
            .scan_bounds(Bound::Unbounded, Bound::Unbounded)
            .collect();
        let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
        prop_assert_eq!(collected, expected);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Positioning differential for the sharded front-end: its K-way
    /// merging cursor, opened at an arbitrary key inside or outside a
    /// window, must start where a single index would and continue across
    /// shard boundaries.
    #[test]
    fn sharded_cursors_match_btreemap_from_any_bound(
        keys in proptest::collection::btree_set(0u64..2_000, 0..300),
        lo in 0u64..2_200,
        span in 0u64..800,
        from in 0u64..2_400,
    ) {
        use bskip_suite::{ConcurrentIndex, ShardedIndex};

        let sharded: ShardedIndex<u64, u64, BSkipList<u64, u64, 8>> =
            ShardedIndex::hash(4, |_| BSkipList::new());
        for &key in &keys {
            sharded.insert(key, key ^ 0xF0F0);
        }
        let hi = lo.saturating_add(span);
        let from = from.max(lo);
        let mut cursor = sharded.scan_bounds(
            std::ops::Bound::Included(from),
            std::ops::Bound::Included(hi),
        );
        let mut expected = keys
            .range(from..)
            .take_while(|k| **k <= hi)
            .map(|k| (*k, *k ^ 0xF0F0));
        prop_assert_eq!(cursor.next(), expected.next(), "first");
        prop_assert_eq!(cursor.next(), expected.next(), "second");
    }

    /// The baselines also agree with BTreeMap on insert/get/range sequences
    /// (no removes for the logically-deleting skiplists to keep the oracle
    /// comparison exact).
    #[test]
    fn baselines_match_btreemap_on_upserts(
        pairs in proptest::collection::vec((0u64..400, any::<u64>()), 1..300),
        probe in 0u64..400,
    ) {
        use bskip_suite::{ConcurrentIndex, LazySkipList, LockFreeSkipList, OccBTree};
        let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        let lazy: LazySkipList<u64, u64> = LazySkipList::new();
        let btree: OccBTree<u64, u64, 8> = OccBTree::new();
        let mut oracle = BTreeMap::new();
        for (key, value) in &pairs {
            prop_assert_eq!(lockfree.insert(*key, *value), oracle.insert(*key, *value));
            lazy.insert(*key, *value);
            btree.insert(*key, *value);
        }
        prop_assert_eq!(lockfree.get(&probe), oracle.get(&probe).copied());
        prop_assert_eq!(lazy.get(&probe), oracle.get(&probe).copied());
        prop_assert_eq!(ConcurrentIndex::get(&btree, &probe), oracle.get(&probe).copied());
        let mut from_btree = Vec::new();
        btree.range(&probe, 30, &mut |k, v| from_btree.push((*k, *v)));
        let expected: Vec<(u64, u64)> = oracle.range(probe..).take(30).map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(from_btree, expected);
    }
}
