//! Workspace-level tests of the batched `execute` API: differential
//! proptests driving random `Op` batches through every index against a
//! sequential `BTreeMap` oracle, plus a multi-threaded batch/point
//! interleaving consistency test.

use std::collections::BTreeMap;

use proptest::prelude::*;

use bskip_suite::{
    BSkipConfig, BSkipList, ConcurrentIndex, LazySkipList, LockFreeSkipList, MasstreeLite,
    NhsSkipList, OccBTree, Op, ShardedIndex,
};

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op<u64, u64>> {
    prop_oneof![
        2 => (0..key_space).prop_map(Op::get),
        5 => (0..key_space, any::<u64>()).prop_map(|(key, value)| Op::insert(key, value)),
        2 => (0..key_space).prop_map(Op::remove),
    ]
}

/// Applies `ops` to the oracle sequentially, in slot order, filling in the
/// results `execute` must produce.
fn oracle_apply(oracle: &mut BTreeMap<u64, u64>, ops: &mut [Op<u64, u64>]) {
    for op in ops.iter_mut() {
        match op {
            Op::Get { key, result } => *result = oracle.get(key).copied().into(),
            Op::Insert { key, value, result } => {
                *result = oracle.insert(*key, *value).into();
            }
            Op::Remove { key, result } => *result = oracle.remove(key).into(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random `Op` batches through `execute` on all six indices — plus the
    /// sharded front-end, whose `execute` splits the batch per shard and
    /// reassembles results into the original slots — must
    /// agree, result-for-result and in final contents, with a `BTreeMap`
    /// oracle that applies the same batch sequentially.  The B-skiplist
    /// runs its point operations under one epoch pin, the baselines and
    /// the oracle the trait's slot-order default.
    #[test]
    fn execute_matches_a_sequential_oracle_on_all_indices(
        batches in proptest::collection::vec(
            proptest::collection::vec(op_strategy(300), 1..80),
            1..10,
        )
    ) {
        let bskip: BSkipList<u64, u64, 8> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(4));
        let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        let lazy: LazySkipList<u64, u64> = LazySkipList::new();
        let nhs: NhsSkipList<u64, u64> = NhsSkipList::new();
        let btree: OccBTree<u64, u64, 8> = OccBTree::new();
        let masstree: MasstreeLite<u64, u64> = MasstreeLite::new();
        let sharded: ShardedIndex<u64, u64, BSkipList<u64, u64, 8>> =
            ShardedIndex::hash(4, |_| {
                BSkipList::with_config(BSkipConfig::default().with_max_height(4))
            });
        let indices: Vec<&dyn ConcurrentIndex<u64, u64>> =
            vec![&bskip, &lockfree, &lazy, &nhs, &btree, &masstree, &sharded];
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();

        for (round, batch) in batches.into_iter().enumerate() {
            let mut expected = batch.clone();
            oracle_apply(&mut oracle, &mut expected);
            for index in &indices {
                let mut ops = batch.clone();
                index.execute(&mut ops);
                prop_assert_eq!(
                    &ops,
                    &expected,
                    "batch {} results diverged on {}",
                    round,
                    index.name()
                );
            }
        }
        let contents: Vec<(u64, u64)> = oracle.into_iter().collect();
        for index in &indices {
            prop_assert_eq!(index.len(), contents.len(), "{} len", index.name());
            let scanned: Vec<(u64, u64)> = index.scan_bounds(
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
            ).collect();
            prop_assert_eq!(&scanned, &contents, "{} contents", index.name());
        }
        bskip.validate().map_err(TestCaseError::fail)?;
    }
}

/// Batched and point mutations interleaving from many threads must leave
/// every index in the exact state a per-stripe sequential replay predicts:
/// each thread owns the keys congruent to its id, half the threads write
/// through `execute` batches and half through point calls, so batches and
/// point operations race on shared structure (leaves, towers, tree nodes)
/// while per-key histories stay deterministic.
#[test]
fn concurrent_batch_and_point_mutations_stay_consistent() {
    let threads = 4u64;
    let rounds = 30u64;
    let per_round = 48u64;

    let bskip: BSkipList<u64, u64, 8> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(6));
    let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
    let lazy: LazySkipList<u64, u64> = LazySkipList::new();
    let nhs: NhsSkipList<u64, u64> = NhsSkipList::new();
    let btree: OccBTree<u64, u64, 8> = OccBTree::new();
    let masstree: MasstreeLite<u64, u64> = MasstreeLite::new();
    let indices: Vec<&dyn ConcurrentIndex<u64, u64>> =
        vec![&bskip, &lockfree, &lazy, &nhs, &btree, &masstree];

    for index in &indices {
        std::thread::scope(|scope| {
            for thread_id in 0..threads {
                scope.spawn(move || {
                    for round in 0..rounds {
                        // Stripe: keys ≡ thread_id (mod threads), dense so
                        // different threads' keys share leaves.
                        let base = thread_id + threads * per_round * round;
                        if thread_id % 2 == 0 {
                            // Batched writer: insert a block, remove the
                            // even half, re-update the odd half.
                            let mut batch: Vec<Op<u64, u64>> = (0..per_round)
                                .map(|i| Op::insert(base + threads * i, round))
                                .collect();
                            index.execute(&mut batch);
                            let mut second: Vec<Op<u64, u64>> = (0..per_round)
                                .map(|i| {
                                    let key = base + threads * i;
                                    if i % 2 == 0 {
                                        Op::remove(key)
                                    } else {
                                        Op::insert(key, round + 1)
                                    }
                                })
                                .collect();
                            index.execute(&mut second);
                            for (i, op) in second.iter().enumerate() {
                                assert_eq!(
                                    op.result().value(),
                                    Some(round),
                                    "op {i} of round {round}"
                                );
                            }
                        } else {
                            // Point writer: the same per-key history
                            // through the point methods.
                            for i in 0..per_round {
                                let key = base + threads * i;
                                assert_eq!(index.insert(key, round), None);
                            }
                            for i in 0..per_round {
                                let key = base + threads * i;
                                if i % 2 == 0 {
                                    assert_eq!(index.remove(&key), Some(round));
                                } else {
                                    assert_eq!(index.insert(key, round + 1), Some(round));
                                }
                            }
                        }
                    }
                });
            }
        });

        // Sequential replay: every thread's surviving keys are the odd
        // block positions, valued round + 1.
        let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
        for thread_id in 0..threads {
            for round in 0..rounds {
                let base = thread_id + threads * per_round * round;
                for i in (1..per_round).step_by(2) {
                    expected.insert(base + threads * i, round + 1);
                }
            }
        }
        assert_eq!(index.len(), expected.len(), "{}", index.name());
        let scanned: Vec<(u64, u64)> = index
            .scan_bounds(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .collect();
        let contents: Vec<(u64, u64)> = expected.into_iter().collect();
        assert_eq!(scanned, contents, "{}", index.name());
    }
    bskip
        .validate()
        .expect("B-skiplist structure after the race");
}

/// A sharded `execute` demonstrably splits the batch per shard: each
/// *touched* shard's stats-enabled B-skiplist records exactly one
/// `batch_executes` with its slice of the ops, the per-shard counters
/// aggregate through the mergeable-stats API (`IndexStats::merge`), and
/// the front-end's own counters confirm the batch was split, not
/// delegated.
#[test]
fn sharded_execute_splits_per_shard_and_aggregates_batch_counters() {
    use bskip_suite::IndexStats;

    let shards = 4;
    let sharded: ShardedIndex<u64, u64, BSkipList<u64, u64, 8>> =
        ShardedIndex::hash(shards, |_| {
            BSkipList::with_config(BSkipConfig::paper_default().with_stats(true))
        });

    // One insert per key: slots end up in per-shard sub-batches, and every
    // shard's `execute` sees only its own keys.
    let mut ops: Vec<Op<u64, u64>> = (0..64u64).map(|k| Op::insert(k, k * 3)).collect();
    let touched: std::collections::BTreeSet<usize> =
        (0..64u64).map(|k| sharded.shard_of(&k)).collect();
    assert!(touched.len() > 1, "64 hashed keys must span several shards");
    sharded.execute(&mut ops);
    for (slot, op) in ops.iter().enumerate() {
        assert_eq!(op.result().value(), None, "slot {slot} was a fresh insert");
    }
    assert_eq!(sharded.len(), 64);

    // Per-shard truth: each touched shard ran exactly one batch covering
    // exactly its keys; untouched shards ran none.
    let per_shard = sharded.shard_stats();
    let mut ops_seen = 0;
    for (shard, stats) in per_shard.iter().enumerate() {
        let executes = stats.get("batch_executes").unwrap_or(0);
        assert_eq!(
            executes,
            touched.contains(&shard) as u64,
            "shard {shard} batch count"
        );
        ops_seen += stats.get("batched_ops").unwrap_or(0);
    }
    assert_eq!(ops_seen, 64, "every op landed in exactly one shard batch");

    // The same numbers through the mergeable-stats aggregation: summing
    // the per-shard snapshots and asking the front-end (which merges
    // internally) must agree.
    let mut summed = IndexStats::new();
    for stats in &per_shard {
        summed.merge(stats);
    }
    assert_eq!(summed.get("batch_executes"), Some(touched.len() as u64));
    assert_eq!(summed.get("batched_ops"), Some(64));
    let merged = sharded.stats();
    assert_eq!(merged.get("batch_executes"), Some(touched.len() as u64));
    assert_eq!(merged.get("batched_ops"), Some(64));

    // And the front-end's own counters show the batch was split, not
    // delegated.
    assert_eq!(merged.get("sharded_batches"), Some(1));
    assert_eq!(merged.get("sharded_single_shard_batches"), Some(0));
}
