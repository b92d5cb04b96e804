//! Workspace-level concurrency stress tests for the B-skiplist.
//!
//! These exercise the top-down concurrency-control scheme end to end:
//! many threads inserting, reading and scanning overlapping key ranges,
//! followed by full structural validation at quiescence.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use bskip_suite::{BSkipConfig, BSkipList, ConcurrentIndex};

#[test]
fn concurrent_disjoint_inserts_keep_every_key() {
    let list: Arc<BSkipList<u64, u64, 32>> = Arc::new(BSkipList::with_config(
        BSkipConfig::default().with_max_height(5),
    ));
    let threads = 8u64;
    let per_thread = 20_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for i in 0..per_thread {
                    // Interleaved keys so every thread touches every region.
                    let key = i * threads + t;
                    assert_eq!(list.insert(key, key ^ 0xABCD), None);
                }
            });
        }
    });
    assert_eq!(list.len() as u64, threads * per_thread);
    list.validate().expect("structure after concurrent build");
    for key in (0..threads * per_thread).step_by(101) {
        assert_eq!(list.get(&key), Some(key ^ 0xABCD), "key {key} lost");
    }
    let scanned = list.to_vec();
    assert_eq!(scanned.len() as u64, threads * per_thread);
    assert!(
        scanned.windows(2).all(|w| w[0].0 < w[1].0),
        "leaf level must be sorted"
    );
}

#[test]
fn concurrent_mixed_readers_and_writers_agree_at_quiescence() {
    let list: Arc<BSkipList<u64, u64, 16>> = Arc::new(BSkipList::with_config(
        BSkipConfig::default().with_max_height(5),
    ));
    // Pre-populate the even half of the key space.
    for key in (0..100_000u64).step_by(2) {
        list.insert(key, key);
    }
    std::thread::scope(|scope| {
        // Writers fill in the odd keys.
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for i in 0..12_500u64 {
                    let key = (i * 4 + t) * 2 + 1;
                    list.insert(key, key);
                }
            });
        }
        // Readers run point lookups and scans while writers are active;
        // every value observed must be internally consistent (value == key).
        for _ in 0..4 {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for i in 0..50_000u64 {
                    let key = (i * 37) % 100_000;
                    if let Some(value) = list.get(&key) {
                        assert_eq!(value, key, "torn read for key {key}");
                    }
                    if i % 64 == 0 {
                        // Cursor scan racing the writers: keys must stay
                        // strictly ascending and every pair untorn.
                        let mut previous = None;
                        for (k, v) in list.scan(key..).take(20) {
                            assert_eq!(k, v);
                            if let Some(p) = previous {
                                assert!(p < k, "cursor scan out of order");
                            }
                            previous = Some(k);
                        }
                    }
                    if i % 128 == 0 {
                        // A cursor opened above a key under load starts
                        // above it and moves forwards.
                        let mut cursor = list.scan_bounds(Bound::Excluded(key), Bound::Unbounded);
                        if let Some((at, _)) = cursor.next() {
                            assert!(at > key, "opened above {key}, yielded {at}");
                            if let Some((after, _)) = cursor.next() {
                                assert!(after > at, "next must move forwards");
                            }
                        }
                    }
                }
            });
        }
    });
    assert_eq!(list.len(), 100_000);
    list.validate().expect("structure after mixed workload");
}

#[test]
fn concurrent_upserts_of_the_same_keys_converge() {
    let list: Arc<BSkipList<u64, u64, 16>> = Arc::new(BSkipList::new());
    let threads = 8u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for round in 0..5u64 {
                    for key in 0..2_000u64 {
                        list.insert(key, t * 10_000_000 + round * 10_000 + key);
                    }
                }
            });
        }
    });
    // Exactly one entry per key survives, and its value is one that some
    // thread actually wrote for that key.
    assert_eq!(list.len(), 2_000);
    list.validate().expect("structure after contended upserts");
    for (k, v) in list.iter() {
        assert_eq!(v % 10_000, k, "value {v} was never written for key {k}");
    }
}

#[test]
fn concurrent_removes_do_not_lose_unrelated_keys() {
    let list: Arc<BSkipList<u64, u64, 16>> = Arc::new(BSkipList::new());
    for key in 0..40_000u64 {
        list.insert(key, key);
    }
    std::thread::scope(|scope| {
        // Each thread removes its own residue class; no two threads ever
        // touch the same key (the supported deletion scenario).
        for t in 0..4u64 {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    let key = i * 8 + t;
                    assert_eq!(list.remove(&key), Some(key));
                }
            });
        }
        // Concurrent readers on the untouched half.
        for _ in 0..2 {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    let key = i * 2 + 39; // odd keys >= 39 in the 4..7 residues mod 8
                    let _ = list.get(&key);
                }
            });
        }
    });
    assert_eq!(list.len(), 20_000);
    list.validate().expect("structure after concurrent removes");
    // Removed keys are gone, survivors intact.
    for i in 0..5_000u64 {
        assert_eq!(list.get(&(i * 8)), None);
        assert_eq!(list.get(&(i * 8 + 7)), Some(i * 8 + 7));
    }
}

/// The sharded front-end under a real race: many threads drive batches
/// (each split across all four shards) and point operations into the same
/// hash-partitioned index at once.  Per-thread key stripes keep every
/// per-key history deterministic while the batches race the point writers
/// on shared leaves, so TSan sees the split/apply/copy-back machinery under
/// contention; at quiescence the contents must match a sequential replay
/// and every shard's B-skiplist must still validate.
#[test]
fn sharded_concurrent_batches_and_points_agree_at_quiescence() {
    use bskip_suite::ShardedIndex;

    let threads = 4u64;
    let rounds = 20u64;
    let per_round = 64u64;
    let sharded: Arc<ShardedIndex<u64, u64, BSkipList<u64, u64, 8>>> =
        Arc::new(ShardedIndex::hash(4, |_| {
            BSkipList::with_config(BSkipConfig::default().with_max_height(5))
        }));

    std::thread::scope(|scope| {
        for thread_id in 0..threads {
            let sharded = Arc::clone(&sharded);
            scope.spawn(move || {
                use bskip_suite::Op;
                for round in 0..rounds {
                    let base = thread_id + threads * per_round * round;
                    if thread_id % 2 == 0 {
                        // Batched writer: insert a block, then remove the
                        // even half and overwrite the odd half — each
                        // batch splits across all four shards.
                        let mut batch: Vec<Op<u64, u64>> = (0..per_round)
                            .map(|i| Op::insert(base + threads * i, round))
                            .collect();
                        sharded.execute(&mut batch);
                        let mut second: Vec<Op<u64, u64>> = (0..per_round)
                            .map(|i| {
                                let key = base + threads * i;
                                if i % 2 == 0 {
                                    Op::remove(key)
                                } else {
                                    Op::update(key, round + 1)
                                }
                            })
                            .collect();
                        sharded.execute(&mut second);
                        for (i, op) in second.iter().enumerate() {
                            assert_eq!(op.result().value(), Some(round), "op {i} of round {round}");
                        }
                    } else {
                        // Point writer: the same history through the
                        // routed point methods, plus racing cross-shard
                        // merge scans.
                        for i in 0..per_round {
                            let key = base + threads * i;
                            assert_eq!(sharded.insert(key, round), None);
                        }
                        let mut previous = None;
                        for (k, _) in sharded
                            .scan_bounds(
                                std::ops::Bound::Included(base),
                                std::ops::Bound::Unbounded,
                            )
                            .take(32)
                        {
                            if let Some(p) = previous {
                                assert!(p < k, "merge cursor out of order under race");
                            }
                            previous = Some(k);
                        }
                        for i in 0..per_round {
                            let key = base + threads * i;
                            if i % 2 == 0 {
                                assert_eq!(sharded.remove(&key), Some(round));
                            } else {
                                assert_eq!(sharded.insert(key, round + 1), Some(round));
                            }
                        }
                    }
                }
            });
        }
    });

    // Sequential replay: the odd block positions survive, valued round+1.
    let mut expected: BTreeMap<u64, u64> = BTreeMap::new();
    for thread_id in 0..threads {
        for round in 0..rounds {
            let base = thread_id + threads * per_round * round;
            for i in (1..per_round).step_by(2) {
                expected.insert(base + threads * i, round + 1);
            }
        }
    }
    assert_eq!(sharded.len(), expected.len());
    let scanned: Vec<(u64, u64)> = sharded
        .scan_bounds(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
        .collect();
    let contents: Vec<(u64, u64)> = expected.into_iter().collect();
    assert_eq!(scanned, contents, "merged contents after the race");
    // Every batch was split across shards, the path the race is about.
    let stats = sharded.stats();
    assert_eq!(stats.get("sharded_batches"), Some(threads / 2 * rounds * 2));
    assert_eq!(stats.get("sharded_single_shard_batches"), Some(0));
    for shard in 0..sharded.shards() {
        sharded
            .shard(shard)
            .validate()
            .unwrap_or_else(|e| panic!("shard {shard} structure after the race: {e}"));
    }
}

/// Races 24 writers — more than a striped size counter has cells — on
/// overlapping keys in three barrier-separated phases: insert, remove,
/// insert again.  A key is often removed by a thread other than the one
/// whose insert stored it, so that thread's cell of the count goes down
/// for a key it never counted up.  Every value is its key, so each phase's
/// outcome does not depend on which thread wins a key: the contents at
/// quiescence are the sequential replay's.  `len()` must equal them, and
/// so must the fresh inserts minus the successful removes the threads saw.
fn race_overlapping_writers(index: &dyn ConcurrentIndex<u64, u64>) {
    const THREADS: u64 = 24;
    const SPAN: u64 = 300;
    let inserted = |t: u64| t * SPAN..t * SPAN + 2 * SPAN;
    let removed = |t: u64| (t * SPAN + SPAN..t * SPAN + 3 * SPAN).filter(|k| k % 3 != 0);
    let reinserted = |t: u64| (t * SPAN + SPAN / 2..t * SPAN + 5 * SPAN / 2).step_by(2);

    let barrier = std::sync::Barrier::new(THREADS as usize);
    let net: i64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut net = 0i64;
                    for key in inserted(t) {
                        net += i64::from(index.insert(key, key).is_none());
                    }
                    barrier.wait();
                    for key in removed(t) {
                        net -= i64::from(index.remove(&key).is_some());
                    }
                    barrier.wait();
                    for key in reinserted(t) {
                        net += i64::from(index.insert(key, key).is_none());
                    }
                    net
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    let mut oracle = BTreeMap::new();
    for key in (0..THREADS).flat_map(inserted) {
        oracle.insert(key, key);
    }
    for key in (0..THREADS).flat_map(removed) {
        oracle.remove(&key);
    }
    for key in (0..THREADS).flat_map(reinserted) {
        oracle.insert(key, key);
    }
    let name = index.name();
    assert_eq!(index.len(), oracle.len(), "{name} len()");
    assert_eq!(net, oracle.len() as i64, "{name} fresh inserts - removes");
    let scanned: Vec<(u64, u64)> = index
        .scan_bounds(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
        .collect();
    let expected: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(scanned, expected, "{name} contents");
}

#[test]
fn len_is_exact_after_keys_are_removed_by_other_threads_on_every_index() {
    use bskip_suite::{LazySkipList, LockFreeSkipList, MasstreeLite, NhsSkipList, OccBTree};
    let list: BSkipList<u64, u64, 8> = BSkipList::new();
    race_overlapping_writers(&list);
    list.validate().expect("structure after the race");
    race_overlapping_writers(&LockFreeSkipList::<u64, u64>::new());
    race_overlapping_writers(&LazySkipList::<u64, u64>::new());
    race_overlapping_writers(&NhsSkipList::<u64, u64>::new());
    race_overlapping_writers(&OccBTree::<u64, u64>::new());
    race_overlapping_writers(&MasstreeLite::<u64, u64>::new());
}

#[test]
fn all_indices_agree_under_the_same_operation_sequence() {
    use bskip_suite::{LazySkipList, LockFreeSkipList, MasstreeLite, NhsSkipList, OccBTree};
    let bskip: BSkipList<u64, u64> = BSkipList::new();
    let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
    let lazy: LazySkipList<u64, u64> = LazySkipList::new();
    let nhs: NhsSkipList<u64, u64> = NhsSkipList::new();
    let btree: OccBTree<u64, u64> = OccBTree::new();
    let masstree: MasstreeLite<u64, u64> = MasstreeLite::new();
    let indices: Vec<&dyn ConcurrentIndex<u64, u64>> =
        vec![&bskip, &lockfree, &lazy, &nhs, &btree, &masstree];
    let mut oracle = BTreeMap::new();

    let mut state = 0x12345678u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 16
    };
    for _ in 0..20_000 {
        let key = next() % 10_000;
        let value = next();
        oracle.insert(key, value);
        for index in &indices {
            index.insert(key, value);
        }
    }
    for index in &indices {
        assert_eq!(index.len(), oracle.len(), "{} length", index.name());
        for (key, value) in oracle.iter().take(500) {
            assert_eq!(index.get(key), Some(*value), "{} get({key})", index.name());
        }
        let mut scanned = Vec::new();
        index.range(&2_000, 100, &mut |k, v| scanned.push((*k, *v)));
        let expected: Vec<(u64, u64)> = oracle
            .range(2_000..)
            .take(100)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(scanned, expected, "{} range", index.name());

        // The cursor API must agree with the oracle too, including an
        // upper bound the callback API cannot express.
        let cursed: Vec<(u64, u64)> = index
            .scan_bounds(
                std::ops::Bound::Included(2_000),
                std::ops::Bound::Excluded(4_000),
            )
            .collect();
        let expected: Vec<(u64, u64)> = oracle.range(2_000..4_000).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(cursed, expected, "{} cursor scan", index.name());

        let oracle_at = oracle.range(5_000..).next().map(|(k, v)| (*k, *v));
        assert_eq!(
            index.scan(5_000..).next(),
            oracle_at,
            "{} cursor opened at 5000",
            index.name()
        );
    }
}
