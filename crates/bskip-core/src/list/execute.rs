//! The batched-operation path.
//!
//! [`BSkipList::execute`] is the point operations in slot order under one
//! epoch pin.  Each [`Op`] runs exactly what the point method of its kind
//! runs, so a batch's gets take no lock on the conflict-free path and its
//! writes lock what a point write locks (the leaf, or the levels a
//! structural pass changes).  Slot order is the [`bskip_index::ops`]
//! contract itself, so nothing is sorted; what a batch saves over the
//! point loop is one pin per operation.

use bskip_index::ops::Op;
use bskip_index::trace::Tracer;
use bskip_index::{IndexKey, IndexValue};
use bskip_sync::Racy;

use super::BSkipList;

impl<K: IndexKey + Racy, V: IndexValue + Racy, const B: usize, T: Tracer> BSkipList<K, V, B, T> {
    /// Executes a batch of operations, writing each outcome into the
    /// operation's own [`bskip_index::OpResult`] slot — the native
    /// override of [`bskip_index::ConcurrentIndex::execute`].
    ///
    /// The operations run in slot order, each as its point method runs
    /// it, under one epoch pin for the whole batch.
    ///
    /// ```
    /// use bskip_core::BSkipList;
    /// use bskip_index::{Op, OpResult};
    ///
    /// let list: BSkipList<u64, u64> = (0..100u64).map(|k| (k, k)).collect();
    /// let mut batch: Vec<Op<u64, u64>> =
    ///     (0..100u64).step_by(10).map(Op::get).collect();
    /// batch.push(Op::insert(200, 1));
    /// batch.push(Op::remove(55));
    /// list.execute(&mut batch);
    /// assert_eq!(batch[3].result().value(), Some(30));
    /// assert_eq!(*batch[10].result(), OpResult::Missing); // fresh insert
    /// assert_eq!(batch[11].result().value(), Some(55));
    /// ```
    pub fn execute(&self, ops: &mut [Op<K, V>]) {
        if ops.is_empty() {
            return;
        }
        if let Some(stats) = self.stats_enabled() {
            stats.batch_executes.incr();
            stats.batched_ops.add(ops.len() as u64);
        }
        let pin = self.pin();
        for op in ops {
            match op {
                Op::Get { key, result } => *result = pin.get_pinned(key).into(),
                Op::Insert { key, value, result } => {
                    *result = pin.insert_pinned(*key, *value, None).into();
                }
                Op::Remove { key, result } => *result = pin.remove_pinned(key).into(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bskip_index::ops::{Op, OpResult};
    use bskip_index::ConcurrentIndex;

    use crate::config::BSkipConfig;
    use crate::BSkipList;

    type List = BSkipList<u64, u64, 8>;

    fn small_config() -> BSkipConfig {
        BSkipConfig::default()
            .with_max_height(4)
            .with_promotion_c(0.5)
    }

    #[test]
    fn batch_matches_point_semantics() {
        let list = List::with_config(small_config());
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for key in (0..200u64).step_by(2) {
            list.insert(key, key);
            oracle.insert(key, key);
        }
        let mut batch: Vec<Op<u64, u64>> = Vec::new();
        for key in 0..100u64 {
            batch.push(Op::get(key * 2));
            batch.push(Op::insert(key * 2 + 1, key));
            batch.push(Op::insert(key * 2, key + 1000));
            if key % 3 == 0 {
                batch.push(Op::remove(key * 2 + 1));
            }
        }
        list.execute(&mut batch);
        // Replay sequentially against the oracle and compare every result.
        let mut expected = batch.clone();
        for op in expected.iter_mut() {
            match op {
                Op::Get { key, result } => *result = oracle.get(key).copied().into(),
                Op::Insert { key, value, result } => {
                    *result = oracle.insert(*key, *value).into();
                }
                Op::Remove { key, result } => *result = oracle.remove(key).into(),
            }
        }
        assert_eq!(batch, expected);
        assert_eq!(list.len(), oracle.len());
        assert_eq!(list.to_vec(), oracle.into_iter().collect::<Vec<_>>());
        list.validate().expect("structure after batch");
    }

    #[test]
    fn same_key_sequences_keep_slot_order() {
        let list = List::with_config(small_config());
        let mut batch = vec![
            Op::insert(5, 1),
            Op::remove(5),
            Op::insert(5, 2),
            Op::get(5),
            Op::insert(5, 3),
            Op::remove(5),
            Op::get(5),
        ];
        list.execute(&mut batch);
        assert_eq!(*batch[0].result(), OpResult::Missing);
        assert_eq!(*batch[1].result(), OpResult::Value(1));
        assert_eq!(*batch[2].result(), OpResult::Missing);
        assert_eq!(*batch[3].result(), OpResult::Value(2));
        assert_eq!(*batch[4].result(), OpResult::Value(2));
        assert_eq!(*batch[5].result(), OpResult::Value(3));
        assert_eq!(*batch[6].result(), OpResult::Missing);
        assert!(list.is_empty());
    }

    #[test]
    fn a_batch_pins_the_collector_once() {
        let list = List::with_config(small_config().with_stats(true));
        for key in [10u64, 20, 30, 40, 50, 60] {
            list.insert_with_height(key, key, 0);
        }
        list.reset_stats();
        let pins_before = list.reclamation().pins;

        let mut batch = vec![
            Op::get(10),
            Op::insert(20, 21),
            Op::get(25),
            Op::remove(30),
            Op::get(40),
            Op::remove(50),
            Op::insert(60, 61),
        ];
        list.execute(&mut batch);

        let stats = ConcurrentIndex::stats(&list);
        assert_eq!(stats.get("batch_executes"), Some(1));
        assert_eq!(stats.get("batched_ops"), Some(7));
        assert_eq!(
            list.reclamation().pins - pins_before,
            1,
            "the whole batch must pin the collector exactly once"
        );

        assert_eq!(batch[0].result().value(), Some(10));
        assert_eq!(batch[1].result().value(), Some(20));
        assert_eq!(*batch[2].result(), OpResult::Missing);
        assert_eq!(batch[3].result().value(), Some(30));
        assert_eq!(batch[5].result().value(), Some(50));
        assert_eq!(list.to_vec(), vec![(10, 10), (20, 21), (40, 40), (60, 61)]);
        list.validate().expect("structure after the batch");
    }

    /// The lock word of every leaf, head first.
    fn leaf_versions(list: &List) -> Vec<Option<u64>> {
        let pin = list.pin();
        let mut versions = Vec::new();
        let mut leaf = Some(pin.head(0));
        while let Some(curr) = leaf {
            versions.push(curr.lock.optimistic_version());
            leaf = curr.next();
        }
        versions
    }

    #[test]
    fn a_read_only_batch_changes_no_lock_word() {
        let list = List::with_config(small_config().with_stats(true));
        for key in 0..64u64 {
            list.insert_with_height(key, key, 0);
        }
        let before = leaf_versions(&list);
        assert!(before.len() > 4, "test needs several leaves");
        list.reset_stats();

        let mut batch: Vec<Op<u64, u64>> = (0..70u64).step_by(3).map(Op::get).collect();
        list.execute(&mut batch);

        for op in &batch {
            let key = *op.key();
            assert_eq!(op.result().value(), (key < 64).then_some(key), "key {key}");
        }
        assert_eq!(
            leaf_versions(&list),
            before,
            "a get changed a leaf's lock word"
        );
        assert_eq!(list.stats().optimistic_reads.get(), batch.len() as u64);
    }

    #[test]
    fn structural_operations_fall_back_and_stay_correct() {
        let list = List::with_config(small_config().with_stats(true));
        // A promoted key whose removal needs the tower...
        for key in 0..8u64 {
            list.insert_with_height(key * 10, key, 0);
        }
        list.insert_with_height(45, 45, 2);
        // ... and a guaranteed-full left leaf ([0..40] plus three fillers)
        // so the batch insert must split it or be promoted.
        for key in [1u64, 2, 3] {
            list.insert_with_height(key, key, 0);
        }
        list.reset_stats();
        let pins_before = list.reclamation().pins;

        let mut batch = vec![
            Op::insert(11, 11), // lands in the full leaf
            Op::remove(45),     // header of a promoted tower
            Op::get(70),
        ];
        list.execute(&mut batch);
        assert_eq!(
            ConcurrentIndex::stats(&list).get("structural_writes"),
            Some(2),
            "the insert and the header removal each run one write-locked pass"
        );
        assert_eq!(
            list.reclamation().pins - pins_before,
            1,
            "the passes run under the batch's own pin"
        );
        assert_eq!(*batch[0].result(), OpResult::Missing);
        assert_eq!(batch[1].result().value(), Some(45));
        assert_eq!(batch[2].result().value(), Some(7));
        assert_eq!(list.get(&11), Some(11));
        assert_eq!(list.get(&45), None);
        list.validate()
            .expect("structure after the structural batch");
    }

    #[test]
    fn random_batches_match_oracle_under_sampled_heights() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let list = List::with_config(small_config());
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for round in 0..40 {
            let mut batch: Vec<Op<u64, u64>> = (0..64)
                .map(|_| {
                    let key = rng.gen_range(0..300u64);
                    match rng.gen_range(0..4) {
                        0 => Op::get(key),
                        1 | 2 => Op::insert(key, rng.gen()),
                        _ => Op::remove(key),
                    }
                })
                .collect();
            let mut expected = batch.clone();
            list.execute(&mut batch);
            for op in expected.iter_mut() {
                match op {
                    Op::Get { key, result } => *result = oracle.get(key).copied().into(),
                    Op::Insert { key, value, result } => {
                        *result = oracle.insert(*key, *value).into();
                    }
                    Op::Remove { key, result } => *result = oracle.remove(key).into(),
                }
            }
            assert_eq!(batch, expected, "round {round}");
            list.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(list.to_vec(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_batches_on_disjoint_stripes_are_exact() {
        let list = std::sync::Arc::new(BSkipList::<u64, u64, 16>::new());
        let threads = 4u64;
        let rounds = 50u64;
        std::thread::scope(|scope| {
            for thread_id in 0..threads {
                let list = std::sync::Arc::clone(&list);
                scope.spawn(move || {
                    for round in 0..rounds {
                        let base = thread_id + threads * 64 * round;
                        let mut batch: Vec<Op<u64, u64>> = (0..64)
                            .map(|i| Op::insert(base + threads * i, round))
                            .collect();
                        list.execute(&mut batch);
                        // Remove half of what this thread just inserted.
                        let mut removals: Vec<Op<u64, u64>> = (0..32)
                            .map(|i| Op::remove(base + threads * (2 * i)))
                            .collect();
                        list.execute(&mut removals);
                        for op in &removals {
                            assert_eq!(op.result().value(), Some(round));
                        }
                    }
                });
            }
        });
        assert_eq!(list.len(), (threads * rounds * 32) as usize);
        list.validate().expect("structure after concurrent batches");
    }
}
