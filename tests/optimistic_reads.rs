//! Differential stress tests for the optimistic (lock-free) read path.
//!
//! Readers hammer `get`/`contains_key` while writers force the
//! exact structure changes the optimistic descent must survive: promotion
//! and overflow splits, header removals, node unlinks and leaf merges.
//! The invariants under test:
//!
//! * **No torn values** — every value is derived from its key, so any
//!   read that mixes bytes from two writes is caught immediately.
//! * **No phantom results** — a key that is never inserted is never
//!   observed, and a key that is permanently present is never missed.
//! * **Counter sanity** — the optimistic counters are monotone, every
//!   completed find is accounted for, and a single-threaded
//!   (conflict-free) workload never takes the locked fallback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bskip_suite::ycsb::keygen::record_key;
use bskip_suite::{BSkipConfig, BSkipList};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Value derived from a key; any torn read breaks the relation.
fn tag(key: u64, round: u64) -> u64 {
    key ^ (round << 32) ^ 0x9E37_79B9_7F4A_7C15
}

/// Loads records `0..records` under `key_of`, then on the same thread
/// reads back the records `probes` names (plus, for each, a key that was
/// never inserted) and asserts the whole run stayed on the lock-free path.
fn conflict_free_reads_take_no_lock<const B: usize>(
    config: BSkipConfig,
    records: u64,
    key_of: impl Fn(u64) -> u64,
    probes: impl Iterator<Item = u64>,
) {
    let list: BSkipList<u64, u64, B> = BSkipList::with_config(config.with_stats(true));
    for record in 0..records {
        list.insert(key_of(record), tag(key_of(record), 0));
    }
    list.stats().reset();
    for record in probes {
        let key = key_of(record);
        assert_eq!(list.get(&key), Some(tag(key, 0)));
        assert!(list.contains_key(&key));
        assert_eq!(list.get(&key_of(record + records)), None);
    }
    let stats = list.stats();
    // Conflict-free reads must resolve on the first optimistic attempt:
    // zero lock acquisitions, zero restarts, every find optimistic.
    assert_eq!(stats.locked_fallbacks.get(), 0, "uncontended read locked");
    assert_eq!(stats.optimistic_restarts.get(), 0);
    assert_eq!(stats.optimistic_reads.get(), stats.finds.get());
    assert!(stats.optimistic_hit_rate() > 0.999);
}

#[test]
fn single_threaded_reads_never_take_a_lock() {
    // Small nodes, sequential keys read back in insertion order.
    conflict_free_reads_take_no_lock::<16>(
        BSkipConfig::default().with_max_height(5),
        10_000,
        |record| record,
        0..10_000,
    );
    // The geometry the benchmarks ship (`paper_default`: B = 128,
    // p = 1/64) under the YCSB driver's access pattern: hashed record
    // keys, uniform random gets.
    let mut rng = SmallRng::seed_from_u64(0x0B5E);
    conflict_free_reads_take_no_lock::<128>(
        BSkipConfig::paper_default(),
        10_000,
        record_key,
        (0..10_000).map(|_| rng.gen_range(0..10_000u64)),
    );
}

#[test]
fn optimistic_counters_are_monotone_and_exhaustive() {
    let list: BSkipList<u64, u64, 8> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(4).with_stats(true));
    for key in 0..4_096u64 {
        list.insert(key, tag(key, 0));
    }
    let mut last = (0u64, 0u64, 0u64);
    for round in 0..64u64 {
        for key in (0..4_096u64).step_by(7) {
            list.get(&(key.wrapping_mul(round + 1) % 4_096));
        }
        let stats = list.stats();
        let now = (
            stats.optimistic_reads.get(),
            stats.optimistic_restarts.get(),
            stats.locked_fallbacks.get(),
        );
        assert!(now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2);
        last = now;
        // Every find either completed optimistically or fell back.
        assert_eq!(
            stats.optimistic_reads.get() + stats.locked_fallbacks.get(),
            stats.finds.get()
        );
    }
}

/// Readers race writers that continuously force splits, header removals,
/// unlinks and leaf merges; every observed value must match its key's tag
/// and permanently-resident keys must never be missed.
#[cfg(not(miri))]
#[test]
fn reads_race_splits_removes_and_merges_without_tearing() {
    // Small nodes: maximum structural churn per op.
    let list: Arc<BSkipList<u64, u64, 8>> = Arc::new(BSkipList::with_config(
        BSkipConfig::default().with_max_height(5).with_stats(true),
    ));
    const STABLE: u64 = 1 << 20;
    // A permanently-resident stripe the readers may demand answers for.
    for key in 0..2_048u64 {
        list.insert(STABLE + key, tag(STABLE + key, 0));
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Churn writers: insert then remove whole regions so leaves split,
        // underflow, merge and unlink over and over.
        for t in 0..2u64 {
            let list = Arc::clone(&list);
            let stop = &stop;
            scope.spawn(move || {
                let mut round = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let base = t * 100_000;
                    for key in 0..3_000u64 {
                        list.insert(base + key, tag(base + key, round));
                    }
                    for key in 0..3_000u64 {
                        list.remove(&(base + key));
                    }
                    round += 1;
                }
            });
        }
        // Readers: point lookups over both the churned and stable ranges.
        let mut handles = Vec::new();
        for r in 0..3u64 {
            let list = Arc::clone(&list);
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let mut iterations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in 0..1_024u64 {
                        let churned = (i * 37 + r) % 3_000;
                        if let Some(value) = list.get(&churned) {
                            // Value must be *some* round's tag — untorn.
                            let round = (value ^ churned ^ 0x9E37_79B9_7F4A_7C15) >> 32;
                            assert_eq!(value, tag(churned, round), "torn value for {churned}");
                        }
                        let stable = STABLE + (i * 13 + r) % 2_048;
                        assert_eq!(
                            list.get(&stable),
                            Some(tag(stable, 0)),
                            "stable key {stable} lost or torn"
                        );
                    }
                    iterations += 1;
                }
                iterations
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            assert!(handle.join().unwrap() > 0, "reader made no progress");
        }
    });
    list.validate().expect("structure after the race");
    let stats = list.stats();
    // The race must actually have exercised the machinery.
    assert!(stats.optimistic_reads.get() > 0);
    assert!(
        stats.nodes_merged.get() > 0,
        "churn with divisor 2 should trigger leaf merges"
    );
    // Accounting still exact after the storm.
    assert_eq!(
        stats.optimistic_reads.get() + stats.locked_fallbacks.get(),
        stats.finds.get()
    );
}
