//! Tests for the optimistic (leaf-first) point write path.
//!
//! `insert` and `remove` descend lock-free, write-lock the covering leaf
//! *at the version the descent validated*, and finish there unless the
//! operation is structural.  The invariants under test:
//!
//! * **Overwrites never reshape the list** and never draw a promotion
//!   height, so the heights of the stored keys are exactly geometric
//!   whatever the overwrite history.
//! * **The conflict-free write path takes no shared lock**: one thread
//!   never restarts, never falls back, and enters a write-locked pass only
//!   for promoted inserts, overflow splits and header removals.
//! * **No lost update** — a write must not land in a leaf that was
//!   unlinked, or stopped covering the key, between the descent and the
//!   lock.  Final-state comparison at quiescence cannot see that, so the
//!   race test checks it per operation (read-your-write, exact previous
//!   value, per-key monotonic generations) while churn threads split,
//!   unlink and merge the very leaves the writers overwrite in.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use bskip_suite::core::height::{geometric, reseed_thread_rng, sample_height};
use bskip_suite::lsm::{Memtable, Slot};
use bskip_suite::ycsb::keygen::record_key;
use bskip_suite::{BSkipConfig, BSkipList, ConcurrentIndex};

/// Asserts that this thread's height RNG is exactly where `replay` is:
/// the next draws of both agree.  Any height drawn behind the replay's
/// back (or any replayed draw that did not happen) desynchronizes them.
fn assert_rng_in_step(replay: &mut SmallRng, denominator: u32, max_height: usize) {
    for draw in 0..256 {
        assert_eq!(
            sample_height(denominator, max_height),
            geometric(replay, denominator, max_height),
            "thread RNG out of step with the replay at draw {draw}: a height was drawn for an overwrite"
        );
    }
}

#[test]
fn overwrites_never_reshape_the_list_and_draw_no_height() {
    const KEYS: u64 = 50_000;
    const ROUNDS: u64 = 20;
    const SEED: u64 = 0x0B5E_0017;

    let list: BSkipList<u64, u64, 16> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(5));
    let (denominator, max_height) = (list.promotion_denominator(), list.max_height());
    // The replay draws from a clone of the thread RNG's state: one draw
    // per *fresh* key keeps the two in step, anything else does not.
    reseed_thread_rng(SEED);
    let mut replay = SmallRng::seed_from_u64(SEED);
    for record in 0..KEYS {
        assert_eq!(list.insert(record_key(record), 0), None);
        geometric(&mut replay, denominator, max_height);
    }
    let structure = |list: &BSkipList<u64, u64, 16>| {
        (
            list.level_shape(),
            list.live_nodes(),
            list.len(),
            list.reclamation().retired,
        )
    };
    let built = structure(&list);

    for round in 1..=ROUNDS {
        for record in 0..KEYS {
            assert_eq!(list.insert(record_key(record), round), Some(round - 1));
        }
    }
    assert_eq!(structure(&list), built, "`insert` overwrites reshaped");
    let index: &dyn ConcurrentIndex<u64, u64> = &list;
    for round in ROUNDS + 1..=2 * ROUNDS {
        for record in 0..KEYS {
            assert_eq!(index.insert(record_key(record), round), Some(round - 1));
        }
    }
    assert_eq!(structure(&list), built, "`dyn` overwrites reshaped");
    assert_rng_in_step(&mut replay, denominator, max_height);
    list.validate().expect("structure after the overwrites");

    // The LSM memtable inherits the rule through `insert` (its list has
    // the default geometry, B = 128).
    let memtable: Memtable<u64, u64> = Memtable::new(Vec::new());
    let probe: BSkipList<u64, u64> = BSkipList::new();
    let (denominator, max_height) = (probe.promotion_denominator(), probe.max_height());
    reseed_thread_rng(SEED);
    let mut replay = SmallRng::seed_from_u64(SEED);
    for record in 0..KEYS {
        assert_eq!(memtable.apply(record_key(record), Slot::Put(0)), None);
        geometric(&mut replay, denominator, max_height);
    }
    let built = (
        memtable.live_nodes(),
        memtable.entries(),
        memtable.reclamation().retired,
    );
    for round in 1..=ROUNDS {
        for record in 0..KEYS {
            // Re-puts and tombstones alike: a delete of a buffered key is
            // an overwrite too.
            let slot = if round % 4 == 0 {
                Slot::Tombstone
            } else {
                Slot::Put(round)
            };
            assert!(memtable.apply(record_key(record), slot).is_some());
        }
    }
    assert_eq!(
        (
            memtable.live_nodes(),
            memtable.entries(),
            memtable.reclamation().retired
        ),
        built,
        "`Memtable::apply` overwrites reshaped"
    );
    assert_rng_in_step(&mut replay, denominator, max_height);
}

#[test]
fn heights_of_stored_keys_stay_geometric_under_overwrites() {
    const KEYS: u64 = 200_000;
    const SEED: u64 = 0x6E0;

    let list: BSkipList<u64, u64, 16> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(5));
    let (denominator, max_height) = (list.promotion_denominator(), list.max_height());
    reseed_thread_rng(SEED);
    let mut replay = SmallRng::seed_from_u64(SEED);
    // How many replayed draws reached each level: the towers the list
    // must hold if every fresh key drew once and no overwrite drew at all.
    let mut towers = vec![0usize; max_height];
    for record in 0..KEYS {
        assert_eq!(list.insert(record_key(record), record), None);
        for reached in towers
            .iter_mut()
            .take(geometric(&mut replay, denominator, max_height) + 1)
        {
            *reached += 1;
        }
        // Interleave overwrites of keys inserted earlier, three per fresh
        // key: before this change each drew a height and re-promoted the
        // key when it was larger, making a key's height the *maximum* over
        // its history.
        for back in [1, 7, 1_000] {
            let old = record.saturating_sub(back);
            assert!(list.insert(record_key(old), record).is_some());
        }
    }
    let realised: Vec<usize> = list.level_shape().iter().map(|&(_, keys)| keys).collect();
    assert_eq!(realised, towers, "stored towers differ from the draws");
    // And the draws themselves are geometric(1/denominator): within 5 %
    // on every level that holds enough keys for 5 % to mean something.
    for (level, &keys) in realised.iter().enumerate() {
        let expected = KEYS as f64 / f64::from(denominator).powi(level as i32);
        if expected >= 2_000.0 {
            let ratio = keys as f64 / expected;
            assert!(
                (0.95..=1.05).contains(&ratio),
                "level {level}: {keys} keys, geometric expectation {expected:.0}"
            );
        }
    }
    list.validate().expect("structure");
}

#[test]
fn single_threaded_writes_take_one_lock_and_never_restart() {
    const FRESH: u64 = 100_000;
    const REMOVES: u64 = 50_000;
    const SEED: u64 = 0x5EED;

    // The geometry the benchmarks ship, hashed keys.
    let list: BSkipList<u64, u64, 128> =
        BSkipList::with_config(BSkipConfig::paper_default().with_stats(true));
    let (denominator, max_height) = (list.promotion_denominator(), list.max_height());
    reseed_thread_rng(SEED);
    let mut replay = SmallRng::seed_from_u64(SEED);
    let pins_before = list.reclamation().pins;
    let (mut promoted, mut top_draws) = (0u64, 0u64);
    for record in 0..FRESH {
        assert_eq!(list.insert(record_key(record), 0), None);
        let height = geometric(&mut replay, denominator, max_height);
        promoted += u64::from(height > 0);
        top_draws += u64::from(height == max_height - 1);
    }
    let stats = list.stats();
    let fresh_structural = stats.structural_writes.get();
    // Every fresh key either finished in the leaf or entered the pass;
    // the pass is entered for a promotion or a full leaf, nothing else.
    assert_eq!(stats.optimistic_writes.get() + fresh_structural, FRESH);
    let expected = promoted + stats.overflow_splits.get();
    let ratio = fresh_structural as f64 / expected as f64;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "{fresh_structural} structural inserts, expected about {expected} \
         ({promoted} promoted + {} overflow splits)",
        stats.overflow_splits.get()
    );

    // Overwrites: all of them leaf-local.
    for record in 0..FRESH {
        assert_eq!(list.insert(record_key(record), 1), Some(0));
    }
    assert_eq!(stats.structural_writes.get(), fresh_structural);
    assert_eq!(stats.optimistic_writes.get() + fresh_structural, 2 * FRESH);

    // Removes (every other key, plus misses): only header keys of
    // non-head leaves enter the pass.
    let before = stats.structural_writes.get();
    for record in 0..REMOVES {
        assert_eq!(list.remove(&record_key(2 * record)), Some(1));
        assert_eq!(list.remove(&record_key(2 * record)), None);
    }
    let header_removals = stats.structural_writes.get() - before;
    assert!(
        header_removals > 0 && header_removals < REMOVES / 16,
        "{header_removals} of {REMOVES} removals took the write-locked pass"
    );
    assert_eq!(
        stats.optimistic_writes.get() + stats.structural_writes.get(),
        stats.inserts.get() + stats.removes.get(),
        "every point write is optimistic or structural, exactly once"
    );

    // The whole run: no restart, no shared-lock descent, for reads'
    // counters and the writers' own alike.
    assert_eq!(stats.optimistic_restarts.get(), 0);
    assert_eq!(stats.locked_fallbacks.get(), 0);
    assert_eq!(stats.write_descent_fallbacks.get(), 0);
    assert_eq!(stats.top_level_write_locks.get(), top_draws);
    assert_eq!(
        list.reclamation().pins - pins_before,
        2 * FRESH + 2 * REMOVES,
        "one epoch pin per operation, structural or not"
    );
    assert_eq!(list.len() as u64, FRESH - REMOVES);
    list.validate().expect("structure");
}

/// `generation` of `key` as a self-checking value: a value read under a
/// different key, or torn between two writes, decodes wrong.
fn stamp(key: u64, generation: u64) -> u64 {
    (generation << 32) | (key ^ 0x5A5A_5A5A)
}

/// The generation a value of `key` carries; panics on a foreign value.
fn generation_of(key: u64, value: u64) -> u64 {
    assert_eq!(value & 0xFFFF_FFFF, key ^ 0x5A5A_5A5A, "foreign value");
    value >> 32
}

/// Writers overwrite their own resident keys with increasing generations
/// while churn threads keep splitting, unlinking and merging the leaves
/// those keys live in; every operation is checked as it returns.
#[cfg(not(miri))]
#[test]
fn overwrites_racing_splits_unlinks_and_merges_lose_no_update() {
    // Key layout: `slot * 8 + lane`.  Lane 0 of every slot is a resident
    // key (owned by writer `slot % WRITERS`, never removed), lanes 1–3
    // and 4–6 are the two churn threads' transient keys, lane 7 is never
    // inserted.  Small nodes, so eight consecutive keys are a whole leaf,
    // and few slots, so every thread works on the same few dozen leaves.
    const SLOTS: u64 = 32;
    const WRITERS: u64 = 4;
    const CHURNERS: u64 = 2;
    const GENERATIONS: u64 = 3_000;
    let resident = |slot: u64| slot * 8;

    let list: BSkipList<u64, u64, 8> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(4).with_stats(true));
    for slot in 0..SLOTS {
        list.insert(resident(slot), stamp(resident(slot), 0));
    }
    // Generation each resident key is known to have reached: stored by
    // its writer *after* the insert returned, so a reader that loads it
    // before a `get` must never be answered with an older generation.
    let published: Vec<AtomicU64> = (0..SLOTS).map(|_| AtomicU64::new(0)).collect();
    let done = AtomicBool::new(false);
    let start = Barrier::new((WRITERS + CHURNERS + 3) as usize);

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|writer| {
                let (list, published, start) = (&list, &published, &start);
                scope.spawn(move || {
                    start.wait();
                    for generation in 1..=GENERATIONS {
                        for slot in (writer..SLOTS).step_by(WRITERS as usize) {
                            let key = resident(slot);
                            let previous = list.insert(key, stamp(key, generation));
                            assert_eq!(
                                previous,
                                Some(stamp(key, generation - 1)),
                                "key {key}: insert did not displace this writer's previous \
                                 generation — the write landed in a leaf that no longer \
                                 covers the key"
                            );
                            assert_eq!(
                                list.get(&key),
                                Some(stamp(key, generation)),
                                "key {key}: read-your-write"
                            );
                            published[slot as usize].store(generation, Ordering::Release);
                        }
                    }
                })
            })
            .collect();

        // Churn: promoted inserts split the residents' leaves (the new
        // key becomes a header and takes the following residents with
        // it), height-0 inserts fill them until they overflow-split, and
        // the removals take headers out again — demotions, unlinks and
        // folds of the residents that were riding along into the leaf
        // to their left.
        for churner in 0..CHURNERS {
            let (list, done, start) = (&list, &done, &start);
            scope.spawn(move || {
                start.wait();
                let lanes = 1 + 3 * churner..4 + 3 * churner;
                let mut round = 0u64;
                // One round at least, however soon the writers finish:
                // the setup alone splits leaves but never folds one.
                while round == 0 || !done.load(Ordering::Relaxed) {
                    let first = round * 7 % SLOTS;
                    let window = first..(first + 16).min(SLOTS);
                    for slot in window.clone() {
                        for lane in lanes.clone() {
                            let key = slot * 8 + lane;
                            let height = ((lane + slot) % 3) as usize;
                            assert_eq!(list.insert_with_height(key, round, height), None);
                        }
                    }
                    // Right to left: most of what follows a header is
                    // gone by the time it goes, so its survivors fit
                    // into the left neighbour and fold.
                    for slot in window.rev() {
                        for lane in lanes.clone().rev() {
                            assert_eq!(list.remove(&(slot * 8 + lane)), Some(round));
                        }
                    }
                    round += 1;
                }
            });
        }

        // Readers: a resident key is always there, never older than what
        // its writer published before the read began, and never goes
        // backwards from one read to the next; lane 7 stays empty.
        for reader in 0..2u64 {
            let (list, published, done, start) = (&list, &published, &done, &start);
            scope.spawn(move || {
                start.wait();
                let mut seen = vec![0u64; SLOTS as usize];
                let mut step = reader;
                while !done.load(Ordering::Relaxed) {
                    step = step.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    let slot = (step >> 33) % SLOTS;
                    let key = resident(slot);
                    let floor = published[slot as usize].load(Ordering::Acquire);
                    let value = list.get(&key).expect("resident key lost");
                    let generation = generation_of(key, value);
                    let newest = seen[slot as usize].max(floor);
                    assert!(
                        generation >= newest,
                        "key {key} went backwards: read generation {generation} after {newest}"
                    );
                    seen[slot as usize] = generation;
                    assert_eq!(list.get(&(key + 7)), None, "phantom key");
                }
            });
        }

        // A scanning cursor: resident keys are present for the whole
        // scan, so each appears exactly once, in order, never older than
        // published before the scan began.
        {
            let (list, published, done, start) = (&list, &published, &done, &start);
            scope.spawn(move || {
                start.wait();
                while !done.load(Ordering::Relaxed) {
                    let floors: Vec<u64> = published
                        .iter()
                        .map(|cell| cell.load(Ordering::Acquire))
                        .collect();
                    let mut next_slot = 0u64;
                    for (key, value) in list.scan(..) {
                        if key % 8 == 0 {
                            assert_eq!(key, resident(next_slot), "scan lost a resident key");
                            assert!(generation_of(key, value) >= floors[next_slot as usize]);
                            next_slot += 1;
                        }
                    }
                    assert_eq!(next_slot, SLOTS, "scan ended early");
                }
            });
        }

        // Stop the open-ended threads before a writer's panic propagates.
        let finished: Vec<_> = writers.into_iter().map(|writer| writer.join()).collect();
        done.store(true, Ordering::Relaxed);
        for writer in finished {
            if let Err(panic) = writer {
                std::panic::resume_unwind(panic);
            }
        }
    });

    list.validate().expect("structure after the race");
    assert_eq!(list.len() as u64, SLOTS);
    for slot in 0..SLOTS {
        let key = resident(slot);
        assert_eq!(list.get(&key), Some(stamp(key, GENERATIONS)));
    }
    // The race must actually have exercised the machinery.
    let stats = list.stats();
    assert!(stats.optimistic_writes.get() >= WRITERS * GENERATIONS);
    assert!(stats.promotion_splits.get() > 0 && stats.overflow_splits.get() > 0);
    assert!(stats.nodes_merged.get() > 0, "no leaf was ever merged");
    assert_eq!(
        stats.optimistic_writes.get() + stats.structural_writes.get(),
        stats.inserts.get() + stats.removes.get()
    );
}
