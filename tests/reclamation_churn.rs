//! Delete-churn stress tests for epoch-based reclamation.
//!
//! Each test loops insert/remove rounds from many threads against an
//! index that retires removed nodes through the epoch-based collector.
//! At every round boundary (a quiescent point enforced with a barrier)
//! one thread runs a handful of explicit collections and asserts the
//! retired-but-unfreed backlog drains to **zero** — so the backlog
//! provably does not grow with the operation count, round after round.
//! (The seed's free-on-drop scheme would accumulate linearly: the backlog
//! at round `r` would be `r * nodes_per_round`.)  Mid-round the backlog
//! may spike transiently — a descheduled pinned thread legitimately
//! delays the grace period — which is why the bound is asserted at the
//! quiescent points, where it is deterministic.
//!
//! The structure itself stays correct throughout: every insert/remove
//! outcome over disjoint per-thread key ranges is deterministic and
//! asserted.

use std::sync::Barrier;

use bskip_suite::{
    BSkipConfig, BSkipList, ConcurrentIndex, LazySkipList, LockFreeSkipList, MasstreeLite,
    NhsSkipList, OccBTree,
};

const THREADS: u64 = 4;
const ROUNDS: u64 = 50;
const KEYS_PER_THREAD: u64 = 200;

/// Runs the churn loop and returns the total retired-node count.
fn churn<I>(index: &I) -> u64
where
    I: ConcurrentIndex<u64, u64> + Sync,
{
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let barrier = &barrier;
            scope.spawn(move || {
                // Disjoint per-thread key ranges keep every outcome
                // deterministic even under full concurrency.
                let base = t * 1_000_000;
                for round in 0..ROUNDS {
                    for key in base..base + KEYS_PER_THREAD {
                        assert_eq!(index.insert(key, round), None, "key {key}");
                    }
                    for key in base..base + KEYS_PER_THREAD {
                        assert_eq!(index.remove(&key), Some(round), "key {key}");
                    }
                    // Quiescent point: everyone is parked at the barrier
                    // with no guard pinned, so a few explicit collections
                    // must drain every bag.  A backlog that survives here
                    // is a leak.
                    barrier.wait();
                    if t == 0 {
                        for _ in 0..8 {
                            index.try_reclaim();
                        }
                        let reclamation = index
                            .stats()
                            .reclamation()
                            .expect("index under test must export reclamation stats");
                        assert_eq!(
                            reclamation.backlog, 0,
                            "backlog not drained at round {round} \
                             (retired {} freed {})",
                            reclamation.retired, reclamation.freed
                        );
                    }
                    barrier.wait();
                }
            });
        }
    });

    let settled = index.stats().reclamation().unwrap();
    assert!(settled.retired > 0, "churn must retire nodes");
    assert_eq!(settled.backlog, 0);
    assert_eq!(settled.freed, settled.retired);
    assert!(index.is_empty(), "every inserted key was removed");

    // Steady-state pinning must go through the thread-local participant
    // handles: tens of thousands of pins, a handful of registrations (one
    // per thread), and the overwhelming majority cache hits — never a CAS
    // slot scan, never the reclamation-suspending overflow mode.
    assert!(
        settled.slot_cache_hits > settled.pins / 2,
        "cache hits must dominate pins ({} of {})",
        settled.slot_cache_hits,
        settled.pins
    );
    assert!(
        settled.slot_registrations <= 2 * THREADS,
        "at most one registration per churn thread (plus maintenance \
         threads), got {}",
        settled.slot_registrations
    );
    assert_eq!(settled.overflow_pins, 0);

    // The index stays fully usable after heavy churn.
    assert_eq!(index.insert(42, 42), None);
    assert_eq!(index.get(&42), Some(42));
    assert_eq!(index.remove(&42), Some(42));

    settled.retired
}

#[test]
fn bskiplist_churn_backlog_stays_bounded() {
    // Small nodes (B = 8) so removals empty nodes — and thus retire them —
    // constantly rather than occasionally.
    let list: BSkipList<u64, u64, 8> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(8));
    let retired = churn(&list);
    println!("B-skiplist: retired and reclaimed {retired} nodes");
    list.validate().expect("structure after churn");
}

#[test]
fn lockfree_skiplist_churn_backlog_stays_bounded() {
    let list: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
    let retired = churn(&list);
    // One tower per removed element: retirement is exact.
    assert_eq!(retired, THREADS * ROUNDS * KEYS_PER_THREAD);
}

#[test]
fn lazy_skiplist_churn_backlog_stays_bounded() {
    let list: LazySkipList<u64, u64> = LazySkipList::new();
    let retired = churn(&list);
    assert_eq!(retired, THREADS * ROUNDS * KEYS_PER_THREAD);
}

#[test]
fn nhs_skiplist_churn_backlog_stays_bounded() {
    // A fast adaptation interval so the background thread also publishes
    // snapshots (and thus advances the retirement generation) mid-round;
    // the quiescent-point `try_reclaim` calls publish deterministically.
    let list: NhsSkipList<u64, u64> =
        NhsSkipList::with_sleep_time(std::time::Duration::from_millis(1));
    let retired = churn(&list);
    // One lane node per removed element: retirement is exact once the
    // limbo list has aged through its two snapshot generations.
    assert_eq!(retired, THREADS * ROUNDS * KEYS_PER_THREAD);
    // The usability probe at the end of `churn` unlinked one more node;
    // two further snapshot publications age it out of limbo.
    for _ in 0..3 {
        list.try_reclaim();
    }
    let stats = list.stats();
    assert_eq!(
        stats.get("limbo"),
        Some(0),
        "limbo must be empty at quiescence"
    );
    assert_eq!(stats.get("live_nodes"), Some(0));
}

#[test]
fn occ_btree_churn_backlog_stays_bounded() {
    // Narrow nodes (F = 8) so removals underflow leaves — and thus merge
    // and retire them — constantly rather than occasionally.
    let tree: OccBTree<u64, u64, 8> = OccBTree::new();
    let retired = churn(&tree);
    let stats = tree.stats();
    let merged = stats.get("nodes_merged").unwrap();
    println!("OCC B+-tree: merged {merged} node pairs, retired {retired}");
    assert!(merged > 0, "churn must trigger merges");
    assert_eq!(
        stats.get("live_nodes"),
        Some(1),
        "an emptied tree shrinks back to a single root leaf"
    );
}

#[test]
fn masstree_churn_backlog_stays_bounded() {
    let tree: MasstreeLite<u64, u64> = MasstreeLite::new();
    let retired = churn(&tree);
    let stats = tree.stats();
    let merged = stats.get("nodes_merged").unwrap();
    println!("Masstree-lite: merged {merged} node pairs, retired {retired}");
    assert!(merged > 0);
    assert_eq!(stats.get("live_nodes"), Some(1));
}

/// Mixed churn with overlapping key ranges plus concurrent scans: no
/// deterministic per-op assertions, but the structure must stay sorted,
/// torn-free and fully reclaimable — the cursor-vs-remove interaction is
/// exactly what the epoch guards protect.
#[test]
fn scans_race_removals_without_unsoundness() {
    let list: BSkipList<u64, u64, 8> =
        BSkipList::with_config(BSkipConfig::default().with_max_height(8));
    for key in 0..2_000u64 {
        list.insert(key, key);
    }
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let list = &list;
            scope.spawn(move || {
                for round in 0..30u64 {
                    for key in (t..2_000).step_by(2) {
                        list.remove(&key);
                    }
                    for key in (t..2_000).step_by(2) {
                        list.insert(key, round);
                    }
                }
            });
        }
        for _ in 0..2 {
            let list = &list;
            scope.spawn(move || {
                for _ in 0..200 {
                    let mut previous = None;
                    for (key, _) in list.scan(500..1_500u64) {
                        if let Some(p) = previous {
                            assert!(p < key, "scan went backwards under churn");
                        }
                        previous = Some(key);
                    }
                }
            });
        }
    });
    list.validate().expect("structure after scan/remove races");
    for _ in 0..8 {
        list.try_reclaim();
    }
    assert_eq!(list.reclamation().backlog, 0);
}
