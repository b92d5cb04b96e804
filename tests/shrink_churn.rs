//! Property-based shrink-churn test: every index physically shrinks.
//!
//! PR 2/PR 4 closed the workspace's deletion gaps index by index; this
//! test pins the resulting invariant for **all six** indices at once: a
//! fill → delete-the-oldest-90% → quiesce cycle must shrink the *live
//! structural node count* (`live_nodes`), not merely clear value slots —
//! and the epoch collector must have actually freed what was retired
//! (zero backlog at the quiescent point).  The tree indices and the
//! B-skiplist must additionally report sibling/leaf merges, proving the
//! shrink came from structural rebalancing rather than from emptied-node
//! unlinking alone.
//!
//! The deletion pattern is a contiguous prefix — the memtable
//! flush-and-evict shape — because that is what empties nodes and ranges:
//! random sparse deletion leaves every node partially full and proves
//! nothing about structural reclamation.

use proptest::prelude::*;

use bskip_suite::{
    BSkipConfig, BSkipList, ConcurrentIndex, LazySkipList, LockFreeSkipList, MasstreeLite,
    NhsSkipList, OccBTree,
};

/// Fraction of the live-node count allowed to survive the delete phase.
const SURVIVOR_FRACTION: f64 = 0.6;

fn cycle(
    label: &str,
    index: &dyn ConcurrentIndex<u64, u64>,
    records: u64,
    expect_merges: bool,
) -> Result<(), TestCaseError> {
    for key in 0..records {
        index.insert(key, key);
    }
    let grown = index
        .stats()
        .get("live_nodes")
        .unwrap_or_else(|| panic!("{label} must export live_nodes"));
    prop_assert!(grown > 0, "{} grew no structure", label);

    let cut = records * 9 / 10;
    for key in 0..cut {
        prop_assert_eq!(index.remove(&key), Some(key), "{} key {}", label, key);
    }
    for _ in 0..8 {
        index.try_reclaim();
    }

    let stats = index.stats();
    let shrunk = stats.get("live_nodes").unwrap();
    prop_assert!(
        shrunk < grown,
        "{}: live nodes did not drop ({} -> {})",
        label,
        grown,
        shrunk
    );
    prop_assert!(
        (shrunk as f64) <= (grown as f64) * SURVIVOR_FRACTION,
        "{}: only value clearing? {} of {} nodes survived a 90% delete",
        label,
        shrunk,
        grown
    );
    if expect_merges {
        prop_assert!(
            stats.get("nodes_merged").unwrap_or(0) > 0,
            "{}: a 90% contiguous delete must merge siblings",
            label
        );
    }
    let reclamation = stats
        .reclamation()
        .unwrap_or_else(|| panic!("{label} must export reclamation stats"));
    prop_assert!(reclamation.retired > 0, "{} retired nothing", label);
    prop_assert_eq!(
        reclamation.backlog,
        0,
        "{}: backlog survived the quiescent point",
        label
    );
    prop_assert_eq!(reclamation.freed, reclamation.retired);

    // Survivors are intact and the structure is reusable: regrowing the
    // deleted prefix lands in the same ballpark as the first fill.
    for key in cut..records {
        prop_assert_eq!(index.get(&key), Some(key), "{} lost key {}", label, key);
    }
    for key in 0..cut {
        index.insert(key, key);
    }
    prop_assert_eq!(index.len() as u64, records);
    let regrown = index.stats().get("live_nodes").unwrap();
    prop_assert!(
        regrown <= grown * 2,
        "{}: regrow did not reuse space ({} vs first fill {})",
        label,
        regrown,
        grown
    );
    Ok(())
}

/// A bijective scramble, so that fresh keys land all over the key space.
fn hashed(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The steady FIFO churn of a long-running memtable: hashed keys are
/// loaded, then every fresh hashed key is paired with the removal of the
/// oldest live one.  The live set keeps its size, and so must the list.
/// Each promoted fresh key splits a leaf on every level it reaches;
/// removing that key later must undo the split, not leave a demoted
/// header over a half-empty node behind.
#[test]
fn fifo_churn_keeps_the_loaded_shape() {
    const LOADED: u64 = 20_000;
    const FRESH: u64 = 3 * LOADED;
    bskip_suite::core::height::reseed_thread_rng(7);
    let list: BSkipList<u64, u64, 16> = BSkipList::with_config(BSkipConfig::default());
    for i in 0..LOADED {
        list.insert(hashed(i), i);
    }
    let loaded = list.level_shape();
    for i in 0..FRESH {
        assert_eq!(list.insert(hashed(LOADED + i), LOADED + i), None);
        assert_eq!(list.remove(&hashed(i)), Some(i));
    }
    let churned = list.level_shape();
    list.validate().expect("structure after the churn");
    assert_eq!(list.len() as u64, LOADED);
    for level in 0..2 {
        let (before, after) = (loaded[level].0 as f64, churned[level].0 as f64);
        assert!(
            (after - before).abs() <= 0.1 * before,
            "level {level}: {before} nodes loaded, {after} after the churn"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The fill/delete/regrow cycle shrinks every index structurally,
    /// across randomized record counts.
    #[test]
    fn every_index_shrinks_structurally(records in 1200u64..2600) {
        // Stats on so the fold counter is visible: a contiguous prefix
        // delete takes out header after header, and each removal must
        // fold the leaf's survivors back into its left neighbour.
        let bskip: BSkipList<u64, u64, 16> =
            BSkipList::with_config(BSkipConfig::default().with_max_height(8).with_stats(true));
        cycle("B-skiplist", &bskip, records, true)?;

        let lockfree: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        cycle("lock-free skiplist", &lockfree, records, false)?;

        let lazy: LazySkipList<u64, u64> = LazySkipList::new();
        cycle("lazy skiplist", &lazy, records, false)?;

        let nhs: NhsSkipList<u64, u64> =
            NhsSkipList::with_sleep_time(std::time::Duration::from_millis(1));
        cycle("NHS skiplist", &nhs, records, false)?;

        let btree: OccBTree<u64, u64> = OccBTree::new();
        cycle("OCC B+-tree", &btree, records, true)?;

        let masstree: MasstreeLite<u64, u64> = MasstreeLite::new();
        cycle("Masstree-lite", &masstree, records, true)?;
    }
}
