//! End-to-end YCSB pipeline tests: the driver, workloads and latency
//! machinery run against every index through the public API.

use bskip_suite::{
    BSkipConfig, BSkipList, ConcurrentIndex, LazySkipList, LockFreeSkipList, LsmConfig, LsmEngine,
    MasstreeLite, NhsSkipList, OccBTree,
};
use bskip_ycsb::{run_load_phase, run_run_phase, Distribution, Workload, YcsbConfig};

fn tiny_config() -> YcsbConfig {
    YcsbConfig::default()
        .with_records(10_000)
        .with_operations(10_000)
        .with_threads(4)
        .with_seed(42)
}

fn exercise(index: &dyn ConcurrentIndex<u64, u64>, name: &str) {
    let config = tiny_config();
    let load = run_load_phase(&index, &config);
    assert_eq!(load.operations, config.record_count, "{name} load ops");
    assert_eq!(index.len(), config.record_count, "{name} loaded size");
    assert!(load.throughput_ops_per_us > 0.0, "{name} load throughput");
    assert!(load.latency.count() > 0, "{name} load latency samples");

    for workload in [
        Workload::A,
        Workload::B,
        Workload::C,
        Workload::D,
        Workload::E,
    ] {
        let result = run_run_phase(&index, workload, &config);
        assert_eq!(
            result.operations, config.operation_count,
            "{name} {workload:?} ops"
        );
        assert!(
            result.latency.value_at_quantile(0.5) <= result.latency.value_at_quantile(0.999),
            "{name} {workload:?} percentiles must be monotone"
        );
    }
    // Workload C must not change the size; A/B/D/E inserts only grow it.
    assert!(
        index.len() >= config.record_count,
        "{name} shrank during delete-free run phases"
    );

    // The churn mix (25% removes) runs last: it must execute end-to-end on
    // every index and must not grow the index by anywhere near its insert
    // count (removes are live and mostly hit present keys).
    let before_churn = index.len();
    let churn = run_run_phase(&index, Workload::Churn, &config);
    assert_eq!(churn.operations, config.operation_count, "{name} churn ops");
    assert!(
        index.len() < before_churn + config.operation_count / 4,
        "{name}: churn removes did not offset inserts \
         (len {} after churn, {} before)",
        index.len(),
        before_churn
    );
}

#[test]
fn ycsb_pipeline_runs_against_every_index() {
    let bskip: BSkipList<u64, u64> = BSkipList::with_config(BSkipConfig::paper_default());
    exercise(&bskip, "B-skiplist");
    bskip.validate().expect("B-skiplist structure after YCSB");

    exercise(&LockFreeSkipList::<u64, u64>::new(), "lock-free skiplist");
    exercise(&LazySkipList::<u64, u64>::new(), "lazy skiplist");
    exercise(&NhsSkipList::<u64, u64>::new(), "NHS skiplist");
    exercise(&OccBTree::<u64, u64>::new(), "OCC B+-tree");
    exercise(&MasstreeLite::<u64, u64>::new(), "Masstree-lite");
}

#[test]
fn ycsb_pipeline_runs_against_the_durable_lsm_engine() {
    // The same end-to-end pipeline, but through the durable engine: every
    // mutation goes WAL → memtable, the load triggers real rotations and
    // flushes (the small config keeps the memtable tiny so all layers are
    // exercised), and reads merge memtable/immutables/SSTables.
    let dir = std::env::temp_dir().join(format!("bskip-ycsb-lsm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let engine = LsmEngine::<u64, u64>::open(&dir, LsmConfig::small()).expect("open engine");
        exercise(&engine, "bskip-lsm");
        let stats = engine.stats();
        let stat = |name: &str| stats.get(name).unwrap_or(0);
        assert!(
            stat("memtable_rotations") > 0,
            "10k-record load must rotate the tiny memtable"
        );
        assert!(stat("sst_flushes") > 0, "rotation backlog must flush");
        assert!(
            stat("compactions") > 0,
            "L0 must reach the compaction trigger during the load"
        );
    }
    // Reopen: YCSB's final state (including churn deletes) must survive.
    let reopened = LsmEngine::<u64, u64>::open(&dir, LsmConfig::small()).expect("reopen engine");
    let count = {
        let mut cursor =
            reopened.scan_bounds(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded);
        std::iter::from_fn(|| cursor.next()).count()
    };
    assert_eq!(count, reopened.len(), "recovered scan must match live_keys");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn churn_on_reclaiming_indices_reports_bounded_backlog() {
    // The three indices that retire removed nodes through the epoch
    // collector surface the reclamation counters through the uniform
    // stats interface, and a quiescent drain empties the backlog.
    fn exercise_reclaiming<I: ConcurrentIndex<u64, u64>>(
        index: &I,
        collect: impl Fn() -> usize,
        retires_per_remove: bool,
    ) {
        let config = tiny_config();
        run_load_phase(&index, &config);
        run_run_phase(&index, Workload::Churn, &config);
        let reclamation = index
            .stats()
            .reclamation()
            .unwrap_or_else(|| panic!("{} must export EBR stats", index.name()));
        if retires_per_remove {
            // One tower per element: every successful remove retires.
            assert!(
                reclamation.retired > 0,
                "{}: churn must retire nodes",
                index.name()
            );
        }
        for _ in 0..8 {
            collect();
        }
        let settled = index.stats().reclamation().unwrap();
        assert_eq!(
            settled.backlog,
            0,
            "{}: quiescent drain must empty the backlog",
            index.name()
        );
        assert_eq!(settled.freed, settled.retired, "{}", index.name());
    }

    // The B-skiplist retires a node only when a removal *empties* it, so
    // its retirement count under a random mix may be small (the dedicated
    // churn stress test drives it to high retirement); the tower-based
    // baselines retire on every successful remove.
    let bskip: BSkipList<u64, u64, 16> = BSkipList::new();
    exercise_reclaiming(&bskip, || bskip.try_reclaim(), false);
    bskip.validate().expect("B-skiplist structure after churn");
    let lockfree = LockFreeSkipList::<u64, u64>::new();
    exercise_reclaiming(&lockfree, || lockfree.try_reclaim(), true);
    let lazy = LazySkipList::<u64, u64>::new();
    exercise_reclaiming(&lazy, || lazy.try_reclaim(), true);
}

#[test]
fn zipfian_and_uniform_phases_produce_comparable_result_shapes() {
    let config = tiny_config();
    let uniform: BSkipList<u64, u64> = BSkipList::new();
    run_load_phase(&uniform, &config);
    let uniform_result = run_run_phase(&uniform, Workload::B, &config);

    let zipf_config = tiny_config().with_distribution(Distribution::Zipfian);
    let zipfian: BSkipList<u64, u64> = BSkipList::new();
    run_load_phase(&zipfian, &zipf_config);
    let zipfian_result = run_run_phase(&zipfian, Workload::B, &zipf_config);

    assert_eq!(uniform_result.operations, zipfian_result.operations);
    assert!(uniform_result.throughput_ops_per_us > 0.0);
    assert!(zipfian_result.throughput_ops_per_us > 0.0);
}

#[test]
fn load_phase_keys_are_retrievable_through_record_key_hashing() {
    let config = tiny_config();
    let index: OccBTree<u64, u64> = OccBTree::new();
    run_load_phase(&index, &config);
    for logical in (0..config.record_count as u64).step_by(173) {
        let key = bskip_ycsb::keygen::record_key(logical);
        assert_eq!(ConcurrentIndex::get(&index, &key), Some(logical));
    }
}

#[test]
fn root_write_lock_gap_between_btree_and_bskiplist() {
    // The Section 5.2 observation at small scale: the OCC B+-tree retires
    // to the root orders of magnitude more often than the B-skiplist takes
    // its top-level lock in write mode.
    let config = tiny_config();
    let btree: OccBTree<u64, u64> = OccBTree::new();
    run_load_phase(&btree, &config);
    let bskip: BSkipList<u64, u64> =
        BSkipList::with_config(BSkipConfig::paper_default().with_stats(true));
    run_load_phase(&bskip, &config);
    let btree_root_locks = btree.stats().get("root_write_locks").unwrap();
    let bskip_top_locks = bskip.stats().top_level_write_locks.get();
    assert!(
        btree_root_locks > 10,
        "B+-tree should split during a 10k load"
    );
    assert!(
        bskip_top_locks * 10 < btree_root_locks,
        "B-skiplist top-level write locks ({bskip_top_locks}) should be far rarer than B+-tree root locks ({btree_root_locks})"
    );
}
