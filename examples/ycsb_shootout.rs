//! A miniature version of the paper's headline experiment: run YCSB Load,
//! A, B, C and E against the B-skiplist and every baseline index and print
//! a throughput table (Figure 1 + Figure 7 in one).
//!
//! The last rows are the durable `bskip-lsm` engine (WAL + SSTables with
//! the B-skiplist as its memtable) — the cost of durability in one table —
//! and a hash-partitioned `ShardedIndex` over `BSKIP_SHARDS` B-skiplist
//! shards (default 4), all running the same workloads through the same
//! `ConcurrentIndex` surface.
//!
//! Run with: `cargo run --release --example ycsb_shootout`
//! Scale with the BSKIP_RECORDS / BSKIP_OPS / BSKIP_THREADS variables.
//! Select engines with `BSKIP_ENGINES=B-skiplist,bskip-lsm` (substring
//! match on the labels, comma-separated; unset runs everything).

use bskip_suite::{
    BSkipConfig, BSkipList, ConcurrentIndex, LazySkipList, LockFreeSkipList, LsmConfig, LsmEngine,
    MasstreeLite, NhsSkipList, OccBTree,
};
use bskip_ycsb::{run_load_phase, run_run_phase, Workload, YcsbConfig};
use std::sync::atomic::{AtomicU64, Ordering};

fn env(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Shard count for the `Sharded B-skiplist` row (`BSKIP_SHARDS`).
fn sharded_shards() -> usize {
    env("BSKIP_SHARDS", 4).max(1)
}

/// Scratch parent for the durable engine's per-build directories; removed
/// wholesale at the end of `main`.
fn lsm_scratch_parent() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bskip-shootout-{}", std::process::id()))
}

/// Opens a fresh durable engine in a unique subdirectory of the scratch
/// parent (each measurement cell gets its own empty store).
fn fresh_lsm() -> Box<dyn ConcurrentIndex<u64, u64>> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = lsm_scratch_parent().join(SEQ.fetch_add(1, Ordering::Relaxed).to_string());
    Box::new(LsmEngine::<u64, u64>::open(&dir, LsmConfig::default()).expect("open LSM engine"))
}

fn measure(
    build: &dyn Fn() -> Box<dyn ConcurrentIndex<u64, u64>>,
    workload: Workload,
    config: &YcsbConfig,
) -> f64 {
    let index = build();
    let load = run_load_phase(&index.as_ref(), config);
    if workload == Workload::Load {
        load.throughput_ops_per_us
    } else {
        run_run_phase(&index.as_ref(), workload, config).throughput_ops_per_us
    }
}

fn main() {
    let config = YcsbConfig::default()
        .with_records(env("BSKIP_RECORDS", 100_000))
        .with_operations(env("BSKIP_OPS", 100_000))
        .with_threads(env(
            "BSKIP_THREADS",
            std::thread::available_parallelism().map_or(4, |p| p.get()),
        ));
    println!(
        "YCSB shootout: {} records, {} ops, {} threads (scale with BSKIP_RECORDS/BSKIP_OPS/BSKIP_THREADS)",
        config.record_count, config.operation_count, config.threads
    );

    type IndexBuilder = Box<dyn Fn() -> Box<dyn ConcurrentIndex<u64, u64>>>;
    let systems: Vec<(&str, IndexBuilder)> = vec![
        (
            "B-skiplist",
            Box::new(|| {
                Box::new(BSkipList::<u64, u64>::with_config(
                    BSkipConfig::paper_default(),
                )) as Box<dyn ConcurrentIndex<u64, u64>>
            }),
        ),
        (
            "Folly-style SL",
            Box::new(|| Box::new(LockFreeSkipList::<u64, u64>::new()) as _),
        ),
        (
            "Java-style SL",
            Box::new(|| Box::new(LazySkipList::<u64, u64>::new()) as _),
        ),
        (
            "NoHotSpot SL",
            Box::new(|| Box::new(NhsSkipList::<u64, u64>::new()) as _),
        ),
        (
            "OCC B+-tree",
            Box::new(|| Box::new(OccBTree::<u64, u64>::new()) as _),
        ),
        (
            "Masstree-lite",
            Box::new(|| Box::new(MasstreeLite::<u64, u64>::new()) as _),
        ),
        ("bskip-lsm", Box::new(fresh_lsm)),
        (
            "Sharded B-skiplist",
            Box::new(|| {
                Box::new(bskip_suite::ShardedIndex::hash(sharded_shards(), |_| {
                    BSkipList::<u64, u64>::with_config(BSkipConfig::paper_default())
                })) as _
            }),
        ),
    ];

    // Engine selector: BSKIP_ENGINES=label,label keeps matching rows only.
    let systems: Vec<(&str, IndexBuilder)> = match std::env::var("BSKIP_ENGINES") {
        Ok(wanted) => {
            let wanted: Vec<String> = wanted
                .split(',')
                .map(|s| s.trim().to_ascii_lowercase())
                .filter(|s| !s.is_empty())
                .collect();
            systems
                .into_iter()
                .filter(|(label, _)| {
                    let label = label.to_ascii_lowercase();
                    wanted.iter().any(|want| label.contains(want))
                })
                .collect()
        }
        Err(_) => systems,
    };
    if systems.is_empty() {
        eprintln!("BSKIP_ENGINES matched no engine labels; nothing to run");
        return;
    }

    println!(
        "\n{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "index", "Load", "A", "B", "C", "E"
    );
    for (label, build) in &systems {
        let row: Vec<f64> = Workload::ALL
            .into_iter()
            .map(|workload| measure(build, workload, &config))
            .collect();
        println!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            label, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("\n(throughput in ops/us; first row is the B-skiplist, the paper's contribution)");

    let _ = std::fs::remove_dir_all(lsm_scratch_parent());
}
