//! A miniature version of the paper's headline experiment: run YCSB Load,
//! A, B, C and E against the B-skiplist and every baseline index and print
//! a throughput table (Figure 1 + Figure 7 in one).
//!
//! The six in-memory rows are `bskip-bench`'s index registry, measured
//! with the figure binaries' protocol (fresh index, load, settle, run).
//! The last rows are the durable `bskip-lsm` engine (WAL + SSTables with
//! the B-skiplist as its memtable) — the cost of durability in one table —
//! and a hash-partitioned `ShardedIndex` over four B-skiplist shards, all
//! running the same workloads through the same `ConcurrentIndex` surface.
//!
//! Run with: `cargo run --release --example ycsb_shootout`
//! Scale with the BSKIP_RECORDS / BSKIP_OPS / BSKIP_THREADS variables.
//! Select engines with `BSKIP_ENGINES=B-skiplist,bskip-lsm` (substring
//! match on the labels, comma-separated; unset runs everything).

use bskip_bench::{experiment_config, IndexKind};
use bskip_suite::{BSkipConfig, BSkipList, ConcurrentIndex, LsmConfig, LsmEngine, ShardedIndex};
use bskip_ycsb::{run_load_phase, run_run_phase, Workload, YcsbConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shard count of the `Sharded B-skiplist` row.
const SHARDS: usize = 4;

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

/// Throughput of one cell: a fresh index from `build`, the load phase, the
/// registry's settle step for an in-memory `kind`, then `workload`.
fn measure(
    build: &dyn Fn() -> Box<dyn ConcurrentIndex<u64, u64>>,
    kind: Option<IndexKind>,
    workload: Workload,
    config: &YcsbConfig,
) -> f64 {
    let index = build();
    let load = run_load_phase(&index, config);
    if let Some(kind) = kind {
        kind.settle_after_load(index.as_ref());
    }
    if workload == Workload::Load {
        load.throughput_ops_per_us
    } else {
        run_run_phase(&index, workload, config).throughput_ops_per_us
    }
}

fn main() {
    let (config, _) = experiment_config();
    println!(
        "YCSB shootout: {} records, {} ops, {} threads (scale with BSKIP_RECORDS/BSKIP_OPS/BSKIP_THREADS)",
        config.record_count, config.operation_count, config.threads
    );

    type IndexBuilder = Box<dyn Fn() -> Box<dyn ConcurrentIndex<u64, u64>>>;
    let mut systems: Vec<(&str, Option<IndexKind>, IndexBuilder)> = IndexKind::ALL
        .into_iter()
        .map(|kind| {
            (
                kind.label(),
                Some(kind),
                Box::new(move || kind.build()) as IndexBuilder,
            )
        })
        .collect();
    systems.push(("bskip-lsm", None, Box::new(fresh_lsm)));
    systems.push((
        "Sharded B-skiplist",
        None,
        Box::new(|| {
            Box::new(ShardedIndex::hash(SHARDS, |_| {
                BSkipList::<u64, u64>::with_config(BSkipConfig::paper_default())
            }))
        }),
    ));

    // Engine selector: BSKIP_ENGINES=label,label keeps matching rows only.
    if let Ok(wanted) = std::env::var("BSKIP_ENGINES") {
        let wanted: Vec<String> = wanted
            .split(',')
            .map(|s| s.trim().to_ascii_lowercase())
            .filter(|s| !s.is_empty())
            .collect();
        systems.retain(|(label, ..)| {
            let label = label.to_ascii_lowercase();
            wanted.iter().any(|want| label.contains(want))
        });
    }
    if systems.is_empty() {
        eprintln!("BSKIP_ENGINES matched no engine labels; nothing to run");
        return;
    }

    println!(
        "\n{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "index", "Load", "A", "B", "C", "E"
    );
    for (label, kind, build) in &systems {
        let row: Vec<f64> = Workload::ALL
            .into_iter()
            .map(|workload| measure(build, *kind, workload, &config))
            .collect();
        println!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            label, row[0], row[1], row[2], row[3], row[4]
        );
    }
    println!("\n(throughput in ops/us; first row is the B-skiplist, the paper's contribution)");

    let _ = std::fs::remove_dir_all(lsm_scratch_parent());
}
