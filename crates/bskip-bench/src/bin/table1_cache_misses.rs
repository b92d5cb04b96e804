//! Table 1: LLC load misses of a traditional skiplist, a B+-tree and the
//! B-skiplist during YCSB Load + C and Load + E.
//!
//! The paper measures hardware LLC load misses with `perf`; this harness
//! uses the `bskip-cachesim` I/O-model simulator instead (see the README's
//! *Substitutions* section), fed by the shipped indices — the baselines'
//! Folly-style lazy skiplist and OCC B+-tree and `bskip-core`'s
//! B-skiplist — each reporting the bytes it touches, at its own node
//! layout's offsets, through its tracer.
//! The interesting output is the ratio columns SL/BSL and BT/BSL, which the
//! paper reports as 3.2/1.4 (Load + C) and 5.6/1.2 (Load + E).
//!
//! Scale with `BSKIP_RECORDS` / `BSKIP_OPS` (defaults: 200 000 each).

use bskip_bench::{experiment_config, format_row, print_header};
use bskip_cachesim::{CacheConfig, CacheSim, TracedIndex};
use bskip_core::BSkipConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Runs Load followed by the given run phase against one model, returning
/// total simulated cache misses.
fn run_model(
    model: &TracedIndex,
    records: usize,
    operations: usize,
    workload_e: bool,
    seed: u64,
) -> u64 {
    let mut cache = CacheSim::new(CacheConfig::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    // Load phase: insert `records` hashed keys.
    for i in 0..records as u64 {
        model.insert(bskip_ycsb::keygen::record_key(i), &mut cache);
    }
    // Run phase.
    let mut insert_cursor = records as u64;
    for _ in 0..operations {
        let logical = rng.gen_range(0..records as u64);
        let key = bskip_ycsb::keygen::record_key(logical);
        if workload_e {
            // Workload E: 95% scans (<= 100), 5% inserts.
            if rng.gen_bool(0.95) {
                let len = rng.gen_range(1..=100);
                model.scan(key, len, &mut cache);
            } else {
                model.insert(bskip_ycsb::keygen::record_key(insert_cursor), &mut cache);
                insert_cursor += 1;
            }
        } else {
            // Workload C: 100% finds.
            model.get(key, &mut cache);
        }
    }
    cache.stats().misses
}

/// The SL, BT and BSL miss counts of one row of the table.
fn row(records: usize, operations: usize, workload_e: bool) -> [u64; 3] {
    let run = |model: TracedIndex| run_model(&model, records, operations, workload_e, 11);
    [
        run(TracedIndex::skiplist(1)),
        run(TracedIndex::btree::<64>()),
        run(TracedIndex::bskiplist::<128>(
            BSkipConfig::paper_default(),
            1,
        )),
    ]
}

fn main() {
    let (config, _) = experiment_config();
    let records = config.record_count;
    let operations = config.operation_count;
    println!(
        "Table 1 reproduction: simulated LLC misses, {records} records loaded, {operations} run-phase ops"
    );
    print_header(
        "Table 1 — cache-line misses (I/O-model simulation)",
        &[
            "workload",
            "skiplist (SL)",
            "B-tree (BT)",
            "B-skiplist (BSL)",
            "SL/BSL",
            "BT/BSL",
        ],
    );
    for (label, workload_e) in [("Load + C", false), ("Load + E", true)] {
        let [sl, bt, bsl] = row(records, operations, workload_e);
        println!(
            "{}",
            format_row(&[
                label.to_string(),
                sl.to_string(),
                bt.to_string(),
                bsl.to_string(),
                format!("{:.1}", sl as f64 / bsl as f64),
                format!("{:.1}", bt as f64 / bsl as f64),
            ])
        );
    }
    println!("\nPaper (100M keys, hardware LLC): Load+C -> SL/BSL 3.2, BT/BSL 1.4; Load+E -> SL/BSL 5.6, BT/BSL 1.2");
}

#[cfg(test)]
mod tests {
    /// The three columns at CI scale, pinned at their measured counts:
    /// each index reports at its own node type's offsets, so a change to
    /// any of the three structures or their layouts moves them.
    #[test]
    fn all_three_columns_hold_at_ci_scale() {
        assert_eq!(super::row(4000, 4000, false), [7966, 1371, 1854]);
        assert_eq!(super::row(4000, 4000, true), [8410, 1434, 1908]);
    }
}
