//! Section 5.2 statistic: how often each index takes its root/top-level
//! lock in write mode during the load phase, during workload A and — the
//! paper's workloads delete nothing — during the delete-churn mix.
//!
//! The paper reports 26 K root write locks for the B+-tree versus 7 for the
//! B-skiplist during the load phase (8.3 K vs 3 during workload A) — the
//! structural explanation for the B+-tree's and Masstree's heavier latency
//! tails in Figure 8.  Deletes are symmetric (footnote 3): a removal
//! write-locks the B-skiplist's top level only when the removed key's
//! tower reaches it.
//!
//! Each run column runs on its own freshly loaded index, the protocol of
//! `run_workload_fresh`: a second run phase on the same index would start
//! its fresh inserts at the keys the first one already inserted.

use bskip_baselines::{MasstreeLite, OccBTree};
use bskip_bench::{experiment_config, format_row, print_header};
use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::ConcurrentIndex;
use bskip_ycsb::{run_load_phase, run_run_phase, Workload, YcsbConfig};

fn main() {
    let (config, _) = experiment_config();
    println!(
        "Root write-lock statistic, {} records, {} ops, {} threads",
        config.record_count, config.operation_count, config.threads
    );
    print_header(
        "Root / top-level write-lock acquisitions",
        &["index", "load phase", "workload A", "churn"],
    );
    print_row(
        "B-skiplist",
        "top_level_write_locks",
        || BSkipList::<u64, u64>::with_config(BSkipConfig::paper_default().with_stats(true)),
        &config,
    );
    print_row(
        "OCC B+-tree",
        "root_write_locks",
        OccBTree::<u64, u64>::new,
        &config,
    );
    print_row(
        "Masstree-lite",
        "root_write_locks",
        MasstreeLite::<u64, u64>::new,
        &config,
    );

    println!("\nPaper (100M keys): B+-tree 26K / 8.3K vs B-skiplist 7 / 3.");
    println!(
        "(The absolute counts scale with the dataset; the orders-of-magnitude gap is the result.)"
    );
}

/// One table row: `stat` after the load phase, then after workload A and
/// after the churn mix, each on a fresh index loaded for that column.
fn print_row<I: ConcurrentIndex<u64, u64>>(
    label: &str,
    stat: &str,
    build: impl Fn() -> I,
    config: &YcsbConfig,
) {
    let mut row = vec![label.to_string()];
    for workload in [Workload::Load, Workload::A, Workload::Churn] {
        let index = build();
        run_load_phase(&index, config);
        if workload != Workload::Load {
            index.reset_stats();
            run_run_phase(&index, workload, config);
        }
        let count = index
            .stats()
            .get(stat)
            .expect("the index exports the statistic");
        row.push(count.to_string());
    }
    println!("{}", format_row(&row));
}
