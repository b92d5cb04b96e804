//! Section 5.2 statistic: how often each index takes its root/top-level
//! lock in write mode during the load phase, during workload A and — the
//! paper's workloads delete nothing — during the delete-churn mix.
//!
//! The paper reports 26 K root write locks for the B+-tree versus 7 for the
//! B-skiplist during the load phase (8.3 K vs 3 during workload A) — the
//! structural explanation for the B+-tree's heavier latency tail.  Deletes
//! are symmetric (footnote 3): a removal write-locks the B-skiplist's top
//! level only when the removed key's tower reaches it.

use bskip_baselines::OccBTree;
use bskip_bench::{experiment_config, format_row, print_header};
use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::ConcurrentIndex;
use bskip_ycsb::{run_load_phase, run_run_phase, Workload};

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

    // B-skiplist with statistics enabled.
    let bsl: BSkipList<u64, u64> =
        BSkipList::with_config(BSkipConfig::paper_default().with_stats(true));
    run_load_phase(&bsl, &config);
    let mut row = vec![
        "B-skiplist".to_string(),
        bsl.stats().top_level_write_locks.get().to_string(),
    ];
    for workload in [Workload::A, Workload::Churn] {
        bsl.stats().reset();
        run_run_phase(&bsl, workload, &config);
        row.push(bsl.stats().top_level_write_locks.get().to_string());
    }
    println!("{}", format_row(&row));

    // OCC B+-tree.
    let obt: OccBTree<u64, u64> = OccBTree::new();
    run_load_phase(&obt, &config);
    let mut row = vec![
        "OCC B+-tree".to_string(),
        obt.root_write_locks().to_string(),
    ];
    for workload in [Workload::A, Workload::Churn] {
        obt.reset_root_write_locks();
        run_run_phase(&obt, workload, &config);
        row.push(obt.root_write_locks().to_string());
    }
    println!("{}", format_row(&row));

    println!("\nPaper (100M keys): B+-tree 26K / 8.3K vs B-skiplist 7 / 3.");
    println!(
        "(The absolute counts scale with the dataset; the orders-of-magnitude gap is the result.)"
    );
    // Keep the indices alive until the end so the length check below reads
    // sensible values.
    println!(
        "\nfinal sizes: B-skiplist {} keys, B+-tree {} keys",
        ConcurrentIndex::len(&bsl),
        obt.len()
    );
}
