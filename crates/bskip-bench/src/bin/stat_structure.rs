//! Section 5.2 structural statistics of the B-skiplist:
//!
//! * average horizontal (`next`-pointer) steps per level during point
//!   workloads — the paper reports ~1.7 for workloads A–C;
//! * average leaf nodes visited per range query in workload E — the paper
//!   reports ~2 for the B-skiplist (vs ~1.5 for the B+-tree);
//! * node counts per level and average node fill, which explain both —
//!   for the concurrent list as loaded and after a FIFO insert/delete
//!   churn, which must leave its shape as loaded.

use bskip_bench::{experiment_config, format_row, print_header};
use bskip_core::height::reseed_thread_rng;
use bskip_core::{BSkipConfig, BSkipList};
use bskip_ycsb::keygen::record_key;
use bskip_ycsb::{run_load_phase, run_run_phase, Workload};

fn main() {
    let (config, _) = experiment_config();
    println!(
        "B-skiplist structural statistics, {} records, {} ops, {} threads",
        config.record_count, config.operation_count, config.threads
    );

    print_header(
        "Traversal statistics (stats-enabled B-skiplist)",
        &[
            "workload",
            "horizontal steps / level",
            "leaf nodes / range query",
        ],
    );
    for workload in [Workload::A, Workload::B, Workload::C, Workload::E] {
        let list: BSkipList<u64, u64> =
            BSkipList::with_config(BSkipConfig::paper_default().with_stats(true));
        run_load_phase(&list, &config);
        list.stats().reset();
        run_run_phase(&list, workload, &config);
        println!(
            "{}",
            format_row(&[
                workload.label().to_string(),
                format!("{:.2}", list.stats().horizontal_steps_per_level()),
                if workload == Workload::E {
                    format!("{:.2}", list.stats().leaf_nodes_per_range())
                } else {
                    "-".to_string()
                },
            ])
        );
    }

    // Occupancy under FIFO churn: the concurrent list loaded with the
    // records from this one thread, with its height stream seeded so the
    // table is reproducible, then one fresh key per operation, each paired
    // with the removal of the oldest live key (a memtable's steady state).
    // Header removals fold survivors back into the left neighbour, so the
    // shape after the churn should be the loaded one.
    reseed_thread_rng(42);
    let list: BSkipList<u64, u64> = BSkipList::with_config(BSkipConfig::paper_default());
    let records = config.record_count as u64;
    for i in 0..records {
        list.insert(record_key(i), i);
    }
    let loaded = list.level_shape();
    for i in 0..config.operation_count as u64 {
        list.insert(record_key(records + i), records + i);
        list.remove(&record_key(i));
    }
    let churned = list.level_shape();
    print_header(
        &format!(
            "Occupancy after {} FIFO churn ops (concurrent list)",
            config.operation_count
        ),
        &[
            "level",
            "nodes loaded",
            "keys/node loaded",
            "nodes churned",
            "keys/node churned",
        ],
    );
    let per_node = |(nodes, keys): (usize, usize)| format!("{:.1}", keys as f64 / nodes as f64);
    for (level, (&before, &after)) in loaded.iter().zip(&churned).enumerate() {
        println!(
            "{}",
            format_row(&[
                level.to_string(),
                before.0.to_string(),
                per_node(before),
                after.0.to_string(),
                per_node(after),
            ])
        );
    }
    println!("\nPaper: ~1.7 horizontal steps per level on A-C; ~2 leaf nodes per scan on E.");
}
