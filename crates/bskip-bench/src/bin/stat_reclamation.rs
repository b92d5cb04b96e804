//! Throughput and live-vs-retired node tracking under the delete-churn
//! workloads.
//!
//! The paper's YCSB mixes (Load, A, B, C, E) never delete, so they cannot
//! observe the one failure mode that disqualifies an index for sustained
//! production traffic: throughput or memory that degrades with the remove
//! count.  This experiment loads each of the six indices once, runs the
//! churn mix (25/25/25/25 insert/read/update/remove) on it in consecutive
//! time slices, and prints, per slice:
//!
//! * `ops` / `mops` / `p50 us` / `p999 us` — the slice's throughput and
//!   latency: a flat column means the index sustains churn indefinitely, a
//!   decaying one exposes a structure that degrades as deletions
//!   accumulate;
//! * `live keys` — the index's logical size;
//! * `retired` / `freed` — cumulative nodes handed to and released by the
//!   collector;
//! * `backlog` — retired-but-unfreed nodes, the quantity the epoch
//!   machinery must keep **bounded** (a leak shows up as a backlog that
//!   grows with every slice);
//! * `epoch` — the collector's global epoch (advancing epochs are what
//!   drain the bags).
//!
//! Each index's table ends with its slowest-to-fastest slice ratio, its
//! largest backlog as a share of its retirements, and the backlog left
//! once `try_reclaim` has run at quiescence until it drains (at most
//! [`DRAIN_ROUNDS`] times).  A workload D (read-latest) pass is included
//! for throughput context.  The run fails if any index still holds a
//! retired node after draining: its collector does not free.
//!
//! Scale via `BSKIP_RECORDS` / `BSKIP_OPS` / `BSKIP_THREADS` as usual.

use bskip_bench::{experiment_config, format_row, latency_us, print_header, IndexKind};
use bskip_ycsb::{run_load_phase, run_run_phase, Workload, YcsbConfig};

/// Churn slices per index: enough to see whether throughput and backlog
/// trend flat or not.
const SLICES: usize = 8;

/// `try_reclaim` calls at quiescence after which every retired node must
/// have been freed.
const DRAIN_ROUNDS: usize = 8;

fn main() -> Result<(), String> {
    let (config, _) = experiment_config();
    println!(
        "Delete-churn throughput and reclamation, {} records, {} ops/slice x {} slices, {} threads",
        config.record_count,
        config.operation_count / SLICES,
        SLICES,
        config.threads
    );

    // Every index retires removed nodes through the collector: the
    // skiplists per removed tower, the trees per merged/collapsed node, the
    // NHS list through its rebuild-generation limbo.
    let mut undrained = Vec::new();
    for kind in IndexKind::ALL {
        let index = kind.build();
        run_load_phase(&index, &config);
        kind.settle_after_load(index.as_ref());

        print_header(
            &format!("{} — 25/25/25/25 churn", kind.label()),
            &[
                "slice",
                "ops",
                "mops",
                "p50 us",
                "p999 us",
                "live keys",
                "retired",
                "freed",
                "backlog",
                "epoch",
            ],
        );
        let slice_config = YcsbConfig {
            operation_count: (config.operation_count / SLICES).max(1),
            ..config
        };
        let mut throughputs = Vec::with_capacity(SLICES);
        let mut max_backlog = 0u64;
        for slice in 0..SLICES {
            let result = run_run_phase(&index, Workload::Churn, &slice_config);
            throughputs.push(result.throughput_ops_per_us);
            let stats = index.stats();
            let reclamation = stats
                .reclamation()
                .expect("reclaiming index exports EBR stats");
            max_backlog = max_backlog.max(reclamation.backlog);
            println!(
                "{}",
                format_row(&[
                    slice.to_string(),
                    result.operations.to_string(),
                    format!("{:.3}", result.throughput_ops_per_us),
                    latency_us(&result.latency, 0.5),
                    latency_us(&result.latency, 0.999),
                    index.len().to_string(),
                    reclamation.retired.to_string(),
                    reclamation.freed.to_string(),
                    reclamation.backlog.to_string(),
                    reclamation.epoch.to_string(),
                ])
            );
        }
        let slowest = throughputs.iter().cloned().fold(f64::INFINITY, f64::min);
        let fastest = throughputs.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "slowest/fastest slice: {:.2} (1.00 = perfectly flat; a decaying ratio means \
             churn degrades this index)",
            if fastest > 0.0 {
                slowest / fastest
            } else {
                0.0
            }
        );
        let retired = index.stats().reclamation().unwrap().retired;
        println!(
            "max backlog {} over {} retirements ({:.2}% of retired kept in flight)",
            max_backlog,
            retired,
            if retired > 0 {
                100.0 * max_backlog as f64 / retired as f64
            } else {
                0.0
            }
        );
        let backlog = || index.stats().reclamation().unwrap().backlog;
        let before = backlog();
        let mut rounds = 0;
        while backlog() > 0 && rounds < DRAIN_ROUNDS {
            index.try_reclaim();
            rounds += 1;
        }
        println!(
            "drained at quiescence: backlog {before} -> {} after {rounds} try_reclaim rounds",
            backlog()
        );
        if backlog() > 0 {
            undrained.push(kind.label());
        }
    }

    print_header(
        "Workload D (read-latest) throughput",
        &["index", "mops", "p50 us", "p999 us"],
    );
    for kind in IndexKind::ALL {
        let index = kind.build();
        run_load_phase(&index, &config);
        kind.settle_after_load(index.as_ref());
        let result = run_run_phase(&index, Workload::D, &config);
        println!(
            "{}",
            format_row(&[
                kind.label().to_string(),
                format!("{:.3}", result.throughput_ops_per_us),
                latency_us(&result.latency, 0.5),
                latency_us(&result.latency, 0.999),
            ])
        );
    }
    println!(
        "\nFlat mops columns and a bounded backlog column (flat, not growing with slices) \
         are the pass criterion."
    );
    if undrained.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "retired nodes left after {DRAIN_ROUNDS} try_reclaim rounds at quiescence: {}",
            undrained.join(", ")
        ))
    }
}
