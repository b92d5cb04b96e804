//! Throughput over time for all six indices under the delete-churn mix.
//!
//! `stat_reclamation` tracks the *memory* side of sustained delete-heavy
//! traffic (retired/freed/backlog per slice, reclaiming indices only).
//! This binary is its throughput complement, and it runs on **all six**
//! indices: after the usual load phase, the 25/25/25/25
//! insert/read/update/remove churn mix executes in consecutive time
//! slices and each slice's throughput is printed — a flat column means
//! the index sustains churn indefinitely, a decaying column exposes
//! structures that degrade as deletions accumulate (logical-delete
//! baselines accumulate tombstones; the epoch-reclaiming indices hold
//! steady because removal is physical and memory is bounded).
//!
//! The final column prints the live-key count so throughput trends can be
//! read against the (steady-state) index size, and the summary line per
//! index reports the slowest-to-fastest slice ratio — the number to watch
//! for degradation.
//!
//! Scale via `BSKIP_RECORDS` / `BSKIP_OPS` / `BSKIP_THREADS`.

use bskip_bench::{experiment_config, format_row, print_header, IndexKind};
use bskip_ycsb::{run_load_phase, run_run_phase, Workload, YcsbConfig};

/// Churn slices per index: enough to see a trend, few enough to keep the
/// default laptop-scale run quick.
const SLICES: usize = 8;

fn main() {
    let (config, _) = experiment_config();
    println!(
        "Churn-mix throughput over time, {} records, {} ops/slice x {} slices, {} threads",
        config.record_count,
        config.operation_count / SLICES,
        SLICES,
        config.threads,
    );

    for kind in IndexKind::ALL {
        let index = kind.build();
        run_load_phase(&index, &config);
        kind.settle_after_load(index.as_ref());

        print_header(
            &format!("{} — 25/25/25/25 churn", kind.label()),
            &["slice", "ops", "mops", "p50 us", "p999 us", "live keys"],
        );
        let slice_config = YcsbConfig {
            operation_count: (config.operation_count / SLICES).max(1),
            ..config
        };
        let mut throughputs = Vec::with_capacity(SLICES);
        for slice in 0..SLICES {
            let result = run_run_phase(&index, Workload::Churn, &slice_config);
            throughputs.push(result.mops());
            println!(
                "{}",
                format_row(&[
                    slice.to_string(),
                    result.operations.to_string(),
                    format!("{:.3}", result.mops()),
                    format!("{:.2}", result.latency.p50_us),
                    format!("{:.2}", result.latency.p999_us),
                    index.len().to_string(),
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
    }
    println!("\nFlat mops columns across slices are the pass criterion.");
}
