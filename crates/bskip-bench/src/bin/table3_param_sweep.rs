//! Table 3: sensitivity sweep over the B-skiplist's node size (512 B –
//! 8192 B, i.e. 32–512 two-word entries) and the promotion scaling constant
//! `c ∈ {0.5, 1.0, 2.0}`, on a 100%-find workload and a 100%-insert
//! workload with uniform keys.
//!
//! The paper selects 2048-byte nodes (B = 128) with `c = 0.5` from this
//! sweep.  Reported metrics: throughput (ops/us) and 90/99/99.9 percentile
//! latencies for both workloads.

use bskip_bench::{experiment_config, format_row, latency_us, print_header};
use bskip_core::{BSkipConfig, BSkipList};
use bskip_ycsb::{run_load_phase, run_run_phase, PhaseResult, Workload, YcsbConfig};

/// Runs the 100%-insert (load) and 100%-find (workload C) phases for one
/// node-size / c configuration.
fn run_cell<const B: usize>(c: f64, config: &YcsbConfig) -> (PhaseResult, PhaseResult) {
    let list: BSkipList<u64, u64, B> =
        BSkipList::with_config(BSkipConfig::paper_default().with_promotion_c(c));
    let insert_result = run_load_phase(&list, config);
    let find_result = run_run_phase(&list, Workload::C, config);
    (find_result, insert_result)
}

fn main() {
    let (config, _) = experiment_config();
    println!(
        "Table 3: B-skiplist sensitivity sweep, {} records, {} ops, {} threads",
        config.record_count, config.operation_count, config.threads
    );
    print_header(
        "Table 3 — node size x promotion constant sweep",
        &[
            "bytes",
            "elts",
            "c",
            "find TP",
            "find p90",
            "find p99",
            "find p99.9",
            "ins TP",
            "ins p90",
            "ins p99",
            "ins p99.9",
        ],
    );
    let constants = [0.5, 1.0, 2.0];
    for &c in &constants {
        let (finds, inserts) = run_cell::<32>(c, &config);
        print_sweep_row(512, 32, c, &finds, &inserts);
    }
    for &c in &constants {
        let (finds, inserts) = run_cell::<64>(c, &config);
        print_sweep_row(1024, 64, c, &finds, &inserts);
    }
    for &c in &constants {
        let (finds, inserts) = run_cell::<128>(c, &config);
        print_sweep_row(2048, 128, c, &finds, &inserts);
    }
    for &c in &constants {
        let (finds, inserts) = run_cell::<256>(c, &config);
        print_sweep_row(4096, 256, c, &finds, &inserts);
    }
    for &c in &constants {
        let (finds, inserts) = run_cell::<512>(c, &config);
        print_sweep_row(8192, 512, c, &finds, &inserts);
    }
    println!(
        "\nPaper: best configuration is 2048-byte nodes (128 entries) with c = 0.5 (p = 1/64)."
    );
}

fn print_sweep_row(bytes: usize, elts: usize, c: f64, finds: &PhaseResult, inserts: &PhaseResult) {
    println!(
        "{}",
        format_row(&[
            bytes.to_string(),
            elts.to_string(),
            format!("{c:.1}"),
            format!("{:.2}", finds.throughput_ops_per_us),
            latency_us(&finds.latency, 0.9),
            latency_us(&finds.latency, 0.99),
            latency_us(&finds.latency, 0.999),
            format!("{:.2}", inserts.throughput_ops_per_us),
            latency_us(&inserts.latency, 0.9),
            latency_us(&inserts.latency, 0.99),
            latency_us(&inserts.latency, 0.999),
        ])
    );
}
