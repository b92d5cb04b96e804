//! Figure 10: strong scaling of every index on YCSB workload C (100%
//! finds), uniform keys, as the thread count grows.
//!
//! Read-only workloads scale better than workload A because there is no
//! lock contention from writers.

use bskip_bench::scaling_experiment;
use bskip_ycsb::Workload;

fn main() {
    scaling_experiment(
        Workload::C,
        "Figure 10 — strong scaling on YCSB C",
        "Paper (128 threads): 50-60x speedups for all systems except NHS (~35x).",
    );
}
