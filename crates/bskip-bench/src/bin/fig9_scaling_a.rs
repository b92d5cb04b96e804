//! Figure 9: strong scaling of every index on YCSB workload A (50% finds /
//! 50% inserts), uniform keys, as the thread count grows.

use bskip_bench::scaling_experiment;
use bskip_ycsb::Workload;

fn main() {
    scaling_experiment(
        Workload::A,
        "Figure 9 — strong scaling on YCSB A",
        "Paper (128 threads): 35-45x speedups on workload A, 50-60x on workload C.",
    );
}
