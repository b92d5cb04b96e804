//! Figure 8 / Table 5 latency columns: percentile latencies of the
//! B-skiplist and the tree-based indices on YCSB workload A, uniform keys.
//!
//! The paper attributes the B+-tree's and Masstree's heavier tails to OCC
//! retries that retire to the root with write locks; `stat_root_locks`
//! counts those locks for all three indices, per phase.

use bskip_bench::{latency_experiment, IndexKind};
use bskip_ycsb::Distribution;

fn main() {
    latency_experiment(
        &IndexKind::TREES,
        Distribution::Uniform,
        "Figure 8: tree-index latency percentiles on workload A",
        "Paper: the B-skiplist has the lowest p99/p99.9 because it never retires to the root.",
    );
}
