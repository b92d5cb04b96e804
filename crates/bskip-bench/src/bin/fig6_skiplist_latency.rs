//! Figure 6 / Table 4 latency columns: percentile latencies (50/90/99/99.9)
//! of the skiplist-family indices on YCSB workload A with uniform keys.
//!
//! The paper reports the B-skiplist at 3.5x–103x lower 99th-percentile
//! latency than the other concurrent skiplists.

use bskip_bench::{latency_experiment, IndexKind};
use bskip_ycsb::Distribution;

fn main() {
    latency_experiment(
        &IndexKind::SKIPLISTS,
        Distribution::Uniform,
        "Figure 6: workload A latency percentiles",
        "Paper: B-skiplist p99 is 3.5x-103x lower than the other skiplists on workload A.",
    );
}
