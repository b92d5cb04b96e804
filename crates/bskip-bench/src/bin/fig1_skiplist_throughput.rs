//! Figure 1 / Table 4 (uniform): throughput of the skiplist-family indices
//! on YCSB Load, A, B, C and E, normalized to the No-Hot-Spot skiplist.
//!
//! The paper reports the B-skiplist at 2x–9x the throughput of the other
//! concurrent skiplists across these workloads.
//!
//! Scale with `BSKIP_RECORDS`, `BSKIP_OPS`, `BSKIP_THREADS`, `BSKIP_TRIALS`.

use bskip_bench::{throughput_experiment, IndexKind};
use bskip_ycsb::Distribution;

fn main() {
    throughput_experiment(
        &IndexKind::SKIPLISTS,
        Distribution::Uniform,
        "Figure 1 / Table 4: skiplist throughput",
        "Throughput (ops/us); ratios normalized as in Figure 1",
        &[
            ("BSL/NHS", IndexKind::BSkipList, Some(IndexKind::NhsSkipList)),
            ("BSL/best-other", IndexKind::BSkipList, None),
        ],
        "Paper (128 threads, 100M keys): B-skiplist is 2x-9x the other skiplists on every workload.",
    );
}
