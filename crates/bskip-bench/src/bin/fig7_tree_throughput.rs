//! Figure 7 / Table 5 (uniform): throughput of the tree-based indices
//! normalized to the B-skiplist on YCSB Load, A, B, C and E.
//!
//! The paper reports the B-skiplist at 1x–1.4x the B+-tree and 1x–2.1x
//! Masstree on point workloads, and the B+-tree ~1.4x faster on the
//! range-scan workload E.

use bskip_bench::{throughput_experiment, IndexKind};
use bskip_ycsb::Distribution;

fn main() {
    throughput_experiment(
        &IndexKind::TREES,
        Distribution::Uniform,
        "Figure 7 / Table 5: tree vs B-skiplist throughput",
        "Throughput (ops/us), normalized to the B-skiplist",
        &[
            ("OBT/BSL", IndexKind::OccBTree, Some(IndexKind::BSkipList)),
            ("MT/BSL", IndexKind::Masstree, Some(IndexKind::BSkipList)),
        ],
        "Paper: trees are 0.7x-1.1x the B-skiplist on Load/A-C; the B+-tree is ~1.4x faster on E.",
    );
}
