//! Figures 11–13 / Tables 4–5 (zipfian columns): the skiplist and tree
//! comparisons repeated with a Zipfian run-phase distribution.
//!
//! The paper finds the zipfian results within ~20% of the uniform ones with
//! the same relative ordering.

use bskip_bench::{latency_experiment, throughput_experiment, IndexKind};
use bskip_ycsb::Distribution;

const PAPER_NOTE: &str =
    "Paper: zipfian results track the uniform results within ~20% with the same ordering.";

fn main() {
    throughput_experiment(
        &IndexKind::SKIPLISTS,
        Distribution::Zipfian,
        "Figure 11: skiplist throughput, zipfian run phase",
        "Throughput (ops/us), zipfian keys; ratios as in Figure 1",
        &[
            (
                "BSL/NHS",
                IndexKind::BSkipList,
                Some(IndexKind::NhsSkipList),
            ),
            ("BSL/best-other", IndexKind::BSkipList, None),
        ],
        PAPER_NOTE,
    );
    throughput_experiment(
        &IndexKind::TREES,
        Distribution::Zipfian,
        "Figure 12: tree vs B-skiplist throughput, zipfian run phase",
        "Throughput (ops/us), zipfian keys, normalized to the B-skiplist",
        &[
            ("OBT/BSL", IndexKind::OccBTree, Some(IndexKind::BSkipList)),
            ("MT/BSL", IndexKind::Masstree, Some(IndexKind::BSkipList)),
        ],
        PAPER_NOTE,
    );
    latency_experiment(
        &IndexKind::ALL,
        Distribution::Zipfian,
        "Figure 13: workload A latency percentiles, zipfian run phase",
        PAPER_NOTE,
    );
}
