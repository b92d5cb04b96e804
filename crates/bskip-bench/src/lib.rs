//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the paper
//! (the README's "Running the experiments" section is the index), with
//! one exception: `stat_reclamation` runs the delete-churn mix, which the
//! paper's YCSB workloads never exercise.  They all share the helpers
//! here, and the `ycsb_shootout` example shares the index registry:
//!
//! * [`IndexKind`] — the six evaluated indices (B-skiplist + five
//!   baselines); [`IndexKind::build`] hands out a fresh one as a
//!   `Box<dyn ConcurrentIndex<u64, u64>>`, so experiments iterate over them
//!   and read every counter through `stats()`;
//! * [`experiment_config`] — the experiment scale, read from environment
//!   variables so the same binaries run laptop-sized by default and
//!   paper-sized when asked (`BSKIP_RECORDS`, `BSKIP_OPS`, `BSKIP_THREADS`,
//!   `BSKIP_TRIALS`);
//! * [`run_workload_fresh`] — the paper's protocol for one cell of a
//!   throughput table: build a fresh index, run the load phase, let the
//!   index settle (NHS index rebuild), then run the requested workload;
//! * [`throughput_experiment`], [`latency_experiment`] and
//!   [`scaling_experiment`] — the table loops behind Figures 1 / 7, 6 / 8
//!   and 9 / 10, each shared by the two binaries that differ in index set
//!   and normalization only;
//! * small table-formatting helpers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod harness;

pub use harness::{
    experiment_config, format_row, latency_experiment, latency_us, print_header,
    run_workload_fresh, scaling_experiment, throughput_experiment, IndexKind, RatioColumn,
};
