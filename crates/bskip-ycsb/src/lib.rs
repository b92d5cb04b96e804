//! YCSB workload generation and the multi-threaded benchmark driver.
//!
//! The paper evaluates every index with the Yahoo! Cloud Serving Benchmark
//! (YCSB) core workloads, generated in the style of the RECIPE harness and
//! driven by a pthreads test driver.  This crate reproduces that pipeline
//! in Rust:
//!
//! * [`keygen`] — key-space hashing plus the uniform and (scrambled)
//!   Zipfian request distributions used in the paper's run phases;
//! * [`workload`] — the workload mixes of Table 2 (Load, A, B, C, E);
//! * [`driver`] — the load-phase and run-phase executors that fan the
//!   operations out over worker threads against any
//!   [`bskip_index::ConcurrentIndex`], returning throughput and a latency
//!   histogram ([`bskip_sync::Histogram`]).  The paper times batches of ten
//!   operations and reports percentiles of the batch means; here each
//!   thread times single operations, one in ten, so a slow operation is
//!   one slow sample instead of a tenth of one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod keygen;
pub mod workload;

pub use driver::{run_load_phase, run_run_phase, PhaseResult, YcsbConfig};
pub use keygen::{Distribution, KeyChooser, ZipfianGenerator};
pub use workload::{Operation, Workload};
