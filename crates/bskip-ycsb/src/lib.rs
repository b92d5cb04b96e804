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
//! * [`latency`] — the paper's latency methodology: each thread records the
//!   average latency of batches of ten operations, and percentiles are
//!   computed over the merged batch samples;
//! * [`driver`] — the load-phase and run-phase executors that fan the
//!   operations out over worker threads against any
//!   [`bskip_index::ConcurrentIndex`], returning throughput and latency
//!   summaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod driver;
pub mod keygen;
pub mod latency;
pub mod workload;

pub use driver::{run_load_phase, run_run_phase, PhaseResult, YcsbConfig};
pub use keygen::{Distribution, KeyChooser, ZipfianGenerator};
pub use latency::{LatencySummary, BATCH_SIZE};
pub use workload::{Operation, Workload};
