//! The multi-threaded YCSB driver.
//!
//! Mirrors the paper's pthread test driver: a load phase inserts
//! `record_count` records concurrently from all threads, then a run phase
//! executes `operation_count` operations drawn from the chosen workload mix
//! and request distribution.  Both phases report throughput (operations per
//! microsecond, the paper's unit) and batched-latency percentiles.
//!
//! Workload E's `SCAN` operation drives the index's cursor API
//! ([`ConcurrentIndex::scan`]): it opens a cursor at the chosen record key
//! and takes the drawn number of entries, which exercises the same
//! cursor path real scan consumers (pagination, compaction) use.
//!
//! The delete-churn mixes ride on the same machinery: workload D's reads
//! target *recently inserted* records (a Zipfian over recency anchored at
//! the shared insert watermark), and the churn mix's updates and removes
//! target a uniform draw over everything inserted so far — so removes
//! chase run-phase inserts and the index reaches a steady state in which
//! reclamation, not accumulation, governs memory.
//!
//! Both phases issue point operations only, one index call per operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bskip_index::ConcurrentIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::keygen::{record_key, Distribution, KeyChooser, ZipfianGenerator};
use crate::latency::{LatencyRecorder, LatencySummary, BATCH_SIZE};
use crate::workload::{Operation, Workload};

/// Configuration of a YCSB experiment (both phases).
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Records inserted during the load phase (the paper uses 100 M; the
    /// default here is laptop-scale).
    pub record_count: usize,
    /// Operations executed during the run phase.
    pub operation_count: usize,
    /// Worker threads for both phases.
    pub threads: usize,
    /// Request distribution of the run phase.
    pub distribution: Distribution,
    /// Base seed; every thread derives its own stream from it.
    pub seed: u64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            record_count: 1_000_000,
            operation_count: 1_000_000,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            distribution: Distribution::Uniform,
            seed: 0xC0FFEE,
        }
    }
}

impl YcsbConfig {
    /// Builder-style setter for the record count.
    pub fn with_records(mut self, record_count: usize) -> Self {
        self.record_count = record_count;
        self
    }

    /// Builder-style setter for the run-phase operation count.
    pub fn with_operations(mut self, operation_count: usize) -> Self {
        self.operation_count = operation_count;
        self
    }

    /// Builder-style setter for the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style setter for the request distribution.
    pub fn with_distribution(mut self, distribution: Distribution) -> Self {
        self.distribution = distribution;
        self
    }

    /// Builder-style setter for the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one phase (load or run).
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Operations executed.
    pub operations: usize,
    /// Wall-clock time in seconds.
    pub elapsed_secs: f64,
    /// Throughput in operations per microsecond (the paper's unit).
    pub throughput_ops_per_us: f64,
    /// Latency percentile summary over 10-operation batches.
    pub latency: LatencySummary,
}

impl PhaseResult {
    /// Throughput in million operations per second (same number as
    /// [`PhaseResult::throughput_ops_per_us`], provided for readability).
    pub fn mops(&self) -> f64 {
        self.throughput_ops_per_us
    }
}

/// Runs one timed phase: `operations` operations split evenly over
/// `threads` scoped threads.  Thread `t` builds its per-operation closure
/// with `op_for(t)` and calls it on each index of its share of
/// `0..operations`, timing batches of `BATCH_SIZE` operations.
fn timed_phase<Op>(
    threads: usize,
    operations: usize,
    op_for: impl Fn(usize) -> Op + Sync,
) -> PhaseResult
where
    Op: FnMut(usize),
{
    let threads = threads.max(1);
    let start = Instant::now();
    let samples: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread_id| {
                let op_for = &op_for;
                scope.spawn(move || {
                    let lo = operations * thread_id / threads;
                    let hi = operations * (thread_id + 1) / threads;
                    let mut op = op_for(thread_id);
                    let mut recorder = LatencyRecorder::with_capacity((hi - lo) / BATCH_SIZE + 1);
                    for batch_lo in (lo..hi).step_by(BATCH_SIZE) {
                        let batch = batch_lo..hi.min(batch_lo + BATCH_SIZE);
                        let in_batch = batch.len();
                        let batch_start = Instant::now();
                        batch.for_each(&mut op);
                        recorder.record_batch(batch_start.elapsed().as_nanos() as u64, in_batch);
                    }
                    recorder.into_samples()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();
    let throughput = if elapsed_secs > 0.0 {
        operations as f64 / (elapsed_secs * 1e6)
    } else {
        0.0
    };
    PhaseResult {
        operations,
        elapsed_secs,
        throughput_ops_per_us: throughput,
        latency: LatencySummary::from_samples(samples.into_iter().flatten().collect()),
    }
}

/// Executes the YCSB load phase: every logical record index in
/// `0..record_count` is inserted exactly once, with the index space
/// partitioned across threads.
pub fn run_load_phase<I>(index: &I, config: &YcsbConfig) -> PhaseResult
where
    I: ConcurrentIndex<u64, u64>,
{
    timed_phase(config.threads, config.record_count, |_| {
        |logical: usize| {
            index.insert(record_key(logical as u64), logical as u64);
        }
    })
}

/// Executes a YCSB run phase for `workload` against an already-loaded
/// index.
///
/// Run-phase inserts create brand-new records (logical indices beyond
/// `record_count`, allocated from a shared atomic counter), reads and scans
/// target loaded records chosen by the configured distribution.
///
/// The counter starts at `record_count` on every call, so a second run
/// phase on the same index re-inserts the first one's keys: its "inserts"
/// are overwrites.  Measure each run phase on a freshly loaded index when
/// fresh inserts matter.
pub fn run_run_phase<I>(index: &I, workload: Workload, config: &YcsbConfig) -> PhaseResult
where
    I: ConcurrentIndex<u64, u64>,
{
    assert!(
        workload != Workload::Load,
        "use run_load_phase for the load phase"
    );
    let insert_cursor = &AtomicU64::new(config.record_count as u64);
    timed_phase(config.threads, config.operation_count, |thread_id| {
        let mut rng =
            SmallRng::seed_from_u64(config.seed ^ (thread_id as u64).wrapping_mul(0x9E37));
        let chooser = KeyChooser::new(config.distribution, config.record_count.max(1) as u64);
        // Workload D's "latest" distribution: a Zipfian over recency,
        // anchored at the shared insert watermark.
        let latest = ZipfianGenerator::new(config.record_count.max(2) as u64);
        move |_| {
            let operation = workload.next_operation(
                &mut rng,
                |rng| {
                    if workload.reads_latest() {
                        let watermark = insert_cursor.load(Ordering::Relaxed).max(1);
                        let offset = latest.next_rank(rng) % watermark;
                        watermark - 1 - offset
                    } else {
                        chooser.next_index(rng)
                    }
                },
                // Updates and removes target everything inserted so far,
                // loaded or run-phase.
                |rng| {
                    let watermark = insert_cursor.load(Ordering::Relaxed).max(1);
                    rng.gen_range(0..watermark)
                },
                || insert_cursor.fetch_add(1, Ordering::Relaxed),
            );
            match operation {
                Operation::Read { index: logical } => {
                    let _ = index.get(&record_key(logical));
                }
                Operation::Insert { index: logical } => {
                    index.insert(record_key(logical), logical);
                }
                Operation::Update { index: logical } => {
                    // YCSB updates are field rewrites: an upsert of the
                    // (possibly removed) record.
                    index.insert(record_key(logical), logical.wrapping_add(1));
                }
                Operation::Remove { index: logical } => {
                    let _ = index.remove(&record_key(logical));
                }
                Operation::Scan {
                    index: logical,
                    len,
                } => {
                    // Workload E's SCAN: a bounded forward cursor,
                    // terminated by `take` — the cursor-native form of the
                    // paper's `range(k, f, length)`.
                    let scanned = index.scan(record_key(logical)..).take(len);
                    std::hint::black_box(scanned.fold(0u64, |sum, (_, v)| sum.wrapping_add(v)));
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bskip_baselines::{LockFreeSkipList, OccBTree};
    use bskip_core::BSkipList;

    fn small_config() -> YcsbConfig {
        YcsbConfig::default()
            .with_records(20_000)
            .with_operations(20_000)
            .with_threads(4)
            .with_seed(7)
    }

    #[test]
    fn load_phase_inserts_every_record() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        let config = small_config();
        let result = run_load_phase(&index, &config);
        assert_eq!(result.operations, config.record_count);
        assert_eq!(index.len(), config.record_count);
        assert!(result.throughput_ops_per_us > 0.0);
        assert!(result.latency.samples > 0);
        // Spot-check that loaded keys are present.
        for logical in (0..config.record_count as u64).step_by(997) {
            assert!(index.contains_key(&record_key(logical)));
        }
    }

    #[test]
    fn run_phase_workload_a_grows_the_index() {
        let index: LockFreeSkipList<u64, u64> = LockFreeSkipList::new();
        let config = small_config();
        run_load_phase(&index, &config);
        let before = index.len();
        let result = run_run_phase(&index, Workload::A, &config);
        assert_eq!(result.operations, config.operation_count);
        assert!(index.len() > before, "workload A must insert new records");
        assert!(result.latency.p999_us >= result.latency.p50_us);
    }

    #[test]
    fn run_phase_workload_c_leaves_the_index_unchanged() {
        let index: OccBTree<u64, u64> = OccBTree::new();
        let config = small_config();
        run_load_phase(&index, &config);
        let before = index.len();
        run_run_phase(&index, Workload::C, &config);
        assert_eq!(index.len(), before);
    }

    #[test]
    fn run_phase_workload_e_executes_scans() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        let config = small_config().with_operations(5_000);
        run_load_phase(&index, &config);
        let result = run_run_phase(&index, Workload::E, &config);
        assert_eq!(result.operations, 5_000);
    }

    #[test]
    fn run_phase_workload_d_reads_latest_and_grows_the_index() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        let config = small_config();
        run_load_phase(&index, &config);
        let before = index.len();
        let result = run_run_phase(&index, Workload::D, &config);
        assert_eq!(result.operations, config.operation_count);
        assert!(index.len() > before, "workload D inserts new records");
    }

    #[test]
    fn run_phase_churn_removes_and_reclaims() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        let config = small_config();
        run_load_phase(&index, &config);
        let before = index.len();
        let result = run_run_phase(&index, Workload::Churn, &config);
        assert_eq!(result.operations, config.operation_count);
        // 25% inserts vs 25% removes over a mostly-live key space: the
        // index must actually shrink-or-hold rather than grow by the full
        // insert count (removes are physical and mostly hit live keys).
        let inserted = config.operation_count / 4;
        assert!(
            index.len() < before + inserted,
            "churn removes must offset inserts (len {} vs {} + {})",
            index.len(),
            before,
            inserted
        );
        // The B-skiplist retires unlinked nodes; the uniform stats
        // surface shows bounded backlog.
        let stats = ConcurrentIndex::stats(&index);
        let reclamation = stats.reclamation().expect("B-skiplist exports EBR stats");
        assert!(
            reclamation.backlog <= reclamation.retired,
            "backlog can never exceed retirement"
        );
    }

    #[test]
    fn zipfian_run_phase_works() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        let config = small_config()
            .with_distribution(Distribution::Zipfian)
            .with_operations(10_000);
        run_load_phase(&index, &config);
        let result = run_run_phase(&index, Workload::B, &config);
        assert_eq!(result.operations, 10_000);
        assert!(result.throughput_ops_per_us > 0.0);
    }

    #[test]
    #[should_panic(expected = "use run_load_phase")]
    fn run_phase_rejects_load_workload() {
        let index: BSkipList<u64, u64> = BSkipList::new();
        run_run_phase(&index, Workload::Load, &small_config());
    }

    #[test]
    fn config_builders() {
        let config = YcsbConfig::default()
            .with_records(10)
            .with_operations(20)
            .with_threads(0)
            .with_distribution(Distribution::Zipfian)
            .with_seed(1);
        assert_eq!(config.record_count, 10);
        assert_eq!(config.operation_count, 20);
        assert_eq!(config.threads, 1, "thread count is clamped to at least 1");
        assert_eq!(config.distribution, Distribution::Zipfian);
    }
}
