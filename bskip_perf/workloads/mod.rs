//! The four workloads and what they share: sizing, parallel preload, the
//! end-of-run oracle comparison, and the `Target` adapters.

use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use bskip_index::ConcurrentIndex;
use bskip_lsm::{LsmConfig, LsmEngine, StdFs, SyncPolicy};

use crate::gen::OpGen;
use crate::harness::{check_scan, seed_heights, Phase, Plan, Target};
use crate::hostref::{self, HostRef, HostSample};
use crate::scratch::ScratchDir;
use crate::wrappers::{CountingStorage, StorageCounters, StorageSnapshot};

pub mod lsm_ingest;
pub mod lsm_read;
pub mod mem_mix;
pub mod svc_pipe;

/// Slice pairs of every workload's timed phase.
pub const PAIRS: usize = 20;

/// What a run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Traced pass: spans on, per-layer probes after the phase.
    pub traced: bool,
    /// Developer smoke run: small sizes, results not comparable.
    pub quick: bool,
}

impl RunCfg {
    /// A data-set size: a tenth in `--quick` runs.
    pub fn size(&self, full: u64) -> u64 {
        if self.quick {
            (full / 10).max(8192)
        } else {
            full
        }
    }

    /// The timed phase of a workload: [`PAIRS`] slice pairs of `slice_ops`
    /// operations per thread, a constant of the workload frozen so that
    /// a slice lasts about half a second and the phase `RUN_SECONDS` on
    /// the reference box: op counts are fixed, never time boxes.
    /// `--quick` runs a fifth of each slice and two pairs.
    pub fn plan(&self, slice_ops: usize) -> Plan {
        let full = self.full_plan(slice_ops);
        Plan {
            // The traced pass replays under half of the phase: two traced
            // and two latency slices at the least.
            pairs: if self.traced && !self.quick {
                (full.pairs * 2 / 5).max(4)
            } else {
                full.pairs
            },
            ..full
        }
    }

    /// [`RunCfg::plan`] without the traced pass's shortening, for a
    /// workload whose per-layer counters need the whole phase.
    pub fn full_plan(&self, slice_ops: usize) -> Plan {
        Plan {
            slice_ops: if self.quick { slice_ops / 5 } else { slice_ops },
            pairs: if self.quick { 2 } else { PAIRS },
            traced: self.traced,
        }
    }

    /// How often the set-up is repeated (`setup_s` is the median).
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.quick || self.traced {
            1
        } else {
            full
        }
    }
}

/// Benchmark threads: the closed-loop callers of every workload.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The repetitions of a workload's set-up.
pub struct Setup {
    /// Wall time of every repetition, in seconds.
    pub seconds: Vec<f64>,
    /// The host-speed kernels, sampled before the first repetition and
    /// after each.
    pub host: Vec<HostSample>,
}

impl Setup {
    /// Median repetition, as the clock saw it.
    pub fn raw_s(&self) -> f64 {
        crate::stats::median(&self.seconds)
    }
}

/// Sets the workload's system up `reps` times and keeps the last: `build`
/// makes it afresh and returns it with the seconds that took (the
/// previous one is dropped first, outside the clock).
pub fn repeat_setup<T>(
    reps: usize,
    host: &mut HostRef,
    mut build: impl FnMut() -> (T, f64),
) -> (T, Setup) {
    let mut setup = Setup {
        seconds: Vec::with_capacity(reps),
        host: vec![host.sample()],
    };
    let mut built = None;
    for _ in 0..reps.max(1) {
        drop(built.take());
        let (system, seconds) = build();
        setup.seconds.push(seconds);
        setup.host.push(host.sample());
        built = Some(system);
    }
    (built.expect("at least one set-up"), setup)
}

/// What one run of one workload produced.  Times in here are as the
/// clock saw them; `metrics.rs` divides them by [`Outcome::host_factor`].
pub struct Outcome {
    pub setup: Setup,
    /// By how many percent the workload's timings move when the host
    /// index moves by one: each workload's `HOST_SENSITIVITY`.
    pub host_sensitivity: f64,
    pub phase: Phase,
    /// Bytes held per user byte (16 B × live keys) after the phase.
    pub space_amp: f64,
    pub live_keys: u64,
    /// Entries of the final full scan that disagree with the oracle.
    pub oracle_mismatches: u64,
    /// What the phase cost the storage layer (LSM workloads only).
    pub storage: Option<StorageAmp>,
    /// Per-layer metrics this workload owns (traced pass only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The median sample of the host-speed kernels over the whole run:
    /// around the set-ups and after every slice of the phase.
    pub fn host(&self) -> HostSample {
        let samples: Vec<HostSample> = self
            .setup
            .host
            .iter()
            .chain(&self.phase.host)
            .copied()
            .collect();
        hostref::typical(&samples)
    }

    /// The run's host-speed index: 1.0 on the quiet reference box, larger
    /// when the host was slower (see [`crate::hostref`]).
    pub fn host_index(&self) -> f64 {
        self.host().index()
    }

    /// What this run's times are divided by (and its rates multiplied by)
    /// to give reference-host time: the index, to the power of the
    /// workload's sensitivity to it.
    pub fn host_factor(&self) -> f64 {
        self.host_index().powf(self.host_sensitivity)
    }
}

/// Storage traffic of a timed phase per unit of user work, from the
/// counting filesystem and the generators' operation counts.  Counts, not
/// times: on one thread they repeat exactly, so every run takes them,
/// traced or not.
#[derive(Clone, Copy, Debug)]
pub struct StorageAmp {
    /// Bytes appended (WAL + SSTables + manifest) per user byte written
    /// (16 B a put, 8 B a delete).
    pub write_amp: f64,
    /// Bytes read from storage per lookup issued; the scans' reads are in
    /// it.
    pub read_bytes_per_get: f64,
}

impl StorageAmp {
    /// `traffic` is what crossed the storage boundary while `gens`
    /// generated (and the workers applied) their operations so far.
    pub fn of(traffic: &StorageSnapshot, gens: &[&OpGen]) -> Self {
        let sum = |count: fn(&OpGen) -> u64| gens.iter().map(|gen| count(gen)).sum::<u64>() as f64;
        StorageAmp {
            write_amp: traffic.append_bytes as f64
                / (16.0 * sum(|gen| gen.puts) + 8.0 * sum(|gen| gen.dels)),
            read_bytes_per_get: traffic.read_bytes as f64 / sum(|gen| gen.gets),
        }
    }
}

/// Runs `insert` over every generator's preload stripe, one thread each.
pub fn preload_parallel(gens: &[OpGen], insert: &(impl Fn(u64, u64) + Sync)) {
    std::thread::scope(|scope| {
        for (thread, gen) in gens.iter().enumerate() {
            scope.spawn(move || {
                seed_heights(Some(thread));
                for (key, value) in gen.preload() {
                    insert(key, value);
                }
            });
        }
    });
}

/// Compares a full ascending scan of the system with the oracle: the
/// generators' models, merged (stripes are disjoint, so the merge does
/// not depend on how the threads interleaved).  Returns the number of
/// positions that disagree, plus any difference in length.
pub fn oracle_mismatches(gens: &[&OpGen], actual: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
    let mut expected: Vec<(u64, u64)> = gens.iter().flat_map(|gen| gen.expected()).collect();
    expected.sort_unstable();
    let mut seen = 0usize;
    let mut wrong = 0u64;
    for entry in actual {
        if expected.get(seen) != Some(&entry) {
            wrong += 1;
        }
        seen += 1;
    }
    wrong += expected.len().abs_diff(seen) as u64;
    (wrong, expected.len() as u64)
}

/// Times `calls` calls of `f` in three chunks and returns the median
/// chunk's ns per call, so one descheduling cannot move the probe.
pub fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(3);
    for part in 0..3 {
        let (from, to) = (calls * part / 3, calls * (part + 1) / 3);
        let start = Instant::now();
        for i in from..to {
            f(i);
        }
        if to > from {
            per_call.push(start.elapsed().as_nanos() as f64 / (to - from) as f64);
        }
    }
    crate::stats::median(&per_call)
}

/// Any infallible index as a [`Target`] (static or `dyn` dispatch).
pub struct Infallible<'a, I: ?Sized>(pub &'a I);

impl<I: ConcurrentIndex<u64, u64> + ?Sized> Target for Infallible<'_, I> {
    fn get(&self, key: u64) -> Result<Option<u64>, ()> {
        Ok(self.0.get(&key))
    }

    fn put(&self, key: u64, value: u64) -> Result<Option<u64>, ()> {
        Ok(self.0.insert(key, value))
    }

    fn del(&self, key: u64) -> Result<Option<u64>, ()> {
        Ok(self.0.remove(&key))
    }

    fn scan_ok(&self, start: u64) -> bool {
        check_scan(
            start,
            self.0.scan_bounds(Bound::Included(start), Bound::Unbounded),
        )
    }
}

/// The LSM engine through its fallible surface: an I/O error or a
/// degraded-mode refusal is a failed operation, not a silent `None`.
pub struct Fallible<'a>(pub &'a LsmEngine<u64, u64>);

impl Target for Fallible<'_> {
    fn get(&self, key: u64) -> Result<Option<u64>, ()> {
        self.0.try_get(&key).map_err(drop)
    }

    fn put(&self, key: u64, value: u64) -> Result<Option<u64>, ()> {
        self.0.try_insert(key, value).map_err(drop)
    }

    fn del(&self, key: u64) -> Result<Option<u64>, ()> {
        self.0.try_remove(&key).map_err(drop)
    }

    fn scan_ok(&self, start: u64) -> bool {
        // Scans have no fallible form; a failed read ends the cursor
        // early, which the length check catches.
        Infallible(self.0).scan_ok(start)
    }
}

/// An engine directory with a counting filesystem under it.
pub struct LsmDir {
    pub dir: ScratchDir,
    pub storage: Arc<CountingStorage<StdFs>>,
    pub counters: Arc<StorageCounters>,
}

impl LsmDir {
    pub fn new(tag: &str) -> Self {
        let storage = Arc::new(CountingStorage::new(StdFs));
        LsmDir {
            dir: ScratchDir::new(tag).expect("create scratch directory"),
            counters: storage.counters(),
            storage,
        }
    }

    /// The engine's configuration in every LSM workload: the defaults,
    /// with the sync policy spelled out.  A sandbox's fsync is not a
    /// device's, so the WAL never syncs; sync *counts* are still reported.
    pub fn config() -> LsmConfig {
        LsmConfig {
            sync: SyncPolicy::Never,
            ..LsmConfig::default()
        }
    }

    /// Opens (or recovers) the engine in this directory.
    pub fn open(&self, config: LsmConfig) -> LsmEngine<u64, u64> {
        LsmEngine::open_with(self.storage.clone(), self.dir.path(), config)
            .expect("open LSM engine")
    }
}

/// Ingests every generator's preload through `execute` batches of 64
/// (one WAL record each), the engine's bulk path.
pub fn lsm_ingest_preload(engine: &LsmEngine<u64, u64>, gens: &[OpGen]) {
    seed_heights(Some(0));
    let mut batch = Vec::with_capacity(64);
    for gen in gens {
        for (key, value) in gen.preload() {
            batch.push(bskip_index::Op::insert(key, value));
            if batch.len() == 64 {
                engine.try_execute(&mut batch).expect("preload batch");
                batch.clear();
            }
        }
    }
    if !batch.is_empty() {
        engine.try_execute(&mut batch).expect("preload batch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KeyDist, Kind, Mix};

    #[test]
    fn oracle_counts_wrong_missing_and_extra_entries() {
        let gen = OpGen::new(1, 0, 1, 8192, Mix::only(Kind::Get), KeyDist::Uniform);
        let mut good: Vec<(u64, u64)> = gen.preload().collect();
        good.sort_unstable();
        assert_eq!(oracle_mismatches(&[&gen], good.iter().copied()), (0, 8192));
        let mut planted = good.clone();
        planted[100].1 ^= 1;
        assert_eq!(oracle_mismatches(&[&gen], planted.into_iter()).0, 1);
        assert_eq!(
            oracle_mismatches(&[&gen], good[..8000].iter().copied()).0,
            192
        );
        let extra = good.iter().copied().chain([(u64::MAX, 0)]);
        assert_eq!(oracle_mismatches(&[&gen], extra).0, 2);
    }

    #[test]
    fn ns_per_call_runs_every_call_once() {
        let mut seen = 0;
        ns_per_call(31, |i| {
            assert_eq!(i, seen);
            seen += 1;
        });
        assert_eq!(seen, 31);
    }
}
