//! The measurement loop every workload shares.
//!
//! A timed phase is one untimed warm-up slice followed by `pairs` pairs
//! of slices: a **throughput slice** (no clock inside the loop) and a
//! **latency slice** (an `Instant` pair around every operation).  In the
//! traced pass every other latency slice is a **traced slice** instead (a
//! span around every operation).
//! Every slice runs a fixed number of operations per thread, generated
//! from the seed *before* the slice's clock starts, so a faster host
//! finishes sooner but never measures a different structure.  Threads
//! meet at a barrier on both sides of each slice; a slice's wall time
//! runs from the first thread's start to the last thread's finish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::alloc;
use crate::gen::{
    gen_of, value_of, BenchOp, Class, Kind, OpGen, ABSENT, CLASSES, SCAN_LEN, UNKNOWN,
};
use crate::hostref::{HostRef, HostSample};
use crate::stats::{median, percentile, Hist};
use crate::trace::{self, Name};

/// Per-class latency samples of one slice on one thread, in ns.
#[derive(Default)]
pub struct LatBuf {
    pub samples: [Vec<u32>; 4],
}

/// How a worker runs one slice.
pub enum RunMode<'a> {
    /// No per-operation clock.
    Throughput,
    /// An `Instant` pair around every operation.
    Latency(&'a mut LatBuf),
    /// A span around every operation.
    Traced,
}

/// One benchmark thread of a workload.
pub trait Worker: Send {
    /// Appends the next `count` operations of this thread's stream.
    fn generate(&mut self, count: usize, out: &mut Vec<BenchOp>);
    /// Applies `ops` in order and returns how many gave a wrong result.
    fn run(&mut self, ops: &[BenchOp], mode: RunMode<'_>) -> u64;
}

/// Whether a point operation's outcome is what its stream says it must be.
pub fn check_point(op: &BenchOp, outcome: Option<u64>) -> bool {
    match (op.kind, outcome) {
        (Kind::GetAbsent | Kind::PutFresh, outcome) => outcome.is_none(),
        (Kind::Get | Kind::PutOver | Kind::Del, Some(value)) => match gen_of(op.key, value) {
            Some(gen) => op.expect == UNKNOWN || op.expect == gen as u32,
            None => false,
        },
        (Kind::Get | Kind::PutOver | Kind::Del, None) => op.expect == ABSENT,
        (Kind::Scan, _) => false,
    }
}

/// Whether `entries` is a correct answer to "the first [`SCAN_LEN`]
/// entries at or after `start`": exactly that many (the generator keeps
/// every start more than `SCAN_LEN` live keys below the top), strictly
/// ascending, in bounds, every value naming its own key.
pub fn check_scan(start: u64, entries: impl Iterator<Item = (u64, u64)>) -> bool {
    let mut floor = start;
    let mut seen = 0;
    for (key, value) in entries.take(SCAN_LEN) {
        if key < floor || gen_of(key, value).is_none() {
            return false;
        }
        let Some(next) = key.checked_add(1) else {
            return false;
        };
        floor = next;
        seen += 1;
    }
    seen == SCAN_LEN
}

/// The span a traced slice opens around an operation of `class`.
pub fn op_span(class: Class) -> Name {
    match class {
        Class::Get => Name::OpGet,
        Class::Put => Name::OpPut,
        Class::Del => Name::OpDel,
        Class::Scan => Name::OpScan,
    }
}

/// Nanoseconds of a duration, saturating into the sample type.
pub fn sample_ns(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// A system under test that answers one operation at a time.
pub trait Target: Sync {
    /// `Err` is an operation the system refused or failed.
    fn get(&self, key: u64) -> Result<Option<u64>, ()>;
    fn put(&self, key: u64, value: u64) -> Result<Option<u64>, ()>;
    fn del(&self, key: u64) -> Result<Option<u64>, ()>;
    /// Whether the scan from `start` passed [`check_scan`].
    fn scan_ok(&self, start: u64) -> bool;
}

/// Applies `op` to `target`; `false` is a failed or wrong operation.
#[inline]
pub fn apply<T: Target + ?Sized>(target: &T, op: &BenchOp) -> bool {
    let outcome = match op.kind {
        Kind::Get | Kind::GetAbsent => target.get(op.key),
        Kind::PutFresh | Kind::PutOver => target.put(op.key, value_of(op.key, op.gen)),
        Kind::Del => target.del(op.key),
        Kind::Scan => return target.scan_ok(op.key),
    };
    matches!(outcome, Ok(outcome) if check_point(op, outcome))
}

/// The worker of every workload that calls the system directly.
pub struct DirectWorker<'a, T: Target + ?Sized> {
    pub gen: OpGen,
    pub target: &'a T,
}

impl<T: Target + ?Sized> Worker for DirectWorker<'_, T> {
    fn generate(&mut self, count: usize, out: &mut Vec<BenchOp>) {
        self.gen.generate(count, out);
    }

    fn run(&mut self, ops: &[BenchOp], mode: RunMode<'_>) -> u64 {
        let mut failed = 0;
        match mode {
            RunMode::Throughput => {
                for op in ops {
                    failed += !apply(self.target, op) as u64;
                }
            }
            RunMode::Latency(buf) => {
                for op in ops {
                    let start = Instant::now();
                    let ok = apply(self.target, op);
                    buf.samples[op.kind.class() as usize].push(sample_ns(start));
                    failed += !ok as u64;
                }
            }
            RunMode::Traced => {
                for op in ops {
                    let _span = trace::span(op_span(op.kind.class()));
                    failed += !apply(self.target, op) as u64;
                }
            }
        }
        failed
    }
}

/// Shape of one timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Operations per thread per slice.
    pub slice_ops: usize,
    /// Slice pairs after the warm-up slice.
    pub pairs: usize,
    /// Traced pass: the second slice of every other pair records spans
    /// instead of latencies.
    pub traced: bool,
}

impl Plan {
    /// Operations one thread issues over the whole phase, warm-up
    /// included.
    pub fn ops_per_thread(&self) -> usize {
        (1 + 2 * self.pairs) * self.slice_ops
    }
}

/// Latency of one class over one latency slice (all threads pooled).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassLat {
    pub samples: usize,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

/// Everything one timed phase measured.
#[derive(Default)]
pub struct Phase {
    /// ops/s of each throughput slice.
    pub throughput: Vec<f64>,
    /// ops/s of each traced slice (traced pass only).
    pub traced_throughput: Vec<f64>,
    /// Wall time of the traced slices together, in seconds.
    pub traced_wall_s: f64,
    /// Per latency slice, per class.
    pub latency: Vec<[ClassLat; 4]>,
    /// Pooled over all latency slices, per class.
    pub hist: [Hist; 4],
    /// Operations issued in measured slices (warm-up excluded).
    pub attempted: u64,
    /// Of those, how many failed or answered wrongly (warm-up included:
    /// a wrong answer there is still a wrong answer).
    pub failed: u64,
    /// Heap allocations inside measured slices, whole process.
    pub allocs: u64,
    /// The host-speed kernels, sampled once after every slice.
    pub host: Vec<HostSample>,
    /// Wall time of the whole phase, generation included.
    pub wall_s: f64,
}

impl Phase {
    /// Median over throughput slices of ops ÷ wall, as the clock saw it.
    pub fn raw_ops_per_s(&self) -> f64 {
        median(&self.throughput)
    }

    /// Median over latency slices of `pick` for `class`, in µs as the
    /// clock saw them; `None` when no slice sampled the class.
    pub fn raw_lat_us(&self, class: Class, pick: fn(&ClassLat) -> f64) -> Option<f64> {
        let values: Vec<f64> = self
            .latency
            .iter()
            .map(|slice| &slice[class as usize])
            .filter(|lat| lat.samples > 0)
            .map(|lat| pick(lat) / 1e3)
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }
}

/// Cost of one `Instant::now()` + `elapsed()` pair, in ns.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u32;
    for _ in 0..PAIRS {
        sink = sink.wrapping_add(sample_ns(Instant::now()));
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / PAIRS as f64
}

/// Epoch and seed of the current run's promotion heights; see
/// [`seed_heights`].
static HEIGHT_RUN: AtomicU64 = AtomicU64::new(0);
static HEIGHT_SEED: AtomicU64 = AtomicU64::new(0);
static HEIGHT_TICKET: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static HEIGHTS_SEEDED_FOR: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Starts a new set-up: threads that insert from now on reseed their
/// promotion-height generator from `seed` (see [`seed_heights`]).
pub fn begin_height_run(seed: u64) {
    HEIGHT_SEED.store(seed, Ordering::Relaxed);
    HEIGHT_TICKET.store(0, Ordering::Relaxed);
    HEIGHT_RUN.fetch_add(1, Ordering::Relaxed);
}

/// Makes this thread's promotion heights a function of the seed, once
/// per run.  `bskip-core` draws heights from a per-thread generator
/// seeded from entropy, so without this every process builds a
/// differently shaped list.  Benchmark threads pass their thread id;
/// threads the benchmark does not spawn (the server's connection
/// threads, reached through `SpanIndex`) pass `None` and take a ticket.
pub fn seed_heights(thread: Option<usize>) {
    let run = HEIGHT_RUN.load(Ordering::Relaxed);
    HEIGHTS_SEEDED_FOR.with(|seeded| {
        if seeded.get() != run {
            seeded.set(run);
            let id = match thread {
                Some(thread) => thread as u64,
                None => 1000 + HEIGHT_TICKET.fetch_add(1, Ordering::Relaxed),
            };
            bskip_core::height::reseed_thread_rng(HEIGHT_SEED.load(Ordering::Relaxed) ^ id);
        }
    });
}

/// What a slice of the phase measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SliceMode {
    /// Slice 0: untimed, lets caches fill and lazy set-up finish.
    WarmUp,
    Throughput,
    Latency,
    Traced,
}

impl SliceMode {
    fn of(slice: usize, traced_pass: bool) -> Self {
        match slice {
            0 => SliceMode::WarmUp,
            odd if odd % 2 == 1 => SliceMode::Throughput,
            // Pairs 1, 3, … of a traced pass trace; the others (and every
            // pair of an untraced pass) sample latencies.
            even if traced_pass && (even / 2) % 2 == 1 => SliceMode::Traced,
            _ => SliceMode::Latency,
        }
    }
}

struct SliceRecord {
    start: Instant,
    end: Instant,
    failed: u64,
    lat: Option<LatBuf>,
}

/// Runs one timed phase: `workers[i]` on its own thread.  Thread 0
/// samples `host` after every slice, while the others wait.
pub fn run_phase<W: Worker>(workers: &mut [W], plan: Plan, host: &mut HostRef) -> Phase {
    let threads = workers.len();
    let slices = 1 + 2 * plan.pairs;
    let barrier = Barrier::new(threads);
    let phase_start = Instant::now();
    // Thread 0's bookkeeping: allocations inside each slice, and the
    // host-speed kernels between slices.
    let mut allocs = vec![0u64; slices];
    let mut samples = Vec::with_capacity(slices);

    let mut bookkeeping = Some((&mut allocs, &mut samples, host));
    let records: Vec<Vec<SliceRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(thread, worker)| {
                let barrier = &barrier;
                let mut bookkeeping = if thread == 0 {
                    bookkeeping.take()
                } else {
                    None
                };
                scope.spawn(move || {
                    seed_heights(Some(thread));
                    let mut ops = Vec::with_capacity(plan.slice_ops);
                    let mut records = Vec::with_capacity(slices);
                    for slice in 0..slices {
                        // Slice 0 warms up; then throughput and
                        // latency/traced slices alternate.
                        let mode = SliceMode::of(slice, plan.traced);
                        ops.clear();
                        worker.generate(plan.slice_ops, &mut ops);
                        let mut lat = (mode == SliceMode::Latency).then(|| {
                            // Any class may take the whole slice.
                            let mut buf = LatBuf::default();
                            for class in CLASSES {
                                let kinds = ops.iter().filter(|op| op.kind.class() == class);
                                buf.samples[class as usize].reserve_exact(kinds.count());
                            }
                            buf
                        });
                        barrier.wait();
                        let allocs_before = alloc::allocs();
                        barrier.wait();
                        trace::set_enabled(mode == SliceMode::Traced);
                        let start = Instant::now();
                        let failed = {
                            let _slice = trace::span(Name::Slice);
                            worker.run(
                                &ops,
                                match &mut lat {
                                    Some(buf) => RunMode::Latency(buf),
                                    None if mode == SliceMode::Traced => RunMode::Traced,
                                    None => RunMode::Throughput,
                                },
                            )
                        };
                        let end = Instant::now();
                        barrier.wait();
                        trace::set_enabled(false);
                        if let Some((allocs, samples, host)) = &mut bookkeeping {
                            allocs[slice] = alloc::allocs() - allocs_before;
                            samples.push(host.sample());
                        }
                        barrier.wait();
                        records.push(SliceRecord {
                            start,
                            end,
                            failed,
                            lat,
                        });
                    }
                    records
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("benchmark worker panicked"))
            .collect()
    });

    let mut phase = Phase {
        host: samples,
        wall_s: phase_start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let slice_ops = (plan.slice_ops * threads) as u64;
    for slice in 0..slices {
        let of_slice = || records.iter().map(move |thread| &thread[slice]);
        phase.failed += of_slice().map(|record| record.failed).sum::<u64>();
        if slice == 0 {
            continue;
        }
        phase.attempted += slice_ops;
        phase.allocs += allocs[slice];
        let first_start = of_slice()
            .map(|record| record.start)
            .min()
            .expect("threads");
        let last_end = of_slice().map(|record| record.end).max().expect("threads");
        let wall_s = (last_end - first_start).as_secs_f64();
        let ops_per_s = slice_ops as f64 / wall_s;
        let mode = SliceMode::of(slice, plan.traced);
        if mode == SliceMode::Throughput {
            phase.throughput.push(ops_per_s);
        } else if mode == SliceMode::Traced {
            phase.traced_throughput.push(ops_per_s);
            phase.traced_wall_s += wall_s;
        } else {
            let mut per_class = [ClassLat::default(); 4];
            for class in CLASSES {
                let mut pooled: Vec<u32> = of_slice()
                    .filter_map(|record| record.lat.as_ref())
                    .flat_map(|buf| buf.samples[class as usize].iter().copied())
                    .collect();
                if pooled.is_empty() {
                    continue;
                }
                pooled.sort_unstable();
                phase.hist[class as usize].record_all(&pooled);
                per_class[class as usize] = ClassLat {
                    samples: pooled.len(),
                    p50_ns: percentile(&pooled, 0.50) as f64,
                    p99_ns: percentile(&pooled, 0.99) as f64,
                };
            }
            phase.latency.push(per_class);
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{value_of, KeySpace};

    fn op(kind: Kind, expect: u32) -> BenchOp {
        BenchOp {
            key: KeySpace::new(1).key(5),
            expect,
            gen: 3,
            kind,
        }
    }

    #[test]
    fn point_checks_accept_the_model_and_reject_planted_values() {
        let get = op(Kind::Get, 2);
        assert!(check_point(&get, Some(value_of(get.key, 2))));
        // Stale generation, another key's value, a lost key.
        assert!(!check_point(&get, Some(value_of(get.key, 1))));
        assert!(!check_point(&get, Some(value_of(get.key + 1, 2))));
        assert!(!check_point(&get, None));
        // A racing owner may have moved the generation, never the key.
        let racy = op(Kind::Get, UNKNOWN);
        assert!(check_point(&racy, Some(value_of(racy.key, 9))));
        assert!(!check_point(&racy, Some(12345)));
        assert!(!check_point(&racy, None));
        assert!(check_point(&op(Kind::PutFresh, ABSENT), None));
        assert!(!check_point(&op(Kind::PutFresh, ABSENT), Some(1)));
        assert!(check_point(&op(Kind::GetAbsent, ABSENT), None));
        let del = op(Kind::Del, 0);
        assert!(check_point(&del, Some(value_of(del.key, 0))));
        assert!(!check_point(&del, None));
    }

    #[test]
    fn scan_checks_length_order_bounds_and_values() {
        let entries = |from: u64, n: u64| (from..from + n).map(|k| (k, value_of(k, 0)));
        assert!(check_scan(10, entries(10, 100)));
        assert!(
            check_scan(10, entries(15, 150)),
            "extra entries are never pulled"
        );
        assert!(!check_scan(10, entries(10, 99)), "short");
        assert!(!check_scan(11, entries(10, 100)), "below the bound");
        let mut unordered: Vec<_> = entries(10, 100).collect();
        unordered.swap(40, 41);
        assert!(!check_scan(10, unordered.into_iter()));
        let mut wrong: Vec<_> = entries(10, 100).collect();
        wrong[7].1 ^= 1 << 40;
        assert!(!check_scan(10, wrong.into_iter()));
    }

    /// An index that loses one key: the phase must count the failures.
    struct Leaky(std::sync::Mutex<std::collections::BTreeMap<u64, u64>>, u64);

    impl Target for Leaky {
        fn get(&self, key: u64) -> Result<Option<u64>, ()> {
            let value = self.0.lock().unwrap().get(&key).copied();
            Ok(value.map(|v| if key == self.1 { v ^ (1 << 20) } else { v }))
        }
        fn put(&self, key: u64, value: u64) -> Result<Option<u64>, ()> {
            Ok(self.0.lock().unwrap().insert(key, value))
        }
        fn del(&self, key: u64) -> Result<Option<u64>, ()> {
            Ok(self.0.lock().unwrap().remove(&key))
        }
        fn scan_ok(&self, start: u64) -> bool {
            let map = self.0.lock().unwrap();
            check_scan(start, map.range(start..).map(|(k, v)| (*k, *v)))
        }
    }

    #[test]
    fn a_planted_wrong_value_raises_the_failure_count() {
        use crate::gen::{KeyDist, Mix, OpGen};
        let mix = Mix {
            get: 60,
            put_fresh: 10,
            put_over: 10,
            del: 10,
            scan: 10,
            ..Mix::default()
        };
        let run = |planted: bool| {
            let gen = OpGen::new(5, 0, 1, 8192, mix, KeyDist::Uniform);
            let map: std::collections::BTreeMap<u64, u64> = gen.preload().collect();
            let bad_key = if planted {
                *map.keys().nth(4000).unwrap()
            } else {
                0
            };
            let target = Leaky(std::sync::Mutex::new(map), bad_key);
            let mut workers = [DirectWorker {
                gen,
                target: &target,
            }];
            let plan = Plan {
                slice_ops: 20_000,
                pairs: 2,
                traced: false,
            };
            let phase = run_phase(&mut workers, plan, &mut HostRef::new());
            assert_eq!(phase.attempted, 80_000);
            assert_eq!(phase.throughput.len(), 2);
            assert_eq!(phase.latency.len(), 2);
            assert!(phase.latency[0][Class::Scan as usize].samples > 1000);
            phase.failed
        };
        assert_eq!(run(false), 0);
        assert!(run(true) > 0);
    }
}
