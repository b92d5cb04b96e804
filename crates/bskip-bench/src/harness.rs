//! Shared experiment plumbing: index registry, scale configuration and
//! output formatting.

use bskip_baselines::{LazySkipList, LockFreeSkipList, MasstreeLite, NhsSkipList, OccBTree};
use bskip_core::{BSkipConfig, BSkipList};
use bskip_index::ConcurrentIndex;
use bskip_sync::Histogram;
use bskip_ycsb::{run_load_phase, run_run_phase, Distribution, PhaseResult, Workload, YcsbConfig};

/// The indices evaluated in the paper's Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The paper's contribution (this repository's `bskip-core`).
    BSkipList,
    /// Lock-free CAS skiplist (Java ConcurrentSkipListMap stand-in).
    LockFreeSkipList,
    /// Optimistic lock-based skiplist (Folly ConcurrentSkipList stand-in).
    LazySkipList,
    /// No-Hot-Spot skiplist with a background adaptation thread.
    NhsSkipList,
    /// OCC B+-tree (tlx/BP-tree stand-in).
    OccBTree,
    /// Masstree-style narrow-node B+-tree.
    Masstree,
}

impl IndexKind {
    /// The skiplist-family indices compared in Figure 1 / Table 4.
    pub const SKIPLISTS: [IndexKind; 4] = [
        IndexKind::NhsSkipList,
        IndexKind::LockFreeSkipList,
        IndexKind::LazySkipList,
        IndexKind::BSkipList,
    ];

    /// The tree-family indices compared in Figure 7 / Table 5 (plus the
    /// B-skiplist they are normalized against).
    pub const TREES: [IndexKind; 3] = [
        IndexKind::BSkipList,
        IndexKind::OccBTree,
        IndexKind::Masstree,
    ];

    /// Every evaluated index.
    pub const ALL: [IndexKind; 6] = [
        IndexKind::BSkipList,
        IndexKind::LockFreeSkipList,
        IndexKind::LazySkipList,
        IndexKind::NhsSkipList,
        IndexKind::OccBTree,
        IndexKind::Masstree,
    ];

    /// Display label used in output tables (mirrors the paper's names).
    pub fn label(&self) -> &'static str {
        match self {
            IndexKind::BSkipList => "B-skiplist",
            IndexKind::LockFreeSkipList => "Java-style SL",
            IndexKind::LazySkipList => "Folly-style SL",
            IndexKind::NhsSkipList => "NoHotSpot SL",
            IndexKind::OccBTree => "OCC B+-tree",
            IndexKind::Masstree => "Masstree-lite",
        }
    }

    /// Builds a fresh instance of the index.
    pub fn build(&self) -> Box<dyn ConcurrentIndex<u64, u64>> {
        match self {
            IndexKind::BSkipList => Box::new(BSkipList::<u64, u64>::with_config(
                BSkipConfig::paper_default(),
            )),
            IndexKind::LockFreeSkipList => Box::new(LockFreeSkipList::<u64, u64>::new()),
            IndexKind::LazySkipList => Box::new(LazySkipList::<u64, u64>::new()),
            IndexKind::NhsSkipList => Box::new(NhsSkipList::<u64, u64>::new()),
            IndexKind::OccBTree => Box::new(OccBTree::<u64, u64>::new()),
            IndexKind::Masstree => Box::new(MasstreeLite::<u64, u64>::new()),
        }
    }

    /// Work performed on a freshly loaded `index` of this kind before its
    /// run phase.  The paper waits for the NHS background thread to
    /// rebalance its index before starting the run phase (and does not
    /// count that time); NHS's `try_reclaim` publishes a fresh index
    /// snapshot, which does the same deterministically.
    pub fn settle_after_load(&self, index: &dyn ConcurrentIndex<u64, u64>) {
        if *self == IndexKind::NhsSkipList {
            index.try_reclaim();
        }
    }
}

/// Experiment scale, read from the environment with laptop-friendly
/// defaults:
///
/// * `BSKIP_RECORDS` — load-phase records (default 200 000)
/// * `BSKIP_OPS` — run-phase operations (default 200 000)
/// * `BSKIP_THREADS` — worker threads (default: available parallelism)
/// * `BSKIP_TRIALS` — trials per cell, median reported (default 1)
///
/// The paper's full scale corresponds to `BSKIP_RECORDS=100000000
/// BSKIP_OPS=100000000 BSKIP_THREADS=128 BSKIP_TRIALS=5`.
pub fn experiment_config() -> (YcsbConfig, usize) {
    let records = env_usize("BSKIP_RECORDS", 200_000);
    let operations = env_usize("BSKIP_OPS", 200_000);
    let threads = env_usize(
        "BSKIP_THREADS",
        std::thread::available_parallelism().map_or(4, |p| p.get()),
    );
    let trials = env_usize("BSKIP_TRIALS", 1).max(1);
    (
        YcsbConfig::default()
            .with_records(records)
            .with_operations(operations)
            .with_threads(threads),
        trials,
    )
}

/// Reads a `usize` experiment knob from the environment, falling back to
/// `default` when the variable is unset or unparsable.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|value| value.parse().ok())
        .unwrap_or(default)
}

/// Runs one cell of a throughput/latency table: fresh index, load phase,
/// settle, then the requested workload (or just the load phase for
/// [`Workload::Load`]).  Returns the phase result of the *measured* phase
/// together with the index (so callers can inspect statistics).
pub fn run_workload_fresh(
    kind: IndexKind,
    workload: Workload,
    config: &YcsbConfig,
) -> (PhaseResult, Box<dyn ConcurrentIndex<u64, u64>>) {
    let index = kind.build();
    let load_result = run_load_phase(&index, config);
    kind.settle_after_load(index.as_ref());
    let result = if workload == Workload::Load {
        load_result
    } else {
        run_run_phase(&index, workload, config)
    };
    (result, index)
}

/// Figures 9 and 10: strong scaling of every index on `workload` as the
/// thread count doubles from 1 up to `BSKIP_THREADS`.  Speedups are
/// relative to each index's own single-thread throughput, matching the
/// paper's presentation; `paper_note` is the paper's result, printed
/// under the table for comparison.
pub fn scaling_experiment(workload: Workload, title: &str, paper_note: &str) {
    let (base_config, _) = experiment_config();
    let points = thread_points(base_config.threads.max(1));
    println!(
        "{title}: {} records, {} ops, thread points {:?}",
        base_config.record_count, base_config.operation_count, points
    );
    let mut columns = vec!["index".to_string()];
    columns.extend(points.iter().map(|t| format!("{t}T ops/us")));
    columns.push("speedup@max".to_string());
    print_header(
        title,
        &columns.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for kind in IndexKind::ALL {
        let mut cells = vec![kind.label().to_string()];
        let mut single = 0.0f64;
        let mut last = 0.0f64;
        for &threads in &points {
            let config = base_config.with_threads(threads);
            let (result, _) = run_workload_fresh(kind, workload, &config);
            let throughput = result.throughput_ops_per_us;
            if threads == 1 {
                single = throughput;
            }
            last = throughput;
            cells.push(format!("{throughput:.2}"));
        }
        cells.push(if single > 0.0 {
            format!("{:.1}x", last / single)
        } else {
            "-".into()
        });
        println!("{}", format_row(&cells));
    }
    println!("\n{paper_note}");
}

/// One ratio column of a throughput table: its label, the numerator, and
/// the denominator — an index, or `None` for the best of the others.
pub type RatioColumn = (&'static str, IndexKind, Option<IndexKind>);

/// Figures 1 and 7 (uniform) and 11 and 12 (zipfian): throughput of every
/// index in `kinds` on YCSB Load, A, B, C and E with the run phase drawing
/// keys from `distribution` (median over `BSKIP_TRIALS` fresh runs),
/// followed by the `ratios` columns the figure normalizes by.
pub fn throughput_experiment(
    kinds: &[IndexKind],
    distribution: Distribution,
    banner: &str,
    title: &str,
    ratios: &[RatioColumn],
    paper_note: &str,
) {
    let (config, trials) = experiment_config();
    let config = config.with_distribution(distribution);
    println!(
        "{banner}, {} records, {} ops, {} threads, {} trial(s)",
        config.record_count, config.operation_count, config.threads, trials
    );
    let mut columns = vec!["workload"];
    columns.extend(kinds.iter().map(IndexKind::label));
    columns.extend(ratios.iter().map(|(label, ..)| *label));
    print_header(title, &columns);
    for workload in Workload::ALL {
        let throughput: Vec<f64> = kinds
            .iter()
            .map(|&kind| {
                median(
                    (0..trials)
                        .map(|_| {
                            run_workload_fresh(kind, workload, &config)
                                .0
                                .throughput_ops_per_us
                        })
                        .collect(),
                )
            })
            .collect();
        let of = |wanted| kinds.iter().position(|&kind| kind == wanted);
        let mut cells = vec![workload.label().to_string()];
        cells.extend(throughput.iter().map(|t| format!("{t:.2}")));
        for &(_, numerator, denominator) in ratios {
            let numerator = of(numerator).expect("ratio of an index not in the table");
            let base = match denominator {
                Some(kind) => throughput[of(kind).expect("ratio to an index not in the table")],
                None => throughput
                    .iter()
                    .enumerate()
                    .filter(|(slot, _)| *slot != numerator)
                    .fold(0.0, |best, (_, &t)| f64::max(best, t)),
            };
            cells.push(if base > 0.0 {
                format!("{:.2}", throughput[numerator] / base)
            } else {
                "-".into()
            });
        }
        println!("{}", format_row(&cells));
    }
    println!("\n{paper_note}");
}

/// Figures 6 and 8 (uniform) and 13 (zipfian): latency percentiles
/// (50/90/99/99.9 and mean) of every index in `kinds` on YCSB workload A
/// with the run phase drawing keys from `distribution`, and each index's
/// p99 as a multiple of the B-skiplist's under the table.  The latencies
/// are the driver's sampled single operations ([`PhaseResult::latency`]),
/// each including about one clock read, pooled over `BSKIP_TRIALS` fresh
/// runs; a percentile with too few samples beyond it prints as a dash
/// (see [`latency_us`]) and gets no ratio.
pub fn latency_experiment(
    kinds: &[IndexKind],
    distribution: Distribution,
    banner: &str,
    paper_note: &str,
) {
    let (config, trials) = experiment_config();
    let config = config.with_distribution(distribution);
    println!(
        "{banner}, {} records, {} ops, {} threads, {} trial(s)",
        config.record_count, config.operation_count, config.threads, trials
    );
    let title = format!("Latency (us) on YCSB A, {} keys", distribution.label());
    print_header(
        &title,
        &["index", "samples", "p50", "p90", "p99", "p99.9", "mean"],
    );
    let mut p99 = Vec::new();
    for &kind in kinds {
        let mut latency = Histogram::default();
        for _ in 0..trials {
            latency.merge(&run_workload_fresh(kind, Workload::A, &config).0.latency);
        }
        p99.push(tail_quantile(&latency, 0.99));
        let mut cells = vec![kind.label().to_string(), latency.count().to_string()];
        cells.extend([0.5, 0.9, 0.99, 0.999].map(|quantile| latency_us(&latency, quantile)));
        let mean_us = latency.sum() as f64 / latency.count().max(1) as f64 / 1e3;
        cells.push(format!("{mean_us:.2}"));
        println!("{}", format_row(&cells));
    }
    let baseline = IndexKind::BSkipList;
    let base = kinds
        .iter()
        .position(|&kind| kind == baseline)
        .and_then(|slot| p99[slot])
        .filter(|&base| base > 0);
    println!();
    for (kind, &p99) in kinds.iter().zip(&p99) {
        if let (Some(p99), Some(base)) = (p99, base) {
            if *kind != baseline {
                let (label, base_label) = (kind.label(), baseline.label());
                println!(
                    "p99 ratio {label} / {base_label} = {:.1}x",
                    p99 as f64 / base as f64
                );
            }
        }
    }
    println!("– : fewer than {TAIL_SAMPLES} samples beyond that percentile (no ratio is printed for it).");
    println!("\n{paper_note}");
    println!("Paper: means of 10-op batches; here: single operations, one in ten timed.");
}

/// Median of `values` (average of the two middle elements for even
/// lengths); 0 when there are none.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Powers of two below `max_threads`, then `max_threads` itself.
fn thread_points(max_threads: usize) -> Vec<usize> {
    let mut points = vec![1usize];
    let mut t = 2;
    while t < max_threads {
        points.push(t);
        t *= 2;
    }
    if *points.last().unwrap() != max_threads {
        points.push(max_threads);
    }
    points
}

/// Prints a header line followed by a separator of matching width.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let header = columns.join(" | ");
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
}

/// Formats one row of mixed string/number cells separated like the header.
pub fn format_row(cells: &[String]) -> String {
    cells.join(" | ")
}

/// Fewest samples a printed percentile needs beyond its rank: with fewer,
/// p99.9 of 400 samples say, it is the maximum or next to it, one stall's
/// worth, and says nothing about a tail.
const TAIL_SAMPLES: u64 = 10;

/// The nearest-rank `quantile` of `latency` in ns, or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond it.
fn tail_quantile(latency: &Histogram, quantile: f64) -> Option<u64> {
    let count = latency.count();
    let rank = (quantile * count as f64).ceil() as u64;
    (count.saturating_sub(rank) >= TAIL_SAMPLES).then(|| latency.value_at_quantile(quantile))
}

/// The `quantile` of a phase's latency histogram as a cell in µs, or `–`
/// when fewer than 10 samples lie beyond it.
pub fn latency_us(latency: &Histogram, quantile: f64) -> String {
    tail_quantile(latency, quantile)
        .map_or_else(|| "–".to_string(), |ns| format!("{:.2}", ns as f64 / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_serves_operations() {
        for kind in IndexKind::ALL {
            let index = kind.build();
            assert!(index.is_empty(), "{} should start empty", kind.label());
            index.insert(1, 10);
            index.insert(2, 20);
            assert_eq!(index.get(&1), Some(10), "{}", kind.label());
            let seen: Vec<u64> = index.scan(1..).take(10).map(|(k, _)| k).collect();
            assert_eq!(seen, vec![1, 2], "{}", kind.label());
            kind.settle_after_load(index.as_ref());
            assert_eq!(index.get(&2), Some(20), "{}", kind.label());
        }
    }

    #[test]
    fn every_kind_serves_cursor_scans() {
        use std::ops::Bound;
        for kind in IndexKind::ALL {
            let index = kind.build();
            for key in 0..64u64 {
                index.insert(key, key * 2);
            }
            kind.settle_after_load(index.as_ref());
            let mut cursor = index.scan_bounds(Bound::Included(10), Bound::Excluded(20));
            let window: Vec<u64> = std::iter::from_fn(|| cursor.next())
                .map(|(k, _)| k)
                .collect();
            assert_eq!(window, (10..20).collect::<Vec<_>>(), "{}", kind.label());
            // Opened near, at and past the end: every cursor drains to
            // the last key and then stays exhausted.
            for from in [59u64, 63, 64] {
                let mut cursor = index.scan_bounds(Bound::Included(from), Bound::Unbounded);
                let tail: Vec<u64> = std::iter::from_fn(|| cursor.next())
                    .map(|(k, _)| k)
                    .collect();
                assert_eq!(tail, (from..64).collect::<Vec<_>>(), "{}", kind.label());
                assert_eq!(cursor.next(), None, "{} from {from}", kind.label());
                assert_eq!(cursor.next(), None, "{} from {from}", kind.label());
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = IndexKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), IndexKind::ALL.len());
    }

    #[test]
    fn run_workload_fresh_loads_and_runs() {
        let config = YcsbConfig::default()
            .with_records(5_000)
            .with_operations(5_000)
            .with_threads(2);
        let (result, index) = run_workload_fresh(IndexKind::BSkipList, Workload::A, &config);
        assert_eq!(result.operations, 5_000);
        assert!(index.len() >= 5_000);
        let (load_result, _) = run_workload_fresh(IndexKind::OccBTree, Workload::Load, &config);
        assert_eq!(load_result.operations, 5_000);
    }

    #[test]
    fn config_env_defaults() {
        let (config, trials) = experiment_config();
        assert!(config.record_count > 0);
        assert!(config.threads > 0);
        assert!(trials >= 1);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_samples_beyond_it_is_a_dash() {
        let histogram = |count: u64| {
            let mut histogram = Histogram::default();
            (1..=count).for_each(|ns| histogram.record(ns * 1_000));
            histogram
        };
        // 400 samples, the CI scale's phase: p99 has 4 beyond it, p99.9
        // is the maximum.
        let printed = |count| {
            [0.5, 0.9, 0.99, 0.999].map(|q| latency_us(&histogram(count), q).parse::<f64>().is_ok())
        };
        assert_eq!(printed(400), [true, true, false, false]);
        assert_eq!(latency_us(&histogram(400), 0.99), "–");
        assert_eq!(printed(100_000), [true; 4]);
        // The edge: p99 of 1 000 samples has 10 beyond it, of 999 nine.
        assert_ne!(latency_us(&histogram(1_000), 0.99), "–");
        assert_eq!(latency_us(&histogram(999), 0.99), "–");
        assert_eq!(latency_us(&Histogram::default(), 0.5), "–");
    }

    #[test]
    fn formatting_helpers() {
        let row = format_row(&["a".into(), "b".into()]);
        assert_eq!(row, "a | b");
        print_header("test", &["col1", "col2"]);
    }
}
