//! Latency percentile extraction.
//!
//! The paper's methodology (Section 5, "Systems setup"): *"each thread
//! measures the average time taken for a batch of ten operations and
//! stores it in a thread-safe vector.  This allows us to sort and calculate
//! the latency at each percentile after running each benchmark."*  Batch
//! measurement is deliberate — timing each operation individually would
//! remove the contention between threads that the benchmark is trying to
//! capture.  [`crate::driver`] takes one sample per batch; [`LatencySummary`]
//! sorts the merged samples and reads the percentiles off them.

/// Number of operations per latency sample (the paper uses 10).
pub const BATCH_SIZE: usize = 10;

/// Percentile summary of merged latency samples, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median (50th percentile) latency in microseconds.
    pub p50_us: f64,
    /// 90th percentile latency in microseconds.
    pub p90_us: f64,
    /// 95th percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency in microseconds.
    pub p999_us: f64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Number of samples the summary was computed from.
    pub samples: usize,
}

impl LatencySummary {
    /// Builds a summary from per-batch samples (nanoseconds per operation).
    pub fn from_samples(mut samples_ns: Vec<f64>) -> Self {
        if samples_ns.is_empty() {
            return LatencySummary::default();
        }
        samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
        let mean_ns = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        let pick = |fraction: f64| -> f64 {
            let position = ((samples_ns.len() as f64) * fraction).ceil() as usize;
            let index = position.clamp(1, samples_ns.len()) - 1;
            samples_ns[index]
        };
        LatencySummary {
            p50_us: pick(0.50) / 1_000.0,
            p90_us: pick(0.90) / 1_000.0,
            p95_us: pick(0.95) / 1_000.0,
            p99_us: pick(0.99) / 1_000.0,
            p999_us: pick(0.999) / 1_000.0,
            mean_us: mean_ns / 1_000.0,
            samples: samples_ns.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_samples_is_zero() {
        let summary = LatencySummary::from_samples(vec![]);
        assert_eq!(summary.samples, 0);
        assert_eq!(summary.p99_us, 0.0);
    }

    #[test]
    fn percentiles_are_monotone_and_correct() {
        // 1..=1000 ns samples: p50 = 500 ns, p99 = 990 ns, p99.9 = 999 ns.
        let samples: Vec<f64> = (1..=1000).map(|v| v as f64).collect();
        let summary = LatencySummary::from_samples(samples);
        assert!((summary.p50_us - 0.5).abs() < 1e-9);
        assert!((summary.p90_us - 0.9).abs() < 1e-9);
        assert!((summary.p95_us - 0.95).abs() < 1e-9);
        assert!((summary.p99_us - 0.99).abs() < 1e-9);
        assert!((summary.p999_us - 0.999).abs() < 1e-9);
        assert!(summary.p50_us <= summary.p90_us);
        assert!(summary.p90_us <= summary.p95_us);
        assert!(summary.p95_us <= summary.p99_us);
        assert!(summary.p99_us <= summary.p999_us);
        assert_eq!(summary.samples, 1000);
    }

    #[test]
    fn single_sample_summary() {
        let summary = LatencySummary::from_samples(vec![5_000.0]);
        assert!((summary.p50_us - 5.0).abs() < 1e-9);
        assert!((summary.p999_us - 5.0).abs() < 1e-9);
        assert_eq!(summary.samples, 1);
    }
}
