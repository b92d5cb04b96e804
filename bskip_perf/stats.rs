//! Order statistics: medians, quartiles, percentiles, and a log-bucket
//! histogram for the pooled tail the report prints.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the acceptance rule for this benchmark uses.  Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Nearest-rank percentile (`p` in `0..=1`) of ascending `sorted`.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

const SUB_BITS: u32 = 4;
const BUCKETS: usize = 32 << SUB_BITS;

/// Nanosecond histogram with 16 buckets per power of two (about 6 %
/// resolution): enough for the ungated "highest supported percentile"
/// line, without keeping every sample of every slice.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    pub count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u32) -> usize {
        if ns < (1 << SUB_BITS) {
            return ns as usize;
        }
        let top = 31 - ns.leading_zeros();
        let sub = (ns >> (top - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        (((top - SUB_BITS + 1) << SUB_BITS) + sub) as usize
    }

    /// Upper edge of a bucket, in ns.
    fn edge(bucket: usize) -> f64 {
        let (exp, sub) = (bucket >> SUB_BITS, bucket & ((1 << SUB_BITS) - 1));
        if exp == 0 {
            return sub as f64 + 1.0;
        }
        ((1u64 << SUB_BITS) + sub as u64 + 1) as f64 * (1u64 << (exp - 1)) as f64
    }

    pub fn record_all(&mut self, samples: &[u32]) {
        for &ns in samples {
            self.buckets[Self::bucket(ns)] += 1;
        }
        self.count += samples.len() as u64;
    }

    pub fn percentile_ns(&self, p: f64) -> f64 {
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::edge(bucket);
            }
        }
        0.0
    }

    /// The highest of p50 … p99.999 that still has at least ten samples
    /// beyond it, with its value in ns; `None` below 20 samples.
    pub fn highest_supported(&self) -> Option<(&'static str, f64)> {
        const LADDER: [(&str, f64); 6] = [
            ("p50", 0.5),
            ("p90", 0.9),
            ("p99", 0.99),
            ("p99.9", 0.999),
            ("p99.99", 0.9999),
            ("p99.999", 0.99999),
        ];
        LADDER
            .iter()
            .rev()
            .find(|(_, p)| self.count as f64 * (1.0 - p) >= 10.0 - 1e-6)
            .map(|&(label, p)| (label, self.percentile_ns(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert!((iqr_frac(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.5), 50);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn histogram_tracks_percentiles_within_a_bucket() {
        let mut hist = Hist::default();
        let samples: Vec<u32> = (1..=100_000).collect();
        hist.record_all(&samples);
        for (p, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = hist.percentile_ns(p);
            assert!(
                got >= exact && got <= exact * 1.07,
                "p{p}: {got} vs {exact}"
            );
        }
        assert_eq!(hist.highest_supported().unwrap().0, "p99.99");
        let mut small = Hist::default();
        small.record_all(&[5; 19]);
        assert!(small.highest_supported().is_none());
        small.record_all(&[5]);
        assert_eq!(small.highest_supported().unwrap().0, "p50");
    }
}
