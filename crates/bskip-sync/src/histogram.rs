//! A log-bucketed latency histogram in the style of HdrHistogram
//! (<http://hdrhistogram.org>): each power of two of nanoseconds is split
//! into 16 equal sub-buckets, so a value is kept to within 1/16 (≈ 6 %) of
//! itself in a fixed 464-word table, however many samples are recorded.

const SUB_BITS: u32 = 4;
/// Values below 32 ns get a bucket each; every higher power of two gets 16.
const BUCKETS: usize = ((32 - SUB_BITS + 1) << SUB_BITS) as usize;

/// Counts of nanosecond samples by bucket, plus their exact sum.
///
/// A reported quantile is the highest value of the bucket its sample fell
/// in: never below the exact nearest-rank sample and less than 1/16 above
/// it (exact below 32 ns).  Samples saturate at `u32::MAX` ns (≈ 4.3 s).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            sum: 0,
        }
    }
}

impl Histogram {
    /// Records one sample of `ns` nanoseconds; never allocates.
    pub fn record(&mut self, ns: u64) {
        let ns = u32::try_from(ns).unwrap_or(u32::MAX);
        // `shift` is 0 below 32 ns, where a bucket is one value wide.
        let shift = (u32::BITS - ns.leading_zeros()).saturating_sub(SUB_BITS + 1);
        self.buckets[((shift << SUB_BITS) + (ns >> shift)) as usize] += 1;
        self.sum += u64::from(ns);
    }

    /// Adds every sample of `other` to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Exact sum of the (saturated) samples in ns, for the mean.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The nearest-rank `quantile` (`0.0..=1.0`; `1.0` is the maximum) in
    /// ns, to within the bucket error above; 0 when nothing was recorded.
    pub fn value_at_quantile(&self, quantile: f64) -> u64 {
        let count = self.count();
        let rank = ((quantile * count as f64).ceil() as u64).clamp(1, count.max(1));
        let mut seen = 0;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let shift = (bucket as u32 >> SUB_BITS).saturating_sub(1);
                let mantissa = bucket as u64 - (u64::from(shift) << SUB_BITS);
                return ((mantissa + 1) << shift) - 1;
            }
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact nearest-rank quantile of `sorted`, the reference the
    /// histogram is held to.
    fn nearest_rank(sorted: &[u64], quantile: f64) -> u64 {
        let rank = (quantile * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn assert_tracks_reference(mut samples: Vec<u64>) {
        let mut histogram = Histogram::default();
        samples.iter().for_each(|&ns| histogram.record(ns));
        samples.sort_unstable();
        assert_eq!(histogram.count(), samples.len() as u64);
        assert_eq!(histogram.sum(), samples.iter().sum::<u64>());
        for quantile in [0.5, 0.99, 0.999, 1.0] {
            let (exact, got) = (
                nearest_rank(&samples, quantile),
                histogram.value_at_quantile(quantile),
            );
            assert!(
                exact <= got && (got - exact) * 16 <= exact,
                "q{quantile}: histogram {got} ns vs exact {exact} ns"
            );
        }
    }

    #[test]
    fn quantiles_agree_with_the_sorted_reference_within_a_sixteenth() {
        assert_tracks_reference((1..=100_000).collect());
        // A seeded Pareto (alpha 1.2) tail over a 100 ns floor, capped at
        // the histogram's saturation point so both sides see one value.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let heavy_tailed = (0..200_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let uniform = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                (100.0 * uniform.powf(-1.0 / 1.2)).min(f64::from(u32::MAX)) as u64
            })
            .collect();
        assert_tracks_reference(heavy_tailed);
    }

    #[test]
    fn merging_two_halves_equals_recording_all() {
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i % 1_000_003).collect();
        let mut all = Histogram::default();
        let mut halves = [Histogram::default(), Histogram::default()];
        for (i, &ns) in samples.iter().enumerate() {
            all.record(ns);
            halves[i % 2].record(ns);
        }
        let [mut left, right] = halves;
        left.merge(&right);
        assert_eq!((left.buckets, left.sum), (all.buckets, all.sum));
    }

    #[test]
    fn samples_past_u32_saturate_into_the_last_bucket() {
        let mut histogram = Histogram::default();
        histogram.record(1 << 32);
        histogram.record(u64::MAX);
        assert_eq!(histogram.buckets[BUCKETS - 1], 2);
        assert_eq!(histogram.value_at_quantile(0.5), u64::from(u32::MAX));
        assert_eq!(histogram.sum(), 2 * u64::from(u32::MAX));
    }

    #[test]
    fn an_empty_histogram_reports_zero() {
        let histogram = Histogram::default();
        assert_eq!(histogram.count(), 0);
        assert_eq!(histogram.sum(), 0);
        assert_eq!(histogram.value_at_quantile(0.5), 0);
        assert_eq!(histogram.value_at_quantile(1.0), 0);
    }
}
