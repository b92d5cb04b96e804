//! Key-space hashing and request distributions.
//!
//! YCSB addresses records by a dense logical index `0..record_count` and
//! maps each index to a storage key with a hash so that logically adjacent
//! records are not physically adjacent.  The run phase then draws logical
//! indices from either a uniform distribution or the *scrambled Zipfian*
//! distribution (a Zipfian over popularity ranks whose output is hashed so
//! the hot keys are spread across the key space).

use rand::Rng;

/// Multiplicative 64-bit hash (Fibonacci hashing followed by a xor-shift
/// mix).  Used to map logical record indices to storage keys.
#[inline]
pub fn fnv_like_hash(index: u64) -> u64 {
    // splitmix64 finalizer: excellent avalanche, cheap, stable across runs.
    let mut z = index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Request distribution of the run phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Every loaded record is equally likely.
    Uniform,
    /// Scrambled Zipfian with the YCSB default exponent (0.99).
    Zipfian,
}

impl Distribution {
    /// Short label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Zipfian => "zipfian",
        }
    }
}

/// The standard YCSB Zipfian generator (Gray et al., "Quickly Generating
/// Billion-Record Synthetic Databases").
///
/// Produces values in `0..n` where rank 0 is the most popular.  The
/// `zeta(n)` constant is precomputed once at construction.
#[derive(Debug, Clone)]
pub struct ZipfianGenerator {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfianGenerator {
    /// YCSB's default Zipfian constant.
    pub const DEFAULT_THETA: f64 = 0.99;

    /// Creates a generator over `0..items` with the default exponent.
    pub fn new(items: u64) -> Self {
        Self::with_theta(items, Self::DEFAULT_THETA)
    }

    /// Creates a generator with an explicit exponent `theta ∈ (0, 1)`.
    pub fn with_theta(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian requires a non-empty item set");
        assert!((0.0..1.0).contains(&theta), "theta must be in (0, 1)");
        let zetan = Self::zeta(items, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianGenerator {
            items,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(theta);
        }
        sum
    }

    /// Draws the next rank (0 = most popular).
    pub fn next_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5_f64.powf(self.theta) {
            return 1;
        }
        let value = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        value.min(self.items - 1)
    }

    /// Draws the next *scrambled* value: the rank is hashed so popular
    /// records are spread across the key space (YCSB's
    /// `ScrambledZipfianGenerator`).
    pub fn next_scrambled<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let rank = self.next_rank(rng);
        fnv_like_hash(rank) % self.items
    }
}

/// Chooses logical record indices according to a [`Distribution`].
#[derive(Debug, Clone)]
pub enum KeyChooser {
    /// Uniform over `0..records`.
    Uniform {
        /// Number of loaded records.
        records: u64,
    },
    /// Scrambled Zipfian over `0..records`.
    Zipfian(ZipfianGenerator),
}

impl KeyChooser {
    /// Creates a chooser over `0..records` for the given distribution.
    pub fn new(distribution: Distribution, records: u64) -> Self {
        match distribution {
            Distribution::Uniform => KeyChooser::Uniform { records },
            Distribution::Zipfian => KeyChooser::Zipfian(ZipfianGenerator::new(records)),
        }
    }

    /// Draws the next logical record index.
    pub fn next_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            KeyChooser::Uniform { records } => rng.gen_range(0..*records),
            KeyChooser::Zipfian(zipf) => zipf.next_scrambled(rng),
        }
    }
}

/// Storage key of the `index`-th loaded record.
#[inline]
pub fn record_key(index: u64) -> u64 {
    fnv_like_hash(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(fnv_like_hash(1), fnv_like_hash(1));
        assert_ne!(fnv_like_hash(1), fnv_like_hash(2));
        // Adjacent inputs should not map to adjacent outputs.
        let a = fnv_like_hash(100);
        let b = fnv_like_hash(101);
        assert!(a.abs_diff(b) > 1_000_000);
    }

    #[test]
    fn record_keys_are_unique_for_moderate_sets() {
        use std::collections::HashSet;
        let keys: HashSet<u64> = (0..100_000u64).map(record_key).collect();
        assert_eq!(keys.len(), 100_000);
    }

    #[test]
    fn zipfian_ranks_are_in_range_and_skewed() {
        let zipf = ZipfianGenerator::new(10_000);
        let mut rng = StdRng::seed_from_u64(1);
        let draws = 100_000;
        let mut rank_zero = 0usize;
        for _ in 0..draws {
            let rank = zipf.next_rank(&mut rng);
            assert!(rank < 10_000);
            if rank == 0 {
                rank_zero += 1;
            }
        }
        // Rank 0 should receive far more than the uniform share (draws/10000 = 10).
        assert!(
            rank_zero > draws / 1000,
            "rank 0 drawn only {rank_zero} times; zipfian skew missing"
        );
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let zipf = ZipfianGenerator::new(1000);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(zipf.next_scrambled(&mut rng));
        }
        // Scrambling must produce many distinct values even under heavy skew.
        assert!(seen.len() > 50);
        assert!(seen.iter().all(|v| *v < 1000));
    }

    #[test]
    fn uniform_chooser_covers_the_space() {
        let chooser = KeyChooser::new(Distribution::Uniform, 100);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let index = chooser.next_index(&mut rng);
            assert!(index < 100);
            seen.insert(index);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn zipfian_chooser_is_bounded() {
        let chooser = KeyChooser::new(Distribution::Zipfian, 500);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(chooser.next_index(&mut rng) < 500);
        }
    }

    #[test]
    fn distribution_labels() {
        assert_eq!(Distribution::Uniform.label(), "uniform");
        assert_eq!(Distribution::Zipfian.label(), "zipfian");
    }
}
