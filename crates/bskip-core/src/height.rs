//! Random promotion-height sampling.
//!
//! A key's height in a (B-)skiplist is the number of consecutive successful
//! coin flips with probability `p = 1/(c·B)`, capped at `max_height - 1`.
//! Crucially — and this is what both the top-down insertion algorithm and
//! the top-down concurrency-control scheme exploit — the height is drawn
//! *before the structure is modified*, independently of its current shape.
//! It is drawn once per key that is actually inserted: an overwrite of a
//! present key draws nothing, so the heights of the stored keys are exactly
//! geometric whatever the operation history.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Per-thread RNG used for promotion coin flips.  `SmallRng` keeps the
    /// cost of a flip to a few nanoseconds, which matters because every
    /// insert of a new key samples a height.
    static HEIGHT_RNG: std::cell::RefCell<SmallRng> =
        std::cell::RefCell::new(SmallRng::from_entropy());
}

/// Samples a promotion height in `0..max_height`.
///
/// The height is geometric with success probability `1/denominator`:
/// `P(height ≥ l) = denominator^{-l}` for `l < max_height`.
pub fn sample_height(denominator: u32, max_height: usize) -> usize {
    debug_assert!(denominator >= 2);
    debug_assert!(max_height >= 1);
    HEIGHT_RNG.with(|rng| geometric(&mut rng.borrow_mut(), denominator, max_height))
}

/// The coin flips behind [`sample_height`]: successes of probability
/// `1/denominator` in a row, stopping at `max_height - 1`.  Driven by a
/// `SmallRng` seeded like [`reseed_thread_rng`], it replays this thread's
/// draws.
pub fn geometric(rng: &mut SmallRng, denominator: u32, max_height: usize) -> usize {
    let mut height = 0;
    while height + 1 < max_height && rng.gen_range(0..denominator) == 0 {
        height += 1;
    }
    height
}

/// Reseeds this thread's height RNG.  Benchmarks use this to make runs
/// reproducible without threading an RNG through the hot path.
pub fn reseed_thread_rng(seed: u64) {
    HEIGHT_RNG.with(|rng| *rng.borrow_mut() = SmallRng::seed_from_u64(seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heights_are_within_bounds() {
        for _ in 0..10_000 {
            let height = sample_height(4, 5);
            assert!(height < 5);
        }
    }

    #[test]
    fn max_height_one_always_returns_zero() {
        for _ in 0..100 {
            assert_eq!(sample_height(2, 1), 0);
        }
    }

    #[test]
    fn geometric_distribution_roughly_matches_probability() {
        // With denominator d, the fraction of heights >= 1 should be close
        // to 1/d.  Use a seeded RNG so the test cannot flake.
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 200_000;
        let promoted = (0..trials)
            .filter(|_| geometric(&mut rng, 8, 10) >= 1)
            .count();
        let observed = promoted as f64 / trials as f64;
        let expected = 1.0 / 8.0;
        assert!(
            (observed - expected).abs() < 0.01,
            "observed promotion rate {observed}, expected ~{expected}"
        );
    }

    #[test]
    fn a_seeded_rng_replays_the_thread_draws() {
        reseed_thread_rng(7);
        let mut replay = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(sample_height(16, 6), geometric(&mut replay, 16, 6));
        }
    }

    #[test]
    fn reseed_makes_sequence_reproducible() {
        reseed_thread_rng(123);
        let first: Vec<_> = (0..64).map(|_| sample_height(2, 8)).collect();
        reseed_thread_rng(123);
        let second: Vec<_> = (0..64).map(|_| sample_height(2, 8)).collect();
        assert_eq!(first, second);
    }
}
