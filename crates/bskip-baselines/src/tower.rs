//! What the one-element-per-node skiplist baselines share: tower heights
//! and the deletion mark on a `next` pointer.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Maximum number of levels in a tower.  With promotion probability 1/2
/// this supports far more elements than any benchmark in the repository.
pub(crate) const MAX_LEVELS: usize = 24;

thread_local! {
    static TOWER_RNG: std::cell::RefCell<SmallRng> =
        std::cell::RefCell::new(SmallRng::from_entropy());
}

/// Samples a tower height in `1..=MAX_LEVELS` with the traditional
/// promotion probability of 1/2.
pub(crate) fn sample_tower_height() -> usize {
    TOWER_RNG.with(|rng| {
        let mut rng = rng.borrow_mut();
        let mut height = 1;
        while height < MAX_LEVELS && rng.gen_bool(0.5) {
            height += 1;
        }
        height
    })
}

/// Reseeds this thread's tower-height RNG, which the lazy and lock-free
/// skiplists draw from.  The cache simulator uses this to make Table 1
/// reproducible without threading an RNG through the hot path.
pub fn reseed_tower_rng(seed: u64) {
    TOWER_RNG.with(|rng| *rng.borrow_mut() = SmallRng::seed_from_u64(seed));
}

/// The deletion mark: the low bit of a node's `next` pointer.  Nodes are
/// `Box`-allocated and therefore at least word-aligned, so the bit is
/// always free.  A set bit means "this node is deleted; its successor is
/// frozen".
const MARK: usize = 1;

/// `ptr` with the deletion mark set.
#[inline]
pub(crate) fn marked<T>(ptr: *mut T) -> *mut T {
    (ptr as usize | MARK) as *mut T
}

/// `ptr` with the deletion mark cleared.
#[inline]
pub(crate) fn unmark<T>(ptr: *mut T) -> *mut T {
    (ptr as usize & !MARK) as *mut T
}

/// Whether `ptr` carries the deletion mark.
#[inline]
pub(crate) fn is_marked<T>(ptr: *mut T) -> bool {
    ptr as usize & MARK != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tower_heights_are_in_range() {
        for _ in 0..1000 {
            let height = sample_tower_height();
            assert!((1..=MAX_LEVELS).contains(&height));
        }
    }

    #[test]
    fn mark_helpers_round_trip() {
        let raw = Box::into_raw(Box::new(0u64));
        assert!(!is_marked(raw));
        let tagged = marked(raw);
        assert!(is_marked(tagged));
        assert_eq!(unmark(tagged), raw);
        assert_eq!(unmark(raw), raw);
        // SAFETY: `raw` came from `Box::into_raw` above and is freed once.
        unsafe { drop(Box::from_raw(raw)) };
    }
}
