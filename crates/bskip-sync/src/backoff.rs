//! Bounded exponential backoff for spin loops.

use std::hint;

/// Exponential backoff helper for contended spin loops.
///
/// The first few calls to [`Backoff::spin`] issue a geometrically growing
/// number of [`core::hint::spin_loop`] hints; once the spin budget is
/// exhausted the caller is expected to keep calling [`Backoff::snooze`],
/// which yields the thread to the OS scheduler.  This mirrors the behaviour
/// of `crossbeam_utils::Backoff` but is small enough to keep the whole lock
/// implementation dependency-free.
///
/// # Example
///
/// ```
/// use bskip_sync::Backoff;
///
/// let mut tries = 0;
/// let mut backoff = Backoff::new();
/// while tries < 10 {
///     tries += 1;
///     backoff.snooze();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

/// Maximum exponent for pure spinning (2^6 = 64 spin hints per round).
const SPIN_LIMIT: u32 = 6;
/// Maximum exponent before the backoff saturates.
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Creates a fresh backoff state.
    #[inline]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets the backoff to its initial state.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Busy-spins for a number of iterations proportional to how long we
    /// have been waiting.  Never yields to the OS.
    #[inline]
    pub fn spin(&mut self) {
        let exponent = self.step.min(SPIN_LIMIT);
        for _ in 0..(1u32 << exponent) {
            hint::spin_loop();
        }
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Backs off, spinning while the wait is short and yielding the thread
    /// to the scheduler once the spin budget is exhausted.  This is the
    /// right call inside lock acquisition loops.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            self.spin();
        } else {
            std::thread::yield_now();
            if self.step <= YIELD_LIMIT {
                self.step += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_incomplete() {
        let backoff = Backoff::new();
        assert_eq!(backoff.step, 0);
    }

    #[test]
    fn spin_escalates_and_saturates() {
        let mut backoff = Backoff::new();
        for _ in 0..64 {
            backoff.spin();
        }
        assert!(backoff.step > SPIN_LIMIT);
        // Saturation: further spins do not overflow the step counter.
        for _ in 0..64 {
            backoff.spin();
        }
        assert!(backoff.step <= YIELD_LIMIT + 1);
    }

    #[test]
    fn snooze_becomes_yielding() {
        let mut backoff = Backoff::new();
        for _ in 0..(SPIN_LIMIT + 2) {
            backoff.snooze();
        }
        assert!(backoff.step > SPIN_LIMIT);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut backoff = Backoff::new();
        for _ in 0..32 {
            backoff.snooze();
        }
        backoff.reset();
        assert_eq!(backoff.step, 0);
    }

    #[test]
    fn default_matches_new() {
        assert_eq!(Backoff::default().step, Backoff::new().step);
    }
}
