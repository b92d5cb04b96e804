//! Runtime configuration of the B-skiplist.

/// Configuration knobs of a [`crate::BSkipList`].
///
/// The compile-time parameter `B` (keys per node) is a const generic on the
/// list type; everything that the paper varies at runtime lives here:
///
/// * `max_height` — number of levels, including the leaf level.  The paper
///   sets the maximum height to 5 for its 100M-key experiments; the default
///   here is 6 which is ample for `B ≥ 32` up to billions of keys.
/// * `promotion_c` — the scaling constant `c` of the promotion probability
///   `p = 1 / (c·B)` from Golovin's analysis.  The paper's sensitivity sweep
///   (Table 3) tests `c ∈ {0.5, 1.0, 2.0}` and selects `c = 0.5`.
/// * `collect_stats` — when enabled the list maintains the structural
///   counters reported in Section 5 (horizontal steps, split counts,
///   top-level write locks, leaf nodes per range query).  Disabled by
///   default because shared counters add cache-coherence traffic.
///
/// Node merging has no knob: a header removal folds the survivors back
/// into the left neighbour whenever they fit (`list/remove.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BSkipConfig {
    /// Number of levels including the leaf level.  Must be at least 1.
    pub max_height: usize,
    /// Scaling constant `c` in the promotion probability `p = 1/(c·B)`.
    pub promotion_c: f64,
    /// Whether to maintain structural statistics counters.
    pub collect_stats: bool,
}

impl Default for BSkipConfig {
    fn default() -> Self {
        BSkipConfig {
            max_height: 6,
            promotion_c: 0.5,
            collect_stats: false,
        }
    }
}

impl BSkipConfig {
    /// Configuration used by the paper's headline experiments:
    /// 2048-byte nodes (`B = 128` with 16-byte pairs), `c = 0.5`
    /// (promotion probability 1/64) and maximum height 5.
    pub fn paper_default() -> Self {
        BSkipConfig {
            max_height: 5,
            promotion_c: 0.5,
            collect_stats: false,
        }
    }

    /// Builder-style setter for [`BSkipConfig::max_height`].
    pub fn with_max_height(mut self, max_height: usize) -> Self {
        self.max_height = max_height;
        self
    }

    /// Builder-style setter for [`BSkipConfig::promotion_c`].
    pub fn with_promotion_c(mut self, promotion_c: f64) -> Self {
        self.promotion_c = promotion_c;
        self
    }

    /// Builder-style setter for [`BSkipConfig::collect_stats`].
    pub fn with_stats(mut self, collect_stats: bool) -> Self {
        self.collect_stats = collect_stats;
        self
    }

    /// The denominator of the promotion probability for node capacity `b`:
    /// an element is promoted one more level with probability
    /// `1 / promotion_denominator(b)`.
    ///
    /// Clamped below at 2 so degenerate configurations (tiny nodes, tiny
    /// `c`) still yield a valid geometric distribution.
    pub fn promotion_denominator(&self, b: usize) -> u32 {
        let denom = (self.promotion_c * b as f64).round();
        if denom < 2.0 {
            2
        } else if denom > u32::MAX as f64 {
            u32::MAX
        } else {
            denom as u32
        }
    }

    /// Validates the configuration, returning a human-readable error for
    /// out-of-range values.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_height == 0 {
            return Err("max_height must be at least 1".to_string());
        }
        if self.max_height > 64 {
            return Err(format!(
                "max_height {} is unreasonably large (limit 64)",
                self.max_height
            ));
        }
        if !(self.promotion_c.is_finite() && self.promotion_c > 0.0) {
            return Err(format!(
                "promotion_c must be a positive finite number, got {}",
                self.promotion_c
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let config = BSkipConfig::default();
        assert!(config.validate().is_ok());
        assert_eq!(config.max_height, 6);
        assert!(!config.collect_stats);
    }

    #[test]
    fn paper_default_matches_paper_settings() {
        let config = BSkipConfig::paper_default();
        assert_eq!(config.max_height, 5);
        assert_eq!(config.promotion_c, 0.5);
        // B = 128, c = 0.5  =>  p = 1/64 as stated in Section 5.
        assert_eq!(config.promotion_denominator(128), 64);
    }

    #[test]
    fn denominator_scales_with_c_and_b() {
        let config = BSkipConfig::default().with_promotion_c(1.0);
        assert_eq!(config.promotion_denominator(32), 32);
        assert_eq!(config.promotion_denominator(512), 512);
        let doubled = config.with_promotion_c(2.0);
        assert_eq!(doubled.promotion_denominator(64), 128);
    }

    #[test]
    fn denominator_is_clamped_at_two() {
        let config = BSkipConfig::default().with_promotion_c(0.001);
        assert_eq!(config.promotion_denominator(32), 2);
    }

    #[test]
    fn builders_compose() {
        let config = BSkipConfig::default()
            .with_max_height(4)
            .with_promotion_c(2.0)
            .with_stats(true);
        assert_eq!(config.max_height, 4);
        assert_eq!(config.promotion_c, 2.0);
        assert!(config.collect_stats);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(BSkipConfig::default()
            .with_max_height(0)
            .validate()
            .is_err());
        assert!(BSkipConfig::default()
            .with_max_height(65)
            .validate()
            .is_err());
        assert!(BSkipConfig::default()
            .with_promotion_c(0.0)
            .validate()
            .is_err());
        assert!(BSkipConfig::default()
            .with_promotion_c(f64::NAN)
            .validate()
            .is_err());
        assert!(BSkipConfig::default()
            .with_promotion_c(-1.0)
            .validate()
            .is_err());
    }
}
