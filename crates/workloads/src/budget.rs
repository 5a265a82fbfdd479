//! Simulation effort presets.
//!
//! Regenerating the paper's figures needs long steady-state runs; tests and
//! examples need something that finishes in seconds.  A [`SimBudget`] bundles
//! the warm-up length, the number of measured messages and the cycle ceiling
//! so the two uses share all other configuration.

use star_sim::SimConfig;

/// How much simulation effort to spend per operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimBudget {
    /// A few thousand messages — seconds per point, adequate for smoke tests
    /// and examples.
    Quick,
    /// The default used by the benchmark harness to regenerate the figures.
    Standard,
    /// Long runs for publication-quality confidence intervals.
    Thorough,
}

impl SimBudget {
    /// Warm-up cycles before measurement starts.
    #[must_use]
    pub fn warmup_cycles(self) -> u64 {
        match self {
            SimBudget::Quick => 3_000,
            SimBudget::Standard => 20_000,
            SimBudget::Thorough => 50_000,
        }
    }

    /// Number of measured messages to collect.
    #[must_use]
    pub fn measured_messages(self) -> u64 {
        match self {
            SimBudget::Quick => 5_000,
            SimBudget::Standard => 30_000,
            SimBudget::Thorough => 120_000,
        }
    }

    /// Hard cycle ceiling (reaching it marks the point as saturated).
    #[must_use]
    pub fn max_cycles(self) -> u64 {
        match self {
            SimBudget::Quick => 300_000,
            SimBudget::Standard => 1_500_000,
            SimBudget::Thorough => 6_000_000,
        }
    }

    /// Applies the budget to a simulation configuration builder, returning the
    /// completed configuration.
    #[must_use]
    pub fn apply(self, message_length: usize, traffic_rate: f64, seed: u64) -> SimConfig {
        SimConfig::builder()
            .message_length(message_length)
            .traffic_rate(traffic_rate)
            .warmup_cycles(self.warmup_cycles())
            .measured_messages(self.measured_messages())
            .max_cycles(self.max_cycles())
            .seed(seed)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_ordered() {
        assert!(SimBudget::Quick.measured_messages() < SimBudget::Standard.measured_messages());
        assert!(SimBudget::Standard.measured_messages() < SimBudget::Thorough.measured_messages());
        assert!(SimBudget::Quick.max_cycles() < SimBudget::Thorough.max_cycles());
    }

    #[test]
    fn apply_builds_a_valid_config() {
        let cfg = SimBudget::Quick.apply(32, 0.004, 9);
        assert_eq!(cfg.message_length, 32);
        assert_eq!(cfg.traffic_rate, 0.004);
        assert_eq!(cfg.warmup_cycles, 3_000);
        assert_eq!(cfg.measured_messages, 5_000);
        assert_eq!(cfg.seed, 9);
        cfg.validate();
    }
}
