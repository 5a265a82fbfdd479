//! Virtual-channel occupancy and "all the channels I may use are busy"
//! probabilities.
//!
//! Eq. (18) gives the steady-state probability `P_v` that `v` of the `V`
//! virtual channels of a physical channel are busy.  Eqs. (9-11) then need the
//! probability that a *specific* set of `a` virtual channels (the ones the
//! message is allowed to use) is entirely busy.  Conditioning on `v` busy
//! channels chosen uniformly at random, that probability is
//! `C(v, a) / C(V, a)`, giving
//!
//! `P_all_busy(a) = Σ_{v=a}^{V} [C(v, a)/C(V, a)] · P_v`.
//!
//! **Topology split:** fully topology-agnostic — the occupancy chain is a
//! property of one physical channel (its arrival rate, service time and `V`),
//! not of the network around it.  [`crate::SpectrumModel`] calls it for
//! every topology.

use star_queueing::markov::vc_occupancy_distribution;

/// Binomial coefficient as `f64` (exact for the small arguments used here).
#[must_use]
pub fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut result = 1.0f64;
    for i in 0..k {
        result *= (n - i) as f64;
        result /= (i + 1) as f64;
    }
    result
}

/// The virtual-channel occupancy state of a physical channel at a given
/// operating point.
#[derive(Debug, Clone)]
pub struct ChannelOccupancy {
    total_vcs: usize,
    probabilities: Vec<f64>,
}

impl ChannelOccupancy {
    /// Builds the occupancy distribution of Eq. (18) for a channel receiving
    /// messages at rate `channel_rate` with mean service time `mean_service`.
    ///
    /// # Panics
    /// Panics if `total_vcs` is zero.
    #[must_use]
    pub fn new(channel_rate: f64, mean_service: f64, total_vcs: usize) -> Self {
        let probabilities = vc_occupancy_distribution(channel_rate, mean_service, total_vcs);
        Self { total_vcs, probabilities }
    }

    /// Total number of virtual channels `V`.
    #[must_use]
    pub fn total_vcs(&self) -> usize {
        self.total_vcs
    }

    /// The distribution `P_0 … P_V`.
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Probability that a specific set of `selectable` virtual channels is
    /// entirely busy (Eqs. 9-11): the message is blocked on this physical
    /// channel exactly when all of the channels it is permitted to use are
    /// occupied.
    ///
    /// Returns 1.0 when `selectable == 0` (a message with no admissible
    /// channel is trivially blocked) — the Enhanced-Nbc window never shrinks
    /// to zero, but the guard keeps the function total.
    #[must_use]
    pub fn prob_all_busy(&self, selectable: usize) -> f64 {
        if selectable == 0 {
            return 1.0;
        }
        if selectable > self.total_vcs {
            return 0.0;
        }
        let denom = binomial(self.total_vcs, selectable);
        let mut p = 0.0;
        for v in selectable..=self.total_vcs {
            p += binomial(v, selectable) / denom * self.probabilities[v];
        }
        p.clamp(0.0, 1.0)
    }

    /// Dally's average multiplexing degree `V̄` (Eq. 19) at this operating
    /// point.
    #[must_use]
    pub fn multiplexing_degree(&self) -> f64 {
        star_queueing::multiplexing_degree(&self.probabilities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(6, 0), 1.0);
        assert_eq!(binomial(6, 6), 1.0);
        assert_eq!(binomial(6, 2), 15.0);
        assert_eq!(binomial(12, 5), 792.0);
        assert_eq!(binomial(4, 7), 0.0);
    }

    #[test]
    fn zero_load_never_blocks() {
        let occ = ChannelOccupancy::new(0.0, 40.0, 6);
        for a in 1..=6 {
            assert_eq!(occ.prob_all_busy(a), 0.0, "no channel is busy at zero load");
        }
        assert_eq!(occ.multiplexing_degree(), 1.0);
    }

    #[test]
    fn saturation_always_blocks() {
        // rate * service >= 1 concentrates all mass on "all V busy"
        let occ = ChannelOccupancy::new(0.05, 40.0, 6);
        for a in 1..=6 {
            assert!((occ.prob_all_busy(a) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn blocking_decreases_with_more_selectable_channels() {
        let occ = ChannelOccupancy::new(0.004, 60.0, 9);
        let mut last = 1.1;
        for a in 1..=9 {
            let p = occ.prob_all_busy(a);
            assert!(p < last, "more admissible channels must not increase blocking");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn needing_every_channel_equals_full_occupancy_probability() {
        let occ = ChannelOccupancy::new(0.006, 50.0, 6);
        let p_full = occ.probabilities()[6];
        assert!((occ.prob_all_busy(6) - p_full).abs() < 1e-12);
    }

    #[test]
    fn single_channel_probability_is_expected_busy_fraction() {
        // With a = 1 the probability that "my one channel is busy" equals
        // E[v]/V by symmetry.
        let occ = ChannelOccupancy::new(0.005, 70.0, 8);
        let expected: f64 =
            occ.probabilities().iter().enumerate().map(|(v, &p)| v as f64 * p).sum::<f64>() / 8.0;
        assert!((occ.prob_all_busy(1) - expected).abs() < 1e-12);
    }

    #[test]
    fn guards_for_degenerate_arguments() {
        let occ = ChannelOccupancy::new(0.004, 40.0, 6);
        assert_eq!(occ.prob_all_busy(0), 1.0);
        assert_eq!(occ.prob_all_busy(7), 0.0);
    }

    mod prop {
        use super::*;

        #[test]
        fn all_busy_probability_is_monotone_in_load() {
            for v in 2usize..=12 {
                for a in 1usize..=6 {
                    let a = a.min(v);
                    for &s in &[10.0f64, 40.0, 111.0, 200.0] {
                        for i in 0..10 {
                            let rho1 = 0.05 + 0.45 * f64::from(i) / 10.0;
                            let rho2 = rho1 + 0.3;
                            let low = ChannelOccupancy::new(rho1 / s, s, v).prob_all_busy(a);
                            let high = ChannelOccupancy::new(rho2 / s, s, v).prob_all_busy(a);
                            assert!(
                                high >= low - 1e-12,
                                "v={v}, a={a}, s={s}: P({rho2})={high} < P({rho1})={low}"
                            );
                        }
                    }
                }
            }
        }
    }
}
