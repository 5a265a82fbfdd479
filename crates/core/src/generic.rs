//! The latency stage: the analytical model of mean message latency (Eq. 1)
//! evaluated on a [`TraversalSpectrum`], and its fixed-point solution.
//!
//! [`SpectrumModel`] walks whatever spectrum the builder stage produced —
//! the closed-form star or hypercube spectrum, or the BFS census of any
//! other [`star_graph::Topology`] — through the topology-agnostic chain:
//! the channel rate `λ_c = λ_g·d̄/degree` (Eq. 3), the per-class blocking
//! sums (Eqs. 4–11), the M/G/1 waiting times (Eqs. 12–16), the
//! multiplexing degree (Eq. 19) and the damped fixed point over the
//! circular dependency between `S̄` and the waiting times.  It is the one
//! solver of the crate; [`spectrum_saturation_rate`] is the one saturation
//! search.

use std::sync::Arc;

use star_queueing::{FixedPointOutcome, FixedPointSolver};

use crate::blocking::{batch_blocking_delays, total_blocking_delay};
use crate::occupancy::ChannelOccupancy;
use crate::params::ModelParams;
use crate::spectrum::{TraversalClass, TraversalSpectrum};
use crate::waiting::{channel_waiting_time, source_waiting_time};

/// Result of evaluating the model at one operating point, tagged with the
/// parameters and the name of the topology the spectrum was built for.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectrumResult {
    /// The parameters that were evaluated.
    pub params: ModelParams,
    /// Name of the topology the spectrum was built from.
    pub topology: String,
    /// Whether the operating point is beyond saturation (the fixed point
    /// diverged or a queue became unstable).
    pub saturated: bool,
    /// Mean network latency `S̄` (time to cross the network), in cycles.
    pub mean_network_latency: f64,
    /// Mean waiting time at the source queue `W_s`, in cycles.
    pub source_waiting: f64,
    /// Average degree of virtual-channel multiplexing `V̄`.
    pub multiplexing: f64,
    /// Mean message latency `(S̄ + W_s)·V̄`, in cycles.
    pub mean_latency: f64,
    /// Mean minimal distance `d̄` (Eq. 2).
    pub mean_distance: f64,
    /// Traffic rate per channel `λ_c = λ_g·d̄/degree` (Eq. 3).
    pub channel_rate: f64,
    /// Channel utilisation `λ_c · S̄` at the solution.
    pub channel_utilization: f64,
    /// Mean waiting time `w̄` at a channel when blocking occurs (Eq. 15).
    pub channel_waiting: f64,
    /// Number of fixed-point iterations used.
    pub iterations: usize,
}

impl SpectrumResult {
    /// A saturated placeholder result (infinite latency).
    fn saturated(
        params: ModelParams,
        topology: String,
        mean_distance: f64,
        channel_rate: f64,
        iterations: usize,
    ) -> Self {
        Self {
            params,
            topology,
            saturated: true,
            mean_network_latency: f64::INFINITY,
            source_waiting: f64::INFINITY,
            multiplexing: params.virtual_channels as f64,
            mean_latency: f64::INFINITY,
            mean_distance,
            channel_rate,
            channel_utilization: 1.0,
            channel_waiting: f64::INFINITY,
            iterations,
        }
    }
}

/// The damped fixed-point solver the latency model iterates with.
///
/// Tolerance 1e-12 (not the solver default 1e-9): near the knee the
/// contraction factor approaches 1 and the per-iteration residual understates
/// the distance to the fixed point, and warm- and cold-started solves must
/// agree to 1e-9 relative latency.
fn latency_solver() -> FixedPointSolver {
    FixedPointSolver {
        damping: 0.5,
        tolerance: 1e-12,
        max_iterations: 20_000,
        divergence_ceiling: 1e7,
    }
}

/// The analytical model of mean message latency on any topology with a
/// [`TraversalSpectrum`] (the paper's contribution, for Enhanced-Nbc on
/// `S_n`, and its extensions to the other disciplines and topologies).
#[derive(Debug, Clone)]
pub struct SpectrumModel {
    params: ModelParams,
    spectrum: Arc<TraversalSpectrum>,
    parallelism: usize,
}

impl SpectrumModel {
    /// Builds the model around an already computed spectrum (the spectrum
    /// only depends on the topology, so a sweep — or several threads — can
    /// reuse one allocation).
    ///
    /// # Panics
    /// Panics if the parameters are invalid for the spectrum's topology
    /// (diameter-derived virtual-channel floor, message length, rate).
    #[must_use]
    pub fn new(params: ModelParams, spectrum: Arc<TraversalSpectrum>) -> Self {
        if let Err(e) = params.try_validate_generic(spectrum.diameter()) {
            panic!("invalid parameters for {}: {e}", spectrum.topology_name());
        }
        Self { params, spectrum, parallelism: 1 }
    }

    /// Builds the model and the spectrum in one go (the spectrum builder
    /// is chosen by [`TraversalSpectrum::for_topology`]).
    ///
    /// # Panics
    /// As [`Self::new`] and [`TraversalSpectrum::for_topology`].
    #[must_use]
    pub fn for_topology(params: ModelParams, topology: &dyn star_graph::Topology) -> Self {
        Self::new(params, Arc::new(TraversalSpectrum::for_topology(topology)))
    }

    /// Shards the per-class blocking sums of every fixed-point iteration
    /// across the shared [`star_exec::ExecPool`]: `1` = serial (the
    /// default), `0` = all pool workers, anything else caps the executors —
    /// the same width convention as every other parallel knob in the
    /// workspace.  The answer is byte-identical for any width (see
    /// [`crate::blocking::batch_blocking_delays`]); worth it for the largest
    /// spectra (`S7`+, `Q13`+), which the `model_solve` bench quantifies.
    #[must_use]
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads;
        self
    }

    /// The parameters being evaluated.
    #[must_use]
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// The traversal spectrum (shared across operating points of the same
    /// topology).
    #[must_use]
    pub fn spectrum(&self) -> &TraversalSpectrum {
        &self.spectrum
    }

    /// Evaluates the mean network latency implied by a current estimate of
    /// `S̄`: one application of Eqs. 4–15 on the spectrum.
    fn network_latency_step(&self, mean_service: f64, channel_rate: f64) -> f64 {
        let params = &self.params;
        let split = params.vc_split(self.spectrum.diameter());
        let occupancy = ChannelOccupancy::new(channel_rate, mean_service, params.virtual_channels);
        let mean_wait = channel_waiting_time(channel_rate, mean_service, params.message_length);
        if !mean_wait.is_finite() {
            return f64::INFINITY;
        }
        fn profile_of(class: &TraversalClass, adaptive: bool) -> &star_graph::AdaptivityProfile {
            if adaptive {
                &class.adaptive_profile
            } else {
                &class.deterministic_profile
            }
        }
        let adaptive = params.discipline.is_adaptive();
        let mut weighted = 0.0;
        if self.parallelism == 1 {
            // serial fast path: no per-iteration allocation in the solver's
            // innermost loop
            for class in self.spectrum.classes() {
                let blocking =
                    total_blocking_delay(split, &occupancy, profile_of(class, adaptive), mean_wait);
                let latency = params.message_length as f64 + class.distance as f64 + blocking;
                weighted += latency * class.count as f64;
            }
        } else {
            let profiles: Vec<&star_graph::AdaptivityProfile> =
                self.spectrum.classes().iter().map(|c| profile_of(c, adaptive)).collect();
            let delays =
                batch_blocking_delays(split, &occupancy, &profiles, mean_wait, self.parallelism);
            for (class, blocking) in self.spectrum.classes().iter().zip(delays) {
                let latency = params.message_length as f64 + class.distance as f64 + blocking;
                weighted += latency * class.count as f64;
            }
        }
        weighted / self.spectrum.destination_count() as f64
    }

    /// Solves the model at the configured operating point from the cold
    /// (zero-load) initial state.
    #[must_use]
    pub fn solve(&self) -> SpectrumResult {
        self.solve_from(&[])
    }

    /// Solves the model, warm-starting the damped fixed-point iteration from
    /// a previously converged state vector (one component: the mean network
    /// latency `S̄`).
    ///
    /// Sweeps over increasing traffic rates converge to nearby fixed points,
    /// so seeding each rate with the previous rate's converged state cuts the
    /// iteration count substantially near the saturation knee while reaching
    /// the same fixed point (the solver tolerance bounds the answer, not the
    /// path to it).  An empty slice or a non-finite / below-zero-load seed
    /// (e.g. from a saturated previous point) falls back to the cold start,
    /// so callers can pass the previous state unconditionally.
    #[must_use]
    pub fn solve_from(&self, warm_state: &[f64]) -> SpectrumResult {
        let params = &self.params;
        let name = self.spectrum.topology_name().to_string();
        let mean_distance = self.spectrum.mean_distance();
        let channel_rate = params.traffic_rate * mean_distance / self.spectrum.degree() as f64;
        let zero_load = params.message_length as f64 + mean_distance;

        // a channel can never serve more than one message of M flits at a
        // time, so λ_c·M ≥ 1 is beyond saturation
        if channel_rate * params.message_length as f64 >= 1.0 {
            return SpectrumResult::saturated(*params, name, mean_distance, channel_rate, 0);
        }

        let initial = match warm_state.first() {
            Some(&seed) if seed.is_finite() && seed >= zero_load => seed,
            _ => zero_load,
        };
        let solver = latency_solver();
        let outcome = solver
            .solve(vec![initial], |state| vec![self.network_latency_step(state[0], channel_rate)]);
        let (mean_network_latency, iterations) = match outcome {
            FixedPointOutcome::Converged { state, iterations } => (state[0], iterations),
            FixedPointOutcome::Diverged { iterations, .. } => {
                return SpectrumResult::saturated(
                    *params,
                    name,
                    mean_distance,
                    channel_rate,
                    iterations,
                );
            }
            FixedPointOutcome::MaxIterations { state, .. } => (state[0], solver.max_iterations),
        };

        let occupancy =
            ChannelOccupancy::new(channel_rate, mean_network_latency, params.virtual_channels);
        let multiplexing = occupancy.multiplexing_degree();
        let channel_waiting =
            channel_waiting_time(channel_rate, mean_network_latency, params.message_length);
        let source_waiting = source_waiting_time(
            params.traffic_rate,
            params.virtual_channels,
            mean_network_latency,
            params.message_length,
        );
        if !source_waiting.is_finite() || !channel_waiting.is_finite() {
            return SpectrumResult::saturated(
                *params,
                name,
                mean_distance,
                channel_rate,
                iterations,
            );
        }
        let mean_latency = (mean_network_latency + source_waiting) * multiplexing;
        SpectrumResult {
            params: *params,
            topology: name,
            saturated: false,
            mean_network_latency,
            source_waiting,
            multiplexing,
            mean_latency,
            mean_distance,
            channel_rate,
            channel_utilization: channel_rate * mean_network_latency,
            channel_waiting,
            iterations,
        }
    }
}

/// Largest traffic generation rate at which the model still converges (the
/// predicted saturation rate, the knee of Figure 1), found by bisection on
/// the saturation flag to the given relative tolerance.
///
/// # Panics
/// Panics if the parameters are invalid for the spectrum's topology or
/// `tolerance` is outside `(0, 1)`.
#[must_use]
pub fn spectrum_saturation_rate(
    base: ModelParams,
    spectrum: &Arc<TraversalSpectrum>,
    tolerance: f64,
) -> f64 {
    assert!(tolerance > 0.0 && tolerance < 1.0, "tolerance must be in (0, 1)");
    let solves = |rate: f64| {
        !SpectrumModel::new(base.with_rate(rate), Arc::clone(spectrum)).solve().saturated
    };
    let mut low = 0.0;
    // λ_c·M ≥ 1 (one message of M flits per channel at a time) is certainly
    // beyond saturation: λ_g = degree/(d̄·M)
    let mut high =
        spectrum.degree() as f64 / (spectrum.mean_distance() * base.message_length as f64);
    debug_assert!(!solves(high));
    while (high - low) / high.max(1e-12) > tolerance {
        let mid = 0.5 * (low + high);
        if solves(mid) {
            low = mid;
        } else {
            high = mid;
        }
    }
    low
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelDiscipline;
    use star_graph::{Ring, Torus};

    /// One network per spectrum builder: the closed-form star and hypercube
    /// and the BFS census of the torus, each valid for every discipline at
    /// `V = 6`.
    fn networks() -> [Arc<TraversalSpectrum>; 3] {
        [
            Arc::new(TraversalSpectrum::star(5)),
            Arc::new(TraversalSpectrum::hypercube(7)),
            Arc::new(TraversalSpectrum::new(&Torus::new(8))),
        ]
    }

    fn params(v: usize, m: usize, discipline: ModelDiscipline) -> ModelParams {
        ModelParams { virtual_channels: v, message_length: m, traffic_rate: 0.0, discipline }
    }

    fn solve(spectrum: &Arc<TraversalSpectrum>, params: ModelParams, rate: f64) -> SpectrumResult {
        SpectrumModel::new(params.with_rate(rate), Arc::clone(spectrum)).solve()
    }

    fn saturation(spectrum: &Arc<TraversalSpectrum>, params: ModelParams) -> f64 {
        spectrum_saturation_rate(params, spectrum, 0.02)
    }

    #[test]
    fn zero_load_latency_equals_message_length_plus_mean_distance() {
        for spectrum in networks() {
            let r = solve(&spectrum, ModelParams::default(), 0.0);
            assert!(!r.saturated);
            assert_eq!(r.topology, spectrum.topology_name());
            assert!((r.mean_network_latency - (32.0 + r.mean_distance)).abs() < 1e-6);
            assert_eq!(r.source_waiting, 0.0);
            assert!((r.multiplexing - 1.0).abs() < 1e-9);
            assert!((r.mean_latency - r.mean_network_latency).abs() < 1e-6);
        }
    }

    #[test]
    fn latency_is_monotone_in_load_until_saturation() {
        for spectrum in networks() {
            let base = ModelParams::default();
            let step = saturation(&spectrum, base) / 20.0;
            let mut last = 0.0;
            let mut saturated_seen = false;
            for i in 1..=30 {
                let r = solve(&spectrum, base, i as f64 * step);
                if r.saturated {
                    saturated_seen = true;
                    break;
                }
                assert!(r.mean_latency > last, "{}: latency must grow with load", r.topology);
                last = r.mean_latency;
            }
            assert!(saturated_seen, "{}: the sweep must saturate", spectrum.topology_name());
        }
    }

    #[test]
    fn equations_three_and_nineteen_hold_below_saturation() {
        for spectrum in networks() {
            let base = params(9, 32, ModelDiscipline::EnhancedNbc);
            let sat = saturation(&spectrum, base);
            for fraction in [0.2, 0.5, 0.8] {
                let rate = fraction * sat;
                let r = solve(&spectrum, base, rate);
                assert!(!r.saturated);
                let expected = rate * r.mean_distance / spectrum.degree() as f64;
                assert!((r.channel_rate - expected).abs() < 1e-12, "{}", r.topology);
                assert!(r.multiplexing >= 1.0 && r.multiplexing <= 9.0, "{}", r.topology);
            }
        }
    }

    #[test]
    fn more_virtual_channels_block_less_and_saturate_later() {
        // the ordering Figure 1 (a)-(c) exhibits
        for spectrum in networks() {
            let v = |v| params(v, 32, ModelDiscipline::EnhancedNbc);
            let rate = 0.6 * saturation(&spectrum, v(6));
            let r6 = solve(&spectrum, v(6), rate);
            let r9 = solve(&spectrum, v(9), rate);
            let r12 = solve(&spectrum, v(12), rate);
            assert!(!r6.saturated && !r9.saturated && !r12.saturated);
            assert!(r9.mean_latency <= r6.mean_latency + 1e-9, "{}", r6.topology);
            assert!(r12.mean_latency <= r9.mean_latency + 1e-9, "{}", r6.topology);
            assert!(saturation(&spectrum, v(12)) >= saturation(&spectrum, v(6)) * 0.95);
        }
    }

    #[test]
    fn longer_messages_have_higher_latency_and_saturate_earlier() {
        for spectrum in networks() {
            let m32 = params(6, 32, ModelDiscipline::EnhancedNbc);
            let m64 = params(6, 64, ModelDiscipline::EnhancedNbc);
            let (sat32, sat64) = (saturation(&spectrum, m32), saturation(&spectrum, m64));
            // doubling the message length roughly halves the saturation rate
            assert!(sat64 < sat32 && sat64 > sat32 * 0.3, "{}", spectrum.topology_name());
            let rate = 0.4 * sat32;
            let short = solve(&spectrum, m32, rate);
            let long = solve(&spectrum, m64, rate);
            assert!(!short.saturated);
            assert!(long.saturated || long.mean_latency > short.mean_latency + 20.0);
        }
    }

    #[test]
    fn plain_negative_hop_is_the_slowest_discipline() {
        // the negative-hop scheme offers the least choice per hop: with the
        // same V and load it must show the highest latency and saturate no
        // later than the bonus-card schemes
        for spectrum in networks() {
            let of = |d| params(6, 32, d);
            let (enhanced, nbc, nhop) = (
                of(ModelDiscipline::EnhancedNbc),
                of(ModelDiscipline::Nbc),
                of(ModelDiscipline::NHop),
            );
            let sat = saturation(&spectrum, enhanced);
            let rate = 0.6 * sat;
            let e = solve(&spectrum, enhanced, rate);
            let b = solve(&spectrum, nbc, rate);
            let h = solve(&spectrum, nhop, rate);
            assert!(!e.saturated && !b.saturated, "{}", e.topology);
            if !h.saturated {
                assert!(h.mean_latency >= b.mean_latency - 1e-9, "{}", e.topology);
                assert!(h.mean_latency >= e.mean_latency - 1e-9, "{}", e.topology);
            }
            let sat_nhop = saturation(&spectrum, nhop);
            assert!(sat_nhop <= saturation(&spectrum, nbc) * 1.05, "{}", e.topology);
            assert!(sat_nhop <= sat * 1.05, "{}", e.topology);
        }
    }

    #[test]
    fn dimension_order_routing_is_slower_than_adaptive() {
        // one admissible port and one admissible virtual channel per hop must
        // block at least as much as fully adaptive routing (the star graph
        // has no deterministic model)
        for spectrum in &networks()[1..] {
            let adaptive = params(6, 32, ModelDiscipline::EnhancedNbc);
            let det = params(6, 32, ModelDiscipline::Deterministic);
            let sat = saturation(spectrum, adaptive);
            let a = solve(spectrum, adaptive, 0.7 * sat);
            let d = solve(spectrum, det, 0.7 * sat);
            assert!(!a.saturated);
            if !d.saturated {
                assert!(d.mean_latency >= a.mean_latency - 1e-9, "{}", a.topology);
            }
            assert!(saturation(spectrum, det) <= sat * 1.05, "{}", a.topology);
        }
    }

    #[test]
    fn larger_networks_have_higher_zero_load_latency() {
        let family: [[Arc<TraversalSpectrum>; 3]; 3] = [
            [4, 5, 6].map(|n| Arc::new(TraversalSpectrum::star(n))),
            [6, 8, 10].map(|d| Arc::new(TraversalSpectrum::hypercube(d))),
            [4, 6, 8].map(|k| Arc::new(TraversalSpectrum::new(&Torus::new(k)))),
        ];
        for sizes in family {
            let zero: Vec<f64> = sizes
                .iter()
                .map(|s| solve(s, params(8, 32, ModelDiscipline::EnhancedNbc), 0.0))
                .map(|r| r.mean_network_latency)
                .collect();
            assert!(zero[0] < zero[1] && zero[1] < zero[2], "{zero:?}");
        }
    }

    #[test]
    fn warm_start_reaches_the_cold_fixed_point_with_fewer_iterations() {
        for spectrum in networks() {
            let base = ModelParams::default();
            let sat = saturation(&spectrum, base);
            let seed = solve(&spectrum, base, sat * 0.9);
            assert!(!seed.saturated);
            let model = SpectrumModel::new(base.with_rate(sat * 0.92), Arc::clone(&spectrum));
            let cold = model.solve();
            let warm = model.solve_from(&[seed.mean_network_latency]);
            assert!(!cold.saturated && !warm.saturated);
            let rel = (warm.mean_latency - cold.mean_latency).abs() / cold.mean_latency;
            assert!(rel < 1e-9, "{}: warm and cold fixed points differ by {rel}", cold.topology);
            assert!(warm.iterations < cold.iterations, "{}", cold.topology);
            // unusable seeds fall back to the cold start exactly
            for seed in [&[][..], &[f64::INFINITY][..], &[f64::NAN][..], &[1.0][..]] {
                assert_eq!(model.solve_from(seed), cold, "{}: seed {seed:?}", cold.topology);
            }
        }
    }

    #[test]
    fn parallel_blocking_sums_reproduce_the_serial_solve_exactly() {
        for spectrum in [
            Arc::new(TraversalSpectrum::star(6)),
            Arc::new(TraversalSpectrum::hypercube(10)),
            Arc::new(TraversalSpectrum::new(&Torus::new(10))),
        ] {
            let params = ModelParams { virtual_channels: 8, ..ModelParams::default() };
            let rate = 0.5 * saturation(&spectrum, params);
            let serial = solve(&spectrum, params, rate);
            for threads in [0usize, 2, 4] {
                let parallel = SpectrumModel::new(params.with_rate(rate), Arc::clone(&spectrum))
                    .with_parallelism(threads)
                    .solve();
                assert_eq!(serial, parallel, "threads = {threads} must be byte-identical");
            }
        }
    }

    #[test]
    fn saturation_rate_is_consistent_with_solves() {
        for spectrum in networks() {
            let base = ModelParams::default();
            let sat = saturation(&spectrum, base);
            assert!(sat > 0.0);
            assert!(!solve(&spectrum, base, sat * 0.9).saturated);
            assert!(solve(&spectrum, base, sat * 1.2).saturated);
            // λ_c·M ≥ 1 is screened out before any iteration
            let ceiling = spectrum.degree() as f64 / (spectrum.mean_distance() * 32.0);
            let r = solve(&spectrum, base, ceiling);
            assert!(r.saturated && r.mean_latency.is_infinite() && r.iterations == 0);
        }
    }

    #[test]
    fn ring_solves_at_light_load() {
        let params = ModelParams { virtual_channels: 4, traffic_rate: 0.001, ..Default::default() };
        let r = SpectrumModel::for_topology(params, &Ring::new(8)).solve();
        assert!(!r.saturated);
        assert!(r.mean_latency > 32.0 + r.mean_distance);
    }

    #[test]
    #[should_panic(expected = "invalid parameters for T12")]
    fn too_few_virtual_channels_are_rejected() {
        // T12: diameter 12 → 7 levels → Enhanced-Nbc needs V ≥ 8
        let params = ModelParams { virtual_channels: 7, ..Default::default() };
        let _ = SpectrumModel::for_topology(params, &Torus::new(12));
    }
}
