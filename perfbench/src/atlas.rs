//! `model-atlas`: one operation is one configuration's design-space answer
//! from the analytical model — the 24-rate grid up to 85% of its saturation
//! rate (`load_rate_grid`, which runs the saturation search), then the
//! warm-started latency curve over that grid.
//!
//! The configurations are a pinned mixed set (the serving pool plus scale
//! points); each round answers every configuration once, slowest first,
//! fanned across the pool.  Each answer is checked: the grid rises and the
//! curve over it is finite and rising (every grid rate lies below
//! saturation), and a seeded sample point of the warm curve agrees with a
//! cold solve to 1e-9 relative.

use std::time::Instant;

use star_exec::ExecPool;
use star_workloads::{
    load_rate_grid, Discipline, Evaluator, ModelBackend, PointEstimate, Scenario, ScenarioSpectrum,
    TopologyKind, WireScenario,
};

use crate::stats::{fan, median, ExecStats, Rng};
use crate::trace::Tracer;
use crate::{sim, speed, Opts, Pass};

/// Rates per curve, as the serving layer's grid.
pub const CURVE_RATES: usize = 24;
/// Relative agreement required between warm and cold solves.
pub const WARM_TOLERANCE: f64 = 1e-9;
/// Curve point (of the S5 configuration) the model error is taken at:
/// the top of the grid, 82% of the model's saturation rate.
pub const VALIDATION_POINT: usize = CURVE_RATES - 1;

/// The pinned configuration set: the serving pool's six entries, then
/// scale points up to S8 and Q16 and a torus beyond T8.
pub fn configurations() -> Vec<WireScenario> {
    let wire = |kind, size, discipline, virtual_channels| WireScenario {
        kind,
        size,
        discipline,
        virtual_channels,
        message_length: 32,
    };
    let mut set = star_workloads::default_config_pool();
    set.extend([
        wire(TopologyKind::Star, 7, Discipline::EnhancedNbc, 6),
        wire(TopologyKind::Star, 8, Discipline::EnhancedNbc, 10),
        wire(TopologyKind::Hypercube, 10, Discipline::EnhancedNbc, 12),
        wire(TopologyKind::Hypercube, 16, Discipline::EnhancedNbc, 18),
        wire(TopologyKind::Torus, 12, Discipline::EnhancedNbc, 8),
    ]);
    set
}

/// One operation of the stream: which configuration to answer, and which
/// curve point (never the first, so it has a warm predecessor) to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub config: usize,
    pub sample: usize,
}

/// The order each round submits the configurations in (indices into
/// [`configurations`]): slowest answer first, as measured when the set was
/// pinned, so two executors finish a round close together.  The order is
/// fixed rather than seeded: a seeded order changes how long the slowest
/// answer leaves one executor idle, which moved throughput by a tenth
/// between seeds.
const ROUND_ORDER: [usize; 11] = [7, 10, 9, 4, 6, 1, 8, 0, 2, 5, 3];

/// The seeded operation stream, one round (every configuration once) at a
/// time; the seed picks each answer's checked curve point.
pub struct Stream {
    rng: Rng,
}

impl Stream {
    pub fn new(seed: u64) -> Self {
        Self { rng: Rng::new(seed ^ 0x6d6f_6465_6c2d_6174) }
    }

    pub fn round(&mut self) -> Vec<Op> {
        ROUND_ORDER
            .iter()
            .map(|&config| Op { config, sample: 1 + self.rng.below(CURVE_RATES - 1) })
            .collect()
    }
}

/// A configuration ready to answer: scenario (topology tables built) and
/// its spectrum, both built during set-up.
struct Prepared {
    scenario: Scenario,
    spectrum: ScenarioSpectrum,
}

fn prepare(tracer: &Tracer) -> (Vec<Prepared>, f64) {
    let mut spectrum_s = 0.0;
    let prepared = configurations()
        .iter()
        .map(|wire| {
            let scenario = wire.scenario();
            let (spectrum, seconds) =
                tracer.time("core.spectrum_build", 0, |_| ScenarioSpectrum::build(&scenario));
            spectrum_s += seconds;
            Prepared { scenario, spectrum }
        })
        .collect();
    (prepared, spectrum_s)
}

/// What one answer produced, for the checks and the layer metrics.  Its
/// times are in reference seconds once [`Answer::rescale`] has run.
struct Answer {
    /// Wall-to-reference scale of the interval the answer ran in.
    scale: f64,
    answer_s: f64,
    saturation_s: f64,
    curve_s: f64,
    cold_s: f64,
    warm_s: f64,
    curve_iterations: usize,
    cold_iterations: usize,
    warm_iterations: usize,
    validation_latency: f64,
    problem: Option<String>,
}

fn answer(prepared: &Prepared, op: Op, tracer: &Tracer, parent: u64) -> Answer {
    let scenario = &prepared.scenario;
    let ((grid, curve, saturation_s, curve_s), answer_s) =
        tracer.time("atlas.answer", parent, |id| {
            let (grid, saturation_s) =
                tracer.time("core.saturation", id, |_| load_rate_grid(scenario, CURVE_RATES));
            let (curve, curve_s) = tracer
                .time("core.curve", id, |_| ModelBackend::new().evaluate_sweep(scenario, &grid));
            (grid, curve, saturation_s, curve_s)
        });

    let k = op.sample;
    let point = scenario.at(grid[k]);
    let (cold, cold_s) = tracer.time("core.cold_solve", parent, |_| {
        ModelBackend::new().estimate_with(&point, &prepared.spectrum, &[])
    });
    let seed: Vec<f64> = ModelBackend::warm_seed(&curve[k - 1]).into_iter().collect();
    let (warm, warm_s) = tracer.time("core.warm_solve", parent, |_| {
        ModelBackend::new().estimate_with(&point, &prepared.spectrum, &seed)
    });
    let iterations = |e: &PointEstimate| e.iterations().unwrap_or(0);
    Answer {
        scale: 1.0,
        answer_s,
        saturation_s,
        curve_s,
        cold_s,
        warm_s,
        curve_iterations: curve.iter().map(iterations).sum(),
        cold_iterations: iterations(&cold),
        warm_iterations: iterations(&warm),
        validation_latency: curve[VALIDATION_POINT].mean_latency,
        problem: check(scenario, &grid, &curve, &cold, &warm, k),
    }
}

impl Answer {
    fn rescale(mut self, scale: f64) -> Self {
        self.scale = scale;
        let Self { answer_s, saturation_s, curve_s, cold_s, warm_s, .. } = &mut self;
        for seconds in [answer_s, saturation_s, curve_s, cold_s, warm_s] {
            *seconds *= scale;
        }
        self
    }
}

fn check(
    scenario: &Scenario,
    grid: &[f64],
    curve: &[PointEstimate],
    cold: &PointEstimate,
    warm: &PointEstimate,
    k: usize,
) -> Option<String> {
    let label = scenario.label();
    if grid.len() != CURVE_RATES || curve.len() != CURVE_RATES {
        return Some(format!("{label}: {} rates, {} answers", grid.len(), curve.len()));
    }
    if !(grid[0] > 0.0 && grid.windows(2).all(|w| w[0] < w[1] && w[1].is_finite())) {
        return Some(format!("{label}: rate grid {grid:?}"));
    }
    let mut previous = 0.0;
    for (rate, estimate) in grid.iter().zip(curve) {
        let latency = estimate.mean_latency;
        if estimate.saturated || !latency.is_finite() || latency <= previous {
            return Some(format!("{label}: latency {latency} at rate {rate} after {previous}"));
        }
        previous = latency;
    }
    let agree = |a: f64, b: f64| (a - b).abs() <= WARM_TOLERANCE * b.abs();
    let reference = cold.mean_latency;
    if !agree(curve[k].mean_latency, reference) || !agree(warm.mean_latency, reference) {
        return Some(format!(
            "{label}: point {k} warm {} / {} vs cold {reference}",
            curve[k].mean_latency, warm.mean_latency
        ));
    }
    None
}

/// Whether `seed` names exactly one stream: the same seed reproduces its
/// first rounds and the next seed does not.
fn stream_is_seeded(seed: u64) -> bool {
    let rounds = |seed| {
        let mut stream = Stream::new(seed);
        (0..4).flat_map(|_| stream.round()).collect::<Vec<_>>()
    };
    rounds(seed) == rounds(seed) && rounds(seed) != rounds(seed.wrapping_add(1))
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    if !stream_is_seeded(opts.seed) {
        pass.fail("the operation stream is not a pure function of the seed".to_string());
    }
    let mut prepared = Vec::new();
    let mut spectrum_s = Vec::new();
    for _ in 0..opts.setup_reps {
        let ((built, seconds), wall, scale) = speed::bracket(|| prepare(tracer));
        pass.setup_s.push(wall * scale);
        pass.scales.push(scale);
        spectrum_s.push(seconds * scale * 1e3);
        prepared = built;
    }

    let pool = ExecPool::new(1);
    let mut exec = ExecStats::default();
    let mut stream = Stream::new(opts.seed);
    let mut answers: Vec<(Op, Answer)> = Vec::new();
    let mut first_round: Vec<(Op, usize)> = Vec::new();
    let start = Instant::now();
    let deadline = start + opts.duration();
    while Instant::now() < deadline {
        let round = stream.round();
        let (out, _) = tracer.time("atlas.round", 0, |id| {
            fan(&pool, &round, tracer, id, &mut exec, |op, item| {
                let (answer, _, scale) =
                    speed::bracket(|| answer(&prepared[op.config], *op, tracer, item));
                answer.rescale(scale)
            })
        });
        if first_round.is_empty() {
            first_round = round.iter().zip(&out).map(|(op, a)| (*op, a.curve_iterations)).collect();
        }
        answers.extend(round.into_iter().zip(out));
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.units = answers.len() as f64;

    for (_, a) in &answers {
        pass.attempted += 1;
        pass.latencies_us.push(a.answer_s * 1e6);
        pass.reference_s += a.answer_s;
        pass.scales.push(a.scale);
        if let Some(problem) = &a.problem {
            pass.fail(problem.clone());
        }
    }
    let per_config: Vec<String> = prepared
        .iter()
        .enumerate()
        .map(|(c, p)| {
            let times: Vec<f64> = answers
                .iter()
                .filter(|(op, _)| op.config == c)
                .map(|(_, a)| a.answer_s * 1e3)
                .collect();
            format!("{} {:.1}", p.scenario.network_label(), median(&times))
        })
        .collect();
    println!("median answer ms per configuration: {}", per_config.join(", "));

    let ms = |f: fn(&Answer) -> f64| {
        median(&answers.iter().map(|(_, a)| f(a) * 1e3).collect::<Vec<_>>())
    };
    let us = |f: fn(&Answer) -> f64| ms(f) * 1e3;
    let cold_iterations: usize = answers.iter().map(|(_, a)| a.cold_iterations).sum();
    let warm_iterations: usize = answers.iter().map(|(_, a)| a.warm_iterations).sum();
    // the curve iterations of one full round repeat exactly for any seed
    let round_iterations: usize = first_round.iter().map(|(_, it)| it).sum();
    pass.work = vec![
        ("configurations", first_round.len() as f64),
        ("curve_fixed_point_iterations_per_round", round_iterations as f64),
    ];
    pass.layers = vec![
        ("core.spectrum_build_ms", median(&spectrum_s)),
        ("core.saturation_search_ms", ms(|a| a.saturation_s)),
        ("core.curve_ms", ms(|a| a.curve_s)),
        ("core.cold_solve_us", us(|a| a.cold_s)),
        ("core.warm_solve_us", us(|a| a.warm_s)),
        ("core.fixed_point_iterations", round_iterations as f64),
        ("core.warm_iterations_ratio", warm_iterations as f64 / cold_iterations as f64),
    ];
    pass.layers.extend(exec.layers());

    if opts.validate {
        let s5 = answers.iter().find(|(op, _)| op.config == 0).map(|(_, a)| a);
        let model = s5.map_or(f64::NAN, |a| a.validation_latency);
        let rate = load_rate_grid(&prepared[0].scenario, CURVE_RATES)[VALIDATION_POINT];
        pass.model_error_pct = sim::model_error_pct(&pool, opts.seed, rate, model, &mut pass);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_stream_and_another_seed_does_not() {
        for seed in [0, 1, 2, u64::MAX] {
            assert!(stream_is_seeded(seed));
        }
    }
}
