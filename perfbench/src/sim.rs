//! `sim-light` and `sim-heavy`: Figure 1's network (S5, Enhanced-NBC,
//! V = 6, M = 32) in the flit-level simulator at 10% and 45% channel
//! utilisation.  One operation is one seeded replicate run through
//! `ReplicateRun`, fanned across the pool in rounds; the replicate seeds
//! derive from the workload seed.  Each run is checked: no saturation, no
//! deadlock, and the configured measured-message count reached.
//!
//! The model error compares the analytical model at the same point with
//! the mean over a fixed prefix of replicates, so it is a pure function of
//! the seed; [`model_error_pct`] runs the same comparison for the model
//! workloads at their own validation rate.

use std::time::Instant;

use star_exec::ExecPool;
use star_sim::{ReplicateRun, SimConfig, SimReport, Simulation, TrafficPattern};
use star_workloads::{Evaluator, ModelBackend, Scenario};

use crate::stats::{fan, median, ExecStats};
use crate::trace::Tracer;
use crate::{speed, Opts, Pass};

/// One simulator workload's operating point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub utilisation: f64,
    /// Replicates whose mean latency the model error is taken against.
    pub validation_replicates: usize,
}

pub const LIGHT: Point = Point { utilisation: 0.10, validation_replicates: 192 };
pub const HEAVY: Point = Point { utilisation: 0.45, validation_replicates: 32 };

const MESSAGE_LENGTH: usize = 32;
const WARMUP_CYCLES: u64 = 3_000;
const MEASURED_MESSAGES: u64 = 5_000;
const MAX_CYCLES: u64 = 1_000_000;
/// Set-up builds per timed set-up sample: one build takes tens of
/// microseconds, so a sample of this many lasts over ten milliseconds.
const BUILDS_PER_SAMPLE: usize = 256;
/// Replicates per pool batch, per executor.
const ROUND_PER_EXECUTOR: usize = 4;
/// Leading replicates whose counters form the deterministic work block.
const WORK_REPLICATES: usize = 8;
/// Replicates behind the model workloads' model error.
const CROSS_CHECK_REPLICATES: usize = 24;

fn scenario() -> Scenario {
    Scenario::star(5).with_virtual_channels(6).with_message_length(MESSAGE_LENGTH)
}

/// The generation rate that targets channel utilisation `u`:
/// `λ_g = u·degree / (d̄·M)`.
fn rate_at(scenario: &Scenario, utilisation: f64) -> f64 {
    let topology = scenario.topology();
    utilisation * topology.degree() as f64 / (topology.mean_distance() * MESSAGE_LENGTH as f64)
}

fn seed_base(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7369_6d2d_7275_6e73
}

fn config(rate: f64, seed: u64) -> SimConfig {
    SimConfig::builder()
        .message_length(MESSAGE_LENGTH)
        .traffic_rate(rate)
        .warmup_cycles(WARMUP_CYCLES)
        .measured_messages(MEASURED_MESSAGES)
        .max_cycles(MAX_CYCLES)
        .seed(seed_base(seed))
        .build()
}

fn replicate_run(scenario: &Scenario, rate: f64, seed: u64) -> ReplicateRun {
    ReplicateRun::new(
        scenario.topology(),
        scenario.routing(),
        config(rate, seed),
        TrafficPattern::Uniform,
        1,
    )
}

fn problem(index: u64, report: &SimReport) -> Option<String> {
    if report.saturated || report.deadlock_detected || report.measured_messages < MEASURED_MESSAGES
    {
        Some(format!(
            "replicate {index}: saturated={} deadlock={} measured {} of {MEASURED_MESSAGES}",
            report.saturated, report.deadlock_detected, report.measured_messages
        ))
    } else {
        None
    }
}

/// Runs replicates `range` on the pool; returns each report with its run
/// time in reference seconds and its wall-to-reference scale.
fn replicates(
    pool: &ExecPool,
    run: &ReplicateRun,
    range: std::ops::Range<u64>,
    tracer: &Tracer,
    exec: &mut ExecStats,
) -> Vec<(SimReport, f64, f64)> {
    let indices: Vec<u64> = range.collect();
    tracer
        .time("sim.round", 0, |id| {
            fan(pool, &indices, tracer, id, exec, |&i, item| {
                let ((report, _), wall, scale) =
                    speed::bracket(|| tracer.time("sim.replicate", item, |_| run.run_replicate(i)));
                (report, wall * scale, scale)
            })
        })
        .0
}

/// `|model − sim| / sim` in percent, the simulator side being the mean
/// message latency over `reports`.
fn error_pct(model: f64, reports: &[&SimReport]) -> f64 {
    let sim = reports.iter().map(|r| r.mean_message_latency).sum::<f64>() / reports.len() as f64;
    (model - sim).abs() / sim * 100.0
}

/// The model error of a model workload: its answer `model` (S5 curve
/// latency at `rate`) against the mean of a fixed set of seeded simulator
/// replicates at the same rate.  Runs after the measured window; failed
/// replicates count as failed operations of `pass`.
pub fn model_error_pct(pool: &ExecPool, seed: u64, rate: f64, model: f64, pass: &mut Pass) -> f64 {
    let run = replicate_run(&scenario(), rate, seed);
    let untraced = Tracer::new(false);
    let runs = replicates(
        pool,
        &run,
        0..CROSS_CHECK_REPLICATES as u64,
        &untraced,
        &mut ExecStats::default(),
    );
    for (i, (report, ..)) in runs.iter().enumerate() {
        pass.attempted += 1;
        if let Some(p) = problem(i as u64, report) {
            pass.fail(p);
        }
    }
    error_pct(model, &runs.iter().map(|(r, ..)| r).collect::<Vec<_>>())
}

/// Builds the set-up `BUILDS_PER_SAMPLE` times (S5 topology, Enhanced-NBC
/// tables, `ReplicateRun` and `Simulation::new`) and adds the reference
/// time of one build to `pass.setup_s`.  Returns the last build's point
/// and run.
fn set_up(
    point: Point,
    seed: u64,
    tracer: &Tracer,
    pass: &mut Pass,
    build_ms: &mut Vec<f64>,
) -> (Scenario, f64, ReplicateRun) {
    let mut builds_s = Vec::with_capacity(BUILDS_PER_SAMPLE);
    let (built, wall, scale) = speed::bracket(|| {
        let mut built = None;
        for _ in 0..BUILDS_PER_SAMPLE {
            let scenario = scenario();
            let rate = rate_at(&scenario, point.utilisation);
            let run = replicate_run(&scenario, rate, seed);
            let (simulation, seconds) = tracer.time("sim.build", 0, |_| {
                Simulation::new(
                    scenario.topology(),
                    scenario.routing(),
                    config(rate, seed),
                    TrafficPattern::Uniform,
                )
            });
            drop(simulation);
            builds_s.push(seconds);
            built = Some((scenario, rate, run));
        }
        built.expect("at least one build per sample")
    });
    build_ms.extend(builds_s.iter().map(|s| s * scale * 1e3));
    pass.setup_s.push(wall * scale / BUILDS_PER_SAMPLE as f64);
    pass.scales.push(scale);
    built
}

pub fn run(point: Point, opts: &Opts, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut build_ms = Vec::new();
    let (scenario, rate, run) = set_up(point, opts.seed, tracer, &mut pass, &mut build_ms);

    let pool = ExecPool::new(1);
    let mut exec = ExecStats::default();
    let round = (ROUND_PER_EXECUTOR * crate::stats::width()) as u64;
    let mut runs: Vec<(SimReport, f64, f64)> = Vec::new();
    let start = Instant::now();
    let deadline = start + opts.duration();
    while Instant::now() < deadline {
        let next = runs.len() as u64;
        runs.extend(replicates(&pool, &run, next..next + round, tracer, &mut exec));
        // One more set-up sample after every round, so the median spans the
        // whole run rather than the host's speed in its first moments.
        set_up(point, opts.seed, tracer, &mut pass, &mut build_ms);
    }
    pass.wall_s = start.elapsed().as_secs_f64();

    for (i, (report, seconds, scale)) in runs.iter().enumerate() {
        pass.attempted += 1;
        pass.latencies_us.push(seconds * 1e6);
        pass.scales.push(*scale);
        pass.reference_s += seconds;
        pass.units += report.flit_transfers as f64;
        if let Some(p) = problem(i as u64, report) {
            pass.fail(p);
        }
    }

    let run_s = pass.reference_s;
    let active: u64 = runs.iter().map(|(r, ..)| r.active_cycles).sum();
    let cycles: u64 = runs.iter().map(|(r, ..)| r.cycles).sum();
    let lead: Vec<&SimReport> = runs.iter().take(WORK_REPLICATES).map(|(r, ..)| r).collect();
    let sum = |f: fn(&SimReport) -> u64| lead.iter().map(|r| f(r)).sum::<u64>() as f64;
    let work = vec![
        ("sim.flit_transfers", sum(|r| r.flit_transfers)),
        ("sim.cycles", sum(|r| r.cycles)),
        ("sim.active_cycles", sum(|r| r.active_cycles)),
        ("sim.stage_runs.generation", sum(|r| r.active_cycles - r.stage_skips.generation)),
        ("sim.stage_runs.injection", sum(|r| r.active_cycles - r.stage_skips.injection)),
        ("sim.stage_runs.routing", sum(|r| r.active_cycles - r.stage_skips.routing)),
        ("sim.stage_runs.switching", sum(|r| r.active_cycles - r.stage_skips.switching)),
        ("sim.stage_runs.staged", sum(|r| r.active_cycles - r.stage_skips.staged)),
    ];
    pass.layers = vec![
        ("sim.build_ms", median(&build_ms)),
        ("sim.run_ms", median(&pass.latencies_us) / 1e3),
        ("sim.ns_per_flit", run_s / pass.units * 1e9),
        ("sim.us_per_active_cycle", run_s / active as f64 * 1e6),
        ("sim.idle_share", 1.0 - active as f64 / cycles as f64),
        (
            "sim.blocking_probability",
            lead.iter().map(|r| r.blocking_probability).sum::<f64>() / lead.len() as f64,
        ),
    ];
    pass.layers.extend(work.iter().copied());
    pass.layers.extend(exec.layers());
    pass.work = work;
    pass.work.insert(0, ("replicates", lead.len() as f64));

    if opts.validate {
        let wanted = point.validation_replicates as u64;
        let done = runs.len() as u64;
        if done < wanted {
            let untraced = Tracer::new(false);
            for (i, (report, ..)) in
                replicates(&pool, &run, done..wanted, &untraced, &mut ExecStats::default())
                    .into_iter()
                    .enumerate()
            {
                pass.attempted += 1;
                if let Some(p) = problem(done + i as u64, &report) {
                    pass.fail(p);
                }
                runs.push((report, 0.0, 0.0));
            }
        }
        let model = ModelBackend::new().evaluate(&scenario.at(rate)).mean_latency;
        let reports: Vec<&SimReport> = runs.iter().take(wanted as usize).map(|(r, ..)| r).collect();
        pass.model_error_pct = error_pct(model, &reports);
    }
    pass
}
