//! The repository's benchmark: four workloads over the analytical model,
//! the flit-level simulator and the evaluation daemon, each reached only
//! through public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload model-atlas|sim-light|sim-heavy|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the workload for `S` seconds with tracing off and
//! prints the end-to-end metrics.  The process pins itself to one CPU and
//! reports every timing in reference time (see [`speed`]).  `--trace 1` runs it twice for `S/2`
//! seconds, untraced then traced (their throughput difference is the
//! tracing overhead), writes the spans to `perfbench/out/`, and prints the
//! per-layer metrics; layers the workload does not reach are measured by
//! short traced passes of the workloads that do.  The last line of output
//! is always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod atlas;
mod serve;
mod sim;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use stats::{host_threads, median, peak_rss_mb, quantile, width};
use trace::Tracer;

/// What one pass of a workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Times set-up is repeated; the median is reported.  The simulator
    /// workloads ignore it: they take one set-up sample before the window
    /// and one after every round.
    pub setup_reps: usize,
    /// Whether to run the model-versus-simulator comparison afterwards.
    pub validate: bool,
}

impl Opts {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Set-up time of each repetition, reference seconds.
    pub setup_s: Vec<f64>,
    /// Latency of each measured operation, reference microseconds.
    pub latencies_us: Vec<f64>,
    /// Work units completed in the measured window.
    pub units: f64,
    /// Wall time of the measured window.
    pub wall_s: f64,
    /// Reference time of the timed operations in the measured window.
    pub reference_s: f64,
    /// Wall-to-reference scale of every timed interval.
    pub scales: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Counts that repeat exactly for a given seed.
    pub work: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    pub model_error_pct: f64,
}

impl Pass {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    /// Work units per reference second of timed operations.
    fn throughput(&self) -> f64 {
        self.units / self.reference_s
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ModelAtlas,
    SimLight,
    SimHeavy,
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 4] =
        [Workload::ModelAtlas, Workload::SimLight, Workload::SimHeavy, Workload::ServeMixed];

    fn name(self) -> &'static str {
        match self {
            Workload::ModelAtlas => "model-atlas",
            Workload::SimLight => "sim-light",
            Workload::SimHeavy => "sim-heavy",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The tail percentile reported as `latency_tail_us`: the highest
    /// that leaves at least ten samples beyond it in a default run.
    fn tail(self) -> f64 {
        match self {
            Workload::ModelAtlas | Workload::SimLight | Workload::SimHeavy => 0.90,
            Workload::ServeMixed => 0.99,
        }
    }

    fn work_unit(self) -> &'static str {
        match self {
            Workload::ModelAtlas => "configuration answers",
            Workload::SimLight | Workload::SimHeavy => "flit transfers",
            Workload::ServeMixed => "queries",
        }
    }

    fn setup_reps(self) -> usize {
        match self {
            Workload::ModelAtlas => 15,
            Workload::SimLight | Workload::SimHeavy => 1,
            Workload::ServeMixed => 6,
        }
    }

    /// The per-layer metric prefix this workload measures for the others.
    fn owns(self) -> &'static str {
        match self {
            Workload::ModelAtlas => "core.",
            Workload::SimLight | Workload::SimHeavy => "sim.",
            Workload::ServeMixed => "serve.",
        }
    }

    fn run(self, opts: &Opts, tracer: &Tracer) -> Result<Pass, String> {
        Ok(match self {
            Workload::ModelAtlas => atlas::run(opts, tracer),
            Workload::SimLight => sim::run(sim::LIGHT, opts, tracer),
            Workload::SimHeavy => sim::run(sim::HEAVY, opts, tracer),
            Workload::ServeMixed => serve::run(opts, tracer)?,
        })
    }
}

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("peak_rss_mb", "MB"),
    ("model_error_pct", "%"),
];

const PER_LAYER: [(&str, &str); 35] = [
    ("core.spectrum_build_ms", "ms"),
    ("core.saturation_search_ms", "ms"),
    ("core.curve_ms", "ms"),
    ("core.cold_solve_us", "us"),
    ("core.warm_solve_us", "us"),
    ("core.fixed_point_iterations", "count"),
    ("core.warm_iterations_ratio", "ratio"),
    ("exec.queue_wait_us", "us"),
    ("exec.busy_ratio", "ratio"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_flit", "ns"),
    ("sim.us_per_active_cycle", "us"),
    ("sim.idle_share", "ratio"),
    ("sim.blocking_probability", "ratio"),
    ("sim.flit_transfers", "count"),
    ("sim.cycles", "count"),
    ("sim.active_cycles", "count"),
    ("sim.stage_runs.generation", "count"),
    ("sim.stage_runs.injection", "count"),
    ("sim.stage_runs.routing", "count"),
    ("sim.stage_runs.switching", "count"),
    ("sim.stage_runs.staged", "count"),
    ("serve.prewarm_s", "s"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.seeded", "count"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.contended", "count"),
    ("serve.decode_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.encode_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// How long each companion pass of a traced run measures.
const COMPANION_SECONDS: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Formats the final result line.  A metric that could not be measured
/// (no samples) makes the result incorrect rather than inventing a value.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut body = String::new();
    let mut correct = failed == 0 && attempted > 0;
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        if value.is_finite() {
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        } else {
            correct = false;
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": null, \"unit\": \"{unit}\"}}");
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn print_problems(pass: &Pass) {
    for problem in &pass.problems {
        println!("check failed: {problem}");
    }
}

fn work_json(work: &[(&str, f64)]) -> String {
    let fields: Vec<String> = work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let opts =
        Opts { seed: args.seed, seconds: args.seconds, setup_reps: w.setup_reps(), validate: true };
    let pass = w.run(&opts, &Tracer::new(false))?;
    let tail = w.tail();
    let beyond = ((1.0 - tail) * pass.latencies_us.len() as f64).floor();
    println!(
        "workload {} seed {}: {} operations attempted, measured window {:.3} s, work unit: {}; \
         width {}",
        w.name(),
        args.seed,
        pass.attempted,
        pass.wall_s,
        w.work_unit(),
        width()
    );
    println!(
        "timings are in reference seconds; wall-to-reference scale: median {:.4}, range {:.4}..{:.4} \
         over {} timed intervals",
        median(&pass.scales),
        quantile(&pass.scales, 0.0),
        quantile(&pass.scales, 1.0),
        pass.scales.len()
    );
    println!(
        "latency_tail_us is p{} of {} samples ({} beyond it)",
        tail * 100.0,
        pass.latencies_us.len(),
        beyond
    );
    println!("work {}", work_json(&pass.work));
    print_problems(&pass);
    let metrics = [
        ("setup_s", median(&pass.setup_s)),
        ("throughput_per_s", pass.throughput()),
        ("latency_p50_us", median(&pass.latencies_us)),
        ("latency_tail_us", quantile(&pass.latencies_us, tail)),
        ("peak_rss_mb", peak_rss_mb()),
        ("model_error_pct", pass.model_error_pct),
    ];
    let named: Vec<(&str, &str, f64)> =
        END_TO_END.iter().zip(metrics).map(|((n, u), (_, v))| (*n, *u, v)).collect();
    if beyond < 10.0 {
        println!("warning: too few samples beyond the tail percentile; measure longer");
    }
    Ok(result_line(pass.attempted, pass.failed, &named))
}

fn traced(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let half =
        Opts { seed: args.seed, seconds: args.seconds / 2.0, setup_reps: 1, validate: false };
    let untraced = w.run(&half, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let pass = w.run(&half, &tracer)?;
    let mut layers = pass.layers.clone();
    layers.push(("trace.overhead_pct", (untraced.throughput() / pass.throughput() - 1.0) * 100.0));
    let mut attempted = untraced.attempted + pass.attempted;
    let mut failed = untraced.failed + pass.failed;
    print_problems(&untraced);
    print_problems(&pass);
    println!("workload {} seed {} traced; work {}", w.name(), args.seed, work_json(&pass.work));

    let companion = Opts { seconds: COMPANION_SECONDS, ..half };
    for other in [Workload::ModelAtlas, Workload::SimLight, Workload::ServeMixed] {
        let has = |layers: &[(&str, f64)], name: &str| layers.iter().any(|(n, _)| *n == name);
        let missing =
            PER_LAYER.iter().any(|(n, _)| n.starts_with(other.owns()) && !has(&layers, n));
        if other == w || !missing {
            continue;
        }
        let extra = other.run(&companion, &tracer)?;
        println!("companion {} measured the {}* layer metrics", other.name(), other.owns());
        print_problems(&extra);
        attempted += extra.attempted;
        failed += extra.failed;
        for (name, value) in extra.layers {
            if !has(&layers, name) {
                layers.push((name, value));
            }
        }
    }

    println!("{:<28} {:>9} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, totals) in tracer.summary() {
        println!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            totals.count, totals.total_ms, totals.self_ms
        );
    }
    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, tracer.to_json()))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("{} spans written to {}", tracer.span_count(), file.display());

    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = layers.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v);
            (*name, *unit, value)
        })
        .collect();
    Ok(result_line(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload model-atlas|sim-light|sim-heavy|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let cpus = host_threads();
    match speed::pin_to_current_cpu() {
        Some(cpu) => println!("host has {cpus} CPUs; pinned to CPU {cpu}"),
        None => println!("host has {cpus} CPUs; not pinned: CPU affinity is unavailable"),
    }
    let result = if args.trace { traced(&args) } else { end_to_end(&args) };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
