//! `serve-mixed`: an in-process `Daemon` prewarmed with the serving pool,
//! driven over its wire protocol by closed-loop clients that each pipeline
//! a batch of queries and wait for every reply before sending the next.
//!
//! About nine queries in ten repeat a prewarmed grid point (the hit path:
//! decode → fingerprint → cache → encode); the rest ask for a never-seen
//! rate, half `exact` and half `warm` (the miss path: flight → cold or
//! seeded solve → insert).  A query's latency runs from its batch's write
//! to its own reply's read.
//!
//! Checks: no error replies; every `exact` reply's result is byte-identical
//! to `encode_estimate` of a batch cold solve of the same point, and every
//! `warm` reply's latency agrees with that cold solve to 1e-9 relative.
//!
//! The per-phase layer timings come from replaying the first queries of
//! the same stream through the daemon's public `protocol` and `cache`
//! functions on a fresh cache prewarmed the same way.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde_json::Value;
use star_exec::ExecPool;
use star_serve::protocol::{self, query_line};
use star_serve::{
    Admission, CacheOutcome, ConfigCache, Daemon, Query, Request, ServeConfig, ShardedSolveCache,
    SolveMode,
};
use star_workloads::{
    default_config_pool, encode_estimate, load_rate_grid, Evaluator, ModelBackend, PointEstimate,
    Scenario, ScenarioSpectrum, WireScenario,
};

use crate::atlas::{CURVE_RATES, VALIDATION_POINT, WARM_TOLERANCE};
use crate::stats::{fan, median, width, ExecStats, Reservoir, Rng};
use crate::trace::Tracer;
use crate::{sim, speed, Opts, Pass};

/// Queries each client pipelines per round trip.
const PIPELINE: usize = 8;
/// Share of queries that repeat a prewarmed grid point.
const HIT_SHARE: f64 = 0.9;
/// Leading queries of the stream replayed through the public functions.
const REPLAY_QUERIES: usize = 4096;

/// One configuration of the pool, with everything the client and the
/// checks need: its rate grid and the batch answers at each grid point.
struct Config {
    wire: WireScenario,
    scenario: Scenario,
    spectrum: ScenarioSpectrum,
    grid: Vec<f64>,
    /// `encode_estimate` of a batch cold solve at each grid point.
    expected: Vec<String>,
    /// The warm-start seed each grid answer leaves.
    seeds: Vec<f64>,
}

fn configs() -> Vec<Config> {
    default_config_pool()
        .into_iter()
        .map(|wire| {
            let scenario = wire.scenario();
            let grid = load_rate_grid(&scenario, CURVE_RATES);
            let answers: Vec<PointEstimate> =
                grid.iter().map(|&rate| ModelBackend::new().evaluate(&scenario.at(rate))).collect();
            Config {
                wire,
                spectrum: ScenarioSpectrum::build(&scenario),
                scenario,
                expected: answers.iter().map(encode_estimate).collect(),
                seeds: answers
                    .iter()
                    .map(|a| ModelBackend::warm_seed(a).unwrap_or(f64::NAN))
                    .collect(),
                grid,
            }
        })
        .collect()
}

/// What a query asks for, as the generator knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// A prewarmed grid point: (configuration, grid index).
    Hit(usize, usize),
    /// A never-seen rate of a configuration.
    Miss(usize),
}

#[derive(Debug, Clone, PartialEq)]
struct Planned {
    query: Query,
    kind: Kind,
}

/// One client's seeded query stream.
struct Generator {
    rng: Rng,
    client: u64,
    next: u64,
}

impl Generator {
    fn new(seed: u64, client: u64) -> Self {
        Self { rng: Rng::new(seed ^ 0x7365_7276_652d_6d78 ^ (client << 56)), client, next: 0 }
    }

    fn query(&mut self, configs: &[Config]) -> Planned {
        let c = self.rng.below(configs.len());
        let grid = &configs[c].grid;
        let (kind, rate, mode) = if self.rng.unit() < HIT_SHARE {
            let i = self.rng.below(grid.len());
            (Kind::Hit(c, i), grid[i], SolveMode::Exact)
        } else {
            // a fresh draw from inside the grid's span: never a grid point,
            // never repeated
            let rate = grid[0] + self.rng.unit() * (grid[grid.len() - 1] - grid[0]);
            let mode = if self.rng.unit() < 0.5 { SolveMode::Exact } else { SolveMode::Warm };
            (Kind::Miss(c), rate, mode)
        };
        let id = (self.client << 40) | self.next;
        self.next += 1;
        Planned { query: Query { id, wire: configs[c].wire, rate, mode }, kind }
    }
}

/// The first `n` request lines of client 0's stream for `seed`.
fn stream_prefix(seed: u64, configs: &[Config], n: usize) -> Vec<String> {
    let mut generator = Generator::new(seed, 0);
    (0..n).map(|_| query_line(&generator.query(configs).query)).collect()
}

/// A miss reply kept for checking after the run: an `exact` reply by a
/// 64-bit FNV-1a hash of its bytes, a `warm` one by its latency.
#[derive(Clone)]
struct MissReply {
    config: usize,
    rate: f64,
    answer: MissAnswer,
}

#[derive(Clone)]
enum MissAnswer {
    ExactHash(u64),
    WarmLatency(f64),
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash, &b| (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Latencies each client keeps, as a uniform sample of all its queries.
const LATENCY_SAMPLE: usize = 1 << 18;
/// Miss replies each client keeps for checking, as a uniform sample of all
/// its misses.  A 25-second run makes about 160,000 misses; checking a
/// sample keeps the checks to a second or two.
const MISS_SAMPLE: usize = 1 << 14;

/// How often a client runs the calibration kernel between batches.  The
/// batches in between are scaled by the kernels on either side.
const CALIBRATE_EVERY: Duration = Duration::from_millis(20);

/// What one client saw.  Both samples are fixed-size buffers made resident
/// before the first query, so the client's memory, and with it the
/// process's peak RSS, does not grow with the daemon's throughput.
struct Tally {
    /// Query latencies, reference microseconds.
    latencies_us: Reservoir<f32>,
    misses: Reservoir<MissReply>,
    problems: Vec<String>,
    queries: u64,
    /// Reference time of all batches, write to last reply.
    reference_s: f64,
    scales: Vec<f64>,
}

impl Tally {
    fn new(mut sampler: Rng) -> Self {
        let unanswered =
            MissReply { config: 0, rate: f64::NAN, answer: MissAnswer::WarmLatency(f64::NAN) };
        Self {
            latencies_us: Reservoir::new(LATENCY_SAMPLE, f32::NAN, Rng::new(sampler.next_u64())),
            misses: Reservoir::new(MISS_SAMPLE, unanswered, Rng::new(sampler.next_u64())),
            problems: Vec::new(),
            queries: 0,
            reference_s: 0.0,
            scales: Vec::new(),
        }
    }

    /// Scales the batches timed since the last kernel run and records them.
    fn calibrate(&mut self, kernel_s: &mut f64, pending: &mut Vec<f32>, pending_s: &mut f64) {
        let next = speed::kernel_s();
        let scale = speed::scale(*kernel_s, next);
        *kernel_s = next;
        for wall_us in pending.drain(..) {
            self.latencies_us.offer(wall_us * scale as f32);
        }
        self.reference_s += std::mem::take(pending_s) * scale;
        self.scales.push(scale);
    }
}

/// The `result` payload of a successful query reply for `id`.
fn reply_payload(line: &str, id: u64) -> Result<&str, String> {
    let head = format!("{{\"id\":{id},\"status\":\"ok\",");
    let start = line.find("\"result\":").map(|p| p + "\"result\":".len());
    match start {
        Some(start) if line.starts_with(&head) && line.ends_with('}') => {
            Ok(&line[start..line.len() - 1])
        }
        _ => Err(format!("query {id}: reply {line}")),
    }
}

fn client(
    addr: SocketAddr,
    mut generator: Generator,
    mut tally: Tally,
    configs: &[Config],
    deadline: Instant,
    tracer: &Tracer,
) -> io::Result<Tally> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    // wall latencies of the batches since the last kernel run
    let mut pending: Vec<f32> = Vec::with_capacity(1 << 14);
    let mut pending_s = 0.0;
    let mut kernel_s = speed::kernel_s();
    let mut calibrated = Instant::now();
    while Instant::now() < deadline {
        let batch: Vec<Planned> = (0..PIPELINE).map(|_| generator.query(configs)).collect();
        let mut request = String::new();
        for planned in &batch {
            request.push_str(&query_line(&planned.query));
            request.push('\n');
        }
        let id = tracer.id();
        let sent = Instant::now();
        writer.write_all(request.as_bytes())?;
        for planned in &batch {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"));
            }
            pending.push(sent.elapsed().as_secs_f32() * 1e6);
            tally.queries += 1;
            let payload = match reply_payload(line.trim_end(), planned.query.id) {
                Ok(payload) => payload,
                Err(problem) => {
                    tally.problems.push(problem);
                    continue;
                }
            };
            match planned.kind {
                Kind::Hit(c, i) if payload != configs[c].expected[i] => {
                    tally.problems.push(format!(
                        "{}: hit payload {payload} != {}",
                        planned.query.id, configs[c].expected[i]
                    ))
                }
                Kind::Hit(..) => {}
                Kind::Miss(config) => {
                    let answer = match planned.query.mode {
                        SolveMode::Exact => MissAnswer::ExactHash(fnv1a(payload.as_bytes())),
                        SolveMode::Warm => match latency_of(payload) {
                            Some(latency) => MissAnswer::WarmLatency(latency),
                            None => {
                                tally.problems.push(format!("warm reply {payload}"));
                                continue;
                            }
                        },
                    };
                    tally.misses.offer(MissReply { config, rate: planned.query.rate, answer });
                }
            }
        }
        let done = Instant::now();
        tracer.record(id, 0, "serve.batch", sent, done);
        pending_s += (done - sent).as_secs_f64();
        if done - calibrated >= CALIBRATE_EVERY {
            tally.calibrate(&mut kernel_s, &mut pending, &mut pending_s);
            calibrated = Instant::now();
        }
    }
    tally.calibrate(&mut kernel_s, &mut pending, &mut pending_s);
    Ok(tally)
}

/// Sends `lines` on a fresh connection and returns the replies.
fn control(addr: SocketAddr, lines: &[String]) -> io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    for line in lines {
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
    }
    let reader = BufReader::new(stream);
    reader.lines().take(lines.len()).collect()
}

fn latency_of(payload: &str) -> Option<f64> {
    serde_json::from_str(payload).ok().and_then(|v| v.get("latency")?.as_f64())
}

/// Checks one miss reply against a cold solve of the same point.
fn check_miss(configs: &[Config], miss: &MissReply) -> Option<String> {
    let config = &configs[miss.config];
    let cold =
        ModelBackend::new().estimate_with(&config.scenario.at(miss.rate), &config.spectrum, &[]);
    match miss.answer {
        MissAnswer::ExactHash(hash) => {
            let expected = encode_estimate(&cold);
            (hash != fnv1a(expected.as_bytes()))
                .then(|| format!("exact miss at {}: reply differs from {expected}", miss.rate))
        }
        MissAnswer::WarmLatency(latency) => {
            ((latency - cold.mean_latency).abs() > WARM_TOLERANCE * cold.mean_latency).then(|| {
                format!("warm miss at {}: {latency} vs cold {}", miss.rate, cold.mean_latency)
            })
        }
    }
}

/// Per-phase timings and counts from replaying the stream's first queries
/// through the daemon's public functions.
#[derive(Default)]
struct Replay {
    decode_us: Vec<f64>,
    resolve_us: Vec<f64>,
    admit_us: Vec<f64>,
    encode_us: Vec<f64>,
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    hits: u64,
    cold_solves: u64,
    warm_solves: u64,
    warm_iterations: usize,
    cold_iterations_same_points: usize,
    iterations: usize,
}

impl Replay {
    /// Turns the wall-clock timings into reference time.
    fn rescale(&mut self, scale: f64) {
        let Self { decode_us, resolve_us, admit_us, encode_us, cold_us, warm_us, .. } = self;
        for times in [decode_us, resolve_us, admit_us, encode_us, cold_us, warm_us] {
            times.iter_mut().for_each(|t| *t *= scale);
        }
    }
}

fn replay(seed: u64, configs: &[Config], tracer: &Tracer) -> Replay {
    let cache = ConfigCache::new();
    let defaults = ServeConfig::default();
    let solves = ShardedSolveCache::new(defaults.cache_bytes, defaults.shards);
    for config in configs {
        let entry = cache.resolve(&config.wire);
        for ((rate, payload), seed) in config.grid.iter().zip(&config.expected).zip(&config.seeds) {
            solves.insert(&entry.fingerprint, *rate, payload.clone(), true, *seed);
        }
    }
    let backend = ModelBackend::new();
    let mut out = Replay::default();
    let us = |s: f64| s * 1e6;
    for line in stream_prefix(seed, configs, REPLAY_QUERIES) {
        let parent = tracer.id();
        let start = Instant::now();
        let (request, decode_s) = tracer.time("serve.decode", parent, |_| Request::parse(&line));
        let Ok(Request::Query(query)) = request else { continue };
        let (entry, resolve_s) =
            tracer.time("serve.resolve", parent, |_| cache.resolve(&query.wire));
        let (admission, mut admit_s) = tracer.time("serve.admit", parent, |_| {
            solves.admit(&entry.fingerprint, query.rate, query.mode)
        });
        let encode_s = match admission {
            Admission::Hit { payload, hits } => {
                out.hits += 1;
                tracer
                    .time("serve.encode", parent, |_| {
                        protocol::ok_query(query.id, CacheOutcome::Exact, hits, &payload)
                    })
                    .1
            }
            Admission::Lead { token, warm_seed } => {
                let point = entry.scenario.at(query.rate);
                let warm_state: Vec<f64> = warm_seed.into_iter().collect();
                let (estimate, solve_s) = tracer.time("core.solve", parent, |_| {
                    backend.estimate_with(&point, &entry.spectrum, &warm_state)
                });
                let iterations = estimate.iterations().unwrap_or(0);
                out.iterations += iterations;
                let outcome = if warm_state.is_empty() {
                    out.cold_solves += 1;
                    out.cold_us.push(us(solve_s));
                    CacheOutcome::Cold
                } else {
                    out.warm_solves += 1;
                    out.warm_us.push(us(solve_s));
                    out.warm_iterations += iterations;
                    let cold = backend.estimate_with(&point, &entry.spectrum, &[]);
                    out.cold_iterations_same_points += cold.iterations().unwrap_or(0);
                    CacheOutcome::Warm
                };
                let (payload, encode_s) = tracer.time("serve.encode", parent, |_| {
                    let payload = encode_estimate(&estimate);
                    std::hint::black_box(protocol::ok_query(query.id, outcome, 0, &payload));
                    payload
                });
                let seed = ModelBackend::warm_seed(&estimate).unwrap_or(f64::NAN);
                let ((), complete_s) =
                    tracer.time("serve.admit", parent, |_| solves.complete(token, payload, seed));
                admit_s += complete_s;
                encode_s
            }
            Admission::Follow { .. } => unreachable!("a single-threaded replay never coalesces"),
        };
        tracer.record(parent, 0, "serve.replay_query", start, Instant::now());
        out.decode_us.push(us(decode_s));
        out.resolve_us.push(us(resolve_s));
        out.admit_us.push(us(admit_s));
        out.encode_us.push(us(encode_s));
    }
    out
}

fn stat(stats: &Value, section: &str, key: &str) -> f64 {
    stats
        .get(section)
        .and_then(|s| s.get(key))
        .and_then(Value::as_u64)
        .map_or(f64::NAN, |v| v as f64)
}

pub fn run(opts: &Opts, tracer: &Tracer) -> Result<Pass, String> {
    let io_error = |e: io::Error| format!("serve-mixed: {e}");
    let configs = configs();
    let mut pass = Pass::default();
    if stream_prefix(opts.seed, &configs, 64) != stream_prefix(opts.seed, &configs, 64)
        || stream_prefix(opts.seed, &configs, 64)
            == stream_prefix(opts.seed.wrapping_add(1), &configs, 64)
    {
        pass.fail("the query stream is not a pure function of the seed".to_string());
    }

    let serve_config =
        ServeConfig { width: width(), prewarm: default_config_pool(), ..ServeConfig::default() };
    let ((bare, _), bare_wall, bare_scale) = speed::bracket(|| {
        tracer.time("serve.bind", 0, |_| {
            Daemon::bind(ServeConfig { width: width(), ..ServeConfig::default() })
        })
    });
    drop(bare.map_err(io_error)?);
    let bind_prewarmed = |pass: &mut Pass| {
        let ((bound, _), wall, scale) = speed::bracket(|| {
            tracer.time("serve.bind_prewarm", 0, |_| Daemon::bind(serve_config.clone()))
        });
        pass.setup_s.push(wall * scale);
        pass.scales.push(scale);
        bound.map_err(io_error)
    };
    // The set-up repetitions run in three groups: before the window, right
    // after it, and after the checks.  Their median thus spans the whole
    // run rather than the host's speed at one moment.
    let group = opts.setup_reps.div_ceil(3);
    let mut daemon = None;
    for _ in 0..group {
        daemon = Some(bind_prewarmed(&mut pass)?);
    }
    let daemon = daemon.expect("at least one set-up repetition");
    let prewarmed = daemon.prewarmed().map_or(0, |report| report.solves);
    let addr = daemon.local_addr();
    let server = std::thread::spawn(move || daemon.run());

    let fresh: Vec<Tally> = (0..width() as u64)
        .map(|c| Tally::new(Rng::new(opts.seed ^ 0x6c61_7465_6e63_7900 ^ c)))
        .collect();
    let start = Instant::now();
    let deadline = start + opts.duration();
    let tallies: Vec<io::Result<Tally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = fresh
            .into_iter()
            .zip(0..)
            .map(|(tally, c)| {
                let configs = &configs;
                scope.spawn(move || {
                    client(addr, Generator::new(opts.seed, c), tally, configs, deadline, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    pass.wall_s = start.elapsed().as_secs_f64();

    let validation_rate = configs[0].grid[VALIDATION_POINT];
    let probe =
        Query { id: 1, wire: configs[0].wire, rate: validation_rate, mode: SolveMode::Exact };
    let replies = control(
        addr,
        &[
            query_line(&probe),
            r#"{"op":"stats","id":2}"#.to_string(),
            r#"{"op":"shutdown","id":3}"#.to_string(),
        ],
    )
    .map_err(io_error)?;
    server.join().expect("daemon thread panicked").map_err(io_error)?;
    for _ in group..(2 * group).min(opts.setup_reps) {
        drop(bind_prewarmed(&mut pass)?);
    }

    let tallies: Vec<Tally> = tallies.into_iter().collect::<io::Result<_>>().map_err(io_error)?;
    pass.latencies_us.reserve_exact(tallies.iter().map(|t| t.latencies_us.items().len()).sum());
    let pool = ExecPool::new(1);
    let mut exec = ExecStats::default();
    let (mut seen, mut checked) = (0, 0);
    for tally in tallies {
        pass.attempted += tally.queries;
        pass.reference_s += tally.reference_s;
        pass.scales.extend_from_slice(&tally.scales);
        pass.latencies_us.extend(tally.latencies_us.items().iter().map(|&us| f64::from(us)));
        for problem in tally.problems {
            pass.fail(problem);
        }
        let misses = tally.misses.items();
        let (verdicts, _) = tracer.time("serve.check_misses", 0, |id| {
            fan(&pool, misses, tracer, id, &mut exec, |miss, _| check_miss(&configs, miss))
        });
        for problem in verdicts.into_iter().flatten() {
            pass.fail(problem);
        }
        seen += tally.misses.seen();
        checked += misses.len();
    }
    pass.units = pass.attempted as f64;
    println!("checked {checked} of {seen} miss replies against a cold solve");

    let stats = replies
        .get(1)
        .and_then(|line| serde_json::from_str(line).ok())
        .and_then(|v: Value| v.get("stats").cloned())
        .unwrap_or(Value::Null);
    let hits = stat(&stats, "solves", "hits");
    let lookups = hits + stat(&stats, "solves", "misses");
    let (mut played, _, scale) = speed::bracket(|| replay(opts.seed, &configs, tracer));
    played.rescale(scale);
    pass.work = vec![
        ("replayed_queries", REPLAY_QUERIES as f64),
        ("replay.hits", played.hits as f64),
        ("replay.cold_solves", played.cold_solves as f64),
        ("replay.warm_solves", played.warm_solves as f64),
        ("replay.fixed_point_iterations", played.iterations as f64),
        ("prewarmed", prewarmed as f64),
    ];
    pass.layers = vec![
        ("serve.prewarm_s", median(&pass.setup_s) - bare_wall * bare_scale),
        ("serve.hit_ratio", hits / lookups),
        ("serve.misses", stat(&stats, "solves", "misses")),
        ("serve.seeded", stat(&stats, "solves", "seeded")),
        ("serve.evictions", stat(&stats, "solves", "evictions")),
        ("serve.coalesced", stat(&stats, "solves", "coalesced")),
        ("serve.contended", stat(&stats, "solves", "contended")),
        ("serve.decode_us", median(&played.decode_us)),
        ("serve.resolve_us", median(&played.resolve_us)),
        ("serve.admit_us", median(&played.admit_us)),
        ("serve.encode_us", median(&played.encode_us)),
        ("core.cold_solve_us", median(&played.cold_us)),
        ("core.warm_solve_us", median(&played.warm_us)),
        (
            "core.warm_iterations_ratio",
            played.warm_iterations as f64 / played.cold_iterations_same_points as f64,
        ),
    ];
    pass.layers.extend(exec.layers());

    if opts.validate {
        let model = replies
            .first()
            .and_then(|line| reply_payload(line, 1).ok())
            .and_then(latency_of)
            .unwrap_or(f64::NAN);
        pass.model_error_pct =
            sim::model_error_pct(&pool, opts.seed, validation_rate, model, &mut pass);
    }
    for _ in pass.setup_s.len()..opts.setup_reps {
        drop(bind_prewarmed(&mut pass)?);
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_payloads_are_spliced_out_verbatim() {
        let line = protocol::ok_query(7, CacheOutcome::Exact, 3, r#"{"latency":1.5}"#);
        assert_eq!(reply_payload(&line, 7), Ok(r#"{"latency":1.5}"#));
        assert!(reply_payload(&line, 8).is_err());
        assert!(reply_payload(&protocol::error_response(Some(7), "no"), 7).is_err());
    }
}
