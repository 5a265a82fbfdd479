//! Criterion benchmark: the analytical model on the hypercube at
//! parity-sweep scale.
//!
//! The star-vs-hypercube comparison runs model-only at `Q10`/`Q13` (the
//! cubes matched to `S6`/`S7`); this bench pins the cost of a single solve
//! at those sizes, the warm- vs cold-started sweep delta on the `Q10`
//! curve, and the spectrum construction that sweeps amortise.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use star_core::blocking::batch_blocking_delays;
use star_core::occupancy::ChannelOccupancy;
use star_core::{ModelDiscipline, ModelParams, SpectrumModel, TraversalSpectrum};
use star_workloads::{ModelBackend, Scenario, SweepRunner, SweepSpec};

fn q10_rates() -> Vec<f64> {
    // dense enough to hug the Q10 knee (saturation ≈ 0.028 at V = 8, M = 32)
    (1..=16).map(|i| 0.0016 * i as f64).collect()
}

fn bench_single_solves(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_model");
    let params = ModelParams {
        virtual_channels: 8,
        message_length: 32,
        traffic_rate: 0.008,
        ..ModelParams::default()
    };
    let ecube = ModelParams { discipline: ModelDiscipline::Deterministic, ..params };
    for (dims, label) in [(10usize, "q10"), (13, "q13")] {
        let spectrum = Arc::new(TraversalSpectrum::hypercube(dims));
        let model = SpectrumModel::new(params, Arc::clone(&spectrum));
        group.bench_function(format!("{label}_v8_m32_solve"), |b| {
            b.iter(|| black_box(model.solve()));
        });
        let ecube = SpectrumModel::new(ecube, spectrum);
        group.bench_function(format!("{label}_v8_m32_ecube_solve"), |b| {
            b.iter(|| black_box(ecube.solve()));
        });
    }
    group.bench_function("q13_spectrum_build", |b| {
        b.iter(|| black_box(TraversalSpectrum::hypercube(13)));
    });
    // the per-destination parallelism pair at Q13 (byte-identical answers;
    // records the speedup of sharding the per-distance-class blocking sums
    // of every fixed-point iteration across the persistent pool)
    let spectrum = Arc::new(TraversalSpectrum::hypercube(13));
    for threads in [1usize, 2, 4] {
        let model = SpectrumModel::new(params, Arc::clone(&spectrum)).with_parallelism(threads);
        group.bench_function(format!("q13_v8_m32_solve_blocking_threads{threads}"), |b| {
            b.iter(|| black_box(model.solve()));
        });
    }
    // one Q13 blocking batch (the work unit every fixed-point iteration
    // repeats) through the persistent pool
    let profiles: Vec<&star_graph::AdaptivityProfile> =
        spectrum.classes().iter().map(|c| &c.adaptive_profile).collect();
    let split = params.vc_split(spectrum.diameter());
    let occupancy = ChannelOccupancy::new(0.004, 70.0, 8);
    for threads in [2usize, 4] {
        group.bench_function(format!("q13_blocking_batch_pool_threads{threads}"), |b| {
            b.iter(|| {
                black_box(batch_blocking_delays(split, &occupancy, &profiles, 12.0, threads))
            });
        });
    }
    group.finish();
}

fn bench_backend_sweeps(c: &mut Criterion) {
    // the same warm-vs-cold pair `sweep_warmstart` pins for the star, on the
    // hypercube path through the evaluator API
    let sweep =
        SweepSpec::new("q10-parity", Scenario::hypercube(10).with_virtual_channels(8), q10_rates());
    let mut group = c.benchmark_group("hypercube_backend");
    group.bench_function("q10_v8_m32_cold_backend", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| black_box(runner.run_one(&ModelBackend::cold(), &sweep)));
    });
    group.bench_function("q10_v8_m32_warm_backend", |b| {
        let runner = SweepRunner::with_threads(1);
        b.iter(|| black_box(runner.run_one(&ModelBackend::new(), &sweep)));
    });
    group.finish();
}

criterion_group!(benches, bench_single_solves, bench_backend_sweeps);
criterion_main!(benches);
