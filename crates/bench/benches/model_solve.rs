//! Criterion benchmark: cost of one analytical-model evaluation.
//!
//! The selling point of the model over simulation is that one operating point
//! costs microseconds-to-milliseconds instead of seconds; this bench
//! quantifies that for the paper's configurations (`S5`, `V = 6/9/12`) and for
//! the larger networks the model is meant to reach (`S6`, `S7`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use star_core::blocking::{batch_blocking_delays, VcSplit};
use star_core::occupancy::ChannelOccupancy;
use star_core::{ModelParams, SpectrumModel, SpectrumResult, TraversalSpectrum};
use star_graph::Torus;

fn params(v: usize, rate: f64) -> ModelParams {
    ModelParams {
        virtual_channels: v,
        message_length: 32,
        traffic_rate: rate,
        ..Default::default()
    }
}

fn solve(symbols: usize, v: usize, rate: f64) -> SpectrumResult {
    SpectrumModel::new(params(v, rate), Arc::new(TraversalSpectrum::star(symbols))).solve()
}

fn bench_model_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_solve");
    for &v in &[6usize, 9, 12] {
        group.bench_function(format!("s5_v{v}_moderate_load"), |b| {
            b.iter(|| black_box(solve(5, v, 0.006)));
        });
    }
    group.bench_function("s6_v6_moderate_load", |b| {
        b.iter(|| black_box(solve(6, 6, 0.004)));
    });
    group.bench_function("s7_v8_light_load", |b| {
        b.iter(|| black_box(solve(7, 8, 0.001)));
    });
    // the per-destination parallelism pair: the same S7 solve with the
    // per-cycle-type blocking sums computed serially vs sharded across
    // the persistent pool (byte-identical answers; this records the
    // speedup of the parallel path at the largest spectrum the paper's
    // figures use)
    let spectrum = Arc::new(TraversalSpectrum::star(7));
    for threads in [1usize, 2, 4] {
        let model =
            SpectrumModel::new(params(8, 0.004), Arc::clone(&spectrum)).with_parallelism(threads);
        group.bench_function(format!("s7_v8_moderate_load_blocking_threads{threads}"), |b| {
            b.iter(|| black_box(model.solve()));
        });
    }
    group.finish();
}

fn bench_blocking_batch(c: &mut Criterion) {
    // one S7 blocking batch — the unit of work every fixed-point iteration
    // repeats — serial vs through the persistent pool (identical outputs,
    // only the execution layer differs)
    let spectrum = TraversalSpectrum::star(7);
    let profiles: Vec<&star_graph::AdaptivityProfile> =
        spectrum.classes().iter().map(|c| &c.adaptive_profile).collect();
    let split = VcSplit { adaptive: 2, escape_levels: 6, bonus_cards: true };
    let occupancy = ChannelOccupancy::new(0.004, 60.0, 8);
    let mut group = c.benchmark_group("blocking_batch");
    group.bench_function("s7_serial", |b| {
        b.iter(|| black_box(batch_blocking_delays(split, &occupancy, &profiles, 12.0, 1)));
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("s7_pool_threads{threads}"), |b| {
            b.iter(|| {
                black_box(batch_blocking_delays(split, &occupancy, &profiles, 12.0, threads))
            });
        });
    }
    group.finish();
}

fn bench_spectrum_and_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_components");
    group.bench_function("destination_spectrum_s5", |b| {
        b.iter(|| black_box(TraversalSpectrum::star(5)));
    });
    // per-destination parallelism of the spectrum build itself (path DAGs
    // per cycle type are independent)
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("destination_spectrum_s7_threads{threads}"), |b| {
            b.iter(|| black_box(TraversalSpectrum::star_with_threads(7, threads)));
        });
    }
    group.bench_function("sweep_reusing_spectrum_s5_v6_8pts", |b| {
        let spectrum = Arc::new(TraversalSpectrum::star(5));
        let rates: Vec<f64> = (1..=8).map(|i| 0.0015 * i as f64).collect();
        b.iter(|| {
            let mut seed: Vec<f64> = Vec::new();
            for &rate in &rates {
                let result =
                    SpectrumModel::new(params(6, rate), Arc::clone(&spectrum)).solve_from(&seed);
                seed = vec![result.mean_network_latency];
                black_box(result);
            }
        });
    });
    // the generic-path pair: the one-off BFS distance census a new topology
    // plugin pays instead of a closed-form spectrum, and the spectrum-model
    // solve that reuses it per operating point
    group.bench_function("traversal_spectrum_t12_build", |b| {
        let torus = Torus::new(12);
        b.iter(|| black_box(TraversalSpectrum::new(&torus)));
    });
    group.bench_function("t12_v8_moderate_load_spectrum_solve", |b| {
        let spectrum = Arc::new(TraversalSpectrum::new(&Torus::new(12)));
        let model = SpectrumModel::new(params(8, 0.004), Arc::clone(&spectrum));
        b.iter(|| black_box(model.solve()));
    });
    group.finish();
}

criterion_group!(benches, bench_model_solve, bench_spectrum_and_sweep, bench_blocking_batch);
criterion_main!(benches);
