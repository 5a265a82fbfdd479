//! Integration tests on the *shape* of the reproduced evaluation: the
//! qualitative features of the paper's Figure 1 that the reproduction must
//! preserve even though absolute cycle counts differ from the authors'
//! testbed.  These are model-only (no simulation), so they run in
//! milliseconds.

use star_wormhole::workloads::model_saturation_rate;
use star_wormhole::{Evaluator as _, ModelBackend, PointEstimate, Scenario};

fn s5(v: usize, m: usize) -> Scenario {
    Scenario::star(5).with_virtual_channels(v).with_message_length(m)
}

/// The model's latency curve over `rates`, warm-started rate to rate.
fn sweep(scenario: &Scenario, rates: &[f64]) -> Vec<PointEstimate> {
    ModelBackend::new().evaluate_sweep(scenario, rates)
}

#[test]
fn latency_curves_are_flat_then_knee_then_saturate() {
    // The canonical latency-vs-load shape: near-constant at light load, a
    // knee, then divergence.
    let rates: Vec<f64> = (1..=30).map(|i| 0.001 * i as f64).collect();
    let points = sweep(&s5(6, 32), &rates);
    let zero_load = points[0].mean_latency;
    // light-load region: within 25% of the zero-load latency
    assert!(points[2].mean_latency < zero_load * 1.25);
    // the curve eventually saturates
    assert!(points.iter().any(|p| p.saturated));
    // and just before saturation the latency has at least doubled
    let last_finite = points.iter().rev().find(|p| !p.saturated).unwrap();
    assert!(last_finite.mean_latency > zero_load * 1.5);
}

#[test]
fn more_virtual_channels_never_hurt_and_push_saturation_right() {
    let rates: Vec<f64> = (1..=12).map(|i| 0.0012 * i as f64).collect();
    let v6 = sweep(&s5(6, 32), &rates);
    let v9 = sweep(&s5(9, 32), &rates);
    let v12 = sweep(&s5(12, 32), &rates);
    for ((a, b), c) in v6.iter().zip(&v9).zip(&v12) {
        if !a.saturated && !b.saturated {
            assert!(b.mean_latency <= a.mean_latency + 1e-6);
        }
        if !b.saturated && !c.saturated {
            assert!(c.mean_latency <= b.mean_latency + 1e-6);
        }
    }
    let sat6 = model_saturation_rate(&s5(6, 32), 0.02);
    let sat12 = model_saturation_rate(&s5(12, 32), 0.02);
    assert!(sat12 >= sat6 * 0.95, "V=12 must not saturate earlier than V=6");
}

#[test]
fn doubling_message_length_roughly_halves_the_saturation_rate() {
    let sat32 = model_saturation_rate(&s5(6, 32), 0.02);
    let sat64 = model_saturation_rate(&s5(6, 64), 0.02);
    let ratio = sat32 / sat64;
    assert!(
        (1.6..=2.6).contains(&ratio),
        "expected roughly 2x saturation-rate ratio between M=32 and M=64, got {ratio}"
    );
}

#[test]
fn m64_curve_sits_above_m32_curve() {
    let rates: Vec<f64> = (1..=8).map(|i| 0.0008 * i as f64).collect();
    let m32 = sweep(&s5(9, 32), &rates);
    let m64 = sweep(&s5(9, 64), &rates);
    for (a, b) in m32.iter().zip(&m64) {
        if !a.saturated && !b.saturated {
            assert!(b.mean_latency > a.mean_latency + 25.0);
        }
    }
}

#[test]
fn zero_load_latency_is_message_length_plus_mean_distance_for_every_figure_configuration() {
    for &v in &[6usize, 9, 12] {
        for &m in &[32usize, 64] {
            let estimate = ModelBackend::new().evaluate(&s5(v, m).at(0.0));
            let r = estimate.model_result().expect("a model answer");
            assert!((r.mean_latency - (m as f64 + r.mean_distance)).abs() < 1e-6);
        }
    }
}

#[test]
fn network_size_scaling_is_monotone() {
    // Larger star graphs have longer paths, hence higher zero-load latency and
    // lower per-node saturation rates at the same V and M.
    let mut last_latency = 0.0;
    let mut last_sat = f64::INFINITY;
    for n in 4..=6usize {
        let scenario = Scenario::star(n);
        let zero = ModelBackend::new().evaluate(&scenario.at(0.0)).mean_latency;
        assert!(zero > last_latency);
        last_latency = zero;
        let sat = model_saturation_rate(&scenario, 0.02);
        assert!(sat < last_sat, "S{n} must saturate at a lower per-node rate");
        last_sat = sat;
    }
}
