//! # star-bench
//!
//! The benchmark harness: shared plumbing for the binaries that regenerate
//! every figure of the paper (`figure1`) and the extension studies
//! (`properties_table`, `routing_comparison`, `star_vs_hypercube`,
//! `size_sweep`, `model_ablation`), plus Criterion micro-benchmarks
//! (`benches/`).
//!
//! Every binary drives the unified evaluation API —
//! [`star_workloads::Evaluator`] backends ([`star_workloads::ModelBackend`]
//! / [`star_workloads::SimBackend`]) through a
//! [`star_workloads::SweepRunner`] — instead of hand-rolling its own sweep
//! loop,
//! prints a Markdown table (and an ASCII plot where a figure is being
//! reproduced) to stdout and writes a CSV next to it under
//! `target/experiments/`, so EXPERIMENTS.md can quote the numbers directly.
//!
//! Command-line handling lives in one place, [`cli`]: every binary parses a
//! [`cli::HarnessArgs`] and gets the shared `--threads`/`--budget`/
//! `--replicates`/`--seed-base`/`--ci-target` flags — and the cross-process
//! `--shard K/N` slicing with its mergeable partial CSVs — without
//! re-spelling any of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod loadgen;

use std::path::PathBuf;

use star_core::ValidationRow;
use star_workloads::SweepReport;

/// Directory where harness binaries drop their CSV outputs.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// Zips a model sweep report with a simulation sweep report over the same
/// rates into the [`ValidationRow`]s EXPERIMENTS.md tabulates, carrying the
/// simulator's across-replicate confidence interval.
///
/// # Panics
/// Panics if the reports do not cover the same rates in the same order, or
/// if the first report did not come from the model backend.
#[must_use]
pub fn pair_into_validation_rows(model: &SweepReport, sim: &SweepReport) -> Vec<ValidationRow> {
    assert_eq!(model.rates(), sim.rates(), "reports must cover the same rates");
    model
        .estimates
        .iter()
        .zip(&sim.estimates)
        .map(|(m, s)| {
            // only a simulated first report is a bug
            assert!(m.sim_report().is_none(), "first report must be a model sweep");
            let scenario = &m.point.scenario;
            let row = ValidationRow {
                traffic_rate: m.point.traffic_rate,
                message_length: scenario.message_length,
                virtual_channels: scenario.virtual_channels,
                model_latency: if m.saturated { None } else { Some(m.mean_latency) },
                simulated_latency: s.latency(),
                simulated_ci95: 0.0,
                sim_replicates: 1,
            };
            row.with_sim_ci(s.latency_ci95(), s.replicates())
        })
        .collect()
}

/// The model-predicted saturation rate of a scenario, on any topology —
/// the bisection the model-only harness binaries use to pick rate grids that
/// cover the whole latency curve up to the knee.
///
/// # Panics
/// Panics if the analytical model does not cover the scenario, or if the
/// scenario's parameters are out of the model's range (the panic message
/// carries the underlying config error, e.g. too few virtual channels for
/// the topology's escape-level minimum).
#[must_use]
pub fn model_saturation_rate(scenario: &star_workloads::Scenario, tolerance: f64) -> f64 {
    // the shared implementation lives next to the wire vocabulary so the
    // daemon's prewarmer and the load generator agree bit for bit
    star_workloads::model_saturation_rate(scenario, tolerance)
}

/// Prints the per-point replicate consumption of a simulated sweep — the
/// log the adaptive `--ci-target` stopping rule owes the user (for fixed
/// fan-outs it is a one-line confirmation).
pub fn log_replicate_consumption(reports: &[SweepReport]) {
    for report in reports {
        for estimate in &report.estimates {
            if estimate.sim_report().is_none() {
                continue;
            }
            eprintln!(
                "[replicates] {} λ_g={:.5}: {} replicate(s), rel CI {:.2}%{}",
                report.id,
                estimate.point.traffic_rate,
                estimate.replicates(),
                estimate.latency_rel_ci95() * 100.0,
                if estimate.saturated { " (saturated)" } else { "" },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_workloads::{ModelBackend, Scenario, SimBackend, SimBudget, SweepRunner, SweepSpec};

    #[test]
    fn paired_passes_produce_one_validation_row_per_rate_with_replicate_cis() {
        // the figure1 binary's evaluation flow: a model pass and a sim pass
        // over the same sweeps, paired into validation rows (tiny S4
        // stand-in so the test stays fast; the real curves use S5)
        let scenario =
            Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(3);
        let sweeps = [SweepSpec::new("test", scenario, vec![0.002, 0.004])];
        let runner = SweepRunner::with_threads(2);
        let model = runner.run_pass(&ModelBackend::new(), None, &sweeps);
        let sim = runner.run_pass(&SimBackend::new(SimBudget::Quick), None, &sweeps);
        let rows = pair_into_validation_rows(&model[0], &sim[0]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.virtual_channels, 6);
            assert!(row.model_latency.is_some());
            assert!(row.simulated_latency.is_some());
            assert_eq!(row.sim_replicates, 2);
            assert!(row.simulated_ci95 > 0.0, "two seeds must yield a real interval");
        }
    }

    #[test]
    #[should_panic(expected = "same rates")]
    fn mismatched_reports_are_rejected() {
        let runner = SweepRunner::with_threads(1);
        let scenario = Scenario::star(4).with_message_length(16);
        let a = runner
            .run_one(&ModelBackend::new(), &SweepSpec::new("a", scenario.clone(), vec![0.001]));
        let b = runner.run_one(&ModelBackend::new(), &SweepSpec::new("b", scenario, vec![0.002]));
        let _ = pair_into_validation_rows(&a, &b);
    }
}
