//! Report emitters: the unified cross-backend [`RunReport`] CSV schema,
//! the shard-aware [`ReportSink`] every harness binary writes through,
//! plain CSV writing, Markdown tables and quick ASCII plots.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use star_exec::ShardSpec;

use crate::evaluator::PointEstimate;
use crate::sweep_runner::{SweepReport, SweepSpec};

/// One row of the unified run-report schema: one backend's answer to one
/// operating point, in the same shape whichever backend produced it.
///
/// Model rows carry a single degenerate replicate with a zero-width
/// confidence interval; simulator rows carry the across-replicate mean and
/// Student-t 95% half-width.  Keeping one schema is what lets a harness
/// concatenate model and simulator rows into one CSV and diff them
/// downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Identifier of the sweep the row belongs to.
    pub sweep: String,
    /// Scenario label (`"S5/enhanced-nbc/V6/M32/R8"`).
    pub scenario: String,
    /// Backend that produced the estimate (`"model"` / `"sim"`).
    pub backend: String,
    /// Traffic generation rate `λ_g`.
    pub traffic_rate: f64,
    /// Total replicates run for the estimate (1 for the model's degenerate
    /// replicate).  On a saturated point the CI columns summarise only the
    /// subset that produced a finite measurement, which may be smaller.
    pub replicates: u64,
    /// Seed base the replicate seeds were derived from.
    pub seed_base: u64,
    /// Whether the point was declared saturated.
    pub saturated: bool,
    /// Across-replicate mean message latency (`None` beyond saturation).
    pub mean_latency: Option<f64>,
    /// Student-t 95% confidence half-width of the mean latency (0 for
    /// deterministic backends and single replicates).
    pub latency_ci95: f64,
    /// Relative half-width `ci95 / mean`.
    pub latency_rel_ci95: f64,
}

impl RunRow {
    /// Builds the row for one estimate of one sweep.
    #[must_use]
    pub fn new(sweep: &str, estimate: &PointEstimate) -> Self {
        let scenario = &estimate.point.scenario;
        Self {
            sweep: sweep.to_string(),
            scenario: scenario.label(),
            backend: estimate.backend.clone(),
            traffic_rate: estimate.point.traffic_rate,
            replicates: estimate.replicates(),
            seed_base: scenario.seed_base,
            saturated: estimate.saturated,
            mean_latency: estimate.latency(),
            latency_ci95: estimate.latency_ci95(),
            latency_rel_ci95: estimate.latency_rel_ci95(),
        }
    }

    /// The row in CSV form (empty latency field beyond saturation).
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{:.4},{:.6}",
            self.sweep,
            self.scenario,
            self.backend,
            self.traffic_rate,
            self.replicates,
            self.seed_base,
            self.saturated,
            self.mean_latency.map_or(String::new(), |l| format!("{l:.4}")),
            self.latency_ci95,
            self.latency_rel_ci95,
        )
    }
}

/// The unified report of one harness run: every (sweep, point, backend)
/// estimate flattened into [`RunRow`]s sharing one CSV schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// The rows, in (sweep, rate) order per contributing backend.
    pub rows: Vec<RunRow>,
}

impl RunReport {
    /// An empty report to extend incrementally.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Flattens sweep reports (from any backend) into rows, appending to the
    /// existing ones — call once per backend to combine both into one CSV.
    pub fn extend_from_sweeps(&mut self, reports: &[SweepReport]) {
        for report in reports {
            self.rows.extend(report.estimates.iter().map(|e| RunRow::new(&report.id, e)));
        }
    }

    /// Builds a report from one backend's sweep reports.
    #[must_use]
    pub fn from_sweeps(reports: &[SweepReport]) -> Self {
        let mut out = Self::new();
        out.extend_from_sweeps(reports);
        out
    }

    /// The CSV header every harness binary writes.
    #[must_use]
    pub fn csv_header() -> &'static str {
        "sweep,scenario,backend,traffic_rate,replicates,seed_base,saturated,\
         mean_latency,latency_ci95,latency_rel_ci95"
    }

    /// The rows in CSV form.
    #[must_use]
    pub fn csv_rows(&self) -> Vec<String> {
        self.rows.iter().map(RunRow::to_csv_row).collect()
    }

    /// Writes the report as a CSV file, creating parent directories.
    ///
    /// # Errors
    /// Returns any I/O error from creating directories or writing the file.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        write_csv(path, Self::csv_header(), &self.csv_rows())
    }
}

/// Accumulates a harness run's [`RunRow`]s — shard-aware — and writes the
/// CSV: the unsharded `<base>.csv` when no shard is set, or the partial
/// `<base>.shardKofN.csv` (each row prefixed with its index in the
/// unsharded CSV) that `cargo xtask merge-shards` reassembles.
///
/// The sink is fed one **pass** at a time: a backend's sweep reports
/// together with the *full* (unsharded) sweep list the pass was sharded
/// from.  From the full list it recovers each estimate's rate index, and
/// hence each row's index in the CSV an unsharded run would write — that
/// index is what makes the partials mergeable back into byte-identical
/// output (see [`star_exec::shard`]).  Without a shard the sink degrades to
/// exactly [`RunReport::extend_from_sweeps`] + [`RunReport::write_csv`].
///
/// Partial headers are stamped with a [`star_exec::RunFingerprint`] folded
/// over the *full* run description (shard count, every pass's sweep ids,
/// scenario labels, seed bases and rate grids) — identical in every shard
/// of one run, different for any other run — so `merge-shards` rejects
/// partials that were produced with different flags or from different
/// experiments.
#[derive(Debug, Clone, Default)]
pub struct ReportSink {
    shard: Option<ShardSpec>,
    report: RunReport,
    /// Per-row index in the unsharded CSV (parallel to `report.rows`).
    indices: Vec<usize>,
    /// Rows the unsharded run would have emitted across the passes so far.
    full_rows: usize,
    /// Identity of the full run, folded from every pass's description.
    fingerprint: star_exec::RunFingerprint,
}

impl ReportSink {
    /// A sink for an unsharded (`None`) or sharded run.
    #[must_use]
    pub fn new(shard: Option<ShardSpec>) -> Self {
        let mut sink = Self { shard, ..Self::default() };
        // the fingerprint covers the shard *count* but not the index, so
        // all N partials of one run stamp identically
        sink.fingerprint.add_u64(shard.map_or(0, |s| s.count as u64));
        sink
    }

    /// The rows accumulated so far (this shard's only, when sharded).
    #[must_use]
    pub fn rows(&self) -> &[RunRow] {
        &self.report.rows
    }

    /// Adds one backend pass.  `full` is the unsharded sweep list of the
    /// pass and `reports` the results actually computed — identical to
    /// `full` in shape for unsharded runs, or produced from
    /// [`crate::shard_sweeps`]`(shard, &full)` for sharded ones (one report
    /// per full sweep, covering an ordered subset of its rates).
    ///
    /// # Panics
    /// Panics if `reports` does not align with `full` (different sweep
    /// count or order, or an estimate whose rate the full sweep lacks).
    pub fn extend_pass(&mut self, full: &[SweepSpec], reports: &[SweepReport]) {
        assert_eq!(full.len(), reports.len(), "one report per full sweep");
        let mut offset = self.full_rows;
        for (spec, report) in full.iter().zip(reports) {
            assert_eq!(spec.id, report.id, "reports must align with the full sweep list");
            // fold the pass's full description — shared by every shard of
            // one run — into the run identity
            self.fingerprint.add_str(&spec.id);
            self.fingerprint.add_str(&spec.scenario.label());
            self.fingerprint.add_u64(spec.scenario.seed_base);
            for &rate in &spec.rates {
                self.fingerprint.add_f64(rate);
            }
            for (estimate, rate_index) in
                report.estimates.iter().zip(crate::sweep_runner::rate_indices(&spec.rates, report))
            {
                self.indices.push(offset + rate_index);
                self.report.rows.push(RunRow::new(&report.id, estimate));
            }
            offset += spec.rates.len();
        }
        self.full_rows = offset;
    }

    /// The output file name for a run whose unsharded CSV would be
    /// `<base>.csv`.
    #[must_use]
    pub fn file_name(&self, base: &str) -> String {
        match self.shard {
            Some(shard) => shard.file_name(base),
            None => format!("{base}.csv"),
        }
    }

    /// Writes the CSV into `dir` (the full [`RunReport`] schema, or the
    /// index-prefixed partial when sharded) and returns the path written.
    ///
    /// # Errors
    /// Returns any I/O error from creating directories or writing the file.
    pub fn write_csv(&self, dir: &Path, base: &str) -> io::Result<PathBuf> {
        let path = dir.join(self.file_name(base));
        match self.shard {
            None => self.report.write_csv(&path)?,
            Some(_) => {
                let indexed: Vec<(usize, String)> =
                    self.indices.iter().copied().zip(self.report.csv_rows()).collect();
                let mut fingerprint = self.fingerprint;
                fingerprint.add_str(base);
                write_csv(
                    &path,
                    &star_exec::shard::partial_header(RunReport::csv_header(), fingerprint),
                    &star_exec::shard::partial_rows(&indexed),
                )?;
            }
        }
        Ok(path)
    }
}

/// Writes rows as a CSV file (header first), creating parent directories as
/// needed.
///
/// # Errors
/// Returns any I/O error from creating directories or writing the file.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(
        header.len() + rows.iter().map(String::len).sum::<usize>() + rows.len() * 2,
    );
    out.push_str(header);
    out.push('\n');
    for row in rows {
        out.push_str(row);
        out.push('\n');
    }
    fs::write(path, out)
}

/// Renders a Markdown table from a header and rows of cells.
///
/// # Panics
/// Panics if any row has a different number of cells than the header.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(out, "|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width must match the header");
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// A quick ASCII plot of one or more named series against a shared x axis,
/// used by the examples and the harness binaries so that latency curves can be
/// eyeballed without leaving the terminal.
///
/// Points with non-finite y values (saturated operating points) are drawn as
/// `x` at the top of the plot.
#[must_use]
pub fn ascii_plot(
    title: &str,
    x: &[f64],
    series: &[(&str, Vec<f64>)],
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 16 && height >= 4, "plot must be at least 16x4");
    assert!(!x.is_empty(), "need at least one x value");
    for (name, ys) in series {
        assert_eq!(ys.len(), x.len(), "series {name} length must match x");
    }
    let finite_max = series
        .iter()
        .flat_map(|(_, ys)| ys.iter())
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let finite_min = series
        .iter()
        .flat_map(|(_, ys)| ys.iter())
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::INFINITY, f64::min);
    let (lo, hi) = if finite_min.is_finite() && finite_max.is_finite() && finite_max > finite_min {
        (finite_min, finite_max)
    } else {
        (0.0, 1.0)
    };
    let x_lo = x.iter().copied().fold(f64::INFINITY, f64::min);
    let x_hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let markers = ['*', 'o', '+', '#', '@', '%'];

    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, ys)) in series.iter().enumerate() {
        let marker = markers[si % markers.len()];
        for (xi, &y) in ys.iter().enumerate() {
            let col = if x_hi > x_lo {
                (((x[xi] - x_lo) / (x_hi - x_lo)) * (width - 1) as f64).round() as usize
            } else {
                0
            };
            let row = if y.is_finite() {
                let frac = ((y - lo) / (hi - lo)).clamp(0.0, 1.0);
                height - 1 - (frac * (height - 1) as f64).round() as usize
            } else {
                0
            };
            grid[row.min(height - 1)][col.min(width - 1)] =
                if y.is_finite() { marker } else { 'x' };
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", markers[i % markers.len()]))
        .collect();
    let _ = writeln!(
        out,
        "  [{}]   y: {:.1} .. {:.1}   x: {:.4} .. {:.4}",
        legend.join("  "),
        lo,
        hi,
        x_lo,
        x_hi
    );
    for row in grid {
        let _ = writeln!(out, "  |{}", row.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "  +{}", "-".repeat(width));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shape() {
        let table = markdown_table(
            &["rate", "model", "sim"],
            &[
                vec!["0.004".into(), "40.1".into(), "41.0".into()],
                vec!["0.008".into(), "55.3".into(), "58.2".into()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| rate"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn markdown_table_rejects_ragged_rows() {
        let _ = markdown_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn ascii_plot_contains_markers_and_legend() {
        let x = vec![0.0, 1.0, 2.0, 3.0];
        let plot = ascii_plot(
            "latency",
            &x,
            &[("model", vec![1.0, 2.0, 4.0, f64::INFINITY]), ("sim", vec![1.1, 2.2, 4.5, 9.0])],
            40,
            10,
        );
        assert!(plot.contains("latency"));
        assert!(plot.contains("* model"));
        assert!(plot.contains("o sim"));
        assert!(plot.contains('x'), "saturated points are drawn as x");
        assert!(plot.lines().count() >= 12);
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("star-workloads-test");
        let path = dir.join("nested/out.csv");
        write_csv(&path, "a,b", &["1,2".into(), "3,4".into()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ascii_plot_handles_flat_series() {
        let plot = ascii_plot("flat", &[0.0, 1.0], &[("s", vec![5.0, 5.0])], 20, 5);
        assert!(plot.contains('*'));
    }

    #[test]
    fn sharded_partials_merge_into_the_unsharded_csv() {
        use crate::evaluator::{ModelBackend, SimBackend};
        use crate::scenario::Scenario;
        use crate::sweep_runner::{SweepRunner, SweepSpec};
        use crate::SimBudget;

        let scenario =
            Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(3);
        let full = vec![
            SweepSpec::new("a", scenario.clone(), vec![0.002, 0.004]),
            SweepSpec::new("b", scenario.with_virtual_channels(9), vec![0.002, 0.004]),
        ];
        let runner = SweepRunner::with_threads(2);
        let model = ModelBackend::new();
        let sim = SimBackend::new(SimBudget::Quick);
        let dir = std::env::temp_dir().join("star-workloads-shard-roundtrip");

        // the unsharded reference: a model pass and a sim pass
        let mut reference = ReportSink::new(None);
        reference.extend_pass(&full, &runner.run_pass(&model, None, &full));
        reference.extend_pass(&full, &runner.run_pass(&sim, None, &full));
        assert_eq!(reference.rows().len(), 8);
        let ref_path = reference.write_csv(&dir, "roundtrip").unwrap();
        assert!(ref_path.ends_with("roundtrip.csv"));

        // three shards of the same run, each writing a partial CSV
        let partials: Vec<String> = (1..=3)
            .map(|k| {
                let shard = star_exec::ShardSpec::parse(&format!("{k}/3")).unwrap();
                let mut sink = ReportSink::new(Some(shard));
                sink.extend_pass(&full, &runner.run_pass(&model, Some(shard), &full));
                sink.extend_pass(&full, &runner.run_pass(&sim, Some(shard), &full));
                let path = sink.write_csv(&dir, "roundtrip").unwrap();
                assert!(path.to_string_lossy().contains(&format!("shard{k}of3")));
                std::fs::read_to_string(path).unwrap()
            })
            .collect();

        let merged = star_exec::merge_shard_csvs(&partials).unwrap();
        assert_eq!(
            merged,
            std::fs::read_to_string(&ref_path).unwrap(),
            "merged shards must reproduce the unsharded CSV byte for byte"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_report_shares_one_schema_across_backends() {
        use crate::evaluator::{ModelBackend, SimBackend};
        use crate::scenario::Scenario;
        use crate::sweep_runner::{SweepRunner, SweepSpec};
        use crate::SimBudget;

        let scenario =
            Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(3);
        let sweep = SweepSpec::new("s4", scenario, vec![0.003]);
        let runner = SweepRunner::with_threads(1);
        let mut report = RunReport::new();
        report.extend_from_sweeps(&[runner.run_one(&ModelBackend::new(), &sweep)]);
        report.extend_from_sweeps(&[runner.run_one(&SimBackend::new(SimBudget::Quick), &sweep)]);

        assert_eq!(report.rows.len(), 2);
        let (model, sim) = (&report.rows[0], &report.rows[1]);
        assert_eq!(model.backend, "model");
        assert_eq!(sim.backend, "sim");
        // one schema: the model row is a degenerate replicate with zero CI
        assert_eq!(model.replicates, 1);
        assert_eq!(model.latency_ci95, 0.0);
        assert_eq!(sim.replicates, 2);
        assert!(sim.latency_ci95 > 0.0);
        assert_eq!(model.scenario, sim.scenario);
        // every row has the header's field count
        let fields = RunReport::csv_header().split(',').count();
        for row in report.csv_rows() {
            assert_eq!(row.split(',').count(), fields, "row {row}");
        }
        // a saturated model point leaves the latency field empty
        let sat = runner.run_one(
            &ModelBackend::new(),
            &SweepSpec::new("sat", Scenario::star(4).with_message_length(16), vec![0.5]),
        );
        let sat_row = RunRow::new("sat", &sat.estimates[0]);
        assert!(sat_row.saturated);
        assert!(sat_row.to_csv_row().contains(",true,,"));
    }
}
