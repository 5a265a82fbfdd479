//! The sweep-driving layer every harness used to hand-roll: a [`SweepRunner`]
//! takes a backend-agnostic [`Evaluator`] and a list of [`SweepSpec`]s and
//! shards the work across the persistent workers of the shared
//! [`star_exec::ExecPool`] (no threads are spawned per run).
//!
//! Two properties the harness binaries and tests rely on:
//!
//! * **Deterministic output order.**  Results come back grouped by sweep, in
//!   input order, with one estimate per rate in rate order — byte-identical
//!   for any thread count, because each work unit is computed independently
//!   of scheduling and reassembled by index (the pool's
//!   [`star_exec::ExecPool::run_ordered`] contract; replicates are folded in
//!   replicate-index order, so the aggregation is scheduling-blind too).
//! * **Granularity-aware sharding.**  A backend that chains state between
//!   the rates of one sweep ([`Evaluator::chains_rates`], e.g. the model's
//!   warm-started fixed point) is sharded at sweep granularity.  Independent
//!   backends are sharded at **(point × replicate)** granularity — each of a
//!   simulated point's [`Evaluator::fixed_replicates`] independently seeded
//!   replicates is its own work item, so a single heavy operating point with
//!   `R = 8` still fills eight cores.  A backend whose replicate count is
//!   dynamic (adaptive CI targeting returns `None`) is sharded at point
//!   granularity.
//!
//! For splitting one run across *processes* (or machines) instead of
//! threads, see [`shard_sweeps`] and the `--shard K/N` flag of the harness
//! binaries.

use star_exec::{ExecPool, ShardSpec};

use crate::evaluator::{Evaluator, PointEstimate};
use crate::scenario::Scenario;

/// One named sweep: a scenario evaluated across a list of traffic rates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Identifier used in reports and CSV file names (e.g. `"fig1a-M32"`).
    pub id: String,
    /// The scenario being swept.
    pub scenario: Scenario,
    /// Traffic generation rates to evaluate, in order.
    pub rates: Vec<f64>,
}

impl SweepSpec {
    /// Builds a sweep spec.
    #[must_use]
    pub fn new(id: impl Into<String>, scenario: Scenario, rates: Vec<f64>) -> Self {
        Self { id: id.into(), scenario, rates }
    }
}

/// One evaluated sweep: the spec's identity plus one estimate per rate, in
/// rate order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep's identifier.
    pub id: String,
    /// The scenario that was swept.
    pub scenario: Scenario,
    /// One estimate per rate of the spec, in the spec's order.
    pub estimates: Vec<PointEstimate>,
}

impl SweepReport {
    /// The traffic rates of the report, in order.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        self.estimates.iter().map(|e| e.point.traffic_rate).collect()
    }

    /// The latency curve as plottable values (infinite when saturated).
    #[must_use]
    pub fn latency_curve(&self) -> Vec<f64> {
        self.estimates.iter().map(PointEstimate::latency_or_infinity).collect()
    }
}

/// Runs sweeps through an [`Evaluator`], sharding independent work units
/// across scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner using all available parallelism.
    #[must_use]
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// A runner with an explicit worker count; `0` means "use all available
    /// parallelism" (the `--threads` convention of the harness binaries).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The resolved worker count (`0` resolves to all available
    /// parallelism, the shared pool's size — computed without
    /// instantiating the pool, so querying a serial runner stays free).
    #[must_use]
    pub fn threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }

    /// Evaluates every sweep, returning one [`SweepReport`] per spec in input
    /// order, each with one estimate per rate in rate order — independent of
    /// the thread count.
    ///
    /// # Panics
    /// Panics up front if the evaluator does not support one of the
    /// scenarios, and propagates panics from evaluation itself.
    #[must_use]
    pub fn run(&self, evaluator: &dyn Evaluator, sweeps: &[SweepSpec]) -> Vec<SweepReport> {
        for spec in sweeps {
            assert!(
                evaluator.supports(&spec.scenario),
                "the {} backend does not support scenario {} (sweep {:?})",
                evaluator.name(),
                spec.scenario.label(),
                spec.id
            );
        }

        // A unit is either a rate sub-range of one sweep or a single
        // replicate of a single point.  Backends that chain state between
        // rates get whole sweeps; independent backends get one unit per
        // (point × replicate) when the replicate count is known up front,
        // and one unit per point otherwise (adaptive replication).
        enum Unit {
            /// `evaluate_sweep` over `rates[from..to]` of sweep `sweep`.
            Span { sweep: usize, from: usize, to: usize },
            /// Replicate `replicate` (of `total`) of rate `rate` of `sweep`.
            Replicate { sweep: usize, rate: usize, replicate: usize, total: usize },
        }
        let mut units: Vec<Unit> = Vec::new();
        for (si, spec) in sweeps.iter().enumerate() {
            if evaluator.chains_rates() {
                units.push(Unit::Span { sweep: si, from: 0, to: spec.rates.len() });
                continue;
            }
            for ri in 0..spec.rates.len() {
                match evaluator.fixed_replicates(&spec.scenario) {
                    Some(total) if total > 1 => {
                        units.extend((0..total).map(|replicate| Unit::Replicate {
                            sweep: si,
                            rate: ri,
                            replicate,
                            total,
                        }));
                    }
                    _ => units.push(Unit::Span { sweep: si, from: ri, to: ri + 1 }),
                }
            }
        }

        // the persistent pool computes every unit independently and returns
        // the results in unit order, byte-identical for any width (width 1
        // stays inline and never instantiates the pool)
        let by_unit: Vec<Vec<PointEstimate>> =
            ExecPool::global_ordered(self.threads, &units, |_, work| match *work {
                Unit::Span { sweep, from, to } => {
                    let spec = &sweeps[sweep];
                    evaluator.evaluate_sweep(&spec.scenario, &spec.rates[from..to])
                }
                Unit::Replicate { sweep, rate, replicate, .. } => {
                    let spec = &sweeps[sweep];
                    let point = spec.scenario.at(spec.rates[rate]);
                    vec![evaluator.evaluate_replicate(&point, replicate)]
                }
            });

        let mut reports: Vec<SweepReport> = sweeps
            .iter()
            .map(|s| SweepReport {
                id: s.id.clone(),
                scenario: s.scenario.clone(),
                estimates: Vec::with_capacity(s.rates.len()),
            })
            .collect();
        // units are ordered by (sweep, rate, replicate); replicates of
        // one point are contiguous, so folding each completed replicate
        // group in unit order restores rate order within each sweep and
        // makes the aggregation independent of which worker ran what
        let mut pending: Vec<PointEstimate> = Vec::new();
        for (work, mut estimates) in units.iter().zip(by_unit) {
            match *work {
                Unit::Span { sweep, .. } => reports[sweep].estimates.extend(estimates),
                Unit::Replicate { sweep, replicate, total, .. } => {
                    debug_assert_eq!(pending.len(), replicate);
                    pending.append(&mut estimates);
                    if pending.len() == total {
                        reports[sweep]
                            .estimates
                            .push(evaluator.aggregate(std::mem::take(&mut pending)));
                    }
                }
            }
        }
        debug_assert!(pending.is_empty(), "every replicate group must be folded");
        reports
    }

    /// Convenience wrapper for one sweep.
    ///
    /// # Panics
    /// As [`Self::run`].
    #[must_use]
    pub fn run_one(&self, evaluator: &dyn Evaluator, sweep: &SweepSpec) -> SweepReport {
        self.run(evaluator, std::slice::from_ref(sweep)).pop().expect("one spec in, one report out")
    }

    /// One backend pass of a possibly cross-process-sharded run: evaluates
    /// the shard's slice of `full` and returns reports aligned with the
    /// full sweep list (one report per sweep, estimates restricted to the
    /// shard's points).  `None` is a plain [`Self::run`].
    ///
    /// Granularity mirrors the in-process sharding rules, for the same
    /// reason — determinism:
    ///
    /// * an **independent** backend (the simulator; any
    ///   non-[`Evaluator::chains_rates`] evaluator) computes every point in
    ///   isolation, so the shard evaluates only the points it owns
    ///   ([`shard_sweeps`]) and skips the rest entirely — this is where
    ///   cross-process sharding actually divides the expensive work;
    /// * a **chaining** backend (the warm-started model) would compute
    ///   different warm-start chains if its rate grid were sliced, so the
    ///   shard recomputes the *full* pass — microseconds per point, the
    ///   model's whole selling point — and then keeps only its slice of the
    ///   rows.  Every shard therefore emits values from the identical full
    ///   chain, which is what makes merged output byte-identical to an
    ///   unsharded run.
    ///
    /// # Panics
    /// As [`Self::run`].
    #[must_use]
    pub fn run_pass(
        &self,
        evaluator: &dyn Evaluator,
        shard: Option<ShardSpec>,
        full: &[SweepSpec],
    ) -> Vec<SweepReport> {
        match shard {
            None => self.run(evaluator, full),
            Some(shard) if evaluator.chains_rates() => {
                let mut reports = self.run(evaluator, full);
                retain_shard(shard, &mut reports);
                reports
            }
            Some(shard) => self.run(evaluator, &shard_sweeps(shard, full)),
        }
    }
}

/// Drops every estimate a shard does not own from a pass computed over the
/// full sweep list (flat point indices, as in [`shard_sweeps`]).  Used for
/// chaining backends, which sharded runs recompute in full — see
/// [`SweepRunner::run_pass`].
pub fn retain_shard(shard: ShardSpec, reports: &mut [SweepReport]) {
    let mut flat = 0usize;
    for report in reports {
        report.estimates.retain(|_| {
            let keep = shard.owns(flat);
            flat += 1;
            keep
        });
    }
}

/// The index of each of a (possibly sharded) report's estimates in the full
/// rate grid it was sliced from — the row indices sharded CSV emission
/// needs.  Estimates must be an ordered subset of `full_rates`.
///
/// # Panics
/// Panics if an estimate's rate is not found in (the remainder of)
/// `full_rates`.
#[must_use]
pub fn rate_indices(full_rates: &[f64], report: &SweepReport) -> Vec<usize> {
    let mut cursor = 0usize;
    report
        .estimates
        .iter()
        .map(|estimate| {
            let index = full_rates[cursor..]
                .iter()
                .position(|&r| r == estimate.point.traffic_rate)
                .map(|p| cursor + p)
                .unwrap_or_else(|| {
                    panic!(
                        "estimate rate {} of sweep {:?} is not in the full rate grid",
                        estimate.point.traffic_rate, report.id
                    )
                });
            cursor = index + 1;
            index
        })
        .collect()
}

/// Restricts a run's sweeps to one cross-process shard: the flat sequence
/// of operating points (every rate of every sweep, in order) is sliced by
/// [`ShardSpec::owns`], so `N` processes running shards `1/N .. N/N` of the
/// same sweep list cover every point exactly once.
///
/// Sweeps keep their identity (id, scenario) even when a shard owns none of
/// their points — the reports stay aligned with the full sweep list, which
/// is what lets [`crate::report::ReportSink`] compute each row's index in
/// the unsharded CSV.
#[must_use]
pub fn shard_sweeps(shard: ShardSpec, sweeps: &[SweepSpec]) -> Vec<SweepSpec> {
    let mut flat = 0usize;
    sweeps
        .iter()
        .map(|spec| {
            let rates = spec
                .rates
                .iter()
                .copied()
                .filter(|_| {
                    let keep = shard.owns(flat);
                    flat += 1;
                    keep
                })
                .collect();
            SweepSpec { id: spec.id.clone(), scenario: spec.scenario.clone(), rates }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{ModelBackend, SimBackend};
    use crate::scenario::Discipline;
    use crate::SimBudget;

    fn model_sweeps() -> Vec<SweepSpec> {
        [6usize, 9]
            .iter()
            .map(|&v| {
                SweepSpec::new(
                    format!("v{v}"),
                    Scenario::star(4).with_message_length(16).with_virtual_channels(v),
                    vec![0.002, 0.006, 0.010],
                )
            })
            .collect()
    }

    #[test]
    fn reports_come_back_in_input_order_with_rates_in_order() {
        let runner = SweepRunner::with_threads(3);
        let reports = runner.run(&ModelBackend::new(), &model_sweeps());
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].id, "v6");
        assert_eq!(reports[1].id, "v9");
        for report in &reports {
            assert_eq!(report.rates(), vec![0.002, 0.006, 0.010]);
            assert_eq!(report.estimates.len(), report.latency_curve().len());
        }
    }

    #[test]
    fn thread_count_does_not_change_model_results() {
        let sweeps = model_sweeps();
        let one = SweepRunner::with_threads(1).run(&ModelBackend::new(), &sweeps);
        let many = SweepRunner::with_threads(4).run(&ModelBackend::new(), &sweeps);
        assert_eq!(one, many);
        assert_eq!(format!("{one:?}"), format!("{many:?}"));
    }

    #[test]
    fn thread_count_does_not_change_sim_results() {
        let sweep = SweepSpec::new(
            "s4",
            Scenario::star(4).with_message_length(16).with_seed_base(5),
            vec![0.003, 0.005],
        );
        let backend = SimBackend::new(SimBudget::Quick);
        let one = SweepRunner::with_threads(1).run_one(&backend, &sweep);
        let two = SweepRunner::with_threads(2).run_one(&backend, &sweep);
        assert_eq!(one, two);
    }

    #[test]
    fn replicates_shard_and_reaggregate_identically_for_any_thread_count() {
        // 2 points × 3 replicates = 6 independent work items; every thread
        // count must fold them back into the same two estimates the
        // sequential backend produces
        let scenario =
            Scenario::star(4).with_message_length(16).with_replicates(3).with_seed_base(17);
        let sweep = SweepSpec::new("s4r3", scenario.clone(), vec![0.003, 0.005]);
        let backend = SimBackend::new(SimBudget::Quick);
        let direct: Vec<_> =
            sweep.rates.iter().map(|&r| backend.evaluate(&scenario.at(r))).collect();
        for threads in [1usize, 2, 5] {
            let report = SweepRunner::with_threads(threads).run_one(&backend, &sweep);
            assert_eq!(report.estimates, direct, "threads = {threads}");
            assert!(report.estimates.iter().all(|e| e.replicates() == 3));
            assert!(report.estimates.iter().all(|e| e.latency_ci95() > 0.0));
        }
    }

    #[test]
    fn adaptive_replication_shards_at_point_granularity() {
        use crate::evaluator::CiTarget;
        let scenario =
            Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(23);
        let sweep = SweepSpec::new("adaptive", scenario, vec![0.003, 0.005]);
        let backend = SimBackend::new(SimBudget::Quick)
            .with_ci_target(CiTarget { relative: 0.5, max_replicates: 4 });
        let one = SweepRunner::with_threads(1).run_one(&backend, &sweep);
        let four = SweepRunner::with_threads(4).run_one(&backend, &sweep);
        assert_eq!(one, four);
        assert!(one.estimates.iter().all(|e| e.replicates() >= 2));
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(SweepRunner::new().threads() >= 1);
        assert_eq!(SweepRunner::with_threads(3).threads(), 3);
    }

    #[test]
    fn shard_sweeps_partition_the_flat_point_list() {
        let sweeps = model_sweeps(); // 2 sweeps × 3 rates = flat points 0..6
        let shards: Vec<Vec<SweepSpec>> = (1..=3)
            .map(|k| shard_sweeps(ShardSpec::parse(&format!("{k}/3")).unwrap(), &sweeps))
            .collect();
        // every shard keeps the sweep identities, even for unowned sweeps
        for sharded in &shards {
            assert_eq!(sharded.len(), 2);
            assert_eq!(sharded[0].id, "v6");
            assert_eq!(sharded[1].id, "v9");
        }
        // round-robin over flat indices: shard 1 owns 0 and 3, and so on
        assert_eq!(shards[0][0].rates, vec![0.002]);
        assert_eq!(shards[0][1].rates, vec![0.002]);
        assert_eq!(shards[1][0].rates, vec![0.006]);
        assert_eq!(shards[2][1].rates, vec![0.010]);
        // the union of the shards is the full point list, disjointly
        let total: usize = shards.iter().flat_map(|s| s.iter().map(|spec| spec.rates.len())).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn sharded_passes_reassemble_the_unsharded_reports() {
        // independent backend: each shard evaluates only its own points;
        // chaining backend: each shard recomputes the full warm chain and
        // keeps its slice — either way, stitching the three shards'
        // estimates back together by rate must reproduce the unsharded pass
        let runner = SweepRunner::with_threads(2);
        let sim_sweep = SweepSpec::new(
            "s4",
            Scenario::star(4).with_message_length(16).with_replicates(2).with_seed_base(5),
            vec![0.002, 0.003, 0.004, 0.005],
        );
        let backends: [(&dyn Evaluator, Vec<SweepSpec>); 2] = [
            (&SimBackend::new(crate::SimBudget::Quick), vec![sim_sweep]),
            (&ModelBackend::new(), model_sweeps()),
        ];
        for (evaluator, full) in backends {
            let unsharded = runner.run_pass(evaluator, None, &full);
            let mut stitched: Vec<Vec<Option<PointEstimate>>> =
                full.iter().map(|s| vec![None; s.rates.len()]).collect();
            for k in 1..=3 {
                let shard = ShardSpec::parse(&format!("{k}/3")).unwrap();
                let partial = runner.run_pass(evaluator, Some(shard), &full);
                for (si, report) in partial.iter().enumerate() {
                    let indices = rate_indices(&full[si].rates, report);
                    for (estimate, ri) in report.estimates.iter().zip(indices) {
                        assert!(stitched[si][ri].is_none(), "point owned twice");
                        stitched[si][ri] = Some(estimate.clone());
                    }
                }
            }
            for (report, slots) in unsharded.iter().zip(stitched) {
                let merged: Vec<PointEstimate> =
                    slots.into_iter().map(|s| s.expect("point never owned")).collect();
                assert_eq!(report.estimates, merged, "{} backend", evaluator.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in the full rate grid")]
    fn rate_indices_reject_foreign_rates() {
        let report = SweepRunner::with_threads(1).run_one(
            &ModelBackend::new(),
            &SweepSpec::new("v6", Scenario::star(4).with_message_length(16), vec![0.002, 0.006]),
        );
        let _ = rate_indices(&[0.002, 0.007], &report);
    }

    #[test]
    #[should_panic(expected = "does not support scenario")]
    fn unsupported_scenario_is_rejected_up_front() {
        let spec = SweepSpec::new(
            "det",
            Scenario::star(4).with_discipline(Discipline::Deterministic),
            vec![0.001],
        );
        let _ = SweepRunner::with_threads(1).run(&ModelBackend::new(), &[spec]);
    }
}
