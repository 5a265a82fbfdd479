//! Statistics collection for simulation output analysis.
//!
//! The simulator reports mean message latency, mean network latency and mean
//! source-queueing time with confidence intervals.  [`RunningStats`] is a
//! numerically stable (Welford) accumulator; [`BatchMeans`] implements the
//! classic batch-means method for steady-state output analysis;
//! [`ReplicateStats`] summarises independent replications of one experiment
//! (mean, sample standard deviation, Student-t 95% confidence interval);
//! [`Histogram`] records integer-valued samples (latencies in cycles) for
//! distribution plots.

/// Two-sided 95% Student-t quantile (`t_{0.975, df}`) for the given degrees
/// of freedom, from the standard table; degrees of freedom beyond the table
/// fall back to coarser rows and finally the normal quantile 1.96.
///
/// Replicate counts are small (a handful to a few dozen independent seeds),
/// exactly the regime where the normal approximation undercovers and the
/// t correction matters.
#[must_use]
pub fn student_t_975(degrees_of_freedom: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    // past the table, clamp df DOWN to the nearest coarser row (the
    // conventional, conservative reading: a slightly wider interval, never
    // a narrower one)
    match degrees_of_freedom {
        0 => f64::INFINITY,
        df @ 1..=30 => TABLE[df as usize - 1],
        31..=39 => TABLE[29],
        40..=59 => 2.021,
        60..=119 => 2.000,
        120..=239 => 1.980,
        _ => 1.960,
    }
}

/// Summary statistics over independent replications of one experiment: the
/// across-replicate mean, sample standard deviation and the Student-t 95%
/// confidence half-width of the mean.
///
/// This is the quantity every replicate-aware report carries per operating
/// point.  A single replicate (or a deterministic backend such as the
/// analytical model) yields a degenerate interval of zero width, which keeps
/// one report schema across backends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicateStats {
    /// Number of replicates summarised.
    pub replicates: u64,
    /// Across-replicate mean.
    pub mean: f64,
    /// Sample standard deviation across replicates (0 with fewer than two).
    pub std_dev: f64,
    /// Student-t 95% confidence half-width of the mean (0 with fewer than
    /// two replicates).
    pub ci95: f64,
}

impl Default for ReplicateStats {
    fn default() -> Self {
        Self::empty()
    }
}

impl ReplicateStats {
    /// The summary of zero replicates (all-zero fields; the shape saturated
    /// points report when no finite measurement exists).
    #[must_use]
    pub fn empty() -> Self {
        Self { replicates: 0, mean: 0.0, std_dev: 0.0, ci95: 0.0 }
    }

    /// The degenerate summary of a single observation: zero-width interval
    /// around the value.  Deterministic backends (the analytical model) use
    /// this so their reports share the replicate schema.
    #[must_use]
    pub fn degenerate(value: f64) -> Self {
        Self { replicates: 1, mean: value, std_dev: 0.0, ci95: 0.0 }
    }

    /// Summarises one finite sample per replicate.
    ///
    /// # Panics
    /// Panics if any sample is non-finite (saturated replicates must be
    /// filtered — and flagged — by the caller, so the interval stays
    /// meaningful and comparison-safe).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "replicate samples must be finite (filter saturated replicates first)"
        );
        if samples.is_empty() {
            return Self::empty();
        }
        let mut acc = RunningStats::new();
        for &s in samples {
            acc.push(s);
        }
        let std_dev = acc.std_dev();
        let ci95 = if samples.len() < 2 {
            0.0
        } else {
            student_t_975(samples.len() as u64 - 1) * acc.std_error()
        };
        Self { replicates: samples.len() as u64, mean: acc.mean(), std_dev, ci95 }
    }

    /// Relative 95% confidence half-width `ci95 / |mean|` (0 when the mean is
    /// zero) — the stopping criterion adaptive replication targets.
    #[must_use]
    pub fn relative_ci95(&self) -> f64 {
        if self.mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.ci95 / self.mean.abs()
        }
    }

    /// Formats the summary as `mean ± ci95` for tables.
    #[must_use]
    pub fn pretty(&self) -> String {
        format!("{:.1} ± {:.1}", self.mean, self.ci95)
    }
}

/// Numerically stable running mean/variance accumulator (Welford's method).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Self) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample seen (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (`-∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate 95% confidence half-width for the mean (normal
    /// approximation, `1.96 · SE`).
    #[must_use]
    pub fn confidence_95(&self) -> f64 {
        1.96 * self.std_error()
    }
}

/// Batch-means estimator for steady-state simulation output: samples are
/// grouped into fixed-size batches and the batch means are treated as
/// (approximately independent) observations.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_count: u64,
    batch_stats: RunningStats,
}

impl BatchMeans {
    /// Creates an estimator with the given batch size.
    ///
    /// # Panics
    /// Panics if `batch_size` is zero.
    #[must_use]
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        Self { batch_size, current_sum: 0.0, current_count: 0, batch_stats: RunningStats::new() }
    }

    /// Adds one raw sample.
    pub fn push(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batch_stats.push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Number of completed batches.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batch_stats.count()
    }

    /// Mean over completed batches.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.batch_stats.mean()
    }

    /// 95% confidence half-width over completed batches.
    #[must_use]
    pub fn confidence_95(&self) -> f64 {
        self.batch_stats.confidence_95()
    }

    /// Relative half-width of the 95% confidence interval (0 when the mean is
    /// zero); a common stopping criterion for steady-state simulations.
    #[must_use]
    pub fn relative_precision(&self) -> f64 {
        let mean = self.mean();
        if mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.confidence_95() / mean.abs()
        }
    }
}

/// Fixed-bin histogram over non-negative integer samples (e.g. message
/// latencies in cycles); samples beyond the last bin are clamped into it.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: u64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    #[must_use]
    pub fn new(bin_width: u64, bins: usize) -> Self {
        assert!(bin_width > 0 && bins > 0, "histogram dimensions must be positive");
        Self { bin_width, bins: vec![0; bins], total: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = ((value / self.bin_width) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Total number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts.
    #[must_use]
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// The value below which `quantile` (in `[0,1]`) of the samples fall,
    /// resolved to bin granularity.  Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, quantile: f64) -> u64 {
        assert!((0.0..=1.0).contains(&quantile), "quantile must be in [0,1]");
        if self.total == 0 {
            return 0;
        }
        let threshold = (quantile * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= threshold {
                return (i as u64 + 1) * self.bin_width;
            }
        }
        self.bins.len() as u64 * self.bin_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_known_values() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!(s.confidence_95() > 0.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..300] {
            a.push(x);
        }
        for &x in &data[300..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        // merging an empty accumulator is a no-op
        let before = a.mean();
        a.merge(&RunningStats::new());
        assert_eq!(a.mean(), before);
    }

    #[test]
    fn batch_means_reduces_to_sample_mean() {
        let mut bm = BatchMeans::new(10);
        for i in 0..100 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batches(), 10);
        assert!((bm.mean() - 49.5).abs() < 1e-12);
        assert!(bm.relative_precision() > 0.0);
    }

    #[test]
    fn batch_means_ignores_incomplete_batch() {
        let mut bm = BatchMeans::new(10);
        for i in 0..25 {
            bm.push(i as f64);
        }
        assert_eq!(bm.batches(), 2);
        assert!((bm.mean() - (4.5 + 14.5) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(10, 20);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(h.quantile(0.0), 10);
    }

    #[test]
    fn histogram_clamps_overflow() {
        let mut h = Histogram::new(10, 5);
        h.record(1_000_000);
        assert_eq!(h.bins()[4], 1);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_rejected() {
        let _ = BatchMeans::new(0);
    }

    #[test]
    fn student_t_table_decreases_toward_the_normal_quantile() {
        assert!(student_t_975(0).is_infinite());
        assert!((student_t_975(1) - 12.706).abs() < 1e-12);
        assert!((student_t_975(7) - 2.365).abs() < 1e-12);
        let mut last = f64::INFINITY;
        for df in 1..=300 {
            let t = student_t_975(df);
            assert!(t <= last, "t quantile must not increase with df");
            assert!(t >= 1.960);
            last = t;
        }
        assert!((student_t_975(10_000) - 1.960).abs() < 1e-12);
        // beyond the table, df clamps DOWN to the coarser row — the interval
        // may only widen, never narrow (e.g. df=31 uses the df=30 quantile,
        // which exceeds the true ≈2.040)
        assert_eq!(student_t_975(31), student_t_975(30));
        assert_eq!(student_t_975(59), 2.021);
        assert!(student_t_975(31) > 2.040);
    }

    #[test]
    fn replicate_stats_known_values() {
        // mean 5, sample stddev sqrt(32/7) over 8 observations
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = ReplicateStats::from_samples(&samples);
        assert_eq!(s.replicates, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        let expected_ci = student_t_975(7) * s.std_dev / (8.0f64).sqrt();
        assert!((s.ci95 - expected_ci).abs() < 1e-12);
        assert!((s.relative_ci95() - expected_ci / 5.0).abs() < 1e-12);
        assert!(s.pretty().contains('±'));
    }

    #[test]
    fn replicate_stats_degenerate_cases_have_zero_width() {
        let empty = ReplicateStats::from_samples(&[]);
        assert_eq!(empty, ReplicateStats::empty());
        assert_eq!(empty.relative_ci95(), 0.0);
        let one = ReplicateStats::from_samples(&[42.0]);
        assert_eq!(one, ReplicateStats::degenerate(42.0));
        assert_eq!(one.ci95, 0.0);
        assert_eq!(one.std_dev, 0.0);
        assert_eq!(ReplicateStats::default(), ReplicateStats::empty());
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn replicate_stats_reject_non_finite_samples() {
        let _ = ReplicateStats::from_samples(&[1.0, f64::INFINITY]);
    }

    mod prop {
        use super::*;
        use crate::sampling::seeded_rng;
        use rand::Rng;

        /// Deterministic stand-in for the former proptest vector strategy.
        fn random_vec(seed: u64, len: usize, scale: f64) -> Vec<f64> {
            let mut rng = seeded_rng(seed, 0xDA7A);
            (0..len).map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale).collect()
        }

        #[test]
        fn welford_matches_two_pass() {
            for seed in 0..32u64 {
                let len = 2 + (seed as usize * 13) % 198;
                let data = random_vec(seed, len, 1e6);
                let mut s = RunningStats::new();
                for &x in &data {
                    s.push(x);
                }
                let n = data.len() as f64;
                let mean: f64 = data.iter().sum::<f64>() / n;
                let var: f64 = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
                assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()), "seed {seed}");
                assert!((s.variance() - var).abs() < 1e-5 * (1.0 + var.abs()), "seed {seed}");
            }
        }

        #[test]
        fn merge_is_associative_enough() {
            for seed in 0..32u64 {
                let a = random_vec(seed * 2 + 1, 1 + (seed as usize * 7) % 99, 1e3);
                let b = random_vec(seed * 2 + 2, 1 + (seed as usize * 11) % 99, 1e3);
                let mut ra = RunningStats::new();
                for &x in &a {
                    ra.push(x);
                }
                let mut rb = RunningStats::new();
                for &x in &b {
                    rb.push(x);
                }
                let mut merged = ra.clone();
                merged.merge(&rb);
                let mut all = RunningStats::new();
                for &x in a.iter().chain(b.iter()) {
                    all.push(x);
                }
                assert_eq!(merged.count(), all.count());
                assert!(
                    (merged.mean() - all.mean()).abs() < 1e-7 * (1.0 + all.mean().abs()),
                    "seed {seed}"
                );
            }
        }
    }
}
