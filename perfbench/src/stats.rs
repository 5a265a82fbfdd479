//! Small numeric helpers: quantiles, peak memory, a seeded generator, and
//! the pool fan-out that every workload measures its batches through.

use std::time::{Duration, Instant};

use star_exec::ExecPool;

use crate::trace::Tracer;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics (the "type 7" rule of R and numpy).  `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB, or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// SplitMix64: the benchmark's only source of generated inputs, so a seed
/// names one input stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A uniform sample of at most `capacity` offered items, chosen by a
/// seeded generator (reservoir sampling).  The buffer is filled with
/// `filler` and emptied when made, so its pages are resident from the
/// start and filling it later does not move the process's peak RSS.
/// `filler` must not be all zero bytes: a zeroed buffer may be handed out
/// as untouched pages.
#[derive(Debug)]
pub struct Reservoir<T> {
    items: Vec<T>,
    capacity: usize,
    seen: u64,
    rng: Rng,
}

impl<T: Clone> Reservoir<T> {
    pub fn new(capacity: usize, filler: T, rng: Rng) -> Self {
        let mut items = vec![filler; capacity];
        items.clear();
        Self { items, capacity, seen: 0, rng }
    }

    pub fn offer(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            let slot = self.rng.next_u64() % (self.seen + 1);
            if let Some(kept) = self.items.get_mut(slot as usize) {
                *kept = item;
            }
        }
        self.seen += 1;
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Number of executors a batch may use: the CPUs the process may run on,
/// capped at two.  The process pins itself to one CPU when it starts
/// ([`crate::speed::pin_to_current_cpu`]), so this is 1 wherever pinning
/// works.
pub fn width() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What the pool did over every batch of a pass.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Submit-to-start wait of every item, microseconds.
    pub waits_us: Vec<f64>,
    /// Summed item run time.
    pub busy: Duration,
    /// Summed `width × batch wall`.
    pub capacity: Duration,
}

impl ExecStats {
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("exec.queue_wait_us", median(&self.waits_us)),
            ("exec.busy_ratio", self.busy.as_secs_f64() / self.capacity.as_secs_f64()),
        ]
    }
}

/// Runs `f` over `items` as one ordered pool batch of [`width`] executors,
/// recording an `exec.batch` span with one `exec.item` child per item and
/// adding the batch's waits and busy time to `stats`.  `f` receives the
/// item and its span id, so it can parent its own spans.
pub fn fan<I, T, F>(
    pool: &ExecPool,
    items: &[I],
    tracer: &Tracer,
    parent: u64,
    stats: &mut ExecStats,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I, u64) -> T + Sync,
{
    let width = width();
    let batch = tracer.id();
    let submitted = Instant::now();
    let out = pool.run_ordered(width, items, |_, item| {
        let id = tracer.id();
        let start = Instant::now();
        let result = f(item, id);
        let end = Instant::now();
        tracer.record(id, batch, "exec.item", start, end);
        (result, start, end)
    });
    let finished = Instant::now();
    tracer.record(batch, parent, "exec.batch", submitted, finished);
    stats.capacity += (finished - submitted) * width as u32;
    out.into_iter()
        .map(|(result, start, end)| {
            stats.waits_us.push((start - submitted).as_secs_f64() * 1e6);
            stats.busy += end - start;
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn reservoirs_keep_everything_until_full_then_a_fixed_size_sample() {
        let mut sample = Reservoir::new(4, u64::MAX, Rng::new(1));
        (0..3).for_each(|i| sample.offer(i));
        assert_eq!(sample.items(), &[0, 1, 2]);
        (3..1000).for_each(|i| sample.offer(i));
        assert_eq!((sample.items().len(), sample.seen()), (4, 1000));
        assert!(sample.items().iter().any(|&i| i >= 4), "later items get sampled");
    }
}
