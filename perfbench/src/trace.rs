//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer: name, start, end and the parent span that caused it.  They
//! stay in memory until the pass ends; [`Tracer::summary`] derives each
//! name's total and self time (duration minus the part of its interval
//! covered by child spans) and [`Tracer::to_json`] writes them all out.
//! A disabled tracer records nothing and hands out span id 0, so the
//! untraced run executes the same code without the bookkeeping.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// A fresh span id (0 when tracing is off), taken before the span's
    /// children start so they can name it as their parent.
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span { id, parent, name, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a new span and returns its result with the elapsed
    /// seconds, which callers use as a measurement whether or not tracing
    /// is on.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, parent, name, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Count, total and self time per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter() {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans.iter() {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let entry = out.entry(s.name).or_default();
            entry.count += 1;
            entry.total_ms += duration as f64 / 1e6;
            entry.self_ms += duration.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// Every span as one JSON array, `[id, parent, name, start_ns, end_ns]`
    /// per element, times relative to the tracer's creation.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| format!("[{},{},\"{}\",{},{}]", s.id, s.parent, s.name, s.start_ns, s.end_ns))
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`; children run
/// on several threads, so they may overlap each other.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_are_counted_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 45), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children_and_disabled_tracers_record_nothing() {
        let tracer = Tracer::new(true);
        tracer.time("outer", 0, |outer| {
            tracer.time("inner", outer, |_| std::thread::sleep(std::time::Duration::from_millis(5)))
        });
        let summary = tracer.summary();
        assert_eq!(summary["outer"].count, 1);
        assert!(summary["outer"].self_ms < summary["inner"].total_ms);
        let off = Tracer::new(false);
        off.time("outer", 0, |id| assert_eq!(id, 0));
        assert_eq!(off.span_count(), 0);
    }
}
