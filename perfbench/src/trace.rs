//! An in-memory span recorder and the per-layer report built from it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself is not instrumented). A
//! span has a name, a start and an end (nanoseconds since the tracer was
//! created), the index of the span that caused it, and a request id shared
//! by every span of one operation. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary (a per-layer metric name without its unit).
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start: u64,
    /// End, ns since the tracer epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The operation (call or request) the span belongs to.
    pub request: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// An empty recorder with a given epoch, for spans built from
    /// timestamps taken before the recorder existed.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the epoch for `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, index: u32) {
        let end = self.ns(Instant::now());
        self.spans[index as usize].end = end;
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, Some(parent), request, start, end);
        out
    }

    /// The duration of span `index`, in ns.
    pub fn duration(&self, index: u32) -> u64 {
        let s = &self.spans[index as usize];
        s.end.saturating_sub(s.start)
    }

    /// Time covered by the direct children of `index`, in ns (children
    /// are recorded after their parent and do not overlap).
    pub fn children_time(&self, index: u32) -> u64 {
        self.spans[index as usize + 1..]
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// The duration of the most recent span named `name`, in ns (0 when
    /// there is none).
    pub fn last_named(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, |s| s.end.saturating_sub(s.start))
    }

    /// Every span's self time: its duration minus the part of its interval
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.end.saturating_sub(s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time (ns) and span count per name.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    /// Writes the first `limit` spans, one JSON line each.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_jsonl(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }

    /// Number of recorded spans.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }
}

/// Per-layer metric names and units, in report order (`BENCHMARK.json`
/// lists the same names with their directions). Every traced run prints
/// all of them; a layer the workload never calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("io.parse_us", "us"),
    ("analysis.registry.lookup_us", "us"),
    ("graph.repetition_us", "us"),
    ("graph.schedule_us", "us"),
    ("analysis.engine.symbolic_us", "us"),
    ("maxplus.eigen_us", "us"),
    ("core.degrade_us", "us"),
    ("csdf.symbolic_us", "us"),
    ("csdf.hsdf_us", "us"),
    ("sadf.analyze_us", "us"),
    ("api.request_parse_us", "us"),
    ("api.record_us", "us"),
    ("cli.http.parse_us", "us"),
    ("cli.unattributed_us", "us"),
    ("net.connect_us", "us"),
    ("net.ttfb_us", "us"),
    ("net.body_us", "us"),
    ("serve.wait_us", "us"),
    ("analysis.buffer.tradeoff_us", "us"),
    ("pool.fanout_speedup", "x"),
    ("engine.firings", "count"),
    ("engine.tokens", "count"),
    ("registry.hits", "count"),
    ("registry.misses", "count"),
    ("registry.evictions", "count"),
    ("registry.hit_ratio", "ratio"),
    ("connections.reused_ratio", "ratio"),
    ("journal.appended", "count"),
    ("journal.compactions", "count"),
    ("pool.executed", "count"),
    ("pool.stolen", "count"),
    ("gen.late_ms_p90", "ms"),
    ("trace.overhead_us", "us"),
];

/// The span name behind a per-layer time metric (`io.parse_us` is the
/// self time of `io.parse` spans).
pub fn span_name(metric: &str) -> Option<&str> {
    metric.strip_suffix("_us")
}

/// The per-layer report of one traced run: per-op self time of each layer,
/// its share of the end-to-end time, its span count, and the counters.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// `(metric, value)`; missing metrics are reported as 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Span counts per span name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Share of end-to-end time per span name.
    pub shares: BTreeMap<&'static str, f64>,
}

impl LayerReport {
    /// Folds a tracer's spans into per-op self times: `ops` operations
    /// whose untraced end-to-end time summed to `e2e_ns`.
    pub fn from_tracer(tracer: &Tracer, ops: u64, e2e_ns: f64) -> LayerReport {
        let mut report = LayerReport::default();
        let by_name = tracer.by_name();
        for &(metric, _) in LAYER_METRICS {
            let Some(span) = span_name(metric) else {
                continue;
            };
            if let Some(&(self_ns, count)) = by_name.get(span) {
                report
                    .values
                    .insert(metric, self_ns as f64 / 1e3 / ops.max(1) as f64);
                report.counts.insert(metric, count);
                if e2e_ns > 0.0 {
                    report.shares.insert(metric, self_ns as f64 / e2e_ns);
                }
            }
        }
        report
    }

    /// Sets a metric directly (counters, ratios, derived times).
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// A metric's value, 0 when the workload never touched it.
    pub fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(0.0)
    }

    /// The human-readable per-layer table.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!(
            "per-layer ({workload}):\n  {:<30} {:>14} {:>9} {:>9}\n",
            "metric", "value", "share", "spans"
        );
        for &(metric, unit) in LAYER_METRICS {
            let share = self
                .shares
                .get(metric)
                .map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            let spans = self
                .counts
                .get(metric)
                .map_or("-".to_string(), |c| c.to_string());
            out.push_str(&format!(
                "  {metric:<30} {:>10.3} {unit:<3} {share:>9} {spans:>9}\n",
                self.get(metric)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, 1, at(0), at(10));
        t.record("a", Some(root), 1, at(1), at(4));
        t.record("b", Some(root), 1, at(3), at(6));
        let selfs = t.self_times();
        assert_eq!(selfs[root as usize], 5_000_000);
        assert_eq!(selfs[1], 3_000_000);
    }
}
