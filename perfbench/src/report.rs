//! What one benchmark run reports: the answer tally, the end-to-end or
//! per-layer metrics, provenance, and the final JSON line.

use std::fmt::Write as _;

use crate::trace::{LayerReport, LAYER_METRICS};

/// End-to-end metric names and units, in report order. Every workload
/// reports all of them; what one "operation" is depends on the workload
/// (see `perfbench/NOTES.md`).
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
];

/// Answer tally: every operation is checked; none is retried.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a wrong answer, a non-2xx status, a
    /// transport error or a timeout.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The answer tally.
    pub tally: Tally,
    /// End-to-end metrics (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layers: Option<LayerReport>,
    /// Extra provenance fields, already JSON-encoded values.
    pub provenance: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a failure message (the first few are kept for the log).
    pub fn error(&mut self, message: String) {
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// The `p`-th percentile (0–100) of `samples` by nearest rank; 0 when
/// empty. Sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The benchmark process's own peak resident set, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    crate::net::peak_rss_mb("/proc/self/status").unwrap_or(0.0)
}

/// A 64-bit FNV-1a digest of the program's sources (`Cargo.lock`, every
/// `Cargo.toml` and `.rs` file under `crates/`): identifies the build in a
/// checkout that is not a git repository.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for byte in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The commit of the checkout when it is a git repository, else `null`.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| format!("\"{}\"", String::from_utf8_lossy(&o.stdout).trim()))
        .unwrap_or_else(|| "null".to_string())
}

/// Renders the provenance line.
pub fn provenance_json(common: &[(&'static str, String)], outcome: &Outcome) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in common.iter().chain(&outcome.provenance).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push('}');
    out
}

/// One `"name":{"value":…,"unit":…}` entry; the value keeps all its
/// digits (`NaN`/infinities become 0).
fn metric_json(name: &str, unit: &str, v: f64) -> String {
    let v = if v.is_finite() { v } else { 0.0 };
    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome, traced: bool) -> String {
    let mut metrics = Vec::new();
    if traced {
        let layers = outcome.layers.as_ref();
        for &(name, unit) in LAYER_METRICS {
            let v = layers.map_or(0.0, |l| l.get(name));
            metrics.push(metric_json(name, unit, v));
        }
    } else {
        for &(name, unit) in E2E_METRICS {
            let v = outcome
                .e2e
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push(metric_json(name, unit, v));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.failed == 0 && outcome.tally.attempted > 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 5.0);
        assert_eq!(percentile(&mut v, 90.0), 9.0);
        assert_eq!(percentile(&mut v, 100.0), 10.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
