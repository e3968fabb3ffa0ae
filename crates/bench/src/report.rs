//! The shared machine-readable schema for every `BENCH_*.json` artifact.
//!
//! All benchmark binaries (`session_bench`, `batch_bench`, `pool_bench`)
//! emit the same shape, so CI and ad-hoc tooling parse one format:
//!
//! ```json
//! {
//!   "schema": "sdfr-bench/1",
//!   "benchmark": "pool",
//!   "suite": "table1",
//!   "unit": "ns",
//!   "host_cores": 2,
//!   "cases": [
//!     {"name": "wireless@4t", "threads": 4, "cold_ns": 812345,
//!      "warm_ns": 231234, "speedup": 3.5}
//!   ]
//! }
//! ```
//!
//! Per case, `cold_ns` is the baseline configuration (fresh sessions,
//! one thread, …) and `warm_ns` the optimized one (shared registry, `N`
//! threads, …); `speedup` is always `cold_ns / warm_ns`. `threads` is the
//! worker count the *warm* configuration ran with — 1 for benchmarks whose
//! axis is caching rather than parallelism. Benchmark-specific extras
//! (skipped sweeps, duplicate counts) ride along as additional keys
//! without breaking `schema`-aware consumers. `host_cores` is the
//! measuring host's available parallelism, so a speedup can be read
//! against the cores that produced it.

use std::fmt::Write as _;
use std::time::Duration;

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "sdfr-bench/1";

/// One measured configuration of one case.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case name, unique within the report.
    pub name: String,
    /// Worker threads of the warm (optimized) configuration.
    pub threads: usize,
    /// Baseline wall time.
    pub cold: Duration,
    /// Optimized wall time.
    pub warm: Duration,
    /// Extra keys as `(key, raw JSON value)` pairs, appended verbatim.
    pub extra: Vec<(String, String)>,
}

impl BenchCase {
    /// `cold / warm`, the figure the gating thresholds compare against.
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }
}

/// A case the benchmark intended to measure but did not — recorded with
/// its reason so a skip is never silent (and can be enforced against a
/// gate's expected-case list, see [`BenchReport::missing_cases`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCase {
    /// The case that was not measured.
    pub name: String,
    /// Why it was skipped (filter, host limitation, infeasible input, …).
    pub reason: String,
}

impl SkippedCase {
    /// Builds a skip record.
    pub fn new(name: impl Into<String>, reason: impl Into<String>) -> Self {
        SkippedCase {
            name: name.into(),
            reason: reason.into(),
        }
    }
}

/// A full `BENCH_*.json` report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark name (`session`, `batch`, `pool`).
    pub benchmark: &'static str,
    /// Input suite the cases come from.
    pub suite: &'static str,
    /// Measured cases.
    pub cases: Vec<BenchCase>,
    /// Cases that were *not* measured, each with the reason why. Rendered
    /// into the JSON artifact — consumers (and the gates) see exactly what
    /// a run covered and what it dropped.
    pub skipped: Vec<SkippedCase>,
}

impl BenchReport {
    /// Renders the report in the shared schema.
    pub fn to_json(&self) -> String {
        let mut json = format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"benchmark\": \"{}\",\n  \
             \"suite\": \"{}\",\n  \"unit\": \"ns\",\n  \"host_cores\": {},\n  \
             \"cases\": [\n",
            self.benchmark,
            self.suite,
            host_cores()
        );
        for (i, c) in self.cases.iter().enumerate() {
            let _ = write!(
                json,
                "    {{\"name\": \"{}\", \"threads\": {}, \"cold_ns\": {}, \
                 \"warm_ns\": {}, \"speedup\": {:.2}",
                c.name,
                c.threads,
                c.cold.as_nanos(),
                c.warm.as_nanos(),
                c.speedup(),
            );
            for (key, value) in &c.extra {
                let _ = write!(json, ", \"{key}\": {value}");
            }
            json.push('}');
            json.push_str(if i + 1 < self.cases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        if self.skipped.is_empty() {
            json.push_str("  ],\n  \"skipped\": []\n}\n");
        } else {
            json.push_str("  ],\n  \"skipped\": [\n");
            for (i, s) in self.skipped.iter().enumerate() {
                let _ = write!(
                    json,
                    "    {{\"name\": \"{}\", \"reason\": \"{}\"}}",
                    s.name, s.reason
                );
                json.push_str(if i + 1 < self.skipped.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            json.push_str("  ]\n}\n");
        }
        json
    }

    /// Writes `BENCH_<benchmark>.json` into the current directory (run the
    /// bench binaries from the repository root).
    pub fn write(&self) -> std::io::Result<String> {
        let path = format!("BENCH_{}.json", self.benchmark);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// The smallest per-case speedup, or `+inf` for an empty report.
    pub fn min_speedup(&self) -> f64 {
        self.cases
            .iter()
            .map(BenchCase::speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// The `expected` case names that this run neither measured nor
    /// recorded a skip for — i.e. the *silent* skips. A gated benchmark
    /// must return an empty list here (see [`BenchReport::enforce_coverage`]).
    pub fn missing_cases(&self, expected: &[String]) -> Vec<String> {
        expected
            .iter()
            .filter(|name| {
                !self.cases.iter().any(|c| &&c.name == name)
                    && !self.skipped.iter().any(|s| &&s.name == name)
            })
            .cloned()
            .collect()
    }

    /// Gate helper: verifies every `expected` case was either measured or
    /// loudly skipped (with a reason in [`BenchReport::skipped`]), and
    /// aborts the benchmark (exit 1) listing any silent skip. Call after
    /// assembling the report, before evaluating speedup gates — a gate
    /// that never ran its case must fail, not pass by omission.
    pub fn enforce_coverage(&self, expected: &[String]) {
        let missing = self.missing_cases(expected);
        if !missing.is_empty() {
            eprintln!(
                "BENCH_{}.json: case(s) silently skipped — neither measured nor \
                 recorded in \"skipped\" with a reason: {}",
                self.benchmark,
                missing.join(", ")
            );
            std::process::exit(1);
        }
    }
}

/// The host's available parallelism (1 when it cannot be determined).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads a gating threshold from the environment, falling back to
/// `default` when unset or empty. Malformed values abort the benchmark
/// (exit 2) rather than silently gating at the wrong bar.
pub fn threshold_from_env(var: &str, default: f64) -> f64 {
    match std::env::var(var) {
        Ok(raw) if !raw.trim().is_empty() => raw.trim().parse().unwrap_or_else(|_| {
            eprintln!("{var} must be a number, got '{raw}'");
            std::process::exit(2);
        }),
        _ => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_the_shared_schema() {
        let report = BenchReport {
            benchmark: "pool",
            suite: "table1",
            cases: vec![
                BenchCase {
                    name: "pareto@4t".into(),
                    threads: 4,
                    cold: Duration::from_nanos(4000),
                    warm: Duration::from_nanos(1000),
                    extra: vec![("skipped".into(), "2".into())],
                },
                BenchCase {
                    name: "pareto@8t".into(),
                    threads: 8,
                    cold: Duration::from_nanos(4000),
                    warm: Duration::from_nanos(2000),
                    extra: vec![],
                },
            ],
            skipped: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"sdfr-bench/1\""));
        assert!(json.contains("\"benchmark\": \"pool\""));
        assert!(json.contains("\"suite\": \"table1\""));
        assert!(json.contains("\"unit\": \"ns\""));
        assert!(json.contains(&format!("\"host_cores\": {},", host_cores())));
        assert!(json.contains(
            "{\"name\": \"pareto@4t\", \"threads\": 4, \"cold_ns\": 4000, \
             \"warm_ns\": 1000, \"speedup\": 4.00, \"skipped\": 2}"
        ));
        assert!(json.contains("\"skipped\": []"));
        assert!((report.min_speedup() - 2.0).abs() < 1e-9);
        // Exactly one trailing comma between the two cases.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn skips_are_recorded_with_reasons_and_missing_cases_detected() {
        let report = BenchReport {
            benchmark: "kernel",
            suite: "table1",
            cases: vec![BenchCase {
                name: "modem".into(),
                threads: 1,
                cold: Duration::from_nanos(300),
                warm: Duration::from_nanos(100),
                extra: vec![],
            }],
            skipped: vec![SkippedCase::new(
                "satellite",
                "gamma above limit (4515 > 700)",
            )],
        };
        let json = report.to_json();
        assert!(json.contains(
            "\"skipped\": [\n    {\"name\": \"satellite\", \
             \"reason\": \"gamma above limit (4515 > 700)\"}\n  ]"
        ));
        let expected: Vec<String> = ["modem", "satellite", "mp3 playback"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Measured and loudly-skipped cases are covered; the third is a
        // silent skip the gate must reject.
        assert_eq!(report.missing_cases(&expected), vec!["mp3 playback"]);
        assert!(report.missing_cases(&expected[..2]).is_empty());
    }

    #[test]
    fn threshold_env_fallback() {
        assert_eq!(
            threshold_from_env("SDFR_TEST_THRESHOLD_UNSET_VAR", 2.5),
            2.5
        );
    }
}
