//! The `sdfr batch` subcommand: many graphs (or one graph at many budget
//! tiers) per invocation, analysed through a shared [`SessionRegistry`].
//! A `--tiers` ladder is incremental for free: every tier of a file shares
//! the graph fingerprint, so when a starved tier leaves a partial engine
//! checkpoint behind, the registry's near-hit path seeds the next tier's
//! session from it and only the unexecuted firing suffix runs.
//!
//! Each unit of work — one `(file, tier)` pair — is analysed with the PR 1
//! degradation semantics of `sdfr analyze` and reported as **one JSON line**
//! (JSON-lines output, one object per unit, streamed as results land). The
//! records are the [`sdfr_api::UnitRecord`]s of the `sdfr-api/1` wire
//! schema — the same type `sdfr analyze --json` prints and `sdfr serve`
//! returns over HTTP — and the trailing summary is an
//! [`sdfr_api::BatchSummary`] folding outcome counts, per-exit-code counts
//! and registry statistics.
//!
//! # Ordering
//!
//! By default, units fan out as one task each over a dedicated
//! [work-stealing pool](sdfr_pool::Pool) and lines are emitted in
//! *completion* order. Each unit's analysis runs serially inside its task:
//! parallelism is across units, never inside one. `--stable` switches to
//! sequential in-index-order processing, which makes the full output —
//! including per-unit cache attribution (which duplicate is the miss and
//! which are hits) — deterministic. Use it for scripting and golden tests;
//! the parallel path produces the same analysis results (the registry
//! serves every duplicate from one session either way), only line order and
//! hit/miss attribution vary. A one-thread pool (`--threads 1` or
//! `SDFR_THREADS=1`) executes tasks caller-driven in submission order, so
//! its streamed output is byte-identical to `--stable` — CI diffs the two.
//!
//! Worker-count precedence: `--threads T` beats the `SDFR_THREADS`
//! environment variable, which beats available parallelism. Zero or
//! non-numeric values of either are usage errors (exit 2).
//!
//! # Exit-code discipline
//!
//! Per unit, the PR 1 rules apply: an exact answer *and* a
//! degraded-but-safe answer both count as success (code 0); invalid graphs
//! are 1, unreadable files are 3, exhaustion without a safe fallback is 4.
//! The batch process exits with the numerically largest per-unit code;
//! every unit's code is surfaced in its own record (`"exit"`, so consumers
//! never re-derive it from `"status"`), and the summary's `"exits"` object
//! counts units per code.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use sdfr_analysis::registry::{Lookup, RegistryConfig, SessionRegistry};
use sdfr_analysis::AnalysisSession;
use sdfr_api::{BatchSummary, UnitRecord, UnitStatus};
use sdfr_core::degrade::{analyze_with_session, conservative_period_fallback, AnalysisOutcome};
use sdfr_graph::budget::{Budget, BudgetResource};
use sdfr_graph::{SdfError, SdfGraph};

use crate::{CliError, CliErrorKind, EXIT_EXHAUSTED, EXIT_INVALID, EXIT_IO, EXIT_OK, EXIT_USAGE};

/// Parsed options of one `sdfr batch` invocation.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Graph files, in command-line order.
    pub files: Vec<String>,
    /// `--max-firings` tiers; each file is analysed once per tier. Empty
    /// means one unit per file under the base budget alone.
    pub tiers: Vec<u64>,
    /// Worker threads. `0` means "resolve at run time" (the validated
    /// `SDFR_THREADS` value if set, else available parallelism); the
    /// parser never produces 0 from an explicit `--threads` flag, which
    /// must be a positive integer. Capped by the number of units. Ignored
    /// under `--stable`, which is sequential.
    pub threads: usize,
    /// Deterministic sequential mode (`--stable`).
    pub stable: bool,
    /// Registry capacity limits (`--cache-entries`, `--cache-bytes`).
    pub registry: RegistryConfig,
    /// Base budget from the global `--deadline`/`--max-firings`/`--max-size`
    /// options; tiers override the firing cap per unit.
    pub budget: Budget,
}

/// The complete result of one batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// One JSON object per unit, in emission order (index order under
    /// `--stable`, completion order otherwise).
    pub lines: Vec<String>,
    /// The trailing JSON summary object.
    pub summary: String,
    /// The batch exit code: the largest per-unit code.
    pub exit_code: i32,
}

impl BatchReport {
    /// The full JSON-lines report: every unit line, then the summary.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.summary);
        out.push('\n');
        out
    }
}

/// One `(file, tier)` work unit.
#[derive(Debug, Clone)]
struct Unit {
    index: usize,
    file: String,
    tier: Option<u64>,
}

/// One analysed unit: the `sdfr-api/1` record plus the library-level
/// outcome (None for error units), for aggregation.
#[derive(Debug)]
pub(crate) struct AnalyzedUnit {
    /// The wire record; `record.exit` carries the unit's exit code.
    pub record: UnitRecord,
    /// The outcome behind the record, when the analysis produced one.
    pub outcome: Option<AnalysisOutcome>,
    /// The registry session the unit ran against (None when the graph
    /// itself failed to parse); the server's cache journal exports warmed
    /// artifacts from it.
    pub session: Option<Arc<AnalysisSession>>,
    /// How the registry answered the lookup, for the same consumer.
    pub lookup: Option<Lookup>,
    /// For scenario-aware units: the per-scenario registry sessions (and
    /// their lookups), scenario declaration order. The server's journal
    /// persists each warmed scenario session individually — the unit has
    /// no single graph of its own to persist.
    pub scenario_sessions: Vec<(Arc<AnalysisSession>, Lookup)>,
}

/// Parses `sdfr batch` arguments (everything after the command word).
///
/// # Errors
///
/// [`CliErrorKind::Usage`] for unknown flags, malformed values, or an empty
/// file list.
pub fn parse_batch_args(args: &[String]) -> Result<BatchOptions, CliError> {
    let mut files = Vec::new();
    let mut tiers = Vec::new();
    let mut threads = 0usize;
    let mut stable = false;
    let mut registry = RegistryConfig::default();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, CliError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("{flag} requires a value")))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--stable" => stable = true,
            "--tiers" => {
                let raw = value(args, i, "--tiers")?;
                for part in raw.split(',') {
                    let n: u64 = part.trim().parse().map_err(|_| {
                        CliError::usage(format!("--tiers: '{part}' is not a number"))
                    })?;
                    tiers.push(n);
                }
                i += 1;
            }
            "--threads" => {
                let raw = value(args, i, "--threads")?;
                threads = raw.parse().map_err(|_| {
                    CliError::usage(format!("--threads must be a positive integer, got '{raw}'"))
                })?;
                if threads == 0 {
                    return Err(CliError::usage(format!(
                        "--threads must be a positive integer, got '{raw}'"
                    )));
                }
                i += 1;
            }
            "--cache-entries" => {
                registry.max_entries = value(args, i, "--cache-entries")?
                    .parse()
                    .map_err(|_| CliError::usage("--cache-entries: expected a number"))?;
                i += 1;
            }
            "--cache-bytes" => {
                registry.max_bytes = value(args, i, "--cache-bytes")?
                    .parse()
                    .map_err(|_| CliError::usage("--cache-bytes: expected a number"))?;
                i += 1;
            }
            // Global budget flags are parsed by the caller; skip their value.
            "--deadline" | "--max-firings" | "--max-size" => i += 1,
            _ if arg.starts_with('-') => {
                return Err(CliError::usage(format!("batch: unknown option '{arg}'")));
            }
            _ => files.push(arg.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(CliError::usage(
            "batch: at least one <file> is required\n\n\
             usage: sdfr batch <file>... [--tiers N,N,...] [--threads T] [--stable]\n\
             \x20      [--cache-entries N] [--cache-bytes N]\n\
             \x20      [--deadline D] [--max-firings N] [--max-size N]",
        ));
    }
    if threads == 0 {
        // No --threads flag: fall back to SDFR_THREADS, rejecting garbage
        // (a silently ignored typo would change parallelism, and with it
        // the determinism guarantees CI relies on).
        threads = sdfr_pool::env_threads()
            .map_err(|e| CliError::usage(e.to_string()))?
            .map_or(0, |n| n.get());
    }
    Ok(BatchOptions {
        files,
        tiers,
        threads,
        stable,
        registry,
        budget: crate::budget_from_opts(args)?,
    })
}

/// Runs a batch: fans units out over the registry-backed worker pool (or
/// sequentially under `--stable`) and calls `emit` with each JSON line as
/// it lands. The returned report repeats all lines plus the summary.
pub fn run_batch(opts: &BatchOptions, emit: &(dyn Fn(&str) + Sync)) -> BatchReport {
    let units: Vec<Unit> = opts
        .files
        .iter()
        .flat_map(|f| {
            if opts.tiers.is_empty() {
                vec![(f.clone(), None)]
            } else {
                opts.tiers.iter().map(|&t| (f.clone(), Some(t))).collect()
            }
        })
        .enumerate()
        .map(|(index, (file, tier))| Unit { index, file, tier })
        .collect();

    let registry = SessionRegistry::with_config(opts.registry);
    let mut results: Vec<Option<(String, AnalyzedUnit)>> = Vec::with_capacity(units.len());
    results.resize_with(units.len(), || None);

    let analyze_one = |unit: &Unit| -> (String, AnalyzedUnit) {
        // `.sadf` files are scenario-aware workloads, not single graphs;
        // they get the workload analysis path and a kind-tagged record,
        // so flat mixed batches keep working with no new flags.
        let analyzed = if unit.file.ends_with(".sadf") {
            analyze_sadf_source(
                Some((unit.index, unit.tier)),
                &unit.file,
                read_sadf(&unit.file),
                &registry,
                &opts.budget,
            )
        } else {
            analyze_source(
                Some((unit.index, unit.tier)),
                &unit.file,
                crate::load_graph(&unit.file).map(Arc::new),
                &registry,
                &opts.budget,
                None,
            )
        };
        (analyzed.record.to_json_line(), analyzed)
    };

    if opts.stable {
        for unit in &units {
            let r = analyze_one(unit);
            emit(&r.0);
            results[unit.index] = Some(r);
        }
    } else {
        let threads = if opts.threads > 0 {
            opts.threads
        } else {
            sdfr_pool::default_threads()
        }
        .clamp(1, units.len().max(1));
        // A dedicated pool honors the requested width exactly. Units are
        // the only level of parallelism: a unit's analysis runs serially on
        // the worker that picked it up. With one thread the scope caller
        // drains the queue in submission order, making the streamed lines —
        // and the hit/miss attribution — identical to `--stable`.
        let pool = sdfr_pool::Pool::new(threads);
        // Units are chunked by the tier/budget cost estimate: ladders of
        // cheap low-cap tiers batch into one task (which also walks a
        // file's consecutive tiers on one worker, feeding the registry's
        // incremental near-hit path), while uncapped units stay one per
        // task. A chunk emits its units in ascending index order, so with
        // one thread the stream remains byte-identical to `--stable`
        // whatever the chunk size.
        let chunk = unit_chunk(&units, &opts.budget, &pool);
        let slots = Mutex::new(&mut results);
        pool.scope(|s| {
            for chunk_units in units.chunks(chunk) {
                let analyze_one = &analyze_one;
                let slots = &slots;
                s.spawn(move |_| {
                    for unit in chunk_units {
                        let r = analyze_one(unit);
                        emit(&r.0);
                        slots.lock().expect("batch results mutex poisoned")[unit.index] = Some(r);
                    }
                });
            }
        });
    }

    let (summary, exit_code) = summarize(
        results.iter().flatten().map(|(_, analyzed)| analyzed),
        registry.stats(),
    );
    let lines = results
        .into_iter()
        .flatten()
        .map(|(line, _)| line)
        .collect();
    BatchReport {
        lines,
        summary: summary.to_json_line(),
        exit_code,
    }
}

/// How many budgeted firings one batch task should amortize its dispatch
/// overhead over.
const UNIT_CHUNK_COST: u64 = 65_536;

/// Chunk size for fanning batch units out: the worst-case unit cost is
/// estimated from the firing caps the [`Budget`] will charge (a unit's
/// tier, else the base cap). Cheap capped units batch together until a
/// task carries roughly [`UNIT_CHUNK_COST`] firings; any uncapped unit
/// keeps the whole batch at one unit per task. The pool's load-balancing
/// bound caps the batch so every worker still gets tasks to steal.
fn unit_chunk(units: &[Unit], base: &Budget, pool: &sdfr_pool::Pool) -> usize {
    let cost = |u: &Unit| u.tier.or(base.max_firings()).unwrap_or(u64::MAX);
    let max_cost = units.iter().map(cost).max().unwrap_or(u64::MAX);
    let by_cost = usize::try_from(UNIT_CHUNK_COST / max_cost.max(1)).unwrap_or(usize::MAX);
    by_cost.clamp(1, pool.chunk_size(units.len()))
}

/// Folds analysed units into the `sdfr-api/1` [`BatchSummary`] (outcome
/// aggregate + per-exit-code counts + registry stats) and the batch exit
/// code. Shared by `sdfr batch` and the server's `/v1/batch` endpoint —
/// one place, one schema.
pub(crate) fn summarize<'a>(
    units: impl Iterator<Item = &'a AnalyzedUnit>,
    stats: sdfr_analysis::registry::RegistryStats,
) -> (BatchSummary, i32) {
    let mut agg = sdfr_core::degrade::OutcomeAggregate::default();
    let mut exits = Vec::new();
    let mut kinds = Vec::new();
    for u in units {
        match &u.outcome {
            Some(outcome) => agg.record(outcome),
            None => agg.record_error(),
        }
        exits.push(u.record.exit);
        kinds.push(u.record.workload_kind);
    }
    let summary = BatchSummary::new(agg, &exits, &kinds, stats);
    let exit = summary.exit;
    (summary, exit)
}

/// Analyses one graph source through the shared registry and builds its
/// `sdfr-api/1` [`UnitRecord`]. This is the single unit-analysis path
/// behind all three front-ends: `sdfr batch` passes `batch_fields`
/// (index + tier, which also enables cache attribution), `sdfr analyze
/// --json` and the server's single-graph `/v1/analyze` pass `None` for a
/// standalone record, and `sdfr serve` additionally passes `wait` — the
/// remaining response deadline.
///
/// With a `wait` and a cold session, the exact analysis is computed on a
/// detached warmer thread: if it lands within the deadline the exact
/// record is returned, otherwise the iteration-free conservative bound
/// stands in (`"pending":true`) while the warmer keeps filling the shared
/// session for the next request. A warm session answers immediately either
/// way.
pub(crate) fn analyze_source(
    batch_fields: Option<(usize, Option<u64>)>,
    name: &str,
    graph: Result<Arc<SdfGraph>, CliError>,
    registry: &SessionRegistry,
    base: &Budget,
    wait: Option<Duration>,
) -> AnalyzedUnit {
    let (index, tier) = match batch_fields {
        Some((i, t)) => (Some(i), Some(t)),
        None => (None, None),
    };
    let mut record = UnitRecord {
        workload_kind: sdfr_api::WorkloadKind::Sdf,
        index,
        file: name.to_string(),
        tier,
        fingerprint: None,
        cache: None,
        pending: false,
        status: UnitStatus::Error {
            message: String::new(),
        },
        scenarios: None,
        exit: EXIT_OK,
    };

    let budget = match tier.flatten() {
        Some(t) => base.clone().with_max_firings(t),
        None => base.clone(),
    };
    let graph = match graph {
        Ok(g) => g,
        Err(e) => {
            record.exit = e.exit_code();
            record.status = UnitStatus::Error { message: e.message };
            return AnalyzedUnit {
                record,
                outcome: None,
                session: None,
                lookup: None,
                scenario_sessions: Vec::new(),
            };
        }
    };
    let (session, lookup) = registry.lookup(&graph, &budget);
    record.fingerprint = Some(session.fingerprint());
    if batch_fields.is_some() {
        record.cache = Some(match lookup {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
            Lookup::Bypass => "bypass",
        });
    }

    let result = match wait {
        Some(remaining) if !session.throughput_is_warm() => {
            // Cold session under a response deadline: warm it on a detached
            // thread and wait at most `remaining`. The warmer holds its own
            // Arc, so a timed-out fill still completes and benefits the
            // next request for this content.
            let (tx, rx) = std::sync::mpsc::channel();
            let warmer = Arc::clone(&session);
            std::thread::spawn(move || {
                let _ = tx.send(analyze_with_session(&warmer));
            });
            match rx.recv_timeout(remaining) {
                Ok(result) => result,
                Err(_) => {
                    record.pending = true;
                    let limit = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
                    conservative_period_fallback(session.graph()).map(|bound| {
                        AnalysisOutcome::Degraded {
                            exhausted: SdfError::Exhausted {
                                resource: BudgetResource::WallClock,
                                spent: limit,
                                limit,
                            },
                            bound,
                        }
                    })
                }
            }
        }
        _ => analyze_with_session(&session),
    };

    match result {
        Ok(outcome) => {
            record.status = UnitStatus::from_outcome(&outcome);
            AnalyzedUnit {
                record,
                outcome: Some(outcome),
                session: Some(session),
                lookup: Some(lookup),
                scenario_sessions: Vec::new(),
            }
        }
        Err(e) => {
            let cli: CliError = e.into();
            record.exit = cli.exit_code();
            record.status = UnitStatus::Error {
                message: cli.message,
            };
            AnalyzedUnit {
                record,
                outcome: None,
                session: Some(session),
                lookup: Some(lookup),
                scenario_sessions: Vec::new(),
            }
        }
    }
}

/// Analyses one scenario-aware (`.sadf`) source and builds its
/// `sdfr-api/1` [`UnitRecord`] — the scenario-workload sibling of
/// [`analyze_source`], shared by `sdfr analyze --scenarios`, `.sadf`
/// batch units and the server's `/v1/sadf`.
///
/// Unlike a plain unit the record carries no fingerprint or cache
/// attribution: a workload runs *many* registry sessions (one per
/// scenario), so a single per-unit attribution would be arbitrary. The
/// per-scenario sessions ride in
/// [`AnalyzedUnit::scenario_sessions`] instead, where the server's
/// journal persists each one individually.
pub(crate) fn analyze_sadf_source(
    batch_fields: Option<(usize, Option<u64>)>,
    name: &str,
    content: Result<String, CliError>,
    registry: &SessionRegistry,
    base: &Budget,
) -> AnalyzedUnit {
    let (index, tier) = match batch_fields {
        Some((i, t)) => (Some(i), Some(t)),
        None => (None, None),
    };
    let mut record = UnitRecord {
        workload_kind: sdfr_api::WorkloadKind::Sadf,
        index,
        file: name.to_string(),
        tier,
        fingerprint: None,
        cache: None,
        pending: false,
        status: UnitStatus::Error {
            message: String::new(),
        },
        scenarios: None,
        exit: EXIT_OK,
    };
    let budget = match tier.flatten() {
        Some(t) => base.clone().with_max_firings(t),
        None => base.clone(),
    };
    let error_unit = |mut record: UnitRecord, e: CliError| {
        record.exit = e.exit_code();
        record.status = UnitStatus::Error { message: e.message };
        AnalyzedUnit {
            record,
            outcome: None,
            session: None,
            lookup: None,
            scenario_sessions: Vec::new(),
        }
    };
    let workload = content.and_then(|c| {
        sdfr_sadf::Workload::from_text(&c).map_err(|e| CliError::invalid(format!("{name}: {e}")))
    });
    let workload = match workload {
        Ok(w) => w,
        Err(e) => return error_unit(record, e),
    };
    match sdfr_sadf::analyze_workload(&workload, registry, &budget) {
        Ok(analysis) => {
            record.status = UnitStatus::from_outcome(&analysis.outcome);
            if matches!(analysis.outcome, AnalysisOutcome::Exact(_)) {
                record.scenarios = Some(sdfr_api::ScenarioSet {
                    periods: analysis
                        .scenarios
                        .iter()
                        .map(|s| (s.name.clone(), s.eigenvalue.map(|p| p.to_string())))
                        .collect(),
                    cycle: analysis.cycle.clone(),
                });
            }
            AnalyzedUnit {
                record,
                outcome: Some(analysis.outcome),
                session: None,
                lookup: None,
                scenario_sessions: analysis.sessions,
            }
        }
        Err(e) => {
            let exit = match &e {
                sdfr_sadf::SadfError::Graph(SdfError::Exhausted { .. }) => EXIT_EXHAUSTED,
                _ => EXIT_INVALID,
            };
            error_unit(
                record,
                CliError {
                    kind: kind_for_exit(exit),
                    message: format!("{name}: {e}"),
                },
            )
        }
    }
}

/// Reads a `.sadf` workload file for [`analyze_sadf_source`], mapping
/// read failures to exit-3 error records like [`crate::load_graph`].
pub(crate) fn read_sadf(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::io(format!("{path}: {e}")))
}

/// Maps a per-unit (or server-reported) exit code back to the
/// [`CliErrorKind`] carrying it.
pub(crate) fn kind_for_exit(code: i32) -> CliErrorKind {
    match code {
        EXIT_USAGE => CliErrorKind::Usage,
        EXIT_IO => CliErrorKind::Io,
        EXIT_EXHAUSTED => CliErrorKind::Exhausted,
        EXIT_INVALID => CliErrorKind::Invalid,
        _ => CliErrorKind::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_bad_args() {
        let to_args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_batch_args(&to_args(&[])).is_err());
        assert!(parse_batch_args(&to_args(&["--bogus", "f"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--tiers", "1,x"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--tiers"])).is_err());
        assert!(parse_batch_args(&to_args(&["f", "--threads", "q"])).is_err());
        let zero = parse_batch_args(&to_args(&["f", "--threads", "0"])).unwrap_err();
        assert_eq!(zero.kind, CliErrorKind::Usage);
        assert!(
            zero.message.contains("positive integer"),
            "{}",
            zero.message
        );
        let neg = parse_batch_args(&to_args(&["f", "--threads", "-2"])).unwrap_err();
        assert_eq!(neg.kind, CliErrorKind::Usage);
        let opts = parse_batch_args(&to_args(&[
            "a.sdf",
            "b.sdf",
            "--tiers",
            "10,1000",
            "--stable",
            "--cache-entries",
            "8",
            "--max-firings",
            "500",
        ]))
        .unwrap();
        assert_eq!(opts.files, vec!["a.sdf", "b.sdf"]);
        assert_eq!(opts.tiers, vec![10, 1000]);
        assert!(opts.stable);
        assert_eq!(opts.registry.max_entries, 8);
        assert_eq!(opts.budget.max_firings(), Some(500));
    }

    #[test]
    fn missing_file_is_an_error_line_not_a_crash() {
        let opts = BatchOptions {
            files: vec!["/nonexistent/batch-file.sdf".to_string()],
            tiers: vec![],
            threads: 1,
            stable: true,
            registry: RegistryConfig::default(),
            budget: Budget::unlimited(),
        };
        let report = run_batch(&opts, &|_| {});
        assert_eq!(report.exit_code, crate::EXIT_IO);
        assert_eq!(report.lines.len(), 1);
        assert!(report.lines[0].starts_with("{\"schema\":\"sdfr-api/1\""));
        assert!(report.lines[0].contains("\"status\":\"error\""));
        assert!(report.lines[0].contains("\"exit\":3"));
        assert!(report.summary.contains("\"errors\":1"));
        assert!(report.summary.contains("\"exits\":{\"3\":1}"));
        assert!(report.summary.contains("\"exit\":3"));
    }

    #[test]
    fn unit_chunking_follows_the_tier_cost() {
        let pool = sdfr_pool::Pool::new(2);
        let units: Vec<Unit> = (0..64)
            .map(|index| Unit {
                index,
                file: "f".into(),
                tier: Some(16),
            })
            .collect();
        // Cheap tiers batch up, bounded by the pool's load-balance cap.
        let c = unit_chunk(&units, &Budget::unlimited(), &pool);
        assert!(c > 1, "cheap tiers should batch, got chunk {c}");
        assert!(c <= pool.chunk_size(units.len()));
        // One uncapped unit forces per-unit tasks for the whole batch.
        let mut mixed = units.clone();
        mixed[5].tier = None;
        assert_eq!(unit_chunk(&mixed, &Budget::unlimited(), &pool), 1);
        // An uncapped tier under a capped base budget uses the base cost.
        let base = Budget::unlimited().with_max_firings(16);
        assert!(unit_chunk(&mixed, &base, &pool) > 1);
    }

    #[test]
    fn kind_mapping_covers_every_exit() {
        assert_eq!(kind_for_exit(1), CliErrorKind::Invalid);
        assert_eq!(kind_for_exit(2), CliErrorKind::Usage);
        assert_eq!(kind_for_exit(3), CliErrorKind::Io);
        assert_eq!(kind_for_exit(4), CliErrorKind::Exhausted);
        assert_eq!(kind_for_exit(70), CliErrorKind::Internal);
        assert_eq!(kind_for_exit(99), CliErrorKind::Internal);
    }

    #[test]
    fn cold_session_under_a_tiny_deadline_answers_pending() {
        // Large enough that the symbolic iteration cannot land inside a
        // zero deadline, small enough that the detached warmer finishes
        // promptly after the test.
        let mut b = SdfGraph::builder("huge");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 1_000_000, 1, 0).unwrap();
        let g = Arc::new(b.build().unwrap());
        let registry = SessionRegistry::new();
        let analyzed = analyze_source(
            None,
            "huge.sdf",
            Ok(g),
            &registry,
            &Budget::unlimited(),
            Some(Duration::ZERO),
        );
        assert!(analyzed.record.pending, "{:?}", analyzed.record);
        assert_eq!(analyzed.record.exit, 0);
        assert!(matches!(
            analyzed.record.status,
            UnitStatus::Degraded { .. }
        ));
        // A warm session answers exactly even under a zero-ish deadline.
        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let g = Arc::new(b.build().unwrap());
        let (s, _) = registry.lookup(&g, &Budget::unlimited());
        let _ = s.throughput().unwrap();
        assert!(s.throughput_is_warm());
        let analyzed = analyze_source(
            None,
            "c.sdf",
            Ok(g),
            &registry,
            &Budget::unlimited(),
            Some(Duration::from_millis(0)),
        );
        assert!(!analyzed.record.pending);
        assert_eq!(
            analyzed.record.status,
            UnitStatus::Exact {
                period: Some("5".into())
            }
        );
    }
}
