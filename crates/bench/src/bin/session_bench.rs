//! Measures what [`sdfr_analysis::AnalysisSession`] buys on the Table-1
//! benchmark suite:
//!
//! - **cold vs. warm analyze**: a cold run constructs a session and asks
//!   for the full `sdfr analyze` artifact set (throughput, bottleneck,
//!   makespan, SCCs); a warm run repeats the queries on the same session
//!   and must be served entirely from the cache;
//! - **Pareto**: the wall time of one throughput/buffer trade-off sweep,
//!   reported alongside as `pareto_ns`.
//!
//! Usage: `cargo run --release -p sdfr-bench --bin session_bench`
//!
//! Writes `BENCH_session.json` (shared `sdfr-bench/1` schema, see
//! [`sdfr_bench::report`]) into the current directory (run from the
//! repository root) and prints a human-readable table. Exits non-zero when
//! the warm speedup falls below `SDFR_BENCH_MIN_SPEEDUP` (default 2.0) on
//! any case.
//!
//! The Pareto sweep simulates one capacity-variant graph per probe, so it
//! is restricted to the cases whose repetition-vector sum keeps a probe
//! cheap; skipped cases are reported as `null`.

use std::time::{Duration, Instant};

use sdfr_analysis::buffer::throughput_buffer_tradeoff;
use sdfr_analysis::AnalysisSession;
use sdfr_bench::report::{threshold_from_env, BenchCase, BenchReport};
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::SdfGraph;

/// Repetition-sum ceiling above which the Pareto sweep is skipped (each
/// probe simulates `iterations` full iterations of the variant graph).
const PARETO_GAMMA_LIMIT: u64 = 700;
/// Simulation horizon for capacity probes.
const PARETO_ITERATIONS: u64 = 4;
/// Timing repetitions; the minimum is reported.
const REPS: u32 = 5;

struct Row {
    name: String,
    cold: Duration,
    warm: Duration,
    speedup: f64,
    pareto: Option<Duration>,
}

/// One full `analyze`-equivalent artifact set on a fresh session.
fn analyze_cold(g: &SdfGraph) -> Duration {
    let t0 = Instant::now();
    let s = AnalysisSession::new(g.clone());
    let _ = s.throughput().expect("benchmark cases are analysable");
    let _ = s.bottleneck().expect("benchmark cases are analysable");
    let _ = s.precedence_sccs().expect("benchmark cases are analysable");
    let _ = s
        .iteration_makespan()
        .expect("benchmark cases are analysable");
    t0.elapsed()
}

/// The same artifact set, re-queried on an already-warm session.
fn analyze_warm(s: &AnalysisSession) -> Duration {
    let t0 = Instant::now();
    let _ = s.throughput().expect("cached");
    let _ = s.bottleneck().expect("cached");
    let _ = s.precedence_sccs().expect("cached");
    let _ = s.iteration_makespan().expect("cached");
    t0.elapsed()
}

fn min_of(reps: u32, mut f: impl FnMut() -> Duration) -> Duration {
    (1..reps).fold(f(), |best, _| best.min(f()))
}

fn json_duration(d: Option<Duration>) -> String {
    d.map_or("null".to_string(), |d| d.as_nanos().to_string())
}

fn main() {
    let mut rows = Vec::new();
    for case in sdfr_benchmarks::table1::all() {
        let g = &case.graph;
        let cold = min_of(REPS, || analyze_cold(g));
        let warm_session = AnalysisSession::new(g.clone());
        let _ = warm_session.throughput().expect("analysable");
        let _ = warm_session.bottleneck().expect("analysable");
        let _ = warm_session.precedence_sccs().expect("analysable");
        let _ = warm_session.iteration_makespan().expect("analysable");
        let warm = min_of(REPS, || analyze_warm(&warm_session));

        let gamma_sum = repetition_vector(g)
            .expect("benchmark cases are consistent")
            .iteration_length();
        let pareto = (gamma_sum <= PARETO_GAMMA_LIMIT).then(|| {
            let t0 = Instant::now();
            throughput_buffer_tradeoff(g, PARETO_ITERATIONS)
                .expect("benchmark cases admit a sweep");
            t0.elapsed()
        });

        rows.push(Row {
            name: case.name.to_string(),
            cold,
            warm,
            speedup: cold.as_secs_f64() / warm.as_secs_f64().max(1e-9),
            pareto,
        });
    }

    // Human-readable report.
    println!("AnalysisSession benchmark (times in µs, min of {REPS} reps)\n");
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>13}",
        "case", "cold", "warm", "speedup", "pareto"
    );
    for r in &rows {
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>8.0}x {:>13}",
            r.name,
            r.cold.as_secs_f64() * 1e6,
            r.warm.as_secs_f64() * 1e6,
            r.speedup,
            r.pareto
                .map_or("-".to_string(), |d| format!("{:.0}", d.as_secs_f64() * 1e6)),
        );
    }

    // Machine-readable record in the shared schema: cold = fresh session,
    // warm = cached re-query; the Pareto timing rides along as an extra
    // key (nullable for skipped cases).
    let report = BenchReport {
        benchmark: "session",
        suite: "table1",
        cases: rows
            .iter()
            .map(|r| BenchCase {
                name: r.name.clone(),
                threads: 1,
                cold: r.cold,
                warm: r.warm,
                extra: vec![("pareto_ns".to_string(), json_duration(r.pareto))],
            })
            .collect(),
        skipped: Vec::new(),
    };
    let path = report.write().expect("write BENCH_session.json");
    println!("\nwrote {path}");

    let bar = threshold_from_env("SDFR_BENCH_MIN_SPEEDUP", 2.0);
    let min_speedup = report.min_speedup();
    if min_speedup < bar {
        eprintln!("FAIL: warm speedup {min_speedup:.1}x below the {bar:.1}x bar");
        std::process::exit(1);
    }
}
