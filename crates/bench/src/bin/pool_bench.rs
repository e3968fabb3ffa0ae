//! Measures how the work-stealing pool scales `sdfr batch`-style unit
//! fan-out at 1/2/4/8 worker threads:
//!
//! - **batch-pareto**: one task per (case, duplicate) unit on the pool,
//!   each warming a shared [`sdfr_analysis::SessionRegistry`] session and
//!   then running its own (serial) Pareto sweep over the Table-1 cases
//!   whose repetition-vector sum keeps a capacity probe cheap.
//!
//! Every width's curves are asserted byte-identical to the curve computed
//! up front on the calling thread before its time is reported — the
//! scaling numbers are meaningless if the answers drift.
//!
//! Usage: `cargo run --release -p sdfr-bench --bin pool_bench`
//!
//! Writes `BENCH_pool.json` (shared `sdfr-bench/1` schema, baseline =
//! 1-thread pool) and prints a table. Exits non-zero when the 4-thread
//! speedup of any workload falls below `SDFR_POOL_MIN_SPEEDUP` (default
//! 2.0) — skipped with a notice when the host has fewer than 4 cores,
//! where the bar is physically unreachable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sdfr_analysis::buffer::{throughput_buffer_tradeoff, ParetoPoint};
use sdfr_analysis::SessionRegistry;
use sdfr_bench::report::{host_cores, threshold_from_env, BenchCase, BenchReport, SkippedCase};
use sdfr_graph::repetition::repetition_vector;
use sdfr_graph::SdfGraph;
use sdfr_pool::Pool;

/// Repetition-sum ceiling above which a case is skipped (matches
/// `session_bench`: each probe simulates the variant graph).
const PARETO_GAMMA_LIMIT: u64 = 700;
/// Simulation horizon for capacity probes.
const PARETO_ITERATIONS: u64 = 4;
/// Duplicates per case in the batch workload.
const DUPLICATES: usize = 4;
/// Timing repetitions; the minimum is reported.
const REPS: u32 = 3;
/// Pool widths measured; the first is the baseline.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn min_of(reps: u32, mut f: impl FnMut() -> Duration) -> Duration {
    (1..reps).fold(f(), |best, _| best.min(f()))
}

/// One sweepable case: name, graph, and its reference curve (the
/// correctness oracle for every pooled run).
type SweepCase = (&'static str, Arc<SdfGraph>, Vec<ParetoPoint>);

/// One named workload: a full suite of sweeps over the cases on one pool.
type Workload = (&'static str, fn(&Pool, &[SweepCase]) -> Duration);

/// The Table-1 cases cheap enough to sweep — plus a named, reasoned skip
/// record for every case the gamma filter drops.
fn sweep_cases() -> (Vec<SweepCase>, Vec<SkippedCase>) {
    let mut cases = Vec::new();
    let mut skipped = Vec::new();
    for case in sdfr_benchmarks::table1::all() {
        let gamma = repetition_vector(&case.graph)
            .expect("benchmark cases are consistent")
            .iteration_length();
        if gamma > PARETO_GAMMA_LIMIT {
            skipped.push(SkippedCase::new(
                case.name,
                format!(
                    "repetition-vector sum {gamma} exceeds the capacity-probe \
                     limit {PARETO_GAMMA_LIMIT}"
                ),
            ));
            continue;
        }
        let curve = throughput_buffer_tradeoff(&case.graph, PARETO_ITERATIONS)
            .expect("benchmark cases admit a sweep");
        cases.push((case.name, Arc::new(case.graph.clone()), curve));
    }
    (cases, skipped)
}

/// The unit workload: `DUPLICATES` units per case fan out as pool tasks,
/// each warming a shared registry session and running its own Pareto
/// sweep, as under `sdfr batch`.
fn batch_pareto_suite(pool: &Pool, cases: &[SweepCase]) -> Duration {
    let registry = SessionRegistry::new();
    let units: Vec<&SweepCase> = cases
        .iter()
        .flat_map(|c| std::iter::repeat_n(c, DUPLICATES))
        .collect();
    let t0 = Instant::now();
    pool.scope(|s| {
        for &(name, graph, reference) in &units {
            let registry = &registry;
            s.spawn(move |_| {
                let session = registry.session(graph);
                let _ = session.throughput().expect("cases are analysable");
                let curve =
                    throughput_buffer_tradeoff(graph, PARETO_ITERATIONS).expect("cases sweep");
                assert_eq!(
                    &curve, reference,
                    "{name}: pooled sweep must be byte-identical to the reference"
                );
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = registry.stats();
    assert_eq!(
        stats.symbolic_iterations,
        cases.len() as u64,
        "each distinct case pays one symbolic iteration"
    );
    elapsed
}

fn main() {
    let (cases, skipped) = sweep_cases();
    let workloads: [Workload; 1] = [("batch-pareto", batch_pareto_suite)];

    let mut report = BenchReport {
        benchmark: "pool",
        suite: "table1",
        cases: Vec::new(),
        skipped,
    };
    println!(
        "Work-stealing pool scaling ({} Table-1 cases, {} skipped; times in ms, min of {REPS} reps)\n",
        cases.len(),
        report.skipped.len(),
    );
    for s in &report.skipped {
        println!("  skipped {}: {}", s.name, s.reason);
    }
    println!(
        "\n{:<14} {:>8} {:>12} {:>9}",
        "workload", "threads", "time", "speedup"
    );
    for (name, suite) in workloads {
        let mut baseline = Duration::ZERO;
        for width in WIDTHS {
            let pool = Pool::new(width);
            let time = min_of(REPS, || suite(&pool, &cases));
            if width == 1 {
                baseline = time;
            }
            println!(
                "{:<14} {:>8} {:>10.1}ms {:>8.2}x",
                name,
                width,
                time.as_secs_f64() * 1e3,
                baseline.as_secs_f64() / time.as_secs_f64().max(1e-9),
            );
            report.cases.push(BenchCase {
                name: format!("{name}@{width}t"),
                threads: width,
                cold: baseline,
                warm: time,
                extra: Vec::new(),
            });
        }
    }

    // The 4-thread scaling gate: pass, fail, or *loud* skip — an
    // under-provisioned host records the skip in the artifact itself, so
    // a consumer of BENCH_pool.json can tell "gate passed" apart from
    // "gate never ran" without the run's stdout.
    let min_speedup = threshold_from_env("SDFR_POOL_MIN_SPEEDUP", 2.0);
    let host_threads = host_cores();
    let gate_skip = (host_threads < 4).then(|| {
        format!(
            "host has {host_threads} core(s), a 4-thread speedup of \
             {min_speedup:.1}x is unreachable"
        )
    });
    if let Some(reason) = &gate_skip {
        report
            .skipped
            .push(SkippedCase::new("scaling-gate@4t", reason.clone()));
    }

    let path = report.write().expect("write BENCH_pool.json");
    println!("\nwrote {path}");

    // Every workload×width the bench promises must have been measured (or
    // loudly skipped) — a silent skip fails the run before any gating.
    let expected: Vec<String> = workloads
        .iter()
        .flat_map(|(name, _)| WIDTHS.iter().map(move |w| format!("{name}@{w}t")))
        .collect();
    report.enforce_coverage(&expected);

    if let Some(reason) = gate_skip {
        println!("scaling gate skipped: {reason}");
        return;
    }
    let worst_at_4 = report
        .cases
        .iter()
        .filter(|c| c.threads == 4)
        .map(BenchCase::speedup)
        .fold(f64::INFINITY, f64::min);
    if worst_at_4 < min_speedup {
        eprintln!(
            "FAIL: 4-thread speedup {worst_at_4:.2}x below the \
             SDFR_POOL_MIN_SPEEDUP bar of {min_speedup:.1}x"
        );
        std::process::exit(1);
    }
    println!("scaling gate passed: 4-thread speedup {worst_at_4:.2}x >= {min_speedup:.1}x");
}
