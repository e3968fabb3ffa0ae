//! The in-process workloads: one closed-loop caller of `sdfr_cli::run`,
//! the function the `sdfr` binary's `main` wraps.
//!
//! - `analyze-cold`: `run(["analyze"|"csdf", FILE, "--json"])` over the
//!   seeded cold corpus; every call builds a fresh registry, so nothing is
//!   reused between calls.
//! - `pareto-sweep`: `run(["pareto", FILE])` over the sweep corpus under
//!   the program's default pool; one operation is one pass over the corpus.

use std::time::{Duration, Instant};

use sdfr_analysis::AnalysisSession;
use sdfr_pool::Pool;

use crate::corpus::{self, Item};
use crate::replay::{self, Work};
use crate::report::{median, own_peak_rss_mb, percentile, Outcome};
use crate::trace::{LayerReport, Tracer};
use crate::Ctx;

/// Times one set-up repeats per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

fn args_of(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// Checks one `--json` answer: an exact record with the expected period,
/// exit 0, nothing else on the line.
fn check_record(item: &Item, answer: &Result<String, sdfr_cli::CliError>) -> Result<(), String> {
    let line = answer
        .as_ref()
        .map_err(|e| format!("{}: {}", item.name, e.message.trim()))?;
    let want = format!("\"status\":\"exact\",\"period\":{}", item.period_json());
    if line.contains(&want) && line.ends_with(",\"exit\":0}\n") && line.matches('\n').count() == 1 {
        Ok(())
    } else {
        Err(format!(
            "{}: expected {want}, got {}",
            item.name,
            line.trim()
        ))
    }
}

/// `analyze-cold`.
pub fn analyze_cold(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut items = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        items = match corpus::analyze_cold(ctx.seed) {
            Ok(items) => items,
            Err(e) => {
                out.tally.add(false);
                out.error(format!("corpus: {e}"));
                return out;
            }
        };
        if let Err(e) = corpus::write_all(&ctx.dir, &items) {
            out.tally.add(false);
            out.error(e);
            return out;
        }
        // The untimed first pass; its answers are checked like any other.
        for item in &items {
            let result = check_record(item, &sdfr_cli::run(&item.analyze_args()));
            if k == 0 {
                out.tally.add(result.is_ok());
            }
            if let Err(e) = result {
                out.error(e);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let args: Vec<Vec<String>> = items.iter().map(Item::analyze_args).collect();

    let mut tracer = Tracer::new();
    let mut work = Work::default();
    let mut lat_ns = Vec::with_capacity(1 << 16);
    let (mut replay_ns, mut spans_ns) = (0u64, 0u64);
    let mut replay_mismatch = 0u64;
    let pool_before = sdfr_pool::global().stats();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < ctx.seconds {
        let k = i % items.len();
        i += 1;
        // Traced runs replay every call next to the untraced one,
        // alternating which goes first so neither always finds the
        // caches the other warmed.
        let replay_first = ctx.trace && i.is_multiple_of(2);
        let mut line = String::new();
        if replay_first {
            line = traced_call(
                &mut tracer,
                i,
                &items[k],
                &mut work,
                &mut replay_ns,
                &mut spans_ns,
            );
        }
        let t = Instant::now();
        let answer = sdfr_cli::run(&args[k]);
        lat_ns.push(t.elapsed().as_nanos() as f64);
        let result = check_record(&items[k], &answer);
        out.tally.add(result.is_ok());
        if let Err(e) = result {
            out.error(e);
        }
        if ctx.trace {
            if !replay_first {
                line = traced_call(
                    &mut tracer,
                    i,
                    &items[k],
                    &mut work,
                    &mut replay_ns,
                    &mut spans_ns,
                );
            }
            if answer.as_deref().ok().map(str::trim_end) != Some(line.as_str()) {
                replay_mismatch += 1;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ops = lat_ns.len() as f64;
    let untraced_ns: f64 = lat_ns.iter().sum();

    out.e2e = vec![
        ("setup_s", median(&mut setups)),
        ("peak_rss_mb", own_peak_rss_mb()),
        ("op_ms_p50", percentile(&mut lat_ns, 50.0) / 1e6),
        ("op_ms_p90", percentile(&mut lat_ns, 90.0) / 1e6),
        ("ops_per_s", ops / elapsed),
    ];
    out.notes.push(format!(
        "analyze-cold: {} calls over {} corpus items in {elapsed:.3} s",
        ops,
        items.len()
    ));
    if ctx.trace {
        let pool_after = sdfr_pool::global().stats();
        let mut layers = LayerReport::from_tracer(&tracer, ops as u64, untraced_ns);
        let per_op = |ns: f64| ns / 1e3 / ops.max(1.0);
        layers.set("cli.unattributed_us", per_op(untraced_ns - spans_ns as f64));
        layers.set("trace.overhead_us", per_op(replay_ns as f64 - untraced_ns));
        work.fill(&mut layers);
        layers.set(
            "pool.executed",
            (pool_after.executed - pool_before.executed) as f64,
        );
        layers.set(
            "pool.stolen",
            (pool_after.stolen - pool_before.stolen) as f64,
        );
        out.notes.push(format!(
            "accounting per call: untraced run() {:.2} us = layer spans {:.2} us + \
             cli.unattributed {:.2} us; traced replay {:.2} us (tracing overhead {:.2} us); \
             {replay_mismatch} replay line(s) differed from run()",
            per_op(untraced_ns),
            per_op(spans_ns as f64),
            per_op(untraced_ns - spans_ns as f64),
            per_op(replay_ns as f64),
            per_op(replay_ns as f64 - untraced_ns),
        ));
        ctx.keep_trace(&tracer, &mut out);
        out.layers = Some(layers);
    }
    out
}

/// One traced replay of `item` under a fresh root span; adds the root's
/// duration and its children's time to the running sums.
fn traced_call(
    tracer: &mut Tracer,
    request: usize,
    item: &Item,
    work: &mut Work,
    replay_ns: &mut u64,
    spans_ns: &mut u64,
) -> String {
    let request = request as u64;
    let root = tracer.open("op", None, request);
    let line = replay::item(tracer, root, request, item, None, work);
    tracer.close(root);
    *replay_ns += tracer.duration(root);
    *spans_ns += tracer.children_time(root);
    line
}

/// The `sdfr pareto` report for a curve, as `cmd_pareto` renders it.
fn pareto_text(curve: &[sdfr_analysis::buffer::ParetoPoint]) -> String {
    let mut out = String::from("total capacity  period\n");
    for point in curve {
        out.push_str(&format!(
            "{:>14}  {}\n",
            point.total,
            point
                .period
                .map_or("deadlock".to_string(), |p| p.to_string())
        ));
    }
    out
}

/// `pareto-sweep`.
pub fn pareto_sweep(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let one = Pool::new(1);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut items = Vec::new();
    let mut expected: Vec<String> = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        items = corpus::pareto(ctx.seed);
        if let Err(e) = corpus::write_all(&ctx.dir, &items) {
            out.tally.add(false);
            out.error(e);
            return out;
        }
        // Reference curves at one thread: the sweep's last point must
        // reach the item's known period.
        expected = items
            .iter()
            .map(|item| {
                one.install(|| sdfr_cli::run(&args_of(&["pareto", &item.name])))
                    .unwrap_or_else(|e| format!("error: {}", e.message))
            })
            .collect();
        for (item, curve) in items.iter().zip(&expected) {
            let last = curve
                .lines()
                .last()
                .and_then(|l| l.split_whitespace().nth(1));
            let ok = last == item.period.as_deref();
            if k == 0 {
                out.tally.add(ok);
            }
            if !ok {
                out.error(format!(
                    "{}: sweep ends at period {last:?}, expected {:?}",
                    item.name, item.period
                ));
            }
        }
        // The untimed first pass under the default pool.
        for (item, want) in items.iter().zip(&expected) {
            let got = sdfr_cli::run(&args_of(&["pareto", &item.name]));
            let ok = got.as_ref().is_ok_and(|g| g == want);
            if k == 0 {
                out.tally.add(ok);
            }
            if !ok {
                out.error(format!(
                    "{}: curve differs from the 1-thread curve",
                    item.name
                ));
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let args: Vec<Vec<String>> = items
        .iter()
        .map(|item| args_of(&["pareto", &item.name]))
        .collect();

    let threads = sdfr_pool::default_threads();
    let many = Pool::new(threads);
    let mut tracer = Tracer::new();
    let mut work = Work::default();
    let mut pass_ns = Vec::new();
    let (mut untraced_ns, mut spans_ns, mut replay_ns) = (0f64, 0u64, 0u64);
    let (mut sweep_many_ns, mut sweep_one_ns) = (0u64, 0u64);
    let mut calls = 0u64;
    let pool_before = many.stats();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds {
        let mut pass = Duration::ZERO;
        for (k, item) in items.iter().enumerate() {
            let t = Instant::now();
            let got = sdfr_cli::run(&args[k]);
            let d = t.elapsed();
            pass += d;
            untraced_ns += d.as_nanos() as f64;
            calls += 1;
            let ok = got.as_ref().is_ok_and(|g| *g == expected[k]);
            out.tally.add(ok);
            if !ok {
                out.error(format!(
                    "{}: curve differs from the 1-thread curve",
                    item.name
                ));
            }
            if ctx.trace {
                let request = calls;
                let root = tracer.open("op", None, request);
                let curve = sweep_replay(&mut tracer, root, request, item, &many, &mut work);
                tracer.close(root);
                replay_ns += tracer.duration(root);
                spans_ns += tracer.children_time(root);
                sweep_many_ns += tracer.last_named("analysis.buffer.tradeoff");
                if curve != expected[k] {
                    out.error(format!("{}: traced sweep replay differs", item.name));
                }
                // The fan-out probe: the same sweep on a warm session under
                // a one-thread pool, outside the operation's span tree.
                let session = AnalysisSession::new(corpus::sdf_graph(item));
                let _ = session.eigenvalue();
                let t1 = Instant::now();
                let _ = one.install(|| session.throughput_buffer_tradeoff(16));
                sweep_one_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        pass_ns.push(pass.as_nanos() as f64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let passes = pass_ns.len() as f64;
    out.e2e = vec![
        ("setup_s", median(&mut setups)),
        ("peak_rss_mb", own_peak_rss_mb()),
        ("op_ms_p50", percentile(&mut pass_ns, 50.0) / 1e6),
        ("op_ms_p90", percentile(&mut pass_ns, 90.0) / 1e6),
        ("ops_per_s", passes / elapsed),
    ];
    out.notes.push(format!(
        "pareto-sweep: {passes} passes ({calls} sweeps over {} graphs) in {elapsed:.3} s, \
         default pool of {threads} thread(s)",
        items.len()
    ));
    if ctx.trace {
        let pool_after = many.stats();
        let per_op = |ns: f64| ns / 1e3 / (calls.max(1) as f64);
        let mut layers = LayerReport::from_tracer(&tracer, calls, untraced_ns);
        layers.set("cli.unattributed_us", per_op(untraced_ns - spans_ns as f64));
        layers.set("trace.overhead_us", per_op(replay_ns as f64 - untraced_ns));
        layers.set(
            "pool.fanout_speedup",
            sweep_one_ns as f64 / (sweep_many_ns.max(1) as f64),
        );
        layers.set(
            "pool.executed",
            (pool_after.executed - pool_before.executed) as f64,
        );
        layers.set(
            "pool.stolen",
            (pool_after.stolen - pool_before.stolen) as f64,
        );
        work.fill(&mut layers);
        out.notes.push(format!(
            "sweep per call: {:.1} us at {threads} thread(s) vs {:.1} us at 1 thread \
             (fan-out speedup {:.3}x)",
            per_op(sweep_many_ns as f64),
            per_op(sweep_one_ns as f64),
            sweep_one_ns as f64 / (sweep_many_ns.max(1) as f64)
        ));
        ctx.keep_trace(&tracer, &mut out);
        out.layers = Some(layers);
    }
    out
}

/// `cmd_pareto`'s work, span by span: parse, the session fills, then the
/// sweep under the default-sized pool.
fn sweep_replay(
    t: &mut Tracer,
    root: u32,
    request: u64,
    item: &Item,
    pool: &Pool,
    work: &mut Work,
) -> String {
    work.ops += 1;
    let graph = match t.span("io.parse", root, request, || {
        sdfr_io::text::from_text(&item.content)
    }) {
        Ok(g) => g,
        Err(e) => return format!("parse error: {e}"),
    };
    let session = AnalysisSession::new(graph);
    t.span("graph.repetition", root, request, || {
        session.repetition_vector().is_ok()
    });
    t.span("graph.schedule", root, request, || {
        session.sequential_schedule().is_ok()
    });
    t.span("analysis.engine.symbolic", root, request, || {
        session.symbolic().is_ok()
    });
    t.span("maxplus.eigen", root, request, || {
        session.eigenvalue().is_ok()
    });
    if let Ok(gamma) = session.repetition_vector() {
        work.firings += gamma.iteration_length();
    }
    if let Ok(sym) = session.symbolic() {
        work.tokens += sym.num_tokens() as u64;
    }
    let curve = t.span("analysis.buffer.tradeoff", root, request, || {
        pool.install(|| session.throughput_buffer_tradeoff(16))
    });
    match curve {
        Ok(curve) => pareto_text(&curve),
        Err(e) => format!("error: {e}"),
    }
}
