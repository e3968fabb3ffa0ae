//! The server workloads: a spawned `sdfr serve` driven over loopback HTTP
//! by at most `nproc` load threads.
//!
//! - `serve-hot`: default server options; closed-loop clients, one
//!   keep-alive connection each, `POST /v1/analyze` drawn Zipf-style from
//!   a hot set warmed during set-up, so every answer is a registry hit.
//! - `serve-churn`: `--cache-dir` (fresh), `--cache-entries 4`; open-loop
//!   Poisson arrivals at a fixed rate, a fresh connection per request (as
//!   the `sdfr --server` client does), and every graph new to the run, so
//!   every request is a registry miss, an insert, an eviction and a journal
//!   append. Latency counts from each request's due time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sdfr_analysis::registry::{RegistryConfig, SessionRegistry};

use crate::corpus::{self, Item};
use crate::net::{self, Server};
use crate::replay::{self, Work};
use crate::report::{median, percentile, Outcome};
use crate::trace::{LayerReport, Tracer};
use crate::Ctx;

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `serve-churn` offered load, requests per second.
pub const CHURN_RATE: f64 = 45.0;
/// `serve-churn` registry capacity (`--cache-entries`).
const CHURN_ENTRIES: usize = 4;
/// `serve-churn` journal compaction threshold (`--cache-compact-bytes`):
/// above what one run appends, so no compaction lands in the measured
/// window. A compaction replays the whole journal under the writer lock
/// (about 1 s per MiB on a 2-core host), and a handful of such stalls per
/// run made the open-loop figures unsteady; `perfbench/NOTES.md` reports
/// the stall as a found defect.
const CHURN_COMPACT_BYTES: u64 = 256 << 20;

/// One request as seen from the client.
#[derive(Debug, Clone)]
struct Sample {
    /// Index into the workload's items.
    item: usize,
    /// When the request was due (open loop) or issued (closed loop).
    due: Instant,
    /// Connect start and end, when the request opened a connection.
    connect: Option<(Instant, Instant)>,
    /// Request written, first response byte, response complete.
    sent: Instant,
    first_byte: Instant,
    done: Instant,
    ok: bool,
}

impl Sample {
    fn latency_ns(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_nanos() as f64
    }
}

/// The load threads' shared results.
#[derive(Debug, Default)]
struct Results {
    samples: Vec<Sample>,
    failed: u64,
    errors: Vec<String>,
}

impl Results {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// The number of load threads: `nproc`, at most two.
fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Expected answers: the in-process `analyze --json` line of every item,
/// itself checked against the item's independent expected period.
fn expected_lines(items: &[Item], out: &mut Outcome, count: bool) -> Vec<String> {
    items
        .iter()
        .map(|item| {
            let answer = sdfr_cli::run(&item.analyze_args());
            let want = format!("\"status\":\"exact\",\"period\":{}", item.period_json());
            let ok = answer.as_ref().is_ok_and(|l| l.contains(&want));
            if count {
                out.tally.add(ok);
            }
            if !ok {
                out.error(format!("{}: in-process answer lacks {want}", item.name));
            }
            answer.unwrap_or_default()
        })
        .collect()
}

/// Sends every item once, in name order, over one keep-alive connection,
/// checking each answer against `expected`; returns the number of
/// failures. One connection and a fixed order keep the server's warm-up
/// allocations, and so its peak RSS, the same from run to run.
fn warm(addr: &str, items: &[Item], requests: &[Vec<u8>], expected: &[String]) -> u64 {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| items[a].name.cmp(&items[b].name));
    let mut failures = 0;
    let mut conn = None;
    for i in order {
        if conn.is_none() {
            conn = net::connect(addr).ok();
        }
        let ok = conn.as_mut().is_some_and(|stream| {
            net::exchange(stream, &requests[i])
                .is_ok_and(|r| r.status == 200 && r.body == expected[i].as_bytes())
        });
        if !ok {
            failures += 1;
            conn = None;
        }
    }
    failures
}

/// Counter deltas from two `/v1/stats` documents.
fn stats_delta(before: &str, after: &str, layers: &mut LayerReport) {
    let d = |section: &str, key: &str| {
        net::stat(after, section, key).saturating_sub(net::stat(before, section, key)) as f64
    };
    let (hits, misses) = (d("registry", "hits"), d("registry", "misses"));
    layers.set("registry.hits", hits);
    layers.set("registry.misses", misses);
    layers.set("registry.evictions", d("registry", "evictions"));
    layers.set("registry.hit_ratio", hits / (hits + misses).max(1.0));
    layers.set(
        "connections.reused_ratio",
        d("connections", "reused_requests") / d("", "requests").max(1.0),
    );
    layers.set("journal.appended", d("persistence", "journal_appended"));
    layers.set("journal.compactions", d("incremental", "compactions"));
    layers.set("pool.executed", d("pool", "executed"));
    layers.set("pool.stolen", d("pool", "stolen"));
}

/// Builds the request spans from client timestamps and replays each
/// request's server-side CPU layers in-process, through `registry`, in send
/// order. Returns the per-layer report.
fn trace_requests(
    ctx: &Ctx,
    samples: &[Sample],
    requests: &[Vec<u8>],
    expected: &[String],
    registry: &SessionRegistry,
    out: &mut Outcome,
) -> LayerReport {
    let t0 = Instant::now();
    let mut order: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    order.sort_by_key(|s| s.sent);
    let epoch = order.iter().map(|s| s.due).min().unwrap_or(t0);
    let mut tracer = Tracer::with_epoch(epoch);
    let mut work = Work::default();
    let (mut e2e_ns, mut ttfb_ns, mut cpu_ns) = (0f64, 0f64, 0f64);
    let mut mismatches = 0u64;
    for (n, s) in order.iter().enumerate() {
        let request = n as u64 + 1;
        let root = tracer.record("request", None, request, s.due, s.done);
        if let Some((a, b)) = s.connect {
            tracer.record("net.connect", Some(root), request, a, b);
        }
        tracer.record("net.ttfb", Some(root), request, s.sent, s.first_byte);
        tracer.record("net.body", Some(root), request, s.first_byte, s.done);
        let replay_root = tracer.open("replay", None, request);
        let line = replay::served(
            &mut tracer,
            replay_root,
            request,
            &requests[s.item],
            registry,
            &mut work,
        );
        tracer.close(replay_root);
        if line + "\n" != expected[s.item] {
            mismatches += 1;
        }
        e2e_ns += s.latency_ns();
        ttfb_ns += s.first_byte.saturating_duration_since(s.sent).as_nanos() as f64;
        cpu_ns += tracer.children_time(replay_root) as f64;
    }
    let ops = order.len().max(1) as f64;
    let mut layers = LayerReport::from_tracer(&tracer, order.len() as u64, e2e_ns);
    work.fill(&mut layers);
    layers.set("serve.wait_us", (ttfb_ns - cpu_ns) / 1e3 / ops);
    layers.set(
        "trace.overhead_us",
        t0.elapsed().as_nanos() as f64 / 1e3 / ops,
    );
    out.notes.push(format!(
        "per request: ttfb {:.1} us = replayed server CPU {:.1} us + serve.wait {:.1} us; \
         {mismatches} replay line(s) differed from the served bytes; spans are built from \
         client timestamps after the window, so tracing adds no work inside it",
        ttfb_ns / 1e3 / ops,
        cpu_ns / 1e3 / ops,
        (ttfb_ns - cpu_ns) / 1e3 / ops
    ));
    ctx.keep_trace(&tracer, out);
    layers
}

/// Fills the end-to-end metrics shared by both server workloads.
fn e2e(out: &mut Outcome, setups: &mut [f64], rss: f64, samples: &[Sample], window: f64) {
    let mut lat: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(Sample::latency_ns)
        .collect();
    let completed = lat.len() as f64;
    out.e2e = vec![
        ("setup_s", median(setups)),
        ("peak_rss_mb", rss),
        ("op_ms_p50", percentile(&mut lat, 50.0) / 1e6),
        ("op_ms_p90", percentile(&mut lat, 90.0) / 1e6),
        ("ops_per_s", completed / window),
    ];
}

/// `serve-hot`.
pub fn serve_hot(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let threads = load_threads();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut items = Vec::new();
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            if let Err(e) = Server::shutdown(previous) {
                out.error(e);
            }
        }
        let t0 = Instant::now();
        items = match corpus::hot_set(ctx.seed) {
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
        expected = expected_lines(&items, &mut out, k == 0);
        requests = items
            .iter()
            .map(|i| corpus::request_bytes(i, false))
            .collect();
        let s = match Server::spawn(&[]) {
            Ok(s) => s,
            Err(e) => {
                out.tally.add(false);
                out.error(e);
                return out;
            }
        };
        let failures = warm(&s.addr, &items, &requests, &expected);
        if k == 0 {
            out.tally.attempted += items.len() as u64;
            out.tally.failed += failures;
        }
        if failures > 0 {
            out.error(format!("{failures} warm-up answer(s) failed"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("set-up ran");
    let before = server.stats().unwrap_or_default();

    let results = Mutex::new(Results::default());
    let start = Instant::now();
    let deadline = start + ctx.seconds;
    std::thread::scope(|s| {
        for c in 0..threads {
            let (results, requests, expected) = (&results, &requests, &expected);
            let addr = server.addr.clone();
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut errors = Vec::new();
                let mut conn = None;
                for index in corpus::hot_stream(ctx.seed, c) {
                    let issued = Instant::now();
                    if issued >= deadline {
                        break;
                    }
                    let mut connect = None;
                    if conn.is_none() {
                        match net::connect(&addr) {
                            Ok(stream) => {
                                connect = Some((issued, Instant::now()));
                                conn = Some(stream);
                            }
                            Err(e) => {
                                errors.push(e);
                                std::thread::sleep(Duration::from_millis(10));
                                continue;
                            }
                        }
                    }
                    let stream = conn.as_mut().expect("connected above");
                    match net::exchange(stream, &requests[index]) {
                        Ok(r) => {
                            let ok = r.status == 200 && r.body == expected[index].as_bytes();
                            if !ok {
                                errors.push(format!(
                                    "{}: status {}, body {:?}",
                                    index,
                                    r.status,
                                    String::from_utf8_lossy(&r.body)
                                ));
                            }
                            if r.close {
                                conn = None;
                            }
                            mine.push(Sample {
                                item: index,
                                due: issued,
                                connect,
                                sent: r.sent,
                                first_byte: r.first_byte,
                                done: r.done,
                                ok,
                            });
                        }
                        Err(e) => {
                            errors.push(e);
                            conn = None;
                        }
                    }
                }
                let mut r = results.lock().expect("results lock");
                r.samples.extend(mine);
                for e in errors {
                    r.fail(e);
                }
            });
        }
    });
    let window = start.elapsed().as_secs_f64();
    let after = server.stats().unwrap_or_default();
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    if let Err(e) = server.shutdown() {
        out.error(e);
    }
    let results = results.into_inner().expect("results lock");
    finish(&mut out, &results);
    e2e(&mut out, &mut setups, rss, &results.samples, window);
    out.notes.push(format!(
        "serve-hot: {} requests from {threads} keep-alive client(s) over {} hot graphs in {window:.3} s",
        results.samples.len(),
        items.len()
    ));
    if ctx.trace {
        // A server-like registry, warmed by the same set-up requests.
        let registry = SessionRegistry::new();
        let mut scratch = Tracer::new();
        let mut work = Work::default();
        for bytes in &requests {
            let root = scratch.open("warm", None, 0);
            replay::served(&mut scratch, root, 0, bytes, &registry, &mut work);
        }
        let mut layers = trace_requests(
            ctx,
            &results.samples,
            &requests,
            &expected,
            &registry,
            &mut out,
        );
        stats_delta(&before, &after, &mut layers);
        out.layers = Some(layers);
    }
    out
}

/// `serve-churn`.
pub fn serve_churn(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let threads = load_threads();
    let horizon = ctx.seconds.as_secs_f64();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let mut arrivals = Vec::new();
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            if let Err(e) = Server::shutdown(previous) {
                out.error(e);
            }
        }
        let t0 = Instant::now();
        arrivals = corpus::arrivals(ctx.seed, CHURN_RATE, horizon);
        let items = match corpus::churn(ctx.seed, arrivals.len()) {
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
        expected = expected_lines(&items, &mut out, k == 0);
        requests = items
            .iter()
            .map(|i| corpus::request_bytes(i, true))
            .collect();
        let cache = ctx.dir.join(format!("cache-{k}"));
        let _ = std::fs::remove_dir_all(&cache);
        let args = vec![
            "--cache-dir".to_string(),
            cache.to_string_lossy().into_owned(),
            "--cache-entries".to_string(),
            CHURN_ENTRIES.to_string(),
            "--cache-compact-bytes".to_string(),
            CHURN_COMPACT_BYTES.to_string(),
        ];
        match Server::spawn(&args) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.tally.add(false);
                out.error(e);
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let server = server.expect("set-up ran");
    let before = server.stats().unwrap_or_default();

    let results = Mutex::new(Results::default());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let (results, requests, expected, arrivals, next) =
                (&results, &requests, &expected, &arrivals, &next);
            let addr = server.addr.clone();
            s.spawn(move || {
                let mut mine = Vec::new();
                let mut errors = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = arrivals.get(i) else {
                        break;
                    };
                    let due = start + Duration::from_secs_f64(offset);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let connect_start = Instant::now();
                    let result = net::connect(&addr).and_then(|mut stream| {
                        let connected = Instant::now();
                        net::exchange(&mut stream, &requests[i]).map(|r| (connected, r))
                    });
                    match result {
                        Ok((connected, r)) => {
                            let ok = r.status == 200 && r.body == expected[i].as_bytes();
                            if !ok {
                                errors.push(format!(
                                    "{}: status {}, body {:?}",
                                    i,
                                    r.status,
                                    String::from_utf8_lossy(&r.body)
                                ));
                            }
                            mine.push(Sample {
                                item: i,
                                due,
                                connect: Some((connect_start, connected)),
                                sent: r.sent,
                                first_byte: r.first_byte,
                                done: r.done,
                                ok,
                            });
                        }
                        Err(e) => errors.push(format!("{i}: {e}")),
                    }
                }
                let mut r = results.lock().expect("results lock");
                r.samples.extend(mine);
                for e in errors {
                    r.fail(e);
                }
            });
        }
    });
    // Throughput over the time the offered requests actually took.
    let window = results
        .lock()
        .expect("results lock")
        .samples
        .iter()
        .map(|s| s.done.saturating_duration_since(start).as_secs_f64())
        .fold(horizon / 2.0, f64::max);
    let after = server.stats().unwrap_or_default();
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    if let Err(e) = server.shutdown() {
        out.error(e);
    }
    let results = results.into_inner().expect("results lock");
    finish(&mut out, &results);
    e2e(&mut out, &mut setups, rss, &results.samples, window);
    let mut late: Vec<f64> = results
        .samples
        .iter()
        .filter_map(|s| {
            s.connect
                .map(|(c, _)| c.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        })
        .collect();
    let late_p90 = percentile(&mut late, 90.0);
    out.provenance
        .push(("offered_rate_per_s", format!("{CHURN_RATE}")));
    out.provenance
        .push(("gen_late_ms_p90", format!("{late_p90}")));
    out.notes.push(format!(
        "serve-churn: {} requests offered at {CHURN_RATE}/s (Poisson), one fresh connection \
         each, {threads} load thread(s); generator lateness p90 {late_p90:.3} ms",
        arrivals.len()
    ));
    if ctx.trace {
        let registry = SessionRegistry::with_config(RegistryConfig {
            max_entries: CHURN_ENTRIES,
            ..RegistryConfig::default()
        });
        let mut layers = trace_requests(
            ctx,
            &results.samples,
            &requests,
            &expected,
            &registry,
            &mut out,
        );
        stats_delta(&before, &after, &mut layers);
        layers.set("gen.late_ms_p90", late_p90);
        out.layers = Some(layers);
    }
    out
}

/// Folds the load threads' tally into the outcome: every request sent is
/// attempted; a wrong body, a non-200 status, a transport error or a
/// timeout is a failure.
fn finish(out: &mut Outcome, results: &Results) {
    let ok = results.samples.iter().filter(|s| s.ok).count() as u64;
    out.tally.attempted += ok + results.failed;
    out.tally.failed += results.failed;
    for e in &results.errors {
        out.error(e.clone());
    }
}
