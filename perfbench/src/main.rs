//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload from the root of a checkout and prints, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or
//! per-layer metrics with `--trace 1`). Human-readable notes, the
//! per-layer table and a provenance line come before it.
//!
//! `perfbench serve-child ARGS…` is the spawned server: it runs
//! `sdfr_cli::run(ARGS)` exactly as the `sdfr` binary's `main` does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use sdfr_perfbench::{report, Ctx, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn serve_child(args: &[String]) -> i32 {
    match catch_unwind(AssertUnwindSafe(|| sdfr_cli::run(args))) {
        Ok(Ok(report)) => {
            print!("{report}");
            sdfr_cli::EXIT_OK
        }
        Ok(Err(e)) => {
            eprintln!("{e}");
            e.exit_code()
        }
        Err(_) => {
            eprintln!("sdfr: internal error (this is a bug)");
            sdfr_cli::EXIT_PANIC
        }
    }
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let base = root.join(".perfbench");
    Ok(Ctx {
        dir: base.join(format!("run-{}", std::process::id())),
        trace_dir: base.join("traces"),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        std::process::exit(serve_child(&args[1..]));
    }
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Provenance is read before the run changes directory into its
    // scratch space.
    let common = vec![
        ("workload", format!("\"{}\"", ctx.workload)),
        ("seed", ctx.seed.to_string()),
        ("run_seconds", format!("{}", ctx.seconds.as_secs_f64())),
        ("traced", ctx.trace.to_string()),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("commit", report::commit()),
        ("source_digest", format!("\"{}\"", report::source_digest())),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "\"debug\"".to_string()
            } else {
                "\"release\"".to_string()
            },
        ),
    ];
    for dir in [&ctx.dir, &ctx.trace_dir] {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(3);
        }
    }
    if let Err(e) = std::env::set_current_dir(&ctx.dir) {
        eprintln!("perfbench: cannot enter {}: {e}", ctx.dir.display());
        std::process::exit(3);
    }
    let outcome = sdfr_perfbench::run(&ctx);
    let _ = std::env::set_current_dir("../..");
    let _ = std::fs::remove_dir_all(&ctx.dir);

    for note in &outcome.notes {
        println!("{note}");
    }
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let failed_share = outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64;
    println!(
        "answers: {} attempted, {} failed (failed_share {failed_share})",
        outcome.tally.attempted, outcome.tally.failed
    );
    if let Some(layers) = &outcome.layers {
        print!("{}", layers.table(&ctx.workload));
    } else {
        for (name, value) in &outcome.e2e {
            println!("  {name:<12} {value}");
        }
    }
    println!("provenance: {}", report::provenance_json(&common, &outcome));
    println!("{}", report::result_json(&outcome, ctx.trace));
}
