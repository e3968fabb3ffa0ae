//! The sdfr benchmark: seeded inputs, workloads driven through the
//! program's public entry points (`sdfr_cli::run` in-process, and a spawned
//! `sdfr serve` over loopback HTTP), answer checks, and per-layer tracing
//! from outside the program.

pub mod corpus;
pub mod inproc;
pub mod net;
pub mod replay;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

use report::Outcome;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["analyze-cold", "serve-hot", "serve-churn", "pareto-sweep"];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload name.
    pub workload: String,
    /// The input seed.
    pub seed: u64,
    /// The measured window.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The run's scratch directory (generated inputs, server cache).
    pub dir: PathBuf,
    /// Where span files are written.
    pub trace_dir: PathBuf,
}

impl Ctx {
    /// Writes the run's first spans to
    /// `<trace_dir>/<workload>-seed<seed>.jsonl`; all of them feed the
    /// per-layer report, the cap only bounds the file.
    pub fn keep_trace(&self, tracer: &Tracer, out: &mut Outcome) {
        const WRITTEN: usize = 50_000;
        let path = self
            .trace_dir
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed));
        match tracer.write_jsonl(&path, WRITTEN) {
            Ok(()) => out.notes.push(format!(
                "{} of {} spans written to {}",
                tracer.len().min(WRITTEN),
                tracer.len(),
                path.display()
            )),
            Err(e) => out.notes.push(format!("spans not written: {e}")),
        }
    }
}

/// Runs one workload.
pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload.as_str() {
        "analyze-cold" => inproc::analyze_cold(ctx),
        "pareto-sweep" => inproc::pareto_sweep(ctx),
        "serve-hot" => serve::serve_hot(ctx),
        "serve-churn" => serve::serve_churn(ctx),
        other => unreachable!("unknown workload {other}"),
    }
}
