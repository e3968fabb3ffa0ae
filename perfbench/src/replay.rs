//! Traced replays: the steps one front-end call performs, re-issued from
//! the benchmark through each layer's public functions, each inside its
//! own span. The replays mirror `sdfr analyze --json`, `sdfr csdf --json`,
//! `sdfr analyze FILE.sadf --json` and the server's `/v1/analyze` handler,
//! and return the record line those produce, so a replay that drifts from
//! the real path shows up as a mismatch.

use std::sync::Arc;

use sdfr_analysis::registry::{Lookup, SessionRegistry};
use sdfr_analysis::AnalysisSession;
use sdfr_api::{AnalysisRequest, CsdfRecord, ScenarioSet, UnitRecord, UnitStatus, WorkloadKind};
use sdfr_core::degrade::{analyze_with_session, AnalysisOutcome};
use sdfr_graph::budget::Budget;

use crate::corpus::{Dialect, Item};
use crate::trace::Tracer;

/// Work counters gathered during replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Operations replayed.
    pub ops: u64,
    /// Actor (or phase) firings of one iteration, summed over operations.
    pub firings: u64,
    /// Initial tokens (matrix dimension), summed over operations.
    pub tokens: u64,
    /// Registry lookups answered from a resident session.
    pub hits: u64,
    /// Registry lookups that inserted a new session.
    pub misses: u64,
}

impl Work {
    /// Writes the work counters into a per-layer report: firings and
    /// tokens per operation, registry outcomes as totals.
    pub fn fill(&self, layers: &mut crate::trace::LayerReport) {
        let ops = self.ops.max(1) as f64;
        layers.set("engine.firings", self.firings as f64 / ops);
        layers.set("engine.tokens", self.tokens as f64 / ops);
        layers.set("registry.hits", self.hits as f64);
        layers.set("registry.misses", self.misses as f64);
        let lookups = (self.hits + self.misses).max(1) as f64;
        layers.set("registry.hit_ratio", self.hits as f64 / lookups);
    }

    fn lookup(&mut self, lookup: Lookup) {
        match lookup {
            Lookup::Hit => self.hits += 1,
            Lookup::Miss => self.misses += 1,
            Lookup::Bypass => {}
        }
    }

    fn session(&mut self, session: &AnalysisSession) {
        if let Ok(gamma) = session.repetition_vector() {
            self.firings += gamma.iteration_length();
        }
        if let Ok(sym) = session.symbolic() {
            self.tokens += sym.num_tokens() as u64;
        }
    }
}

/// Replays the analysis of one item under span `root`: the CLI path for
/// its dialect (a fresh registry per call, like the CLI), or, with a
/// `registry`, the server's path through that shared registry.
pub fn item(
    t: &mut Tracer,
    root: u32,
    request: u64,
    item: &Item,
    registry: Option<&SessionRegistry>,
    work: &mut Work,
) -> String {
    work.ops += 1;
    match item.dialect {
        Dialect::Sdf => {
            let fresh;
            let registry = match registry {
                Some(r) => r,
                None => {
                    fresh = SessionRegistry::new();
                    &fresh
                }
            };
            sdf(t, root, request, &item.name, &item.content, registry, work)
        }
        Dialect::Csdf => csdf(t, root, request, item, work),
        Dialect::Sadf => sadf(t, root, request, item, work),
    }
}

/// The SDF analysis behind `sdfr analyze --json` and `/v1/analyze`.
pub fn sdf(
    t: &mut Tracer,
    root: u32,
    request: u64,
    name: &str,
    content: &str,
    registry: &SessionRegistry,
    work: &mut Work,
) -> String {
    let graph = match t.span("io.parse", root, request, || {
        sdfr_io::text::from_text(content)
    }) {
        Ok(g) => Arc::new(g),
        Err(e) => return format!("parse error: {e}"),
    };
    let (session, lookup) = t.span("analysis.registry.lookup", root, request, || {
        registry.lookup(&graph, &Budget::unlimited())
    });
    work.lookup(lookup);
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
    let outcome = t.span("core.degrade", root, request, || {
        analyze_with_session(&session)
    });
    work.session(&session);
    t.span("api.record", root, request, || {
        let mut record = match &outcome {
            Ok(outcome) => UnitRecord::standalone(name, UnitStatus::from_outcome(outcome), 0),
            Err(e) => UnitRecord::standalone(
                name,
                UnitStatus::Error {
                    message: e.to_string(),
                },
                1,
            ),
        };
        record.fingerprint = Some(session.fingerprint());
        record.to_json_line()
    })
}

fn csdf(t: &mut Tracer, root: u32, request: u64, item: &Item, work: &mut Work) -> String {
    let g = match t.span("io.parse", root, request, || {
        sdfr_io::csdf::from_text(&item.content)
    }) {
        Ok(g) => g,
        Err(e) => return format!("parse error: {e}"),
    };
    let sym = match t.span("csdf.symbolic", root, request, || {
        sdfr_csdf::symbolic_iteration(&g)
    }) {
        Ok(sym) => sym,
        Err(e) => return format!("analysis error: {e}"),
    };
    let thr = t.span("maxplus.eigen", root, request, || {
        sdfr_csdf::throughput_from_symbolic(&sym)
    });
    let firings = sym.repetition.iteration_length(&g);
    work.firings += firings;
    work.tokens += sym.tokens.len() as u64;
    let hsdf = t.span("csdf.hsdf", root, request, || {
        sdfr_csdf::hsdf_from_symbolic(&sym, g.name())
    });
    t.span("api.record", root, request, || {
        CsdfRecord {
            file: item.name.clone(),
            status: UnitStatus::Exact {
                period: thr.period.map(|p| p.to_string()),
            },
            phase_firings: Some(firings),
            hsdf: Some((
                hsdf.num_actors(),
                hsdf.num_channels(),
                hsdf.total_initial_tokens(),
            )),
            exit: 0,
        }
        .to_json_line()
    })
}

fn sadf(t: &mut Tracer, root: u32, request: u64, item: &Item, work: &mut Work) -> String {
    let doc = match t.span("io.parse", root, request, || {
        sdfr_io::sadf::from_text(&item.content)
    }) {
        Ok(doc) => doc,
        Err(e) => return format!("parse error: {e}"),
    };
    let workload = sdfr_sadf::Workload::from_doc(doc);
    let registry = SessionRegistry::new();
    let analysis = match t.span("sadf.analyze", root, request, || {
        sdfr_sadf::analyze_workload(&workload, &registry, &Budget::unlimited())
    }) {
        Ok(a) => a,
        Err(e) => return format!("analysis error: {e}"),
    };
    for (session, lookup) in &analysis.sessions {
        work.lookup(*lookup);
        work.session(session);
    }
    t.span("api.record", root, request, || {
        let mut record =
            UnitRecord::standalone(&item.name, UnitStatus::from_outcome(&analysis.outcome), 0);
        record.workload_kind = WorkloadKind::Sadf;
        if matches!(analysis.outcome, AnalysisOutcome::Exact(_)) {
            record.scenarios = Some(ScenarioSet {
                periods: analysis
                    .scenarios
                    .iter()
                    .map(|s| (s.name.clone(), s.eigenvalue.map(|p| p.to_string())))
                    .collect(),
                cycle: analysis.cycle.clone(),
            });
        }
        record.to_json_line()
    })
}

/// The server's CPU path for one `/v1/analyze` request, from the exact
/// request bytes: HTTP parse, request parse, then [`sdf`] through the
/// server-like `registry`. Returns the response body line.
pub fn served(
    t: &mut Tracer,
    root: u32,
    request: u64,
    bytes: &[u8],
    registry: &SessionRegistry,
    work: &mut Work,
) -> String {
    work.ops += 1;
    let parsed = t.span("cli.http.parse", root, request, || {
        sdfr_cli::http::parse_request(bytes, 8 * 1024 * 1024)
    });
    let body = match parsed {
        Ok(sdfr_cli::http::Parsed::Complete(r)) => r.body,
        _ => return "http parse error".to_string(),
    };
    let req = match t.span("api.request_parse", root, request, || {
        AnalysisRequest::from_json(&body)
    }) {
        Ok(req) => req,
        Err(e) => return format!("request error: {e}"),
    };
    let Some(g) = req.graphs.first() else {
        return "request without a graph".to_string();
    };
    sdf(t, root, request, &g.name, &g.content, registry, work)
}
