//! Seeded benchmark inputs and their expected answers.
//!
//! Every input the program sees is generated here from the `--seed`
//! argument alone: graph files (SDF text, CSDF text, `.sadf` workloads) and
//! the request streams the server workloads send. The expected answer of
//! each item is fixed at generation time from a source independent of the
//! timed path:
//!
//! - Table-1 graphs: the periods pinned in the repository's goldens;
//! - Fig. 1(a) members: the closed form `5n - 7`;
//! - random SDF graphs: the checked reference executor
//!   (`sdfr_analysis::reference::reference_period`);
//! - CSDF rings and their SADF encodings: the CSDF == cyclic-FSM
//!   differential (the CSDF period is the phase count times the lattice
//!   period of the cyclic-FSM workload).
//!
//! Seeds vary actor and channel declaration order, names of random graphs
//! and the random graphs themselves, but not the composition of a corpus
//! (how many items of which slice, from which size ranges), so run-to-run
//! figures stay comparable across seeds.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdfr_analysis::registry::SessionRegistry;
use sdfr_benchmarks::random::{random_live_sdf, RandomSdfConfig};
use sdfr_benchmarks::regular::Figure1;
use sdfr_benchmarks::table1;
use sdfr_core::degrade::AnalysisOutcome;
use sdfr_csdf::CsdfGraph;
use sdfr_graph::budget::Budget;
use sdfr_graph::SdfGraph;
use sdfr_io::sadf::SadfDoc;
use sdfr_maxplus::Rational;
use sdfr_sadf::{analyze_workload, workload_from_csdf, Workload};

/// The Table-1 iteration periods, in `table1::all()` order, copied from
/// `crates/benchmarks/tests/table1_goldens.rs`.
pub const TABLE1_PERIODS: [i64; 8] = [288684, 108900, 22, 95550, 89700, 20725, 3234, 1800];

/// The Table-1 cases whose Pareto sweep stays under the capacity-probe
/// limit: h.263 encoder, modem, mp3 granule parallel, sample rate.
const PARETO_TABLE1: [usize; 4] = [1, 2, 4, 6];

/// Which dialect an item is written in, and so which CLI command reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Plain SDF text: `sdfr analyze FILE --json` / `sdfr pareto FILE`.
    Sdf,
    /// Cyclo-static text: `sdfr csdf FILE --json`.
    Csdf,
    /// Scenario-aware workload: `sdfr analyze FILE.sadf --json`.
    Sadf,
}

/// One generated input file and its expected answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// File name (bare, relative to the run's work directory); also the
    /// display name in server requests.
    pub name: String,
    /// The corpus slice the item belongs to (`table1`, `fig1a`,
    /// `random-sdf`, `csdf`, `sadf`, `churn`).
    pub slice: &'static str,
    /// How the program reads it.
    pub dialect: Dialect,
    /// The exact file content.
    pub content: String,
    /// The expected iteration period as the program prints it (`None` =
    /// no recurrent constraint, printed as `null`).
    pub period: Option<String>,
}

impl Item {
    /// The CLI arguments of the in-process analysis of this item.
    pub fn analyze_args(&self) -> Vec<String> {
        let command = if self.dialect == Dialect::Csdf {
            "csdf"
        } else {
            "analyze"
        };
        vec![command.to_string(), self.name.clone(), "--json".to_string()]
    }

    /// The `"period"` value an exact record for this item carries.
    pub fn period_json(&self) -> String {
        match &self.period {
            Some(p) => format!("\"{p}\""),
            None => "null".to_string(),
        }
    }
}

/// A failure to build a corpus: a differential the generator relies on did
/// not hold. Reported as failed operations, never silently skipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusError(pub String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A small SplitMix64 stream for the benchmark's own draws (orderings,
/// request mixes, arrival times), independent of the generators' `rand`.
#[derive(Debug, Clone)]
pub struct Draw(u64);

impl Draw {
    /// A stream derived from `seed` and a purpose tag, so streams for
    /// different purposes never share draws.
    pub fn new(seed: u64, tag: u64) -> Draw {
        Draw(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher-Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// Rebuilds `g` with actors and channels declared in a seeded order: the
/// same graph (same period, same iteration), a different file.
fn shuffled(g: &SdfGraph, name: &str, draw: &mut Draw) -> SdfGraph {
    let actors: Vec<_> = g.actors().collect();
    let channels: Vec<_> = g.channels().collect();
    let mut b = SdfGraph::builder(name);
    let mut ids = vec![None; actors.len()];
    for i in draw.permutation(actors.len()) {
        let (id, a) = actors[i];
        ids[id.index()] = Some(b.actor(a.name(), a.execution_time()));
    }
    for i in draw.permutation(channels.len()) {
        let (_, c) = channels[i];
        b.channel(
            ids[c.source().index()].expect("every actor is declared"),
            ids[c.target().index()].expect("every actor is declared"),
            c.production(),
            c.consumption(),
            c.initial_tokens(),
        )
        .expect("a reordered valid channel stays valid");
    }
    b.build().expect("a reordered valid graph stays valid")
}

fn sdf_item(
    name: String,
    slice: &'static str,
    g: &SdfGraph,
    period: Option<Rational>,
    draw: &mut Draw,
) -> Item {
    let g = shuffled(g, &name, draw);
    Item {
        content: sdfr_io::text::to_text(&g),
        name: format!("{name}.sdf"),
        slice,
        dialect: Dialect::Sdf,
        period: period.map(|p| p.to_string()),
    }
}

/// The eight Table-1 graphs, or the subset at `indices`.
fn table1_items(indices: &[usize], draw: &mut Draw) -> Vec<Item> {
    let cases = table1::all();
    indices
        .iter()
        .map(|&i| {
            let slug: String = cases[i]
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            sdf_item(
                format!("t1-{slug}"),
                "table1",
                &cases[i].graph,
                Some(Rational::from(TABLE1_PERIODS[i])),
                draw,
            )
        })
        .collect()
}

fn fig1a_item(index: usize, n: u64, draw: &mut Draw) -> Item {
    let f = Figure1::new(n);
    sdf_item(
        format!("fig1a-{index:02}-n{n}"),
        "fig1a",
        &f.graph,
        Some(f.exact_period()),
        draw,
    )
}

/// Bounds on one random graph's work: iteration firings and initial
/// tokens (the symbolic matrix dimension). Drawing only graphs inside a
/// band keeps a slice's cost, and so the run's figures, from swinging with
/// the seed.
#[derive(Debug, Clone, Copy)]
struct Band {
    firings: (u64, u64),
    tokens: (u64, u64),
}

impl Band {
    fn admits(&self, firings: u64, tokens: u64) -> bool {
        (self.firings.0..=self.firings.1).contains(&firings)
            && (self.tokens.0..=self.tokens.1).contains(&tokens)
    }
}

/// A random live SDF graph inside `band`, whose expected period comes
/// from the checked reference executor.
fn random_sdf_item(
    name: String,
    slice: &'static str,
    rng: &mut StdRng,
    cfg: &RandomSdfConfig,
    band: Band,
    draw: &mut Draw,
) -> Result<Item, CorpusError> {
    let g = loop {
        let g = random_live_sdf(rng, cfg);
        let firings = sdfr_graph::repetition::repetition_vector(&g)
            .map_err(|e| CorpusError(format!("{name}: generated graph is inconsistent: {e}")))?
            .iteration_length();
        if band.admits(firings, g.total_initial_tokens()) {
            break g;
        }
    };
    let period = sdfr_analysis::reference::reference_period(&g)
        .map_err(|e| CorpusError(format!("{name}: reference analysis failed: {e}")))?;
    Ok(sdf_item(name, slice, &g, period, draw))
}

/// A balanced cyclo-static ring: one phase count for every actor and
/// production == consumption per phase on every channel, so the ring is
/// exactly a cyclic scenario FSM over its per-phase SDF graphs. Tokens of
/// at least the largest rate keep every phase live.
fn balanced_ring(name: &str, rng: &mut StdRng, actors: usize, phases: usize) -> CsdfGraph {
    let mut b = CsdfGraph::builder(name);
    let ids: Vec<_> = (0..actors)
        .map(|i| {
            let times: Vec<i64> = (0..phases).map(|_| rng.gen_range(1..=9)).collect();
            b.actor(format!("a{i}"), times)
        })
        .collect();
    for i in 0..actors {
        let rates: Vec<u64> = (0..phases).map(|_| rng.gen_range(1..=3)).collect();
        let tokens = rates.iter().copied().max().unwrap_or(1) + rng.gen_range(0..=2);
        b.channel(ids[i], ids[(i + 1) % actors], rates.clone(), rates, tokens)
            .expect("rates are at least one");
    }
    b.build().expect("ring graphs are well-formed")
}

fn sadf_text(w: &Workload) -> String {
    sdfr_io::sadf::to_text(&SadfDoc {
        name: w.name.clone(),
        scenarios: w
            .scenarios
            .iter()
            .map(|s| (s.name.clone(), SdfGraph::clone(&s.graph)))
            .collect(),
        states: w.fsm.states.clone(),
        transitions: w.fsm.transitions.clone(),
        initial: w.fsm.initial,
    })
}

/// One balanced ring inside `band` as a `.csdf` item and its cyclic-FSM
/// `.sadf` item. The two expected periods are tied by the differential:
/// the CSDF pipeline's period must equal `phases x` the lattice period.
fn ring_items(
    index: usize,
    rng: &mut StdRng,
    actors: usize,
    phases: usize,
    band: Band,
) -> Result<(Item, Item), CorpusError> {
    let name = format!("ring-{index:03}");
    let g = loop {
        let g = balanced_ring(&name, rng, actors, phases);
        let firings = sdfr_csdf::repetition_vector(&g)
            .map_err(|e| CorpusError(format!("{name}: generated ring is inconsistent: {e}")))?
            .iteration_length(&g);
        if band.admits(firings, g.total_initial_tokens()) {
            break g;
        }
    };
    let fail = |what: String| CorpusError(format!("{name}: {what}"));
    let csdf_period = sdfr_csdf::throughput(&g)
        .map_err(|e| fail(format!("CSDF analysis failed: {e}")))?
        .period;
    let workload = workload_from_csdf(&g).map_err(|e| fail(format!("no FSM encoding: {e}")))?;
    let lattice = match analyze_workload(&workload, &SessionRegistry::new(), &Budget::unlimited())
        .map_err(|e| fail(format!("lattice analysis failed: {e}")))?
        .outcome
    {
        AnalysisOutcome::Exact(period) => period,
        other => return Err(fail(format!("lattice analysis degraded: {other:?}"))),
    };
    let scaled = lattice.map(|l| Rational::from(phases as i64) * l);
    if scaled != csdf_period {
        return Err(fail(format!(
            "CSDF period {csdf_period:?} != {phases} x lattice period {lattice:?}"
        )));
    }
    let csdf = Item {
        name: format!("{name}.csdf"),
        slice: "csdf",
        dialect: Dialect::Csdf,
        content: sdfr_io::csdf::to_text(&g),
        period: csdf_period.map(|p| p.to_string()),
    };
    let sadf = Item {
        name: format!("{name}.sadf"),
        slice: "sadf",
        dialect: Dialect::Sadf,
        content: sadf_text(&workload),
        period: lattice.map(|p| p.to_string()),
    };
    Ok((csdf, sadf))
}

/// Random-SDF shape of the `analyze-cold` slice.
fn cold_sdf_config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 6,
        max_actors: 9,
        max_gamma: 5,
        max_time: 20,
        extra_forward_edges: 4,
        back_edges: 2,
        self_loop_percent: 50,
        max_rate_multiplier: 2,
    }
}

/// Random-SDF shape of the server workloads (hot set and churn stream):
/// small graphs, so transport and registry work dominate.
fn served_sdf_config() -> RandomSdfConfig {
    RandomSdfConfig {
        min_actors: 4,
        max_actors: 8,
        max_gamma: 6,
        ..RandomSdfConfig::default()
    }
}

/// Work band of the server workloads' random graphs.
const SERVED_BAND: Band = Band {
    firings: (8, 30),
    tokens: (8, 40),
};

/// Items per slice of the `analyze-cold` corpus.
pub const COLD_FIG1A: usize = 6;
/// Random SDF graphs in the `analyze-cold` corpus.
pub const COLD_RANDOM: usize = 32;
/// Balanced rings feeding the CSDF slice of the `analyze-cold` corpus.
pub const COLD_CSDF: usize = 40;
/// Balanced rings feeding the SADF slice of the `analyze-cold` corpus.
pub const COLD_SADF: usize = 24;

/// The `analyze-cold` corpus: all eight Table-1 graphs, Fig. 1(a) members,
/// random live SDF graphs, and balanced CSDF rings with their SADF
/// encodings, in a seeded order.
pub fn analyze_cold(seed: u64) -> Result<Vec<Item>, CorpusError> {
    let mut draw = Draw::new(seed, 1);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01D);
    let mut items = table1_items(&(0..8).collect::<Vec<_>>(), &mut draw);
    for k in 0..COLD_FIG1A {
        let n = 80 + draw.below(10) as u64;
        items.push(fig1a_item(k, n, &mut draw));
    }
    let cfg = cold_sdf_config();
    let band = Band {
        firings: (16, 24),
        tokens: (20, 30),
    };
    for i in 0..COLD_RANDOM {
        items.push(random_sdf_item(
            format!("rnd-{i:03}"),
            "random-sdf",
            &mut rng,
            &cfg,
            band,
            &mut draw,
        )?);
    }
    let csdf_band = Band {
        firings: (20, 40),
        tokens: (20, 28),
    };
    for i in 0..COLD_CSDF {
        items.push(ring_items(i, &mut rng, 7, 3, csdf_band)?.0);
    }
    let sadf_band = Band {
        firings: (6, 12),
        tokens: (16, 20),
    };
    for i in 0..COLD_SADF {
        items.push(ring_items(COLD_CSDF + i, &mut rng, 5, 2, sadf_band)?.1);
    }
    let order = draw.permutation(items.len());
    Ok(order.into_iter().map(|i| items[i].clone()).collect())
}

/// The `pareto-sweep` corpus: the four Table-1 graphs under the
/// capacity-probe limit plus small Fig. 1(a) members, in a seeded order.
pub fn pareto(seed: u64) -> Vec<Item> {
    let mut draw = Draw::new(seed, 2);
    let mut items = table1_items(&PARETO_TABLE1, &mut draw);
    for n in 5..=8 {
        items.push(fig1a_item(n as usize - 5, n, &mut draw));
    }
    let order = draw.permutation(items.len());
    order.into_iter().map(|i| items[i].clone()).collect()
}

/// Graphs in the `serve-hot` hot set.
pub const HOT_SET: usize = 32;

/// The `serve-hot` hot set: the eight Table-1 graphs, eight Fig. 1(a)
/// members and sixteen random live SDF graphs, in a seeded popularity
/// order (index 0 is the most requested).
pub fn hot_set(seed: u64) -> Result<Vec<Item>, CorpusError> {
    let mut draw = Draw::new(seed, 3);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x407);
    let mut items = table1_items(&(0..8).collect::<Vec<_>>(), &mut draw);
    for k in 0..8 {
        items.push(fig1a_item(
            k,
            5 + 3 * k as u64 + draw.below(3) as u64,
            &mut draw,
        ));
    }
    let cfg = served_sdf_config();
    for i in 0..HOT_SET - 16 {
        items.push(random_sdf_item(
            format!("hot-{i:03}"),
            "random-sdf",
            &mut rng,
            &cfg,
            SERVED_BAND,
            &mut draw,
        )?);
    }
    let order = draw.permutation(items.len());
    Ok(order.into_iter().map(|i| items[i].clone()).collect())
}

/// `count` random live SDF graphs with pairwise distinct content
/// fingerprints: every `serve-churn` request is new to the server.
pub fn churn(seed: u64, count: usize) -> Result<Vec<Item>, CorpusError> {
    let mut draw = Draw::new(seed, 4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A2);
    let cfg = served_sdf_config();
    let mut seen = std::collections::HashSet::new();
    let mut items = Vec::with_capacity(count);
    while items.len() < count {
        let item = random_sdf_item(
            format!("churn-{:04}", items.len()),
            "churn",
            &mut rng,
            &cfg,
            SERVED_BAND,
            &mut draw,
        )?;
        let g = sdfr_io::text::from_text(&item.content)
            .map_err(|e| CorpusError(format!("{}: {e}", item.name)))?;
        if seen.insert(g.fingerprint()) {
            items.push(item);
        }
    }
    Ok(items)
}

/// The request body that asks `/v1/analyze` for `item`: a flat
/// `sdfr-api/1` request, the shape the `sdfr --server` client sends.
fn analyze_request(item: &Item) -> String {
    sdfr_api::AnalysisRequest {
        graphs: vec![sdfr_api::GraphSource {
            name: item.name.clone(),
            content: item.content.clone(),
        }],
        ..Default::default()
    }
    .to_json()
}

/// The exact bytes of the `POST /v1/analyze` request for `item`. `close`
/// adds `Connection: close`, as the `sdfr --server` client sends; the
/// `Host` header is fixed so the stream does not depend on the port.
pub fn request_bytes(item: &Item, close: bool) -> Vec<u8> {
    let body = analyze_request(item);
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST /v1/analyze HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{connection}\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Zipf(1) sampling over `n` ranks by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over ranks `0..n` with weight `1 / (rank + 1)`.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, draw: &mut Draw) -> usize {
        let u = draw.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The `serve-hot` request stream of client `client`: hot-set ranks, one
/// per request, as an endless seeded sequence.
pub fn hot_stream(seed: u64, client: usize) -> impl Iterator<Item = usize> {
    let zipf = Zipf::new(HOT_SET);
    let mut draw = Draw::new(seed, 100 + client as u64);
    std::iter::repeat_with(move || zipf.sample(&mut draw))
}

/// Arrival offsets (seconds from the start) of a Poisson process at
/// `rate` requests per second over `horizon` seconds, conditioned on its
/// expected count: `rate x horizon` uniform draws, sorted. Random gaps keep
/// arrivals out of phase with any periodic timer in the server; the fixed
/// count keeps the offered load identical across seeds.
pub fn arrivals(seed: u64, rate: f64, horizon: f64) -> Vec<f64> {
    let mut draw = Draw::new(seed, 5);
    let n = (rate * horizon).round() as usize;
    let mut out: Vec<f64> = (0..n).map(|_| draw.unit() * horizon).collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Writes every item into `dir`.
///
/// # Errors
///
/// I/O failures, as strings.
pub fn write_all(dir: &std::path::Path, items: &[Item]) -> Result<(), String> {
    for item in items {
        std::fs::write(dir.join(&item.name), &item.content)
            .map_err(|e| format!("cannot write {}: {e}", item.name))?;
    }
    Ok(())
}

/// Shared pieces the workloads reuse: parse an SDF item back into a graph.
pub fn sdf_graph(item: &Item) -> Arc<SdfGraph> {
    Arc::new(sdfr_io::text::from_text(&item.content).expect("generated SDF text parses"))
}
