//! Analysis of CSDF graphs: Algorithm 1 runs on the shared
//! [`SymbolicEngine`], and the max-plus machinery reads its matrix.

use std::sync::Arc;

use sdfr_analysis::engine::{FiringRules, SymbolicEngine};
use sdfr_core::degrade::{
    serialization_period_bound, AnalysisOutcome, ConservativeBound, FallbackMethod,
};
use sdfr_core::CoreError;
use sdfr_graph::budget::Budget;
use sdfr_graph::repetition::RepetitionVector;
use sdfr_graph::{ActorId, ChannelId, SdfError, SdfGraph, Time};
use sdfr_maxplus::{MpMatrix, Rational};

use crate::graph::{CsdfActorId, CsdfChannelId, CsdfGraph};

/// CSDF firing rules: the phase of a firing is the actor's firing count
/// modulo its phase count.
impl FiringRules for CsdfGraph {
    fn initial_tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.channels.iter().map(|c| c.initial_tokens)
    }
    fn phases(&self, a: ActorId) -> usize {
        self.actors[a.index()].times.len()
    }
    fn inputs(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)> + '_ {
        self.incoming[a.index()].iter().map(move |c| {
            (
                ChannelId::from_index(c.0),
                self.channels[c.0].consumption[phase],
            )
        })
    }
    fn outputs(&self, a: ActorId, phase: usize) -> impl Iterator<Item = (ChannelId, u64)> + '_ {
        self.outgoing[a.index()].iter().map(move |c| {
            (
                ChannelId::from_index(c.0),
                self.channels[c.0].production[phase],
            )
        })
    }
    fn time(&self, a: ActorId, phase: usize) -> Time {
        self.actors[a.index()].times[phase]
    }
}

/// The cycle-level repetition vector of a CSDF graph: `cycles[a]` complete
/// phase cycles of each actor per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfRepetition {
    cycles: RepetitionVector,
}

impl CsdfRepetition {
    /// Complete phase cycles of actor `a` per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `a` does not belong to the analysed graph.
    pub fn cycles(&self, a: CsdfActorId) -> u64 {
        self.cycles.as_slice()[a.index()]
    }

    /// Phase-level firings of actor `a` per iteration
    /// (`cycles(a) · phases(a)`), given its phase count.
    pub fn firings(&self, a: CsdfActorId, phases: usize) -> u64 {
        self.cycles(a) * phases as u64
    }

    /// Total phase firings per iteration over all actors.
    pub fn iteration_length(&self, g: &CsdfGraph) -> u64 {
        g.actors()
            .map(|(id, a)| self.firings(id, a.num_phases()))
            .sum()
    }
}

/// Computes the cycle-level repetition vector: the smallest positive
/// integers with `cycles(a)·Σprod = cycles(b)·Σcons` per channel.
///
/// # Errors
///
/// Returns [`SdfError::Inconsistent`] when the balance equations have no
/// solution, [`SdfError::Overflow`] when an actor's per-cycle execution
/// time exceeds the integer range.
pub fn repetition_vector(g: &CsdfGraph) -> Result<CsdfRepetition, SdfError> {
    Ok(CsdfRepetition {
        cycles: sdfr_graph::repetition::repetition_vector(&cycle_graph(g)?)?,
    })
}

/// The cycle-level SDF abstraction of `g`: per actor, one firing per full
/// phase cycle taking the checked per-cycle sum `Σ_p T(a, p)`; per channel,
/// the per-cycle rates. Its repetition vector counts phase cycles, and its
/// serialization bound is the makespan of one sequential CSDF iteration.
fn cycle_graph(g: &CsdfGraph) -> Result<SdfGraph, SdfError> {
    let mut b = SdfGraph::builder(g.name().to_string());
    let mut ids = Vec::with_capacity(g.num_actors());
    for (_, a) in g.actors() {
        let time = a
            .times
            .iter()
            .try_fold(0 as Time, |s, &t| s.checked_add(t))
            .ok_or(SdfError::Overflow {
                what: "per-cycle execution time",
            })?;
        ids.push(b.actor(a.name().to_string(), time));
    }
    for (_, c) in g.channels() {
        b.channel(
            ids[c.source().index()],
            ids[c.target().index()],
            c.production_per_cycle(),
            c.consumption_per_cycle(),
            c.initial_tokens(),
        )
        .expect("validated patterns");
    }
    Ok(b.build().expect("names validated by the CSDF builder"))
}

/// One phase-accurate sequential schedule for an iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfSchedule {
    /// Firings in order: `(actor, phase)`.
    pub firings: Vec<(CsdfActorId, usize)>,
}

/// Constructs a phase-accurate PASS: fires enabled phases greedily until
/// every actor completed `cycles(a)` full phase cycles.
///
/// # Errors
///
/// - [`SdfError::Inconsistent`] without a repetition vector,
/// - [`SdfError::Deadlock`] if the iteration cannot complete.
pub fn sequential_schedule(g: &CsdfGraph, rep: &CsdfRepetition) -> Result<CsdfSchedule, SdfError> {
    let n = g.num_actors();
    let mut tokens: Vec<u64> = g.channels().map(|(_, c)| c.initial_tokens()).collect();
    let mut phase = vec![0usize; n];
    let mut remaining: Vec<u64> = g
        .actors()
        .map(|(id, a)| rep.firings(id, a.num_phases()))
        .collect();
    let needed: u64 = remaining.iter().sum();
    let mut fired = 0u64;
    let mut firings = Vec::with_capacity(needed as usize);

    loop {
        let mut progress = false;
        for a in g.actor_ids() {
            let id = ActorId::from_index(a.index());
            // Fire as many consecutive phases of `a` as are enabled.
            while remaining[a.index()] > 0
                && g.inputs(id, phase[a.index()])
                    .all(|(c, n)| tokens[c.index()] >= n)
            {
                for (c, n) in g.inputs(id, phase[a.index()]) {
                    tokens[c.index()] -= n;
                }
                for (c, n) in g.outputs(id, phase[a.index()]) {
                    tokens[c.index()] += n;
                }
                firings.push((a, phase[a.index()]));
                phase[a.index()] = (phase[a.index()] + 1) % g.actor(a).num_phases();
                remaining[a.index()] -= 1;
                fired += 1;
                progress = true;
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            debug_assert!(phase.iter().all(|&p| p == 0), "cycles complete");
            return Ok(CsdfSchedule { firings });
        }
        if !progress {
            return Err(SdfError::Deadlock { fired, needed });
        }
    }
}

/// The symbolic max-plus iteration of a CSDF graph.
#[derive(Debug, Clone)]
pub struct CsdfSymbolic {
    /// The `N×N` matrix over the initial tokens.
    pub matrix: MpMatrix,
    /// `(channel, FIFO position)` of each token index.
    pub tokens: Vec<(CsdfChannelId, u64)>,
    /// The repetition vector used.
    pub repetition: CsdfRepetition,
}

/// Executes one iteration symbolically (the paper's Algorithm 1, at phase
/// granularity) and returns the max-plus matrix over the initial tokens.
///
/// # Errors
///
/// As [`repetition_vector`], plus [`SdfError::Deadlock`] if the iteration
/// cannot complete and [`SdfError::Overflow`] when a time stamp or token
/// count exceeds the integer range.
pub fn symbolic_iteration(g: &CsdfGraph) -> Result<CsdfSymbolic, SdfError> {
    let gamma = sdfr_graph::repetition::repetition_vector(&cycle_graph(g)?)?;
    execute(g, &gamma, &Budget::unlimited())
}

/// Analyses `g` under `budget`: the exact iteration period with the
/// symbolic iteration that produced it, or — when the budget runs out —
/// the serialization bound of the cycle-level graph, a safe upper bound on
/// the period of a live graph. Firing caps and deadlines are charged one
/// unit per phase firing; the size cap bounds the initial-token count.
///
/// # Errors
///
/// Non-budget failures of [`symbolic_iteration`] propagate unchanged.
pub fn analyze(
    g: &CsdfGraph,
    budget: &Budget,
) -> Result<(AnalysisOutcome, Option<CsdfSymbolic>), CoreError> {
    let cycles = cycle_graph(g)?;
    let gamma = sdfr_graph::repetition::repetition_vector(&cycles)?;
    match execute(g, &gamma, budget) {
        Ok(sym) => Ok((AnalysisOutcome::Exact(sym.matrix.eigenvalue()), Some(sym))),
        Err(exhausted @ SdfError::Exhausted { .. }) => {
            let bound = ConservativeBound {
                bound: serialization_period_bound(&cycles)?,
                method: FallbackMethod::Serialization,
            };
            Ok((AnalysisOutcome::Degraded { exhausted, bound }, None))
        }
        Err(e) => Err(e.into()),
    }
}

/// Runs one iteration on the engine, firing greedily in actor-id order.
fn execute(
    g: &CsdfGraph,
    gamma: &RepetitionVector,
    budget: &Budget,
) -> Result<CsdfSymbolic, SdfError> {
    let mut meter = budget.meter();
    let mut engine = SymbolicEngine::new(Arc::new(g.clone()), gamma, false, &mut meter)?;
    engine.run_greedy(&mut meter)?;
    let sym = engine.finish();
    Ok(CsdfSymbolic {
        matrix: sym.matrix,
        tokens: sym
            .tokens
            .iter()
            .map(|t| (CsdfChannelId(t.channel.index()), t.position))
            .collect(),
        repetition: CsdfRepetition {
            cycles: gamma.clone(),
        },
    })
}

/// The throughput of a CSDF graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfThroughput {
    /// The iteration period λ, or `None` when unbounded.
    pub period: Option<Rational>,
    /// The repetition vector (cycle level).
    pub repetition: CsdfRepetition,
}

impl CsdfThroughput {
    /// Firings of actor `a` per time unit (needs the actor's phase count),
    /// or `None` when unbounded.
    pub fn actor_throughput(&self, a: CsdfActorId, phases: usize) -> Option<Rational> {
        let period = self.period?;
        if period == Rational::ZERO {
            return None;
        }
        Some(Rational::from(self.repetition.firings(a, phases) as i64) / period)
    }
}

/// Computes the exact iteration period of a CSDF graph spectrally.
///
/// # Errors
///
/// See [`symbolic_iteration`].
pub fn throughput(g: &CsdfGraph) -> Result<CsdfThroughput, SdfError> {
    Ok(throughput_from_symbolic(&symbolic_iteration(g)?))
}

/// The throughput analysis from an already-computed symbolic iteration —
/// lets one [`symbolic_iteration`] feed both the throughput and the HSDF
/// conversion ([`hsdf_from_symbolic`]).
pub fn throughput_from_symbolic(sym: &CsdfSymbolic) -> CsdfThroughput {
    CsdfThroughput {
        period: sym.matrix.eigenvalue(),
        repetition: sym.repetition.clone(),
    }
}

/// Converts a CSDF graph into a compact throughput-equivalent HSDF graph —
/// the paper's novel conversion applied beyond plain SDF.
///
/// # Errors
///
/// See [`symbolic_iteration`].
pub fn to_hsdf(g: &CsdfGraph) -> Result<SdfGraph, SdfError> {
    Ok(hsdf_from_symbolic(&symbolic_iteration(g)?, g.name()))
}

/// [`to_hsdf`] from an already-computed symbolic iteration; `name` is the
/// source graph's name (the result is named `{name}^mp-hsdf`).
pub fn hsdf_from_symbolic(sym: &CsdfSymbolic, name: &str) -> SdfGraph {
    sdfr_core::novel::hsdf_from_matrix(&sym.matrix, &format!("{name}^mp-hsdf"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdfr_analysis::throughput::hsdf_period;
    use sdfr_core::degrade::FallbackMethod;

    /// The canonical CSDF example: the producer emits only in its first
    /// phase and reads back-pressure credits only in its second; a
    /// one-token self-loop serializes its phases (standard CSDF modeling).
    fn two_phase() -> CsdfGraph {
        let mut b = CsdfGraph::builder("tp");
        let p = b.actor("p", [1, 3]);
        let c = b.actor("c", [2]);
        b.channel(p, c, [2, 0], [1], 0).unwrap();
        b.channel(c, p, [1], [0, 2], 4).unwrap();
        b.channel(p, p, [1, 1], [1, 1], 1).unwrap();
        b.channel(c, c, [1], [1], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn repetition_cycle_level() {
        let g = two_phase();
        // (self-loops do not change the balance equations)
        let rep = repetition_vector(&g).unwrap();
        // Σprod = 2 per p-cycle, Σcons = 1 per c firing: c cycles twice.
        let p = g.actor_by_name("p").unwrap();
        let c = g.actor_by_name("c").unwrap();
        assert_eq!(rep.cycles(p), 1);
        assert_eq!(rep.cycles(c), 2);
        assert_eq!(rep.firings(p, 2), 2);
        assert_eq!(rep.iteration_length(&g), 4);
    }

    #[test]
    fn schedule_is_phase_accurate() {
        let g = two_phase();
        let rep = repetition_vector(&g).unwrap();
        let s = sequential_schedule(&g, &rep).unwrap();
        assert_eq!(s.firings.len(), 4);
        // Phases of each actor appear in cyclic order.
        let p = g.actor_by_name("p").unwrap();
        let phases: Vec<usize> = s
            .firings
            .iter()
            .filter(|(a, _)| *a == p)
            .map(|&(_, ph)| ph)
            .collect();
        assert_eq!(phases, vec![0, 1]);
    }

    #[test]
    fn throughput_and_hsdf_agree() {
        let g = two_phase();
        let thr = throughput(&g).unwrap();
        let hsdf = to_hsdf(&g).unwrap();
        assert_eq!(hsdf_period(&hsdf).unwrap().finite(), thr.period);
        assert!(thr.period.is_some());
    }

    #[test]
    fn constant_patterns_match_plain_sdf() {
        // A CSDF whose patterns are constant must analyse exactly like the
        // corresponding SDF graph.
        let mut b = CsdfGraph::builder("c");
        let x = b.actor("x", [2]);
        let y = b.actor("y", [3]);
        b.channel(x, y, [1], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 1).unwrap();
        let g = b.build().unwrap();
        let thr = throughput(&g).unwrap();
        assert_eq!(thr.period, Some(Rational::from(5)));
        let x_id = g.actor_by_name("x").unwrap();
        assert_eq!(thr.actor_throughput(x_id, 1), Some(Rational::new(1, 5)));

        let mut b = SdfGraph::builder("c");
        let x = b.actor("x", 2);
        let y = b.actor("y", 3);
        b.channel(x, y, 1, 1, 0).unwrap();
        b.channel(y, x, 1, 1, 1).unwrap();
        let sdf = sdfr_analysis::symbolic::symbolic_iteration(&b.build().unwrap()).unwrap();
        assert_eq!(symbolic_iteration(&g).unwrap().matrix, sdf.matrix);
    }

    #[test]
    fn analyze_degrades_to_the_cycle_serialization_bound() {
        let g = two_phase();
        let (exact, sym) = analyze(&g, &Budget::unlimited()).unwrap();
        assert_eq!(
            exact,
            AnalysisOutcome::Exact(throughput(&g).unwrap().period)
        );
        assert_eq!(sym.unwrap().matrix, symbolic_iteration(&g).unwrap().matrix);

        // Σ cycles(a) · Σ_p T(a, p) = 1·(1 + 3) + 2·2.
        for budget in [
            Budget::unlimited().with_max_firings(3),
            Budget::unlimited().with_max_size(5),
        ] {
            match analyze(&g, &budget).unwrap() {
                (AnalysisOutcome::Degraded { exhausted, bound }, None) => {
                    assert!(matches!(exhausted, SdfError::Exhausted { .. }));
                    assert_eq!(bound.bound, Rational::from(8));
                    assert_eq!(bound.method, FallbackMethod::Serialization);
                }
                other => panic!("expected degradation, got {other:?}"),
            }
        }
        // Phase firings are charged once each: the 4-firing iteration fits.
        let (fits, _) = analyze(&g, &Budget::unlimited().with_max_firings(4)).unwrap();
        assert!(fits.is_exact());
    }

    #[test]
    fn time_and_stamp_overflow_are_errors() {
        // The per-cycle execution time does not fit.
        let mut b = CsdfGraph::builder("w");
        let w = b.actor("w", [1 << 62, 1 << 62]);
        b.channel(w, w, [1, 1], [1, 1], 1).unwrap();
        assert!(matches!(
            symbolic_iteration(&b.build().unwrap()),
            Err(SdfError::Overflow { .. })
        ));
        // Each time fits, but the stamp of the token going round does not.
        let mut b = CsdfGraph::builder("ring");
        let x = b.actor("x", [1 << 62]);
        let y = b.actor("y", [1 << 62]);
        b.channel(x, y, [1], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 1).unwrap();
        assert!(matches!(
            symbolic_iteration(&b.build().unwrap()),
            Err(SdfError::Overflow { .. })
        ));
    }

    #[test]
    fn csdf_lives_where_sdf_deadlocks() {
        // Classic: a token-free loop where each actor's first phase needs
        // nothing. As SDF (aggregated rates) this deadlocks; as CSDF the
        // phase order makes an iteration executable.
        let mut b = CsdfGraph::builder("live");
        let x = b.actor("x", [1, 1]);
        let y = b.actor("y", [1, 1]);
        // x produces in phase 0, consumes from y in phase 1.
        b.channel(x, y, [1, 0], [1, 0], 0).unwrap();
        b.channel(y, x, [0, 1], [0, 1], 0).unwrap();
        let g = b.build().unwrap();
        let rep = repetition_vector(&g).unwrap();
        assert!(sequential_schedule(&g, &rep).is_ok());
        assert!(symbolic_iteration(&g).is_ok());

        // The aggregate SDF (rates 1:1 both ways, zero tokens) deadlocks.
        let mut b = SdfGraph::builder("agg");
        let xs = b.actor("x", 1);
        let ys = b.actor("y", 1);
        b.channel(xs, ys, 1, 1, 0).unwrap();
        b.channel(ys, xs, 1, 1, 0).unwrap();
        let agg = b.build().unwrap();
        assert!(sdfr_analysis::throughput::throughput(&agg).is_err());
    }

    #[test]
    fn deadlocked_csdf_detected() {
        let mut b = CsdfGraph::builder("dead");
        let x = b.actor("x", [1]);
        let y = b.actor("y", [1]);
        b.channel(x, y, [1], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 0).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(throughput(&g), Err(SdfError::Deadlock { .. })));
    }

    #[test]
    fn inconsistent_csdf_detected() {
        let mut b = CsdfGraph::builder("bad");
        let x = b.actor("x", [1]);
        let y = b.actor("y", [1]);
        b.channel(x, y, [2], [1], 0).unwrap();
        b.channel(y, x, [1], [1], 4).unwrap();
        let g = b.build().unwrap();
        assert!(matches!(
            repetition_vector(&g),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn zero_rate_phases_move_no_stamps() {
        // A phase producing zero tokens must not enqueue empty runs.
        let g = two_phase();
        let sym = symbolic_iteration(&g).unwrap();
        // 4 credits + 2 serialization tokens.
        assert_eq!(sym.matrix.num_rows(), 6);
        assert_eq!(sym.tokens.len(), 6);
        assert!(sym.matrix.eigenvalue().is_some());
    }

    #[test]
    fn period_matches_hand_computation() {
        // Serialized two-phase worker: phases 1 and 3 alternate on a
        // one-token self-loop: period per cycle = 4, one cycle per
        // iteration.
        let mut b = CsdfGraph::builder("w");
        let w = b.actor("w", [1, 3]);
        b.channel(w, w, [1, 1], [1, 1], 1).unwrap();
        let g = b.build().unwrap();
        let thr = throughput(&g).unwrap();
        assert_eq!(thr.period, Some(Rational::from(4)));
    }
}
