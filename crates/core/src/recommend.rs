//! A-priori conversion selection (paper, end of Sec. 7).
//!
//! "Because the size of the traditional HSDF is exactly predictable and a
//! bound on the size of the new method can be estimated from the number of
//! initial tokens, it is possible to assess beforehand when this might
//! occur." — this module implements that assessment: the traditional
//! conversion has exactly `Σγ` actors, and the novel conversion at most
//! `N(N+2)`, both computable without running either conversion.

use sdfr_analysis::AnalysisSession;
use sdfr_graph::{SdfError, SdfGraph};

/// Which conversion to use for a given graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConversionChoice {
    /// The classical firing expansion (`Σγ` actors) is predicted smaller —
    /// the modem-type case with many initial tokens.
    Traditional,
    /// The compact max-plus conversion (`≤ N(N+2)` actors) is predicted
    /// smaller — the common case.
    Novel,
}

/// Predicted sizes, computed without running a conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizePrediction {
    /// Exact actor count of the traditional conversion: `Σγ`.
    pub traditional_actors: u64,
    /// Worst-case actor count of the novel conversion: `N(N+2)`.
    pub novel_actor_bound: u64,
    /// The number of initial tokens `N`.
    pub tokens: u64,
}

impl SizePrediction {
    /// The recommended conversion under the worst-case comparison.
    ///
    /// Ties favour [`ConversionChoice::Novel`]: its bound is usually loose
    /// (sparse matrices elide most (de)multiplexors), whereas `Σγ` is
    /// exact.
    pub fn choice(&self) -> ConversionChoice {
        if self.traditional_actors < self.novel_actor_bound {
            ConversionChoice::Traditional
        } else {
            ConversionChoice::Novel
        }
    }
}

/// Predicts both conversion sizes for `g` without converting.
///
/// # Errors
///
/// Returns [`SdfError::Inconsistent`] if `g` has no repetition vector.
///
/// # Example
///
/// ```
/// use sdfr_core::recommend::{predict_sizes, ConversionChoice};
/// use sdfr_graph::SdfGraph;
///
/// let mut b = SdfGraph::builder("g");
/// let x = b.actor("x", 1);
/// let y = b.actor("y", 1);
/// b.channel(x, y, 64, 1, 0)?;
/// b.channel(x, x, 1, 1, 1)?;
/// let g = b.build()?;
/// let p = predict_sizes(&g)?;
/// assert_eq!(p.traditional_actors, 65); // γ = (1, 64)
/// assert_eq!(p.novel_actor_bound, 3);   // N = 1
/// assert_eq!(p.choice(), ConversionChoice::Novel);
/// # Ok::<(), sdfr_graph::SdfError>(())
/// ```
pub fn predict_sizes(g: &SdfGraph) -> Result<SizePrediction, SdfError> {
    predict_sizes_with_session(&AnalysisSession::new(g.clone()))
}

/// [`predict_sizes`] on an [`AnalysisSession`], reusing its cached
/// repetition vector.
///
/// # Errors
///
/// See [`predict_sizes`].
pub fn predict_sizes_with_session(session: &AnalysisSession) -> Result<SizePrediction, SdfError> {
    let gamma = session.repetition_vector()?;
    let tokens = session.graph().total_initial_tokens();
    Ok(SizePrediction {
        traditional_actors: gamma.iteration_length(),
        novel_actor_bound: tokens * (tokens + 2),
        tokens,
    })
}

/// Runs the conversion recommended by [`predict_sizes`] and returns the
/// choice together with the resulting HSDF graph.
///
/// # Errors
///
/// Propagates conversion errors ([`SdfError::Inconsistent`],
/// [`SdfError::Deadlock`]).
pub fn best_conversion(g: &SdfGraph) -> Result<(ConversionChoice, SdfGraph), SdfError> {
    best_conversion_with_session(&AnalysisSession::new(g.clone()))
}

/// [`best_conversion`] on an [`AnalysisSession`]: the prediction reuses the
/// session's repetition vector, and a novel conversion reuses its symbolic
/// iteration.
///
/// # Errors
///
/// See [`best_conversion`].
pub fn best_conversion_with_session(
    session: &AnalysisSession,
) -> Result<(ConversionChoice, SdfGraph), SdfError> {
    let choice = predict_sizes_with_session(session)?.choice();
    let graph = match choice {
        ConversionChoice::Traditional => crate::traditional::convert_with_session(session)?.graph,
        ConversionChoice::Novel => crate::novel::convert_with_session(session)?.graph,
    };
    Ok((choice, graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommends_novel_for_multirate_chains() {
        let mut b = SdfGraph::builder("chain");
        let x = b.actor("x", 1);
        let y = b.actor("y", 1);
        b.channel(x, y, 147, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        let g = b.build().unwrap();
        let p = predict_sizes(&g).unwrap();
        assert_eq!(p.traditional_actors, 148);
        assert_eq!(p.tokens, 2);
        assert_eq!(p.novel_actor_bound, 8);
        assert_eq!(p.choice(), ConversionChoice::Novel);
        let (choice, converted) = best_conversion(&g).unwrap();
        assert_eq!(choice, ConversionChoice::Novel);
        assert!(converted.num_actors() <= 8);
    }

    #[test]
    fn recommends_traditional_for_token_rich_graphs() {
        // The modem shape: small γ, many tokens.
        let mut b = SdfGraph::builder("hubby");
        let hub = b.actor("hub", 1);
        for i in 0..9 {
            let s = b.actor(format!("s{i}"), 1);
            b.channel(hub, s, 1, 1, 0).unwrap();
            b.channel(s, hub, 1, 1, 2).unwrap();
        }
        let g = b.build().unwrap();
        let p = predict_sizes(&g).unwrap();
        assert_eq!(p.traditional_actors, 10);
        assert_eq!(p.tokens, 18);
        assert_eq!(p.choice(), ConversionChoice::Traditional);
        let (choice, converted) = best_conversion(&g).unwrap();
        assert_eq!(choice, ConversionChoice::Traditional);
        assert_eq!(converted.num_actors(), 10);
    }

    #[test]
    fn prediction_matches_table1_directions() {
        for case in sdfr_benchmarks_cases() {
            let p = predict_sizes(&case.1).unwrap();
            // The prediction must never pick a conversion that is *worse*
            // than the alternative's prediction by its own metric.
            match p.choice() {
                ConversionChoice::Traditional => {
                    assert!(p.traditional_actors < p.novel_actor_bound, "{}", case.0)
                }
                ConversionChoice::Novel => {
                    assert!(p.novel_actor_bound <= p.traditional_actors, "{}", case.0)
                }
            }
        }
    }

    /// A few representative shapes (avoiding a dev-dependency cycle on the
    /// benchmarks crate).
    fn sdfr_benchmarks_cases() -> Vec<(&'static str, SdfGraph)> {
        let mut cases = Vec::new();
        let mut b = SdfGraph::builder("updown");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        b.channel(x, y, 2, 3, 0).unwrap();
        b.channel(y, x, 3, 2, 6).unwrap();
        cases.push(("updown", b.build().unwrap()));

        let mut b = SdfGraph::builder("selfloops");
        let x = b.actor("x", 1);
        let y = b.actor("y", 2);
        b.channel(x, y, 99, 1, 0).unwrap();
        b.channel(x, x, 1, 1, 1).unwrap();
        b.channel(y, y, 1, 1, 1).unwrap();
        cases.push(("selfloops", b.build().unwrap()));
        cases
    }

    #[test]
    fn inconsistent_graph_errors() {
        let mut b = SdfGraph::builder("bad");
        let x = b.actor("x", 1);
        b.channel(x, x, 1, 2, 1).unwrap();
        let g = b.build().unwrap();
        assert!(predict_sizes(&g).is_err());
        assert!(best_conversion(&g).is_err());
    }
}
