//! Cyclo-static dataflow (CSDF) graphs.
//!
//! CSDF (Bilsen et al.) generalizes SDF: an actor cycles through a fixed
//! sequence of *phases*, each with its own execution time and per-channel
//! rates (which may be zero in individual phases). CSDF models arbitration
//! and fine-grained pipelining that plain SDF cannot, and it is the model
//! class of the buffer-sizing work the paper cites (Stuijk et al., TC'08;
//! Wiggers et al., DAC'07).
//!
//! All analyses reuse the machinery of this repository at phase
//! granularity. Algorithm 1 runs on the shared
//! [`SymbolicEngine`](sdfr_analysis::SymbolicEngine) through
//! [`FiringRules`](sdfr_analysis::engine::FiringRules); CSDF is determinate
//! (Kahn), so its greedy actor-id order gives the matrix of any schedule.
//!
//! - [`CsdfGraph`] — the model and its validated construction,
//! - [`repetition_vector`] — cycle-level consistency,
//! - [`sequential_schedule`] — a phase-accurate PASS,
//! - [`analyze`] — the budgeted entry point: the exact period with its
//!   symbolic iteration, or a safe serialization bound when the
//!   [`Budget`](sdfr_graph::budget::Budget) runs out,
//! - [`symbolic_iteration`] — the max-plus matrix of one iteration
//!   (Algorithm 1 at phase granularity),
//! - [`throughput`] — the exact iteration period,
//! - [`to_hsdf`] — the paper's novel compact conversion, applied to CSDF.
//!
//! # Example
//!
//! ```
//! use sdfr_csdf::CsdfGraph;
//! use sdfr_maxplus::Rational;
//!
//! // A two-phase producer: sends 2 tokens in its first phase, none in the
//! // second; the consumer reads one token per firing. Self-loops
//! // serialize the phases.
//! let mut b = CsdfGraph::builder("pc");
//! let p = b.actor("p", [1, 3]);
//! let c = b.actor("c", [2]);
//! b.channel(p, c, [2, 0], [1], 0)?;
//! b.channel(c, p, [1], [0, 2], 4)?;
//! b.channel(p, p, [1, 1], [1, 1], 1)?;
//! b.channel(c, c, [1], [1], 1)?;
//! let g = b.build()?;
//!
//! let thr = sdfr_csdf::throughput(&g)?;
//! assert_eq!(thr.period, Some(Rational::new(4, 1)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod graph;

pub use analysis::{
    analyze, hsdf_from_symbolic, repetition_vector, sequential_schedule, symbolic_iteration,
    throughput, throughput_from_symbolic, to_hsdf, CsdfRepetition, CsdfSchedule, CsdfSymbolic,
    CsdfThroughput,
};
pub use graph::{CsdfActorId, CsdfBuilder, CsdfChannelId, CsdfGraph};
