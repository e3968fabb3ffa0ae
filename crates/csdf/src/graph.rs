//! The cyclo-static dataflow graph model.

use std::fmt;

use sdfr_graph::{SdfError, Time};

/// Identifies an actor within one [`CsdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CsdfActorId(pub(crate) usize);

impl CsdfActorId {
    /// The dense index of the actor.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CsdfActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Identifies a channel within one [`CsdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CsdfChannelId(pub(crate) usize);

impl CsdfChannelId {
    /// The dense index of the channel.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CsdfChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A CSDF actor: a name and one execution time per phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfActor {
    pub(crate) name: String,
    pub(crate) times: Vec<Time>,
}

impl CsdfActor {
    /// The actor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of phases.
    pub fn num_phases(&self) -> usize {
        self.times.len()
    }

    /// The execution time of phase `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn phase_time(&self, p: usize) -> Time {
        self.times[p]
    }
}

/// A CSDF channel: per-phase production and consumption patterns plus
/// initial tokens. Pattern lengths equal the endpoint actors' phase counts;
/// individual entries may be zero (the CSDF superpower), but each pattern
/// must move at least one token per full cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfChannel {
    pub(crate) source: CsdfActorId,
    pub(crate) target: CsdfActorId,
    pub(crate) production: Vec<u64>,
    pub(crate) consumption: Vec<u64>,
    pub(crate) initial_tokens: u64,
}

impl CsdfChannel {
    /// The producing actor.
    pub fn source(&self) -> CsdfActorId {
        self.source
    }

    /// The consuming actor.
    pub fn target(&self) -> CsdfActorId {
        self.target
    }

    /// Tokens produced by phase `p` of the source.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn production(&self, p: usize) -> u64 {
        self.production[p]
    }

    /// Tokens consumed by phase `p` of the target.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn consumption(&self, p: usize) -> u64 {
        self.consumption[p]
    }

    /// Tokens produced per full cycle of the source. The builder rejects
    /// patterns whose sum overflows, so the sum fits.
    pub fn production_per_cycle(&self) -> u64 {
        self.production.iter().sum()
    }

    /// Tokens consumed per full cycle of the target. The builder rejects
    /// patterns whose sum overflows, so the sum fits.
    pub fn consumption_per_cycle(&self) -> u64 {
        self.consumption.iter().sum()
    }

    /// The number of initial tokens.
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }
}

/// A cyclo-static dataflow graph.
///
/// Construct with [`CsdfGraph::builder`]; all structural invariants are
/// validated at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsdfGraph {
    pub(crate) name: String,
    pub(crate) actors: Vec<CsdfActor>,
    pub(crate) channels: Vec<CsdfChannel>,
    pub(crate) outgoing: Vec<Vec<CsdfChannelId>>,
    pub(crate) incoming: Vec<Vec<CsdfChannelId>>,
}

impl CsdfGraph {
    /// Starts building a graph.
    pub fn builder(name: impl Into<String>) -> CsdfBuilder {
        CsdfBuilder {
            name: name.into(),
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of actors.
    pub fn num_actors(&self) -> usize {
        self.actors.len()
    }

    /// The number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The actor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn actor(&self, id: CsdfActorId) -> &CsdfActor {
        &self.actors[id.0]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn channel(&self, id: CsdfChannelId) -> &CsdfChannel {
        &self.channels[id.0]
    }

    /// Iterates over `(id, actor)` pairs.
    pub fn actors(&self) -> impl Iterator<Item = (CsdfActorId, &CsdfActor)> {
        self.actors
            .iter()
            .enumerate()
            .map(|(i, a)| (CsdfActorId(i), a))
    }

    /// Iterates over all actor ids.
    pub fn actor_ids(&self) -> impl Iterator<Item = CsdfActorId> {
        (0..self.actors.len()).map(CsdfActorId)
    }

    /// Iterates over `(id, channel)` pairs.
    pub fn channels(&self) -> impl Iterator<Item = (CsdfChannelId, &CsdfChannel)> {
        self.channels
            .iter()
            .enumerate()
            .map(|(i, c)| (CsdfChannelId(i), c))
    }

    /// The channels leaving `a`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn outgoing(&self, a: CsdfActorId) -> &[CsdfChannelId] {
        &self.outgoing[a.0]
    }

    /// The channels entering `a`.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn incoming(&self, a: CsdfActorId) -> &[CsdfChannelId] {
        &self.incoming[a.0]
    }

    /// Finds an actor by name.
    pub fn actor_by_name(&self, name: &str) -> Option<CsdfActorId> {
        self.actors
            .iter()
            .position(|a| a.name == name)
            .map(CsdfActorId)
    }

    /// The total number of initial tokens.
    pub fn total_initial_tokens(&self) -> u64 {
        self.channels.iter().map(|c| c.initial_tokens).sum()
    }
}

impl fmt::Display for CsdfGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "csdf graph '{}': {} actors, {} channels, {} initial tokens",
            self.name,
            self.num_actors(),
            self.num_channels(),
            self.total_initial_tokens()
        )?;
        for (_, a) in self.actors() {
            writeln!(f, "  {} phases={:?}", a.name, a.times)?;
        }
        for (_, c) in self.channels() {
            writeln!(
                f,
                "  {} -({:?},{},{:?})-> {}",
                self.actor(c.source).name,
                c.production,
                c.initial_tokens,
                c.consumption,
                self.actor(c.target).name
            )?;
        }
        Ok(())
    }
}

/// Builder for [`CsdfGraph`].
#[derive(Debug, Clone)]
pub struct CsdfBuilder {
    name: String,
    actors: Vec<CsdfActor>,
    channels: Vec<CsdfChannel>,
}

impl CsdfBuilder {
    /// Adds an actor with the given per-phase execution times.
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty (every actor has at least one phase).
    pub fn actor(
        &mut self,
        name: impl Into<String>,
        times: impl IntoIterator<Item = Time>,
    ) -> CsdfActorId {
        let times: Vec<Time> = times.into_iter().collect();
        assert!(!times.is_empty(), "actors need at least one phase");
        let id = CsdfActorId(self.actors.len());
        self.actors.push(CsdfActor {
            name: name.into(),
            times,
        });
        id
    }

    /// Adds a channel with per-phase patterns.
    ///
    /// # Errors
    ///
    /// - [`SdfError::UnknownActor`]-analogous endpoint validation is a
    ///   panic here (ids come from this builder);
    /// - [`SdfError::ZeroRate`] if a pattern moves no tokens over a full
    ///   cycle,
    /// - [`SdfError::Overflow`] if a pattern's per-cycle sum exceeds `u64`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint id was not created by this builder or a
    /// pattern length does not match the endpoint's phase count.
    pub fn channel(
        &mut self,
        source: CsdfActorId,
        target: CsdfActorId,
        production: impl IntoIterator<Item = u64>,
        consumption: impl IntoIterator<Item = u64>,
        initial_tokens: u64,
    ) -> Result<CsdfChannelId, SdfError> {
        assert!(
            source.0 < self.actors.len() && target.0 < self.actors.len(),
            "channel endpoints must come from this builder"
        );
        let production: Vec<u64> = production.into_iter().collect();
        let consumption: Vec<u64> = consumption.into_iter().collect();
        assert_eq!(
            production.len(),
            self.actors[source.0].times.len(),
            "production pattern must cover the source's phases"
        );
        assert_eq!(
            consumption.len(),
            self.actors[target.0].times.len(),
            "consumption pattern must cover the target's phases"
        );
        let cycle_sum = |p: &[u64]| p.iter().try_fold(0u64, |s, &r| s.checked_add(r));
        let (Some(produced), Some(consumed)) = (cycle_sum(&production), cycle_sum(&consumption))
        else {
            return Err(SdfError::Overflow {
                what: "tokens moved per phase cycle",
            });
        };
        if produced == 0 || consumed == 0 {
            return Err(SdfError::ZeroRate {
                channel: self.channels.len(),
            });
        }
        let id = CsdfChannelId(self.channels.len());
        self.channels.push(CsdfChannel {
            source,
            target,
            production,
            consumption,
            initial_tokens,
        });
        Ok(id)
    }

    /// Finalizes the graph.
    ///
    /// # Errors
    ///
    /// Name and execution-time validation as in the SDF builder.
    pub fn build(self) -> Result<CsdfGraph, SdfError> {
        let mut names = std::collections::HashSet::new();
        for a in &self.actors {
            if a.name.is_empty() {
                return Err(SdfError::EmptyActorName);
            }
            if !names.insert(a.name.as_str()) {
                return Err(SdfError::DuplicateActorName {
                    name: a.name.clone(),
                });
            }
            if a.times.iter().any(|&t| t < 0) {
                return Err(SdfError::NegativeExecutionTime {
                    actor: a.name.clone(),
                });
            }
        }
        let mut outgoing = vec![Vec::new(); self.actors.len()];
        let mut incoming = vec![Vec::new(); self.actors.len()];
        for (i, c) in self.channels.iter().enumerate() {
            outgoing[c.source.0].push(CsdfChannelId(i));
            incoming[c.target.0].push(CsdfChannelId(i));
        }
        Ok(CsdfGraph {
            name: self.name,
            actors: self.actors,
            channels: self.channels,
            outgoing,
            incoming,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut b = CsdfGraph::builder("g");
        let x = b.actor("x", [1, 2, 3]);
        let y = b.actor("y", [4]);
        let ch = b.channel(x, y, [1, 0, 2], [3], 5).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.num_actors(), 2);
        assert_eq!(g.actor(x).num_phases(), 3);
        assert_eq!(g.actor(x).phase_time(1), 2);
        assert_eq!(g.channel(ch).production(2), 2);
        assert_eq!(g.channel(ch).production_per_cycle(), 3);
        assert_eq!(g.channel(ch).consumption_per_cycle(), 3);
        assert_eq!(g.channel(ch).initial_tokens(), 5);
        assert_eq!(g.total_initial_tokens(), 5);
        assert_eq!(g.outgoing(x).len(), 1);
        assert_eq!(g.incoming(y).len(), 1);
        assert_eq!(g.actor_by_name("y"), Some(y));
        assert!(g.to_string().contains("csdf graph 'g'"));
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let mut b = CsdfGraph::builder("g");
        b.actor("x", []);
    }

    #[test]
    #[should_panic(expected = "cover the source's phases")]
    fn wrong_pattern_length_rejected() {
        let mut b = CsdfGraph::builder("g");
        let x = b.actor("x", [1, 2]);
        let y = b.actor("y", [1]);
        let _ = b.channel(x, y, [1], [1], 0);
    }

    #[test]
    fn zero_cycle_rate_rejected() {
        let mut b = CsdfGraph::builder("g");
        let x = b.actor("x", [1, 2]);
        let y = b.actor("y", [1]);
        assert!(matches!(
            b.channel(x, y, [0, 0], [1], 0),
            Err(SdfError::ZeroRate { .. })
        ));
    }

    #[test]
    fn overflowing_cycle_rate_rejected() {
        let mut b = CsdfGraph::builder("g");
        let x = b.actor("x", [1, 2]);
        let y = b.actor("y", [1]);
        assert!(matches!(
            b.channel(x, y, [u64::MAX, 1], [1], 0),
            Err(SdfError::Overflow { .. })
        ));
        assert!(matches!(
            b.channel(y, x, [1], [1, u64::MAX], 0),
            Err(SdfError::Overflow { .. })
        ));
    }

    #[test]
    fn builder_validation() {
        let mut b = CsdfGraph::builder("g");
        b.actor("x", [1]);
        b.actor("x", [2]);
        assert!(matches!(
            b.build(),
            Err(SdfError::DuplicateActorName { .. })
        ));
        let mut b = CsdfGraph::builder("g");
        b.actor("x", [-1]);
        assert!(matches!(
            b.build(),
            Err(SdfError::NegativeExecutionTime { .. })
        ));
    }
}
