//! Model parameters: the four knobs that pair with a topology value.
//!
//! [`ModelParams`] holds virtual channels `V`, message length `M`, traffic
//! rate `λ_g` and the routing discipline; the topology arrives separately as
//! `&dyn Topology` (or as its [`crate::TraversalSpectrum`]), and
//! [`ModelParams::validate_for`] derives the requirements — the escape-level
//! minimum `⌊diameter/2⌋ + 1` and the size ranges the model admits for the
//! star graph and hypercube — from the topology itself.

use std::error::Error;
use std::fmt;

use star_graph::coloring::max_negative_hops;
use star_graph::{Hypercube, StarGraph, Topology};

use crate::blocking::VcSplit;

/// Which routing scheme the model evaluates, across every topology.
///
/// The paper derives the model for Enhanced-Nbc and notes that "the modelling
/// approach used here can be equally applied for other routing schemes after
/// few changes"; the other variants implement exactly those changes — they
/// differ only in how the virtual channels of a physical channel are split,
/// how many of them a header may request on one hop, and (for
/// `Deterministic`, the dimension-order style baseline) how many output
/// ports it may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ModelDiscipline {
    /// Minimal escape levels plus fully adaptive class-a channels, with
    /// bonus cards on the escape levels (the paper's algorithm).
    #[default]
    EnhancedNbc,
    /// Negative-hop with bonus cards over all `V` virtual channels.
    Nbc,
    /// Plain negative-hop: one admissible virtual channel per admissible
    /// physical channel.
    NHop,
    /// Deterministic minimal routing: one admissible output port per hop,
    /// one admissible virtual channel (the mandatory negative-hop level).
    Deterministic,
}

impl ModelDiscipline {
    /// Whether the scheme offers every profitable output port (adaptive) or
    /// a single canonical one (deterministic).
    #[must_use]
    pub fn is_adaptive(self) -> bool {
        !matches!(self, ModelDiscipline::Deterministic)
    }

    /// Whether headers may climb above their mandatory escape level
    /// (bonus cards).
    #[must_use]
    pub fn bonus_cards(self) -> bool {
        matches!(self, ModelDiscipline::EnhancedNbc | ModelDiscipline::Nbc)
    }
}

/// Why a [`ModelParams`] / topology pairing is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelParamsError {
    /// The network is outside the size range the model admits for its
    /// family (`S_3 … S_9`, `Q_2 … Q_24`).
    UnsupportedSize {
        /// The family's name prefix (`'S'` or `'Q'`).
        family: char,
        /// The rejected size (symbols or dimensions).
        size: usize,
        /// The smallest admitted size.
        min: usize,
        /// The largest admitted size.
        max: usize,
    },
    /// Messages must be at least one flit long.
    ZeroLengthMessage,
    /// The traffic generation rate is negative, NaN or infinite.
    InvalidTrafficRate {
        /// The rejected rate.
        rate: f64,
    },
    /// The discipline needs more virtual channels than were configured.
    TooFewVirtualChannels {
        /// The discipline being modelled.
        discipline: ModelDiscipline,
        /// Minimum negative-hop levels the topology requires.
        required_levels: usize,
        /// The rejected virtual-channel count.
        got: usize,
    },
}

impl fmt::Display for ModelParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModelParamsError::UnsupportedSize { family, size, min, max } => {
                write!(f, "the model supports {family}_{min} … {family}_{max}, got {family}_{size}")
            }
            ModelParamsError::ZeroLengthMessage => write!(f, "messages need at least one flit"),
            ModelParamsError::InvalidTrafficRate { rate } => {
                write!(f, "traffic rate must be finite and non-negative, got {rate}")
            }
            ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels,
                got,
            } => write!(
                f,
                "Enhanced-Nbc needs more than {required_levels} virtual channels, got {got}"
            ),
            ModelParamsError::TooFewVirtualChannels { discipline, required_levels, got } => {
                write!(
                    f,
                    "{discipline:?} needs at least {required_levels} virtual channels, got {got}"
                )
            }
        }
    }
}

impl Error for ModelParamsError {}

/// The four model knobs that are common to every topology: virtual channels
/// `V`, message length `M`, traffic generation rate `λ_g` and the routing
/// discipline.  Pair with a [`Topology`] (or a
/// [`crate::TraversalSpectrum`]) to evaluate the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Virtual channels `V` per physical channel.
    pub virtual_channels: usize,
    /// Message length `M` in flits.
    pub message_length: usize,
    /// Traffic generation rate `λ_g` in messages per node per cycle.
    pub traffic_rate: f64,
    /// Routing discipline being modelled.
    pub discipline: ModelDiscipline,
}

impl Default for ModelParams {
    /// The paper's `V = 6`, `M = 32`, Enhanced-Nbc configuration at a low
    /// load (the topology is supplied separately).
    fn default() -> Self {
        Self {
            virtual_channels: 6,
            message_length: 32,
            traffic_rate: 0.001,
            discipline: ModelDiscipline::EnhancedNbc,
        }
    }
}

impl ModelParams {
    /// Returns a copy with the traffic rate replaced — the knob sweeps turn.
    #[must_use]
    pub fn with_rate(self, rate: f64) -> Self {
        Self { traffic_rate: rate, ..self }
    }

    /// Minimum number of negative-hop levels a bipartite topology of the
    /// given diameter requires (`⌊diameter/2⌋ + 1`).
    #[must_use]
    pub fn required_levels(diameter: usize) -> usize {
        max_negative_hops(diameter, 2) + 1
    }

    /// Smallest valid `V` for this discipline on a topology of the given
    /// diameter (`levels + 1` for Enhanced-Nbc, which needs at least one
    /// class-a channel; `levels` otherwise).
    #[must_use]
    pub fn min_virtual_channels(discipline: ModelDiscipline, diameter: usize) -> usize {
        let levels = Self::required_levels(diameter);
        match discipline {
            ModelDiscipline::EnhancedNbc => levels + 1,
            _ => levels,
        }
    }

    /// Number of class-b (escape) virtual channels for a topology of the
    /// given diameter.
    #[must_use]
    pub fn escape_levels(&self, diameter: usize) -> usize {
        match self.discipline {
            ModelDiscipline::EnhancedNbc => Self::required_levels(diameter),
            _ => self.virtual_channels,
        }
    }

    /// Number of class-a (fully adaptive) virtual channels for a topology of
    /// the given diameter.
    #[must_use]
    pub fn adaptive_channels(&self, diameter: usize) -> usize {
        match self.discipline {
            ModelDiscipline::EnhancedNbc => self.virtual_channels - Self::required_levels(diameter),
            _ => 0,
        }
    }

    /// The virtual-channel split the blocking equations assume on a topology
    /// of the given diameter.
    #[must_use]
    pub fn vc_split(&self, diameter: usize) -> VcSplit {
        VcSplit {
            adaptive: self.adaptive_channels(diameter),
            escape_levels: self.escape_levels(diameter),
            bonus_cards: self.discipline.bonus_cards(),
        }
    }

    /// Topology-agnostic validation against a diameter: message length,
    /// traffic rate and the virtual-channel floor.
    ///
    /// # Errors
    /// Returns a [`ModelParamsError`] describing the first violation.
    pub fn try_validate_generic(&self, diameter: usize) -> Result<(), ModelParamsError> {
        if self.message_length < 1 {
            return Err(ModelParamsError::ZeroLengthMessage);
        }
        if !(self.traffic_rate >= 0.0 && self.traffic_rate.is_finite()) {
            return Err(ModelParamsError::InvalidTrafficRate { rate: self.traffic_rate });
        }
        if self.virtual_channels < Self::min_virtual_channels(self.discipline, diameter) {
            return Err(ModelParamsError::TooFewVirtualChannels {
                discipline: self.discipline,
                required_levels: Self::required_levels(diameter),
                got: self.virtual_channels,
            });
        }
        Ok(())
    }

    /// Validates the pairing of these parameters with a topology: the size
    /// range for a [`StarGraph`] (`S_3 … S_9`) or [`Hypercube`]
    /// (`Q_2 … Q_24`), then [`Self::try_validate_generic`] against the
    /// topology's diameter.
    ///
    /// # Errors
    /// Returns a [`ModelParamsError`] describing the first violation.
    pub fn validate_for(&self, topology: &dyn Topology) -> Result<(), ModelParamsError> {
        let any = topology.as_any();
        let range = if let Some(star) = any.downcast_ref::<StarGraph>() {
            Some(('S', star.symbols(), 3, 9))
        } else {
            any.downcast_ref::<Hypercube>().map(|cube| ('Q', cube.dims(), 2, Hypercube::MAX_DIMS))
        };
        if let Some((family, size, min, max)) = range {
            if !(min..=max).contains(&size) {
                return Err(ModelParamsError::UnsupportedSize { family, size, min, max });
            }
        }
        self.try_validate_generic(topology.diameter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{Ring, Torus};

    fn params(v: usize) -> ModelParams {
        ModelParams { virtual_channels: v, ..ModelParams::default() }
    }

    #[test]
    fn default_matches_the_papers_knobs() {
        let p = ModelParams::default();
        assert_eq!(p.virtual_channels, 6);
        assert_eq!(p.message_length, 32);
        assert_eq!(p.discipline, ModelDiscipline::EnhancedNbc);
        assert!((p.with_rate(0.004).traffic_rate - 0.004).abs() < 1e-15);
    }

    #[test]
    fn star_validation_applies_the_size_range_and_the_level_floor() {
        let star = StarGraph::new(5);
        assert!(params(6).validate_for(&star).is_ok());
        // S5: diameter 6 → 4 levels → Enhanced-Nbc needs V ≥ 5
        assert_eq!(
            params(4).validate_for(&star),
            Err(ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels: 4,
                got: 4,
            })
        );
        // S2 is a tabled topology but outside the model's range
        let err = params(6).validate_for(&StarGraph::new(2)).unwrap_err();
        assert_eq!(err, ModelParamsError::UnsupportedSize { family: 'S', size: 2, min: 3, max: 9 });
        assert_eq!(err.to_string(), "the model supports S_3 … S_9, got S_2");
        // the deterministic discipline validates like any other: V = 4
        // covers the 4 levels S5 needs
        let det = ModelParams { discipline: ModelDiscipline::Deterministic, ..params(4) };
        assert!(det.validate_for(&star).is_ok());
    }

    #[test]
    fn hypercube_validation_applies_the_size_range_and_the_level_floor() {
        let cube = Hypercube::new(10);
        assert!(params(8).validate_for(&cube).is_ok());
        // Q10: diameter 10 → 6 levels
        assert_eq!(
            params(6).validate_for(&cube),
            Err(ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels: 6,
                got: 6,
            })
        );
        // the escape-only schemes accept V == required levels
        let det = ModelParams { discipline: ModelDiscipline::Deterministic, ..params(6) };
        assert!(det.validate_for(&cube).is_ok());
        let nhop = ModelParams { discipline: ModelDiscipline::NHop, ..params(5) };
        assert!(nhop.validate_for(&cube).is_err());
        assert_eq!(
            params(6).validate_for(&Hypercube::new(1)),
            Err(ModelParamsError::UnsupportedSize { family: 'Q', size: 1, min: 2, max: 24 })
        );
    }

    #[test]
    fn generic_validation_covers_torus_and_ring() {
        let t12 = Torus::new(12); // diameter 12 → 7 levels → V ≥ 8 for Enhanced-Nbc
        assert_eq!(ModelParams::required_levels(t12.diameter()), 7);
        assert!(params(8).validate_for(&t12).is_ok());
        assert_eq!(
            params(7).validate_for(&t12),
            Err(ModelParamsError::TooFewVirtualChannels {
                discipline: ModelDiscipline::EnhancedNbc,
                required_levels: 7,
                got: 7,
            })
        );
        let ring = Ring::new(8); // diameter 4 → 3 levels
        assert!(params(4).validate_for(&ring).is_ok());
        let nhop = ModelParams { discipline: ModelDiscipline::NHop, ..params(3) };
        assert!(nhop.validate_for(&ring).is_ok(), "escape-only schemes accept V == levels");
    }

    #[test]
    fn validation_rejects_bad_messages_and_rates() {
        for topology in [&Torus::new(8) as &dyn Topology, &StarGraph::new(5), &Hypercube::new(7)] {
            let zero = ModelParams { message_length: 0, ..params(8) };
            assert_eq!(zero.validate_for(topology), Err(ModelParamsError::ZeroLengthMessage));
            let nan = ModelParams { traffic_rate: f64::NAN, ..params(8) };
            assert!(matches!(
                nan.validate_for(topology),
                Err(ModelParamsError::InvalidTrafficRate { .. })
            ));
        }
    }

    #[test]
    fn vc_split_follows_the_discipline() {
        // S5 (diameter 6): 4 escape levels
        let split = params(6).vc_split(6);
        assert_eq!((split.adaptive, split.escape_levels, split.bonus_cards), (2, 4, true));
        let nbc = ModelParams { discipline: ModelDiscipline::Nbc, ..params(6) }.vc_split(6);
        assert_eq!((nbc.adaptive, nbc.escape_levels, nbc.bonus_cards), (0, 6, true));
        let nhop = ModelParams { discipline: ModelDiscipline::NHop, ..params(4) }.vc_split(6);
        assert_eq!((nhop.adaptive, nhop.escape_levels, nhop.bonus_cards), (0, 4, false));
        // Q10 / Q13: 6 and 7 escape levels
        assert_eq!(params(8).vc_split(10).adaptive, 2);
        assert_eq!(params(8).vc_split(13).escape_levels, 7);
        assert!(ModelDiscipline::Nbc.bonus_cards());
        assert!(!ModelDiscipline::Deterministic.bonus_cards());
        assert!(!ModelDiscipline::Deterministic.is_adaptive());
    }

    #[test]
    fn error_displays() {
        let err = ModelParamsError::TooFewVirtualChannels {
            discipline: ModelDiscipline::EnhancedNbc,
            required_levels: 7,
            got: 7,
        };
        assert_eq!(err.to_string(), "Enhanced-Nbc needs more than 7 virtual channels, got 7");
        let err = ModelParamsError::TooFewVirtualChannels {
            discipline: ModelDiscipline::Deterministic,
            required_levels: 3,
            got: 2,
        };
        assert_eq!(err.to_string(), "Deterministic needs at least 3 virtual channels, got 2");
        let err = ModelParamsError::UnsupportedSize { family: 'Q', size: 30, min: 2, max: 24 };
        assert_eq!(err.to_string(), "the model supports Q_2 … Q_24, got Q_30");
        let boxed: Box<dyn std::error::Error> = Box::new(ModelParamsError::ZeroLengthMessage);
        assert_eq!(boxed.to_string(), "messages need at least one flit");
    }
}
