//! # star-core
//!
//! The paper's contribution: an analytical model of the mean message latency
//! of fully adaptive (Enhanced-Nbc) wormhole routing in the star
//! interconnection network `S_n` under uniform Poisson traffic
//! (Kiasari, Sarbazi-Azad & Ould-Khaoua, IPDPS 2006).
//!
//! The model composes (equation numbers refer to the paper):
//!
//! * the mean minimal distance `d̄` of `S_n` (Eq. 2), computed exactly from
//!   the permutation cycle structure by `star-graph`;
//! * the per-channel traffic rate `λ_c = λ_g·d̄/(n−1)` (Eq. 3);
//! * the per-destination network latency `S_i = M + h_i + Σ_k B_{i,k}`
//!   (Eq. 4-5), averaged over destinations weighted by how many nodes of each
//!   *cycle type* exist;
//! * the per-hop blocking time `B_{i,k} = P_block(i,k) · w̄` (Eq. 6) where the
//!   blocking probability accounts for the number of alternative output
//!   channels `f(i,j,k)` (Eq. 7-8) and for which virtual channels the
//!   Enhanced-Nbc scheme lets the message use (Eq. 9-11);
//! * M/G/1 waiting times at the channels and at the source queue with the
//!   paper's variance approximation `σ² ≈ (S̄ − M)²` (Eq. 12-16);
//! * the Markovian virtual-channel occupancy distribution (Eq. 18) and
//!   Dally's multiplexing factor `V̄` (Eq. 19);
//! * the final mean latency `(S̄ + W_s)·V̄` (Eq. 1), obtained by damped
//!   fixed-point iteration over the circular dependency between `S̄` and the
//!   waiting times.
//!
//! ## Derivation chain
//!
//! The modules compose in one fixed order — **params → spectrum → blocking
//! → waiting → occupancy → latency** — for every topology; only the
//! spectrum builder knows which network it is looking at:
//!
//! | stage | module | what it computes |
//! |---|---|---|
//! | params | [`params`] ([`ModelParams`]) | `V`, `M`, `λ_g`, discipline; [`ModelParams::validate_for`] derives the escape-level floor from the topology's diameter |
//! | spectrum builder | [`spectrum`] ([`TraversalSpectrum::for_topology`]) | destination classes and per-hop adaptivity: closed-form cycle types on `S_n` ([`TraversalSpectrum::star`]), binomial Hamming populations on `Q_d` ([`TraversalSpectrum::hypercube`]), the BFS census over `min_route_ports` on any other [`star_graph::Topology`] ([`TraversalSpectrum::new`]) |
//! | blocking | [`blocking`] | Eqs. 6–11, for any bipartite network |
//! | waiting | [`waiting`] | Eqs. 12–16 |
//! | occupancy | [`occupancy`] | Eqs. 18–19 |
//! | latency | [`generic`] ([`SpectrumModel`], [`spectrum_saturation_rate`]) | Eq. 1 by damped fixed-point iteration; the saturation rate by bisection |
//!
//! The closed-form spectra and the BFS census agree bit for bit (exact
//! `u128` path counts, one final division), which the `spectrum` module's
//! tests pin down; the closed forms exist because they are an order of
//! magnitude cheaper to build.  New topologies (e.g. [`star_graph::Torus`] /
//! [`star_graph::Ring`]) only implement the [`star_graph::Topology`] trait.
//!
//! ```
//! use std::sync::Arc;
//! use star_core::{spectrum_saturation_rate, ModelParams, SpectrumModel, TraversalSpectrum};
//! use star_graph::StarGraph;
//!
//! // S5: 120 nodes, the network of Figure 1, with V = 6 and M = 32
//! let spectrum = Arc::new(TraversalSpectrum::for_topology(&StarGraph::new(5)));
//! let params = ModelParams { virtual_channels: 6, message_length: 32, ..Default::default() };
//! let result = SpectrumModel::new(params.with_rate(0.004), Arc::clone(&spectrum)).solve();
//! assert!(!result.saturated);
//! // latency is above the zero-load bound M + d̄ and finite below saturation
//! assert!(result.mean_latency > 32.0 + 3.5);
//! // the knee of the latency curve lies above the solved rate
//! assert!(spectrum_saturation_rate(params, &spectrum, 0.02) > 0.004);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod generic;
pub mod occupancy;
pub mod params;
pub mod spectrum;
pub mod validation;
pub mod waiting;

pub use generic::{spectrum_saturation_rate, SpectrumModel, SpectrumResult};
pub use params::{ModelDiscipline, ModelParams, ModelParamsError};
pub use spectrum::{TraversalClass, TraversalSpectrum};
pub use validation::ValidationRow;
