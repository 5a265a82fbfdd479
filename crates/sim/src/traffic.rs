//! Destination selection patterns for generated traffic.
//!
//! The paper evaluates uniform traffic only; hot-spot and locality patterns
//! are provided for the extension studies in the benchmark harness.

use rand::rngs::StdRng;
use rand::Rng;
use star_graph::{NodeId, Topology};

/// Destination selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficPattern {
    /// Destinations uniformly distributed over all other nodes (the paper's
    /// assumption (a)).
    #[default]
    Uniform,
    /// A fraction of the traffic targets a single hot-spot node; the rest is
    /// uniform.
    HotSpot {
        /// The hot node.
        node: NodeId,
        /// Fraction of messages (0..1) sent to the hot node.
        fraction: f64,
    },
    /// Destinations drawn uniformly among nodes within the given distance of
    /// the source (models communication locality).
    Local {
        /// Maximum distance of a destination from its source.
        max_distance: usize,
    },
}

impl TrafficPattern {
    /// Draws a destination for a message generated at `source`.
    ///
    /// # Panics
    /// Panics if the pattern parameters are invalid for the topology (e.g. a
    /// hot-spot node out of range).
    pub fn pick_destination(
        &self,
        topology: &dyn Topology,
        source: NodeId,
        rng: &mut StdRng,
    ) -> NodeId {
        let n = topology.node_count() as NodeId;
        match *self {
            TrafficPattern::Uniform => {
                // uniform over all nodes except the source
                let mut dest = rng.random_range(0..n - 1);
                if dest >= source {
                    dest += 1;
                }
                dest
            }
            TrafficPattern::HotSpot { node, fraction } => {
                assert!(node < n, "hot-spot node out of range");
                assert!((0.0..=1.0).contains(&fraction), "hot-spot fraction out of range");
                if node != source && rng.random::<f64>() < fraction {
                    node
                } else {
                    TrafficPattern::Uniform.pick_destination(topology, source, rng)
                }
            }
            TrafficPattern::Local { max_distance } => {
                assert!(max_distance >= 1, "locality radius must be at least 1");
                // rejection sampling; the neighbourhood is never empty because
                // every node has neighbours at distance 1
                loop {
                    let dest = TrafficPattern::Uniform.pick_destination(topology, source, rng);
                    if topology.distance(source, dest) <= max_distance {
                        return dest;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::StarGraph;
    use star_queueing::sampling::seeded_rng;

    #[test]
    fn uniform_never_picks_the_source_and_covers_all_nodes() {
        let s4 = StarGraph::new(4);
        let mut rng = seeded_rng(3, 0);
        let mut seen = vec![false; s4.node_count()];
        for _ in 0..5_000 {
            let d = TrafficPattern::Uniform.pick_destination(&s4, 7, &mut rng);
            assert_ne!(d, 7);
            seen[d as usize] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, s4.node_count() - 1);
    }

    #[test]
    fn uniform_is_actually_uniform() {
        let s4 = StarGraph::new(4);
        let mut rng = seeded_rng(11, 1);
        let trials = 48_000;
        let mut counts = vec![0usize; s4.node_count()];
        for _ in 0..trials {
            counts[TrafficPattern::Uniform.pick_destination(&s4, 0, &mut rng) as usize] += 1;
        }
        let expected = trials as f64 / (s4.node_count() - 1) as f64;
        for (node, &c) in counts.iter().enumerate() {
            if node == 0 {
                assert_eq!(c, 0);
            } else {
                let rel = (c as f64 - expected).abs() / expected;
                assert!(rel < 0.15, "node {node} count {c} deviates too much");
            }
        }
    }

    #[test]
    fn hotspot_receives_requested_fraction() {
        let s4 = StarGraph::new(4);
        let mut rng = seeded_rng(5, 2);
        let pattern = TrafficPattern::HotSpot { node: 3, fraction: 0.3 };
        let trials = 20_000;
        let hits = (0..trials).filter(|_| pattern.pick_destination(&s4, 0, &mut rng) == 3).count();
        let observed = hits as f64 / trials as f64;
        // 30% targeted plus the uniform share of the remaining 70%
        let expected = 0.3 + 0.7 / 23.0;
        assert!((observed - expected).abs() < 0.02, "observed {observed}, expected {expected}");
    }

    #[test]
    fn local_pattern_respects_radius() {
        let s5 = StarGraph::new(5);
        let mut rng = seeded_rng(9, 3);
        let pattern = TrafficPattern::Local { max_distance: 2 };
        for _ in 0..2_000 {
            let d = pattern.pick_destination(&s5, 10, &mut rng);
            assert!(s5.distance(10, d) <= 2);
            assert_ne!(d, 10);
        }
    }
}
