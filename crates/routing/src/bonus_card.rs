//! The bonus-card policy of Boppana & Chalasani, shared by `Nbc` and
//! `Enhanced-Nbc`.
//!
//! In the plain negative-hop scheme a message entering a node after `i`
//! negative hops *must* use escape level `i`; levels near the top are used by
//! almost no message, so their buffers sit idle.  The bonus-card refinement
//! hands each header `(levels − 1) − (negative hops it will still need)` bonus
//! cards; at every hop the header may pick any escape level between its
//! mandatory level and `mandatory + remaining cards`, spending one card per
//! level it climbs.  Deadlock freedom is preserved because the level is
//! non-decreasing along a path and bounded by the top level.

use star_graph::{coloring, NodeId, Topology};

use crate::traits::MessageRoutingState;

/// Computes the admissible escape-level window for a hop under the bonus-card
/// rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BonusCardPolicy {
    /// Number of escape levels available per physical channel.
    pub levels: usize,
}

impl BonusCardPolicy {
    /// Creates a policy with the given number of escape levels.
    ///
    /// # Panics
    /// Panics if `levels` is zero.
    #[must_use]
    pub fn new(levels: usize) -> Self {
        assert!(levels > 0, "need at least one escape level");
        Self { levels }
    }

    /// Number of escape levels the negative-hop scheme needs on `topology`
    /// (`⌊H/2⌋ + 1` for a 2-coloured network of diameter `H`).
    #[must_use]
    pub fn required_levels(topology: &dyn Topology) -> usize {
        coloring::max_negative_hops(topology.diameter(), 2) + 1
    }

    /// The mandatory escape level a message must be able to use when it
    /// *arrives* at `next` after the hop `current → next`.
    #[must_use]
    pub fn mandatory_level(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        next: NodeId,
        state: &MessageRoutingState,
    ) -> usize {
        let negative = star_graph::HopSign::classify(topology.color(current), topology.color(next))
            .is_negative();
        let mandatory = state.negative_hops_taken + usize::from(negative);
        // Levels already climbed to (bonus spent) can never be descended from.
        mandatory.max(state.escape_level)
    }

    /// Inclusive range `(low, high)` of escape levels the message may use on
    /// the hop `current → next` when heading for `dest`: the mandatory level
    /// plus up to `bonus` extra levels, where `bonus` is the number of levels
    /// that can be spent without ever running out before the destination.
    ///
    /// Returns `None` if even the mandatory level exceeds the top level, which
    /// means the configuration has too few escape levels for this hop (the
    /// constructors of `Nbc`/`EnhancedNbc` prevent this for minimal routes).
    #[must_use]
    pub fn admissible_levels(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        next: NodeId,
        dest: NodeId,
        state: &MessageRoutingState,
    ) -> Option<(usize, usize)> {
        let low = self.mandatory_level(topology, current, next, state);
        if low >= self.levels {
            return None;
        }
        let remaining = topology.distance(next, dest);
        let still_needed = coloring::negative_hops_remaining(topology.color(next), remaining);
        // Highest level such that climbing to it still leaves room for every
        // remaining mandatory increment.
        let high = (self.levels - 1).saturating_sub(still_needed).max(low);
        Some((low, high.min(self.levels - 1)))
    }

    /// Number of bonus cards available on a hop (the window size minus one).
    #[must_use]
    pub fn bonus_cards(
        &self,
        topology: &dyn Topology,
        current: NodeId,
        next: NodeId,
        dest: NodeId,
        state: &MessageRoutingState,
    ) -> usize {
        self.admissible_levels(topology, current, next, dest, state)
            .map_or(0, |(low, high)| high - low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{StarGraph, Topology};

    fn walk_minimal(topology: &StarGraph, src: u32, dest: u32) -> Vec<u32> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dest {
            let ports = topology.min_route_ports(cur, dest);
            cur = topology.neighbor(cur, ports[0]);
            path.push(cur);
        }
        path
    }

    #[test]
    fn required_levels_match_paper() {
        assert_eq!(BonusCardPolicy::required_levels(&StarGraph::new(5)), 4);
        assert_eq!(BonusCardPolicy::required_levels(&StarGraph::new(4)), 3);
        assert_eq!(BonusCardPolicy::required_levels(&StarGraph::new(6)), 4);
    }

    #[test]
    fn minimal_levels_always_admit_the_mandatory_level() {
        // With exactly the required number of levels, every hop of every
        // minimal path must still find an admissible window.
        let s5 = StarGraph::new(5);
        let policy = BonusCardPolicy::new(BonusCardPolicy::required_levels(&s5));
        for dest in (1..s5.node_count() as u32).step_by(13) {
            for src in (0..s5.node_count() as u32).step_by(7) {
                if src == dest {
                    continue;
                }
                let path = walk_minimal(&s5, src, dest);
                let mut state = MessageRoutingState::at_source();
                for w in path.windows(2) {
                    let (low, high) = policy
                        .admissible_levels(&s5, w[0], w[1], dest, &state)
                        .expect("mandatory level must fit");
                    assert!(low <= high);
                    assert!(high < policy.levels);
                    // always use the mandatory level for the walk
                    state = state.after_hop(&s5, w[0], w[1], Some(low));
                }
                assert!(state.negative_hops_taken < policy.levels);
            }
        }
    }

    #[test]
    fn more_levels_mean_more_bonus_cards() {
        let s5 = StarGraph::new(5);
        let tight = BonusCardPolicy::new(4);
        let loose = BonusCardPolicy::new(8);
        let state = MessageRoutingState::at_source();
        let dest = 119u32;
        let port = s5.min_route_ports(0, dest)[0];
        let next = s5.neighbor(0, port);
        let tight_cards = tight.bonus_cards(&s5, 0, next, dest, &state);
        let loose_cards = loose.bonus_cards(&s5, 0, next, dest, &state);
        assert!(loose_cards > tight_cards);
        assert_eq!(loose_cards - tight_cards, 4);
    }

    #[test]
    fn window_shrinks_as_negative_hops_are_spent() {
        let s5 = StarGraph::new(5);
        let policy = BonusCardPolicy::new(6);
        let dest = 95u32;
        let path = walk_minimal(&s5, 0, dest);
        let mut state = MessageRoutingState::at_source();
        let mut last_low = 0usize;
        for w in path.windows(2) {
            let (low, _high) = policy.admissible_levels(&s5, w[0], w[1], dest, &state).unwrap();
            assert!(low >= last_low, "mandatory level is non-decreasing along a path");
            last_low = low;
            state = state.after_hop(&s5, w[0], w[1], Some(low));
        }
    }

    #[test]
    fn spending_bonus_raises_the_mandatory_level() {
        let s5 = StarGraph::new(5);
        let policy = BonusCardPolicy::new(8);
        let dest = 31u32;
        let port = s5.min_route_ports(0, dest)[0];
        let next = s5.neighbor(0, port);
        let state = MessageRoutingState::at_source();
        let (_, high) = policy.admissible_levels(&s5, 0, next, dest, &state).unwrap();
        // climb straight to the top of the window
        let spent = state.after_hop(&s5, 0, next, Some(high));
        if next != dest {
            let port2 = s5.min_route_ports(next, dest)[0];
            let following = s5.neighbor(next, port2);
            let low2 = policy.mandatory_level(&s5, next, following, &spent);
            assert!(low2 >= high, "a spent card can never be recovered");
        }
    }
}
