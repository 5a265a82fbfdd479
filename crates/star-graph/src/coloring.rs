//! Bipartite colouring of the star graph and the negative/positive hop
//! classification used by the negative-hop deadlock-avoidance scheme.
//!
//! The star graph is bipartite: every generator is a transposition, so it
//! flips the parity of the permutation.  Following Boppana & Chalasani the
//! two colour classes are labelled `0` and `1`; a hop from a node with a
//! *higher* label to a node with a *lower* label is a **negative** hop, every
//! other hop is **positive**.  A message occupying virtual-channel level `i`
//! has taken exactly `i` negative hops so far.

use crate::permutation::Permutation;

/// Colour class of a node in the 2-colouring of the (bipartite) star graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Color {
    /// Even permutations (label 0).
    Zero,
    /// Odd permutations (label 1).
    One,
}

impl Color {
    /// Numeric label of the colour (0 or 1).
    #[must_use]
    pub fn label(self) -> u8 {
        match self {
            Color::Zero => 0,
            Color::One => 1,
        }
    }

    /// The other colour.
    #[must_use]
    pub fn flip(self) -> Self {
        match self {
            Color::Zero => Color::One,
            Color::One => Color::Zero,
        }
    }

    /// Colour of a node (even permutations are labelled 0).
    #[must_use]
    pub fn of(perm: &Permutation) -> Self {
        if perm.is_even() {
            Color::Zero
        } else {
            Color::One
        }
    }
}

/// Sign of a hop in the negative-hop scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopSign {
    /// Hop from a higher-labelled node to a lower-labelled node.
    Negative,
    /// Hop between nodes where the label does not decrease.
    Positive,
}

impl HopSign {
    /// Classifies the hop `from → to` by colour labels.
    #[must_use]
    pub fn classify(from: Color, to: Color) -> Self {
        if from.label() > to.label() {
            HopSign::Negative
        } else {
            HopSign::Positive
        }
    }

    /// Classifies a hop between two adjacent star-graph nodes.
    #[must_use]
    pub fn of_hop(from: &Permutation, to: &Permutation) -> Self {
        Self::classify(Color::of(from), Color::of(to))
    }

    /// Whether the hop is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        matches!(self, HopSign::Negative)
    }
}

/// Number of negative hops a message starting at a node of colour
/// `source_color` has taken after `hops_taken` hops (hop signs alternate
/// deterministically along any path because colours alternate).
#[must_use]
pub fn negative_hops_after(source_color: Color, hops_taken: usize) -> usize {
    match source_color {
        // 0 → 1 → 0 → …  : hops are +, −, +, − …
        Color::Zero => hops_taken / 2,
        // 1 → 0 → 1 → …  : hops are −, +, −, + …
        Color::One => hops_taken.div_ceil(2),
    }
}

/// Maximum number of negative hops still required by a path of `remaining`
/// hops starting from a node of colour `current_color`.
#[must_use]
pub fn negative_hops_remaining(current_color: Color, remaining: usize) -> usize {
    match current_color {
        Color::Zero => remaining / 2,
        Color::One => remaining.div_ceil(2),
    }
}

/// Maximum number of negative hops any minimal-path message can take in a
/// network of diameter `diameter` coloured with `colors` colours
/// (Boppana & Chalasani: `⌊H·(C−1)/C⌋`).  The star graph uses `C = 2`.
#[must_use]
pub fn max_negative_hops(diameter: usize, colors: usize) -> usize {
    assert!(colors >= 2, "need at least two colours");
    diameter * (colors - 1) / colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::Permutation;

    #[test]
    fn identity_is_color_zero() {
        assert_eq!(Color::of(&Permutation::identity(5)), Color::Zero);
    }

    #[test]
    fn neighbours_have_opposite_colors() {
        let v = Permutation::from_symbols(&[3, 1, 4, 2, 5]).unwrap();
        let c = Color::of(&v);
        for dim in 2..=5 {
            assert_eq!(Color::of(&v.apply_generator(dim)), c.flip());
        }
    }

    #[test]
    fn hop_sign_classification() {
        assert_eq!(HopSign::classify(Color::One, Color::Zero), HopSign::Negative);
        assert_eq!(HopSign::classify(Color::Zero, Color::One), HopSign::Positive);
        assert!(HopSign::classify(Color::One, Color::Zero).is_negative());
    }

    #[test]
    fn negative_hop_counting_alternates() {
        assert_eq!(negative_hops_after(Color::Zero, 0), 0);
        assert_eq!(negative_hops_after(Color::Zero, 1), 0);
        assert_eq!(negative_hops_after(Color::Zero, 2), 1);
        assert_eq!(negative_hops_after(Color::Zero, 6), 3);
        assert_eq!(negative_hops_after(Color::One, 1), 1);
        assert_eq!(negative_hops_after(Color::One, 2), 1);
        assert_eq!(negative_hops_after(Color::One, 5), 3);
    }

    #[test]
    fn negative_hops_along_actual_path_match_counter() {
        // Walk a minimal path in S5 and check the per-hop classification sums
        // to the closed-form counter.
        let dest = Permutation::identity(5);
        let mut cur = Permutation::from_symbols(&[5, 4, 3, 2, 1]).unwrap();
        let source_color = Color::of(&cur);
        let mut taken = 0usize;
        let mut neg = 0usize;
        while !cur.relative_to(&dest).is_identity() {
            let rel = cur.relative_to(&dest);
            let dim = rel.profitable_dimensions()[0];
            let next = cur.apply_generator(dim);
            if HopSign::of_hop(&cur, &next).is_negative() {
                neg += 1;
            }
            taken += 1;
            cur = next;
            assert_eq!(neg, negative_hops_after(source_color, taken));
        }
    }

    #[test]
    fn max_negative_hops_star_graph_values() {
        // S5: diameter 6, two colours → 3 negative hops max → 4 VC levels.
        assert_eq!(max_negative_hops(6, 2), 3);
        // S4: diameter 4 → 2.
        assert_eq!(max_negative_hops(4, 2), 2);
        // S6: diameter 7 → 3.
        assert_eq!(max_negative_hops(7, 2), 3);
    }

    #[test]
    fn remaining_negative_hops_bounds() {
        for rem in 0..10 {
            let z = negative_hops_remaining(Color::Zero, rem);
            let o = negative_hops_remaining(Color::One, rem);
            assert!(z <= rem && o <= rem);
            assert_eq!(z + negative_hops_remaining(Color::One, 0), rem / 2);
            assert_eq!(o, rem.div_ceil(2));
        }
    }
}
