//! Exact distance statistics of the star graph.
//!
//! The paper's Eq. (2) uses the mean minimal distance `d̄` of `S_n`.  The OCR
//! of the published closed form is unreadable, so this module computes the
//! quantity exactly instead, in two independent ways that are cross-checked by
//! tests:
//!
//! 1. **Cycle-type enumeration** ([`star_distance_distribution`]): the
//!    distance from the identity to a permutation depends only on its cycle
//!    type (and on whether position 1 sits on a non-trivial cycle), so the
//!    whole distance distribution is obtained by enumerating integer
//!    partitions into parts `>= 2` and counting the permutations of each type
//!    with the standard cycle-index formula.  This runs in milliseconds even
//!    for `n` far beyond what can be simulated.
//! 2. **Direct enumeration** (used in tests for small `n`).

use crate::permutation::Permutation;
use crate::{factorial, MAX_SYMBOLS};

/// A star-graph node *type*: the multiset of non-trivial cycle lengths of the
/// permutation (relative to the destination) plus the length of the cycle
/// through position 1 (1 when position 1 is a fixed point).
///
/// All permutations of the same type are equivalent for the analytical model:
/// they have the same distance, the same number of minimal paths and the same
/// per-hop adaptivity profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CycleType {
    /// Sorted (ascending) lengths of the non-trivial cycles.
    pub cycle_lengths: Vec<usize>,
    /// Length of the cycle containing position 1 (1 = fixed point).
    pub first_cycle_len: usize,
}

impl CycleType {
    /// The cycle type of a concrete permutation.
    #[must_use]
    pub fn of(perm: &Permutation) -> Self {
        let (cycle_lengths, first_cycle_len) = perm.type_signature();
        Self { cycle_lengths, first_cycle_len }
    }

    /// Total number of displaced symbols.
    #[must_use]
    pub fn displaced(&self) -> usize {
        self.cycle_lengths.iter().sum()
    }

    /// Star-graph distance to the destination for nodes of this type
    /// (Akers–Harel–Krishnamurthy formula).
    #[must_use]
    pub fn distance(&self) -> usize {
        let k = self.displaced();
        let c = self.cycle_lengths.len();
        if k == 0 {
            0
        } else if self.first_cycle_len == 1 {
            k + c
        } else {
            k + c - 2
        }
    }

    /// Number of permutations of `n` symbols with this type.
    ///
    /// # Panics
    /// Panics if the type does not fit in `n` symbols.
    #[must_use]
    pub fn count(&self, n: usize) -> u64 {
        let k = self.displaced();
        assert!(k <= n, "cycle type does not fit in {n} symbols");
        // multiplicity of each non-trivial cycle length
        let mut mult = std::collections::BTreeMap::new();
        for &l in &self.cycle_lengths {
            *mult.entry(l).or_insert(0u64) += 1;
        }
        // permutations with this unmarked cycle type:
        //   n! / ( Π_j j^{m_j} m_j!  ·  (n-k)! )
        // computed in f64-free integer arithmetic via u128 to avoid overflow.
        let mut denom: u128 = 1;
        for (&l, &m) in &mult {
            denom *= (l as u128).pow(m as u32);
            denom *= (1..=m as u128).product::<u128>();
        }
        denom *= (1..=(n - k) as u128).product::<u128>();
        let base = factorial(n) as u128 / denom;
        // fraction of those with symbol/position 1 located as required
        let marked = if self.first_cycle_len == 1 {
            // position 1 is a fixed point: (n - k) of the n positions are fixed
            base * (n - k) as u128 / n as u128
        } else {
            let l = self.first_cycle_len;
            let m =
                *mult.get(&l).expect("first cycle length must be one of the cycle lengths") as u128;
            base * (l as u128) * m / n as u128
        };
        u64::try_from(marked).expect("count fits in u64 for supported n")
    }

    /// A concrete permutation of `n` symbols with this cycle type (position 1
    /// lies on a cycle of length `first_cycle_len`).
    ///
    /// # Panics
    /// Panics if the type does not fit in `n` symbols or `n` is out of range.
    #[must_use]
    pub fn representative(&self, n: usize) -> Permutation {
        assert!((2..=MAX_SYMBOLS).contains(&n), "size {n} out of range");
        assert!(self.displaced() <= n, "cycle type does not fit in {n} symbols");
        let mut symbols: Vec<u8> = (1..=n as u8).collect();
        // Place cycles on consecutive position blocks.  A cycle on positions
        // p_1 < p_2 < … < p_L is realised as pos p_1 → symbol p_2, …,
        // pos p_L → symbol p_1.
        let place_cycle = |positions: &[usize], symbols: &mut Vec<u8>| {
            let l = positions.len();
            for i in 0..l {
                symbols[positions[i] - 1] = positions[(i + 1) % l] as u8;
            }
        };
        let mut next_free;
        let mut remaining = self.cycle_lengths.clone();
        if self.first_cycle_len >= 2 {
            // the cycle through position 1 first
            let idx = remaining
                .iter()
                .position(|&l| l == self.first_cycle_len)
                .expect("first cycle length must be present");
            remaining.remove(idx);
            let positions: Vec<usize> = (1..=self.first_cycle_len).collect();
            place_cycle(&positions, &mut symbols);
            next_free = self.first_cycle_len + 1;
        } else {
            // position 1 stays fixed
            next_free = 2;
        }
        for l in remaining {
            let positions: Vec<usize> = (next_free..next_free + l).collect();
            place_cycle(&positions, &mut symbols);
            next_free += l;
        }
        Permutation::from_symbols(&symbols).expect("representative is a valid permutation")
    }
}

/// Enumerates every cycle type realisable on `n` symbols together with the
/// number of permutations of that type.  The identity type
/// (`cycle_lengths = []`) is included with count 1.
#[must_use]
pub fn enumerate_types(n: usize) -> Vec<(CycleType, u64)> {
    let mut partitions: Vec<Vec<usize>> = Vec::new();
    // integer partitions of every k <= n into parts >= 2, parts non-increasing
    fn rec(remaining: usize, max_part: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        out.push(current.clone());
        let mut part = max_part.min(remaining);
        while part >= 2 {
            current.push(part);
            rec(remaining - part, part, current, out);
            current.pop();
            part -= 1;
        }
    }
    rec(n, n, &mut Vec::new(), &mut partitions);

    let mut out = Vec::new();
    for parts in partitions {
        let k: usize = parts.iter().sum();
        let mut sorted = parts.clone();
        sorted.sort_unstable();
        if k == 0 {
            out.push((CycleType { cycle_lengths: vec![], first_cycle_len: 1 }, 1));
            continue;
        }
        // variant: position 1 fixed (needs at least one fixed point)
        if k < n {
            let t = CycleType { cycle_lengths: sorted.clone(), first_cycle_len: 1 };
            let c = t.count(n);
            if c > 0 {
                out.push((t, c));
            }
        }
        // variant: position 1 inside a cycle of length l, one per distinct l
        let mut distinct = sorted.clone();
        distinct.dedup();
        for l in distinct {
            let t = CycleType { cycle_lengths: sorted.clone(), first_cycle_len: l };
            let c = t.count(n);
            if c > 0 {
                out.push((t, c));
            }
        }
    }
    out
}

/// Number of star-graph nodes at each distance from a fixed node:
/// `dist[d]` = number of permutations at distance `d`.  Index 0 is the node
/// itself (count 1); the vector length is `diameter + 1`.
#[must_use]
pub fn star_distance_distribution(n: usize) -> Vec<u64> {
    let diameter = 3 * (n - 1) / 2;
    let mut dist = vec![0u64; diameter + 1];
    for (t, count) in enumerate_types(n) {
        dist[t.distance()] += count;
    }
    dist
}

/// Exact mean minimal distance of `S_n` over all ordered pairs of *distinct*
/// nodes — the `d̄` of the paper's Eq. (2).
#[must_use]
pub fn star_mean_distance(n: usize) -> f64 {
    let dist = star_distance_distribution(n);
    let total_nodes: u64 = dist.iter().sum();
    let weighted: u128 = dist.iter().enumerate().map(|(d, &c)| d as u128 * c as u128).sum();
    weighted as f64 / (total_nodes - 1) as f64
}

/// Exact mean minimal distance of the binary hypercube `Q_d` over all ordered
/// pairs of distinct nodes: `d·2^(d-1) / (2^d − 1)`.
#[must_use]
pub fn hypercube_mean_distance(dims: usize) -> f64 {
    let nodes = 1u64 << dims;
    (dims as f64 * (nodes / 2) as f64) / (nodes - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank::unrank;

    #[test]
    fn type_counts_sum_to_n_factorial() {
        for n in 2..=9 {
            let total: u64 = enumerate_types(n).iter().map(|(_, c)| c).sum();
            assert_eq!(total, factorial(n), "type counts must cover all of S_{n}");
        }
    }

    #[test]
    fn distribution_matches_enumeration_small_n() {
        for n in 3..=6 {
            let analytic = star_distance_distribution(n);
            let mut direct = vec![0u64; 3 * (n - 1) / 2 + 1];
            for r in 0..factorial(n) {
                direct[unrank(n, r).distance_to_identity()] += 1;
            }
            assert_eq!(analytic, direct, "distance distribution mismatch for S_{n}");
        }
    }

    #[test]
    fn known_distribution_s4() {
        // S4: 24 nodes, diameter 4.
        assert_eq!(star_distance_distribution(4), vec![1, 3, 6, 9, 5]);
    }

    #[test]
    fn mean_distance_known_values() {
        // S3 is a 6-cycle: distances 1,1,2,2,3 → mean 9/5.
        assert!((star_mean_distance(3) - 1.8).abs() < 1e-12);
        // S4: (0·1 + 1·3 + 2·6 + 3·9 + 4·5)/23 = 62/23
        assert!((star_mean_distance(4) - 62.0 / 23.0).abs() < 1e-12);
    }

    #[test]
    fn mean_distance_is_sublogarithmic_in_nodes() {
        // d̄ grows roughly like n, far below log2(n!) for the same node count.
        for n in 4..=9 {
            let d = star_mean_distance(n);
            assert!(d < n as f64, "mean distance below n for S_{n}");
            assert!(d > (n as f64) / 2.0);
        }
    }

    #[test]
    fn representative_has_claimed_type_and_distance() {
        for n in 4..=7 {
            for (t, _) in enumerate_types(n) {
                let rep = t.representative(n);
                assert_eq!(CycleType::of(&rep), t, "representative type mismatch (n={n})");
                assert_eq!(rep.distance_to_identity(), t.distance());
            }
        }
    }

    #[test]
    fn counts_match_direct_census_s5() {
        use std::collections::HashMap;
        let n = 5;
        let mut census: HashMap<CycleType, u64> = HashMap::new();
        for r in 0..factorial(n) {
            *census.entry(CycleType::of(&unrank(n, r))).or_insert(0) += 1;
        }
        for (t, c) in enumerate_types(n) {
            assert_eq!(census.get(&t).copied().unwrap_or(0), c, "count mismatch for {t:?}");
        }
        assert_eq!(census.len(), enumerate_types(n).len());
    }

    #[test]
    fn hypercube_mean_distance_values() {
        assert!((hypercube_mean_distance(1) - 1.0).abs() < 1e-12);
        assert!((hypercube_mean_distance(2) - 4.0 / 3.0).abs() < 1e-12);
        assert!((hypercube_mean_distance(7) - 7.0 * 64.0 / 127.0).abs() < 1e-12);
    }
}
