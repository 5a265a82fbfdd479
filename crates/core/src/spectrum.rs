//! The traversal spectrum: everything the model needs to know about the
//! possible destinations of a message, aggregated into equivalence classes.
//!
//! Under uniform traffic the paper fixes the source at node 0 and averages
//! the network latency over every other destination (Eq. 5).  Destinations
//! that look alike from the source — same distance, same number of minimal
//! paths, same per-hop adaptivity distribution `f(i, j, k)` — are
//! indistinguishable to the model, so it walks classes (a few dozen for
//! `S5`–`S9`) instead of all `N − 1` destinations, which is what keeps it
//! cheap far beyond the sizes a flit-level simulator can handle.
//!
//! This module is the **spectrum builder** stage of the derivation chain,
//! and the only place a topology's spectrum is chosen
//! ([`TraversalSpectrum::for_topology`]):
//!
//! * [`TraversalSpectrum::star`] — the closed form for `S_n`: one class per
//!   permutation cycle type, profiled over the cycle type's minimal-path DAG;
//! * [`TraversalSpectrum::hypercube`] — the closed form for `Q_d`: one class
//!   per Hamming distance `h`, `C(d, h)` destinations each, where hop `k`
//!   (0-based) always offers exactly `h − k` profitable dimensions;
//! * [`TraversalSpectrum::new`] — the generic census for any other
//!   [`Topology`]: it asks the topology for `symmetry_classes()`,
//!   `min_route_ports()` and `neighbor()` and rebuilds the same information
//!   by breadth-first search over the minimal-path DAG of each class
//!   representative, with the prefix/suffix path-counting DP
//!   `star_graph::path` uses.
//!
//! Every builder accumulates exact `u128` path counts per adaptivity value
//! and divides once at the end, so the census reproduces both closed forms
//! **bit-identically** (see the oracle tests below); the closed forms exist
//! because they are an order of magnitude cheaper to build.  The contract a
//! topology must satisfy for the census to be meaningful is documented on
//! [`Topology`] ("The spectrum contract").

use std::collections::{BTreeMap, HashMap};

use star_graph::distance::{enumerate_types, CycleType};
use star_graph::path::MinimalPathDag;
use star_graph::rank::rank;
use star_graph::topology::NodeId;
use star_graph::{factorial, AdaptivityProfile, Hypercube, StarGraph, Topology};

/// One destination equivalence class of a topology: all `count` destinations
/// that look like `representative` from node 0, with the per-hop adaptivity
/// profiles both routing families see on the way there.
#[derive(Debug, Clone)]
pub struct TraversalClass {
    /// Class representative (a destination node id).
    pub representative: NodeId,
    /// Number of destinations in this class.
    pub count: u64,
    /// Distance from the source.
    pub distance: usize,
    /// Per-hop adaptivity under fully adaptive minimal routing, uniformly
    /// weighted over all minimal paths to the representative.
    pub adaptive_profile: AdaptivityProfile,
    /// Per-hop adaptivity under deterministic (dimension-order style) minimal
    /// routing: always exactly one admissible output port.
    pub deterministic_profile: AdaptivityProfile,
}

impl TraversalClass {
    fn new(representative: NodeId, count: u64, adaptive_profile: AdaptivityProfile) -> Self {
        let distance = adaptive_profile.distance;
        Self {
            representative,
            count,
            distance,
            adaptive_profile,
            deterministic_profile: AdaptivityProfile {
                distance,
                path_count: 1,
                hop_adaptivity: vec![vec![(1, 1.0)]; distance],
            },
        }
    }
}

/// The traversal spectrum of a vertex-transitive [`Topology`]: destination
/// populations and per-hop adaptivity profiles, the input the
/// blocking/waiting/occupancy chain of [`crate::SpectrumModel`] consumes.
#[derive(Debug, Clone)]
pub struct TraversalSpectrum {
    topology_name: String,
    node_count: usize,
    degree: usize,
    diameter: usize,
    classes: Vec<TraversalClass>,
}

/// Builds the adaptivity profile for routing node 0 → `dest` by BFS over the
/// minimal-path DAG: levels are discovered through [`Topology::min_route_ports`]
/// (profitable successors only), path counts by the prefix/suffix DP, and the
/// per-hop histograms by exact `u128` accumulation — the node-id mirror of
/// [`star_graph::path::MinimalPathDag`].
fn profile_to(topology: &dyn Topology, dest: NodeId) -> AdaptivityProfile {
    let source: NodeId = 0;
    let distance = topology.distance(source, dest);
    let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); distance + 1];
    levels[0].push(source);
    let mut discovered: HashMap<NodeId, usize> = HashMap::new();
    discovered.insert(source, 0);
    for level in 0..distance {
        let current = levels[level].clone();
        for node in current {
            for port in topology.min_route_ports(node, dest) {
                let next = topology.neighbor(node, port);
                if let std::collections::hash_map::Entry::Vacant(e) = discovered.entry(next) {
                    e.insert(level + 1);
                    levels[level + 1].push(next);
                }
            }
        }
    }
    debug_assert_eq!(levels[distance], vec![dest]);

    // suffix counts: minimal paths from node to dest, bottom-up
    let mut suffix_counts: HashMap<NodeId, u128> = HashMap::new();
    suffix_counts.insert(dest, 1);
    for level in (0..distance).rev() {
        for &node in &levels[level] {
            let total: u128 = topology
                .min_route_ports(node, dest)
                .into_iter()
                .map(|port| suffix_counts[&topology.neighbor(node, port)])
                .sum();
            suffix_counts.insert(node, total);
        }
    }

    // prefix counts: minimal paths from the source to node, top-down
    let mut prefix_counts: HashMap<NodeId, u128> = HashMap::new();
    prefix_counts.insert(source, 1);
    for level_nodes in levels.iter().take(distance) {
        for &node in level_nodes {
            let from = prefix_counts[&node];
            for port in topology.min_route_ports(node, dest) {
                *prefix_counts.entry(topology.neighbor(node, port)).or_insert(0) += from;
            }
        }
    }

    let path_count = suffix_counts[&source];
    let mut hop_adaptivity = Vec::with_capacity(distance);
    for level_nodes in levels.iter().take(distance) {
        // exact u128 sums per adaptivity value, divided once — the same
        // order-independent arithmetic as `MinimalPathDag::adaptivity_profile`,
        // so identical integers produce identical floats
        let mut sums: BTreeMap<usize, u128> = BTreeMap::new();
        for &node in level_nodes {
            *sums.entry(topology.min_route_ports(node, dest).len()).or_insert(0) +=
                prefix_counts[&node] * suffix_counts[&node];
        }
        hop_adaptivity
            .push(sums.into_iter().map(|(f, s)| (f, s as f64 / path_count as f64)).collect());
    }
    AdaptivityProfile { distance, path_count, hop_adaptivity }
}

impl TraversalSpectrum {
    /// The spectrum of any topology: the closed form for a [`StarGraph`]
    /// ([`Self::star`]) or a [`Hypercube`] ([`Self::hypercube`]), the
    /// generic BFS census ([`Self::new`]) for everything else.  This is the
    /// one place the choice of builder is made.
    ///
    /// # Panics
    /// As the chosen builder.
    #[must_use]
    pub fn for_topology(topology: &dyn Topology) -> Self {
        let any = topology.as_any();
        if let Some(star) = any.downcast_ref::<StarGraph>() {
            Self::star(star.symbols())
        } else if let Some(cube) = any.downcast_ref::<Hypercube>() {
            Self::hypercube(cube.dims())
        } else {
            Self::new(topology)
        }
    }

    /// The closed-form spectrum of the star graph `S_n`, one class per
    /// permutation cycle type, in `(distance, cycle lengths)` order.
    ///
    /// # Panics
    /// Panics if `symbols` is outside the permutation machinery's range.
    #[must_use]
    pub fn star(symbols: usize) -> Self {
        Self::star_with_threads(symbols, 1)
    }

    /// [`Self::star`], sharding the per-cycle-type path-DAG construction —
    /// the expensive part of a large-`n` spectrum — across the shared
    /// [`star_exec::ExecPool`] (`1` = serial, `0` = all pool workers,
    /// anything else caps the executors).  Each class is built identically
    /// wherever it runs and lands in its input slot, so the result is
    /// identical for any width.
    ///
    /// # Panics
    /// As [`Self::star`].
    #[must_use]
    pub fn star_with_threads(symbols: usize, threads: usize) -> Self {
        let mut types: Vec<(CycleType, u64)> = enumerate_types(symbols)
            .into_iter()
            .filter(|(cycle_type, _)| !cycle_type.cycle_lengths.is_empty()) // skip the source
            .collect();
        types.sort_by(|(a, _), (b, _)| {
            (a.distance(), &a.cycle_lengths).cmp(&(b.distance(), &b.cycle_lengths))
        });
        let classes =
            star_exec::ExecPool::global_ordered(threads, &types, |_, (cycle_type, count)| {
                let relative = cycle_type.representative(symbols);
                let profile = MinimalPathDag::build(&relative).adaptivity_profile();
                debug_assert_eq!(profile.distance, cycle_type.distance());
                // the node whose relative permutation seen from node 0 is
                // the canonical representative (`StarGraph::symmetry_classes`)
                #[allow(clippy::cast_possible_truncation)]
                let representative = rank(&relative.inverse()) as NodeId;
                TraversalClass::new(representative, *count, profile)
            });
        #[allow(clippy::cast_possible_truncation)]
        let node_count = factorial(symbols) as usize;
        Self {
            topology_name: format!("S{symbols}"),
            node_count,
            degree: symbols - 1,
            diameter: 3 * (symbols - 1) / 2,
            classes,
        }
    }

    /// The closed-form spectrum of the binary hypercube `Q_d`: one class per
    /// Hamming distance `h` with `C(d, h)` destinations, represented by the
    /// node with the lowest `h` bits set.
    ///
    /// # Panics
    /// Panics if `dims` is outside `1..=`[`Hypercube::MAX_DIMS`].
    #[must_use]
    pub fn hypercube(dims: usize) -> Self {
        assert!(
            (1..=Hypercube::MAX_DIMS).contains(&dims),
            "hypercube dimension {dims} out of range 1..={}",
            Hypercube::MAX_DIMS
        );
        let mut count = 1u64;
        let classes = (1..=dims)
            .map(|h| {
                count = count * (dims - h + 1) as u64 / h as u64; // C(d, h), exact at every step
                                                                  // every minimal path is an ordering of the h differing
                                                                  // dimensions, so hop k (0-based) always offers h − k choices
                let profile = AdaptivityProfile {
                    distance: h,
                    path_count: (1..=h as u128).product(),
                    hop_adaptivity: (0..h).map(|k| vec![(h - k, 1.0)]).collect(),
                };
                #[allow(clippy::cast_possible_truncation)]
                TraversalClass::new(((1u64 << h) - 1) as NodeId, count, profile)
            })
            .collect();
        Self {
            topology_name: format!("Q{dims}"),
            node_count: 1 << dims,
            degree: dims,
            diameter: dims,
            classes,
        }
    }

    /// The generic census: builds the spectrum of any topology from its
    /// symmetry classes by BFS, in `(distance, representative)` order.
    ///
    /// # Panics
    /// Panics if the topology's [`Topology::symmetry_classes`] do not cover
    /// exactly the `node_count() − 1` destinations.
    #[must_use]
    pub fn new(topology: &dyn Topology) -> Self {
        Self::with_threads(topology, 1)
    }

    /// [`Self::new`], sharding the per-class path-DAG construction across
    /// the shared [`star_exec::ExecPool`] with the width convention of
    /// [`Self::star_with_threads`]; the classes are sorted afterwards, so
    /// the result is identical for any width.
    ///
    /// # Panics
    /// As [`Self::new`].
    #[must_use]
    pub fn with_threads(topology: &dyn Topology, threads: usize) -> Self {
        let reps = topology.symmetry_classes();
        let covered: u64 = reps.iter().map(|&(_, count)| count).sum();
        assert_eq!(
            covered,
            (topology.node_count() - 1) as u64,
            "symmetry classes of {} must cover every destination",
            topology.name()
        );
        let mut classes =
            star_exec::ExecPool::global_ordered(threads, &reps, |_, &(representative, count)| {
                TraversalClass::new(representative, count, profile_to(topology, representative))
            });
        classes.sort_by_key(|c| (c.distance, c.representative));
        Self {
            topology_name: topology.name(),
            node_count: topology.node_count(),
            degree: topology.degree(),
            diameter: topology.diameter(),
            classes,
        }
    }

    /// Name of the topology the spectrum was built for (e.g. `"T8"`).
    #[must_use]
    pub fn topology_name(&self) -> &str {
        &self.topology_name
    }

    /// Number of nodes of the underlying topology.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Router degree of the underlying topology.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Diameter of the underlying topology.
    #[must_use]
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// The destination classes, in the builder's order (the order the model
    /// sums them in).
    #[must_use]
    pub fn classes(&self) -> &[TraversalClass] {
        &self.classes
    }

    /// Total number of destinations (`node_count − 1`).
    #[must_use]
    pub fn destination_count(&self) -> u64 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Mean distance over all destinations (the `d̄` of Eq. 2).
    #[must_use]
    pub fn mean_distance(&self) -> f64 {
        let weighted: f64 = self.classes.iter().map(|c| c.distance as f64 * c.count as f64).sum();
        weighted / self.destination_count() as f64
    }

    /// Mean number of profitable output ports a fully adaptive header is
    /// offered, over all destinations and hops (a coarse measure of how much
    /// choice adaptive routing has).
    #[must_use]
    pub fn mean_adaptivity(&self) -> f64 {
        let mut weighted = 0.0;
        let mut hops = 0.0;
        for class in &self.classes {
            for k in 0..class.distance {
                weighted += class.adaptive_profile.mean_adaptivity(k) * class.count as f64;
                hops += class.count as f64;
            }
        }
        weighted / hops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::{Ring, Torus};

    /// The exact content of a class, for order-sensitive comparisons.
    fn key(c: &TraversalClass) -> (NodeId, u64, usize, AdaptivityProfile, AdaptivityProfile) {
        (
            c.representative,
            c.count,
            c.distance,
            c.adaptive_profile.clone(),
            c.deterministic_profile.clone(),
        )
    }

    #[test]
    fn star_census_matches_closed_form_exactly() {
        // the generic BFS census must reproduce the cycle-type spectrum of
        // S3–S6 bit-for-bit: same representatives, populations, path counts
        // and per-hop adaptivity histograms (exact f64 equality)
        for n in 3..=6 {
            let star = StarGraph::new(n);
            let census = TraversalSpectrum::new(&star);
            let closed = TraversalSpectrum::star(n);
            assert_eq!(closed.destination_count(), factorial(n) - 1);
            assert_eq!(
                (closed.topology_name(), closed.node_count(), closed.degree(), closed.diameter()),
                (census.topology_name(), census.node_count(), census.degree(), census.diameter()),
                "S{n} shape"
            );
            // the builders order classes differently within a distance;
            // compare them keyed by representative
            let mut a: Vec<_> = census.classes().iter().map(key).collect();
            let mut b: Vec<_> = closed.classes().iter().map(key).collect();
            a.sort_by_key(|k| k.0);
            b.sort_by_key(|k| k.0);
            assert_eq!(a, b, "S{n}: census must equal the cycle-type closed form exactly");
            assert!((census.mean_distance() - closed.mean_distance()).abs() < 1e-15);
        }
    }

    #[test]
    fn hypercube_census_matches_closed_form_exactly() {
        for d in 3..=8 {
            let census = TraversalSpectrum::new(&Hypercube::new(d));
            let closed = TraversalSpectrum::hypercube(d);
            assert_eq!(
                (closed.topology_name(), closed.node_count(), closed.degree(), closed.diameter()),
                (census.topology_name(), census.node_count(), census.degree(), census.diameter()),
                "Q{d} shape"
            );
            // same order too: one class per distance
            let a: Vec<_> = census.classes().iter().map(key).collect();
            let b: Vec<_> = closed.classes().iter().map(key).collect();
            assert_eq!(a, b, "Q{d}: census must equal the Hamming closed form exactly");
            assert_eq!(census.mean_distance().to_bits(), closed.mean_distance().to_bits());
        }
    }

    #[test]
    fn closed_forms_cover_every_destination_at_the_topology_mean_distance() {
        for n in 3..=7 {
            let s = TraversalSpectrum::star(n);
            assert_eq!(s.destination_count(), factorial(n) - 1);
            assert!((s.mean_distance() - StarGraph::new(n).mean_distance()).abs() < 1e-12);
        }
        for d in 2..=12 {
            let q = TraversalSpectrum::hypercube(d);
            assert_eq!(q.destination_count(), (1u64 << d) - 1);
            assert_eq!(q.classes().len(), d);
            assert!((q.mean_distance() - Hypercube::new(d).mean_distance()).abs() < 1e-12);
        }
    }

    #[test]
    fn every_class_profile_is_consistent() {
        for spectrum in [
            TraversalSpectrum::star(5),
            TraversalSpectrum::hypercube(8),
            TraversalSpectrum::new(&Torus::new(6)),
        ] {
            let degree = spectrum.degree() as f64;
            for class in spectrum.classes() {
                assert!(class.count > 0);
                assert_eq!(class.adaptive_profile.distance, class.distance);
                assert_eq!(class.adaptive_profile.hop_adaptivity.len(), class.distance);
                assert!(class.adaptive_profile.mean_adaptivity(0) <= degree);
                // last hop of any minimal path is forced
                let last = &class.adaptive_profile.hop_adaptivity[class.distance - 1];
                assert_eq!(last, &vec![(1, 1.0)], "{}", spectrum.topology_name());
                for hop in &class.adaptive_profile.hop_adaptivity {
                    let sum: f64 = hop.iter().map(|&(_, p)| p).sum();
                    assert!((sum - 1.0).abs() < 1e-9);
                }
            }
            let mean = spectrum.mean_adaptivity();
            assert!(mean >= 1.0 && mean <= degree, "{}", spectrum.topology_name());
        }
    }

    #[test]
    fn closed_form_populations_and_adaptivity() {
        // S5 distance distribution: [1, 4, 12, 30, 44, 26, 3]
        let s5 = TraversalSpectrum::star(5);
        let at = |d| s5.classes().iter().filter(|c| c.distance == d).map(|c| c.count).sum::<u64>();
        assert_eq!((at(1), at(6)), (4, 3));
        assert_eq!(s5.classes().last().unwrap().distance, 6);
        // on the hypercube the first hop offers exactly h choices
        for class in TraversalSpectrum::hypercube(8).classes() {
            assert_eq!(class.adaptive_profile.hop_adaptivity[0], vec![(class.distance, 1.0)]);
        }
    }

    #[test]
    fn for_topology_picks_the_closed_forms_and_falls_back_to_the_census() {
        let star = TraversalSpectrum::for_topology(&StarGraph::new(5));
        let closed = TraversalSpectrum::star(5);
        let a: Vec<_> = star.classes().iter().map(key).collect();
        let b: Vec<_> = closed.classes().iter().map(key).collect();
        assert_eq!(a, b, "a star graph gets the cycle-type order, not the census order");
        assert_eq!(TraversalSpectrum::for_topology(&Hypercube::new(6)).classes().len(), 6);
        let torus = TraversalSpectrum::for_topology(&Torus::new(6));
        assert_eq!(torus.topology_name(), "T6");
        assert_eq!(torus.classes().len(), TraversalSpectrum::new(&Torus::new(6)).classes().len());
    }

    #[test]
    fn symmetry_classes_match_the_default_all_destinations_census() {
        // the folded-displacement classes of the torus and ring must describe
        // the same spectrum as treating every destination as its own class
        struct NoSymmetry<T: Topology>(T);
        impl<T: Topology + 'static> Topology for NoSymmetry<T> {
            fn name(&self) -> String {
                self.0.name()
            }
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn degree(&self) -> usize {
                self.0.degree()
            }
            fn diameter(&self) -> usize {
                self.0.diameter()
            }
            fn neighbor(&self, node: NodeId, port: usize) -> NodeId {
                self.0.neighbor(node, port)
            }
            fn distance(&self, a: NodeId, b: NodeId) -> usize {
                self.0.distance(a, b)
            }
            fn min_route_ports(&self, current: NodeId, dest: NodeId) -> Vec<usize> {
                self.0.min_route_ports(current, dest)
            }
            fn color(&self, node: NodeId) -> star_graph::Color {
                self.0.color(node)
            }
            fn mean_distance(&self) -> f64 {
                self.0.mean_distance()
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            // inherit the trait's every-destination default
        }
        let grouped = TraversalSpectrum::new(&Torus::new(6));
        let flat = TraversalSpectrum::new(&NoSymmetry(Torus::new(6)));
        assert_eq!(grouped.destination_count(), flat.destination_count());
        assert!((grouped.mean_distance() - flat.mean_distance()).abs() < 1e-15);
        // aggregate the flat census into (distance, profile) → count and
        // compare against the grouped classes
        let mut flat_bags: HashMap<(usize, String), u64> = HashMap::new();
        for c in flat.classes() {
            *flat_bags.entry((c.distance, format!("{:?}", c.adaptive_profile))).or_insert(0) +=
                c.count;
        }
        let mut grouped_bags: HashMap<(usize, String), u64> = HashMap::new();
        for c in grouped.classes() {
            *grouped_bags.entry((c.distance, format!("{:?}", c.adaptive_profile))).or_insert(0) +=
                c.count;
        }
        assert_eq!(grouped_bags, flat_bags, "T6: folded-displacement classes must be exact");

        let grouped = TraversalSpectrum::new(&Ring::new(10));
        let flat = TraversalSpectrum::new(&NoSymmetry(Ring::new(10)));
        assert_eq!(grouped.destination_count(), flat.destination_count());
        assert!((grouped.mean_distance() - flat.mean_distance()).abs() < 1e-15);
    }

    #[test]
    fn torus_spectrum_shape() {
        let t = TraversalSpectrum::new(&Torus::new(6));
        assert_eq!(t.topology_name(), "T6");
        assert_eq!(t.node_count(), 36);
        assert_eq!(t.degree(), 4);
        assert_eq!(t.diameter(), 6);
        assert_eq!(t.destination_count(), 35);
        assert!((t.mean_distance() - Torus::new(6).mean_distance()).abs() < 1e-12);
        // the antipode class (k/2, k/2) sees all 4 ports on the first hop
        let antipode = t.classes().iter().find(|c| c.distance == 6).unwrap();
        assert_eq!(antipode.adaptive_profile.hop_adaptivity[0], vec![(4, 1.0)]);
    }

    #[test]
    fn ring_spectrum_has_one_or_two_destinations_per_distance() {
        let r = TraversalSpectrum::new(&Ring::new(8));
        assert_eq!(r.destination_count(), 7);
        for class in r.classes() {
            if class.distance == 4 {
                // the antipode: unique, reachable both ways round
                assert_eq!(class.count, 1);
                assert_eq!(class.adaptive_profile.path_count, 2);
            } else {
                assert_eq!(class.count, 2);
                assert_eq!(class.adaptive_profile.path_count, 1);
            }
        }
    }

    #[test]
    fn threaded_spectrum_construction_matches_serial() {
        let star = StarGraph::new(5);
        let census = TraversalSpectrum::new(&star);
        let closed = TraversalSpectrum::star(6);
        for threads in [0usize, 2, 3, 8] {
            let a: Vec<_> = census.classes().iter().map(key).collect();
            let b: Vec<_> =
                TraversalSpectrum::with_threads(&star, threads).classes().iter().map(key).collect();
            assert_eq!(a, b, "census, threads = {threads}");
            let a: Vec<_> = closed.classes().iter().map(key).collect();
            let b: Vec<_> = TraversalSpectrum::star_with_threads(6, threads)
                .classes()
                .iter()
                .map(key)
                .collect();
            assert_eq!(a, b, "closed form, threads = {threads}");
        }
    }
}
