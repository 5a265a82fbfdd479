//! Explore the topological properties that motivate the star graph: compare
//! `S_n` against the hypercube with at least as many nodes (degree, diameter,
//! mean distance — the Section 2 argument of the paper) plus the torus and
//! ring plugin families, print the exact distance distribution, run the
//! generic BFS traversal census on every family, and show how much routing
//! adaptivity the topology offers.
//!
//! ```text
//! cargo run --release --example topology_explorer -- [max_n]
//! ```

use star_wormhole::graph::distance::star_distance_distribution;
use star_wormhole::workloads::markdown_table;
use star_wormhole::{Hypercube, StarGraph, TopologyKind, TopologyProperties, TraversalSpectrum};

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
        .clamp(3, StarGraph::MAX_TABLED_SYMBOLS);

    println!("# Star graph vs hypercube (vs torus and ring)\n");
    let mut rows = Vec::new();
    for n in 3..=max_n {
        let star = TopologyKind::Star.topology(n);
        let cube = Hypercube::at_least(star.node_count());
        for props in [TopologyProperties::of(star.as_ref()), TopologyProperties::of(&cube)] {
            rows.push(vec![
                props.name,
                props.nodes.to_string(),
                props.degree.to_string(),
                props.diameter.to_string(),
                format!("{:.3}", props.mean_distance),
            ]);
        }
    }
    for (kind, sizes) in [(TopologyKind::Torus, [4usize, 8, 12]), (TopologyKind::Ring, [8, 16, 32])]
    {
        for size in sizes {
            let props = TopologyProperties::of(kind.topology(size).as_ref());
            rows.push(vec![
                props.name,
                props.nodes.to_string(),
                props.degree.to_string(),
                props.diameter.to_string(),
                format!("{:.3}", props.mean_distance),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(&["network", "nodes", "degree", "diameter", "mean distance"], &rows)
    );

    println!("# Generic traversal census (BFS over any `&dyn Topology`)\n");
    let mut rows = Vec::new();
    for (kind, size) in [
        (TopologyKind::Star, 5usize),
        (TopologyKind::Hypercube, 7),
        (TopologyKind::Torus, 8),
        (TopologyKind::Ring, 16),
    ] {
        let spectrum = TraversalSpectrum::new(kind.topology(size).as_ref());
        rows.push(vec![
            spectrum.topology_name().to_string(),
            format!("{}", spectrum.classes().len()),
            format!("{}", spectrum.destination_count()),
            format!("{:.3}", spectrum.mean_distance()),
        ]);
    }
    println!(
        "{}",
        markdown_table(&["network", "traversal classes", "destinations", "mean distance"], &rows)
    );

    println!("# Exact distance distributions of S_n (nodes at each distance)\n");
    for n in 3..=max_n.min(7) {
        let dist = star_distance_distribution(n);
        println!("S{n}: {dist:?}");
    }

    println!("\n# Routing adaptivity (mean number of minimal-path output channels per hop)\n");
    let mut rows = Vec::new();
    for n in 4..=max_n.min(7) {
        let spectrum = TraversalSpectrum::star(n);
        rows.push(vec![
            format!("S{n}"),
            format!("{}", spectrum.classes().len()),
            format!("{:.3}", spectrum.mean_distance()),
            format!("{:.3}", spectrum.mean_adaptivity()),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &["network", "destination classes", "mean distance", "mean adaptivity"],
            &rows
        )
    );
}
