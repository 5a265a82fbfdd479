//! Topological property summaries (the star-vs-hypercube comparison quoted in
//! the paper's Section 2).

use crate::topology::Topology;
use std::fmt;

/// A row of topological properties for one network instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyProperties {
    /// Network name (e.g. `"S5"`).
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Router degree.
    pub degree: usize,
    /// Diameter.
    pub diameter: usize,
    /// Number of unidirectional network channels.
    pub channels: usize,
    /// Mean minimal distance over ordered pairs of distinct nodes.
    pub mean_distance: f64,
}

impl TopologyProperties {
    /// Collects the properties of a topology.
    #[must_use]
    pub fn of(topology: &dyn Topology) -> Self {
        Self {
            name: topology.name(),
            nodes: topology.node_count(),
            degree: topology.degree(),
            diameter: topology.diameter(),
            channels: topology.channel_count(),
            mean_distance: topology.mean_distance(),
        }
    }

    /// Markdown table header matching [`fmt::Display`] rows.
    #[must_use]
    pub fn markdown_header() -> String {
        "| network | nodes | degree | diameter | channels | mean distance |\n|---|---|---|---|---|---|"
            .to_string()
    }
}

impl fmt::Display for TopologyProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "| {} | {} | {} | {} | {} | {:.4} |",
            self.name, self.nodes, self.degree, self.diameter, self.channels, self.mean_distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hypercube, StarGraph};

    #[test]
    fn star_properties_row() {
        let props = TopologyProperties::of(&StarGraph::new(5));
        assert_eq!(props.name, "S5");
        assert_eq!(props.nodes, 120);
        assert_eq!(props.degree, 4);
        assert_eq!(props.diameter, 6);
        assert_eq!(props.channels, 480);
        assert!(props.mean_distance > 3.5 && props.mean_distance < 4.0);
        assert!(format!("{props}").starts_with("| S5 |"));
    }

    #[test]
    fn star_beats_equivalent_hypercube_on_degree_and_diameter_at_scale() {
        // The paper's Section 2 claim: degree and diameter of S_n are
        // sub-logarithmic in the node count, so for large enough networks the
        // star graph has both smaller degree and comparable diameter than the
        // hypercube with at least as many nodes.
        let s7 = TopologyProperties::of(&StarGraph::new(7));
        let q13 = TopologyProperties::of(&Hypercube::at_least(s7.nodes));
        assert!(s7.degree < q13.degree);
        assert!(s7.diameter <= q13.diameter + 1);
    }

    #[test]
    fn markdown_header_has_same_column_count_as_rows() {
        let header = TopologyProperties::markdown_header();
        let row = format!("{}", TopologyProperties::of(&Hypercube::new(4)));
        assert_eq!(header.lines().next().unwrap().matches('|').count(), row.matches('|').count());
    }
}
