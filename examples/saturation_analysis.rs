//! Use the analytical model to predict the saturation rate of `S5` for a grid
//! of virtual-channel counts and message lengths — the kind of design-space
//! exploration the paper argues analytical models are for (evaluating many
//! configurations is cheap, no simulation needed) — then repeat the exercise
//! on the other topology families.  Every rate is a bisection over the same
//! spectrum model; only the spectrum builder differs per family.
//!
//! ```text
//! cargo run --release --example saturation_analysis
//! ```

use std::sync::Arc;

use star_wormhole::model::spectrum_saturation_rate;
use star_wormhole::workloads::markdown_table;
use star_wormhole::{Scenario, TopologyKind, TraversalSpectrum};

fn main() {
    println!("# Predicted saturation rate of S5 (messages/node/cycle)\n");
    // the closed-form cycle-type spectrum of S5, shared by the whole grid
    let spectrum = Arc::new(TraversalSpectrum::star(5));
    let mut rows = Vec::new();
    for &v in &[5usize, 6, 8, 9, 12, 16] {
        let mut cells = vec![format!("V = {v}")];
        for &m in &[16usize, 32, 64, 128] {
            let scenario = Scenario::star(5).with_virtual_channels(v).with_message_length(m);
            let params = scenario
                .model_params(0.0)
                .expect("paper-range parameters")
                .expect("star scenarios are modelled");
            let sat = spectrum_saturation_rate(params, &spectrum, 0.02);
            cells.push(format!("{sat:.4}"));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        markdown_table(&["configuration", "M = 16", "M = 32", "M = 64", "M = 128"], &rows)
    );
    println!("Observations (matching the trends of Figure 1):");
    println!("  * more virtual channels push saturation to higher generation rates;");
    println!("  * doubling the message length roughly halves the saturation rate;");
    println!("  * returns diminish once the adaptive class dwarfs the escape class.");

    println!("\n# The same question on the other families (M = 32)\n");
    let mut rows = Vec::new();
    for (kind, size) in
        [(TopologyKind::Hypercube, 7usize), (TopologyKind::Torus, 8), (TopologyKind::Ring, 16)]
    {
        let scenario = kind.scenario(size).with_virtual_channels(6);
        let params = scenario
            .model_params(0.0)
            .expect("smoke sizes fit the validator")
            .expect("uniform Enhanced-Nbc scenarios are modelled");
        let spectrum = Arc::new(TraversalSpectrum::for_topology(scenario.topology().as_ref()));
        let sat = spectrum_saturation_rate(params, &spectrum, 0.02);
        rows.push(vec![
            scenario.network_label(),
            format!("{}", scenario.topology().node_count()),
            format!("{sat:.4}"),
        ]);
    }
    println!("{}", markdown_table(&["network", "nodes", "saturation rate (V = 6)"], &rows));
    println!("Q7 uses the closed-form Hamming spectrum; T8 and R16 use the BFS census");
    println!("of the topology value — the solver and the bisection are the same.");
}
