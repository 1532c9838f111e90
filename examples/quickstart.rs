//! Quickstart: discretize first-order diffusion on a hypercube with
//! Algorithm 1 and watch the discrepancy collapse to O(d).
//!
//! Run with: `cargo run -p lb-bench --example quickstart`

use lb_core::continuous::Fos;
use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds};
use lb_graph::{generators, AlphaScheme, DiffusionMatrix, PowerIterationOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256-node hypercube network of identical processors.
    let graph = generators::hypercube(8)?;
    let n = graph.node_count();
    let d = graph.max_degree();
    let speeds = Speeds::uniform(n);

    // 32 tokens per node on average, all initially on node 0, plus the
    // d·w_max per-node stock that Theorem 3(2) asks for.
    let mut counts = vec![d as u64; n];
    counts[0] += 32 * n as u64;
    let initial = InitialLoad::from_token_counts(counts);
    println!(
        "network: {graph}, initial max-min discrepancy = {:.0}",
        initial.initial_discrepancy(&speeds)
    );

    // How long does the *continuous* process need? (This is the paper's T.)
    let matrix = DiffusionMatrix::uniform(&graph, AlphaScheme::MaxDegreePlusOne)?;
    let lambda = lb_graph::spectral::second_eigenvalue(
        &graph,
        &matrix,
        &[],
        PowerIterationOptions::default(),
    )
    .lambda;
    println!("diffusion matrix: lambda = {lambda:.4}");

    // Discretize FOS with Algorithm 1 (deterministic flow imitation).
    let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne)?;
    let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;

    for checkpoint in [10usize, 50, 100, 200, 400] {
        while alg1.round() < checkpoint {
            alg1.step();
        }
        let m = alg1.metrics();
        println!(
            "round {:>4}: max-min = {:>7.2}, max-avg = {:>7.2}, dummy tokens created = {}",
            m.round,
            m.max_min,
            m.max_avg,
            alg1.dummy_created()
        );
    }

    let bound = 2.0 * d as f64 + 2.0;
    let final_discrepancy = alg1.metrics().max_min;
    println!("final max-min discrepancy {final_discrepancy:.2} (Theorem 3 bound: {bound})");
    assert!(final_discrepancy <= bound);
    Ok(())
}
