//! Discrete (indivisible-task) balancing processes.
//!
//! Two groups of processes live here:
//!
//! * the paper's **flow-imitation transformations** — [`FlowImitation`]
//!   (Algorithm 1, deterministic) and [`RandomizedImitation`] (Algorithm 2,
//!   randomized rounding) — which simulate a continuous twin and imitate its
//!   cumulative per-edge flow; and
//! * the **baselines** from prior work ([`baselines`]) that the paper's
//!   comparison tables measure against: round-down, per-edge randomized
//!   rounding, deterministic accumulated-error ("quasirandom") rounding and
//!   excess-token diffusion, plus their matching-model counterparts.
//!
//! All of them implement [`DiscreteBalancer`], so experiments can drive them
//! uniformly. The paper's two transformations additionally implement
//! [`DynamicBalancer`] ([`dynamic`]): task arrivals and completions can be
//! applied between rounds, opening the sustained-load workload class beyond
//! the paper's static-drain setting.

pub mod baselines;
pub mod dynamic;
mod flow_imitation;
pub(crate) mod imitation;
mod randomized_imitation;

pub use dynamic::{DynamicBalancer, EventReport, RoundEvents};
pub use flow_imitation::{FlowImitation, TaskPicker};
pub use randomized_imitation::{edge_rounding_rng, RandomizedImitation};

use crate::metrics::MetricsSnapshot;
use crate::task::Speeds;
use lb_graph::Graph;

/// A discrete neighbourhood load-balancing process driven in synchronous
/// rounds.
///
/// The trait is object-safe so heterogeneous collections of balancers can be
/// compared by the experiment harness.
pub trait DiscreteBalancer {
    /// Short human-readable name used in reports, e.g. `"alg1(fos)"`.
    fn name(&self) -> &str;

    /// The network the process runs on.
    fn graph(&self) -> &Graph;

    /// The node speeds.
    fn speeds(&self) -> &Speeds;

    /// Number of completed rounds.
    fn round(&self) -> usize;

    /// Executes one synchronous round.
    fn step(&mut self);

    /// Current per-node loads (total task weight on each node, *including*
    /// any dummy load drawn from the infinite source).
    fn loads(&self) -> Vec<f64>;

    /// Total dummy load currently held across all nodes. Baselines that have
    /// no infinite source return 0.
    fn dummy_load(&self) -> u64 {
        0
    }

    /// Executes `rounds` rounds.
    fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Snapshot of the discrepancy metrics for the current state.
    fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::compute(self.round(), &self.loads(), self.speeds())
    }
}

/// Runs `balancer` for `rounds` rounds, recording a metrics snapshot at round
/// 0 and after every `sample_every` rounds (and always after the final
/// round).
///
/// # Panics
///
/// Panics if `sample_every == 0`.
pub fn run_recorded(
    balancer: &mut dyn DiscreteBalancer,
    rounds: usize,
    sample_every: usize,
) -> Vec<MetricsSnapshot> {
    assert!(sample_every > 0, "sample_every must be positive");
    let mut snapshots = vec![balancer.metrics()];
    for r in 1..=rounds {
        balancer.step();
        if r % sample_every == 0 || r == rounds {
            snapshots.push(balancer.metrics());
        }
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Fos;
    use crate::load::InitialLoad;
    use lb_graph::{generators, AlphaScheme};

    #[test]
    fn run_recorded_samples_first_and_last() {
        let g = generators::cycle(8).unwrap();
        let speeds = Speeds::uniform(8);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let initial = InitialLoad::single_source(8, 0, 64);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        let trace = run_recorded(&mut alg1, 10, 3);
        // Round 0, rounds 3, 6, 9 and the final round 10.
        assert_eq!(trace.len(), 5);
        assert_eq!(trace[0].round, 0);
        assert_eq!(trace.last().unwrap().round, 10);
        // Discrepancy must not have gotten worse overall.
        assert!(trace.last().unwrap().max_min <= trace[0].max_min);
    }

    #[test]
    #[should_panic(expected = "sample_every")]
    fn run_recorded_rejects_zero_sampling() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let initial = InitialLoad::single_source(4, 0, 4);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        let _ = run_recorded(&mut alg1, 5, 0);
    }
}
