//! Matching-based continuous processes: periodic dimension exchange and the
//! random-matching model.
//!
//! In both models the load exchange of a round is restricted to a matching;
//! the two endpoints of a matching edge equalise their makespans:
//!
//! ```text
//! α[i][j] = s_i·s_j / (s_i + s_j)
//! y[i][j](t) = α[i][j]/s_i · x_i(t) = s_j·x_i(t) / (s_i + s_j)
//! ```
//!
//! so that after the exchange `x_i(t+1) = s_i·(x_i + x_j)/(s_i + s_j)`.

use super::{ContinuousProcess, EdgeFlow};
use crate::error::CoreError;
use crate::task::Speeds;
use lb_graph::{random_maximal_matching, Graph, Matching, PeriodicMatchings};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Writes the makespan-equalising flows of `matching` into `out`
/// (zero-allocation kernel shared by both matching models).
fn matching_flows_into(
    graph: &Graph,
    speeds: &[f64],
    matching: &Matching,
    x: &[f64],
    out: &mut [EdgeFlow],
) {
    out.fill(EdgeFlow::default());
    for &e in matching.edges() {
        let (u, v) = graph.edge_endpoints(e);
        let (su, sv) = (speeds[u], speeds[v]);
        out[e] = EdgeFlow::new(sv * x[u] / (su + sv), su * x[v] / (su + sv));
    }
}

/// The periodic-matching dimension-exchange process.
///
/// A fixed family of matchings covering all edges (by default obtained from a
/// greedy edge colouring) is used round-robin: round `t` uses matching
/// `t mod d̃`.
///
/// # Examples
///
/// ```
/// use lb_core::continuous::{ContinuousRunner, DimensionExchange};
/// use lb_core::Speeds;
/// use lb_graph::generators;
///
/// let g = generators::hypercube(3)?;
/// let de = DimensionExchange::with_greedy_coloring(g, &Speeds::uniform(8))?;
/// let mut runner = ContinuousRunner::new(de, vec![8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
/// runner.run_until_balanced(1.0, 1_000);
/// assert!(runner.is_balanced(1.0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DimensionExchange {
    graph: Arc<Graph>,
    speeds: Vec<f64>,
    matchings: PeriodicMatchings,
    name: String,
}

impl DimensionExchange {
    /// Creates a dimension-exchange process using the given periodic
    /// matchings.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the matchings do not form a
    /// proper cover of the graph's edges or the speed vector length is wrong.
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
        matchings: PeriodicMatchings,
    ) -> Result<Self, CoreError> {
        let graph = graph.into();
        if speeds.len() != graph.node_count() {
            return Err(CoreError::invalid_parameter(format!(
                "speeds length {} does not match node count {}",
                speeds.len(),
                graph.node_count()
            )));
        }
        if !matchings.is_proper_cover(&graph) {
            return Err(CoreError::invalid_parameter(
                "periodic matchings must cover every edge exactly once",
            ));
        }
        Ok(DimensionExchange {
            speeds: speeds.to_f64(),
            name: format!("dimension_exchange(period={})", matchings.period()),
            matchings,
            graph,
        })
    }

    /// Creates a dimension-exchange process whose matchings come from a
    /// greedy edge colouring of the graph.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the speed vector length is
    /// wrong.
    pub fn with_greedy_coloring(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
    ) -> Result<Self, CoreError> {
        let graph = graph.into();
        let matchings = PeriodicMatchings::greedy_edge_coloring(&graph);
        Self::new(graph, speeds, matchings)
    }

    /// The matchings used by the process.
    pub fn matchings(&self) -> &PeriodicMatchings {
        &self.matchings
    }
}

impl ContinuousProcess for DimensionExchange {
    fn name(&self) -> &str {
        &self.name
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    // lint: zero-alloc
    fn compute_flows_into(&mut self, t: usize, x: &[f64], out: &mut [EdgeFlow]) {
        matching_flows_into(
            &self.graph,
            &self.speeds,
            self.matchings.for_round(t),
            x,
            out,
        );
    }
}

/// The random-matching model: each round samples an independent random
/// maximal matching and the matched pairs equalise their makespans.
///
/// The process is seeded explicitly so that runs (and the coupling between a
/// discretization and its continuous twin) are reproducible.
#[derive(Debug, Clone)]
pub struct RandomMatching {
    graph: Arc<Graph>,
    speeds: Vec<f64>,
    rng: StdRng,
    /// Matchings generated so far, by round; `compute_flows_into(t, ..)`
    /// replays the recorded matching when called for a round that was
    /// already generated (e.g. by a coupled twin) and extends the history
    /// otherwise.
    history: Vec<Matching>,
    name: String,
}

impl RandomMatching {
    /// Creates a random-matching process with the given seed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the speed vector length is
    /// wrong.
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let graph = graph.into();
        if speeds.len() != graph.node_count() {
            return Err(CoreError::invalid_parameter(format!(
                "speeds length {} does not match node count {}",
                speeds.len(),
                graph.node_count()
            )));
        }
        Ok(RandomMatching {
            speeds: speeds.to_f64(),
            rng: StdRng::seed_from_u64(seed),
            history: Vec::new(),
            name: format!("random_matching(seed={seed})"),
            graph,
        })
    }

    /// The matching used in round `t`, generating it (and any earlier,
    /// not-yet-generated rounds) on demand.
    pub fn matching_for_round(&mut self, t: usize) -> &Matching {
        while self.history.len() <= t {
            let m = random_maximal_matching(&self.graph, &mut self.rng);
            self.history.push(m);
        }
        &self.history[t]
    }
}

impl ContinuousProcess for RandomMatching {
    fn name(&self) -> &str {
        &self.name
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    // lint: zero-alloc
    fn compute_flows_into(&mut self, t: usize, x: &[f64], out: &mut [EdgeFlow]) {
        // Extend the history first (the only mutable part), then read the
        // round's matching by reference — the per-round clone the seed code
        // paid here is gone.
        self.matching_for_round(t);
        matching_flows_into(&self.graph, &self.speeds, &self.history[t], x, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousRunner;
    use crate::metrics;
    use lb_graph::generators;

    #[test]
    fn dimension_exchange_equalises_matched_pairs() {
        let g = generators::path(2).unwrap();
        let speeds = Speeds::uniform(2);
        let de = DimensionExchange::with_greedy_coloring(g, &speeds).unwrap();
        let mut runner = ContinuousRunner::new(de, vec![10.0, 0.0]);
        runner.step();
        assert!((runner.loads()[0] - 5.0).abs() < 1e-12);
        assert!((runner.loads()[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_exchange_respects_speeds() {
        let g = generators::path(2).unwrap();
        let speeds = Speeds::new(vec![1, 3]).unwrap();
        let de = DimensionExchange::with_greedy_coloring(g, &speeds).unwrap();
        let mut runner = ContinuousRunner::new(de, vec![8.0, 0.0]);
        runner.step();
        // Balanced: x_0 = 2, x_1 = 6 (makespan 2 each).
        assert!((runner.loads()[0] - 2.0).abs() < 1e-12);
        assert!((runner.loads()[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn dimension_exchange_converges_on_hypercube() {
        let g = generators::hypercube(4).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let de = DimensionExchange::with_greedy_coloring(g, &speeds).unwrap();
        let mut initial = vec![0.0; n];
        initial[3] = (16 * 10) as f64;
        let mut runner = ContinuousRunner::new(de, initial);
        runner.run_until_balanced(1.0, 10_000);
        assert!(runner.is_balanced(1.0));
        assert!(metrics::max_min_discrepancy(runner.loads(), &speeds) < 2.0);
    }

    #[test]
    fn random_matching_converges_and_is_reproducible() {
        let n = 16;
        let speeds = Speeds::uniform(n);
        let mk = || {
            let g = generators::torus(4, 4).unwrap();
            RandomMatching::new(g, &speeds, 1234).unwrap()
        };
        let mut initial = vec![0.0; n];
        initial[0] = 160.0;

        let mut r1 = ContinuousRunner::new(mk(), initial.clone());
        let mut r2 = ContinuousRunner::new(mk(), initial);
        r1.run(500);
        r2.run(500);
        assert_eq!(r1.loads(), r2.loads(), "same seed must give same run");
        assert!(r1.is_balanced(1.0));
    }

    #[test]
    fn random_matching_history_replay_is_consistent() {
        let g = generators::cycle(8).unwrap();
        let speeds = Speeds::uniform(8);
        let mut rm = RandomMatching::new(g, &speeds, 7).unwrap();
        let first = rm.matching_for_round(3).clone();
        // Asking again (or for earlier rounds) must not change history.
        let replay = rm.matching_for_round(3).clone();
        assert_eq!(first, replay);
        let _earlier = rm.matching_for_round(1);
        assert_eq!(&first, rm.matching_for_round(3));
    }

    #[test]
    fn mismatched_speeds_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(3);
        assert!(DimensionExchange::with_greedy_coloring(g.clone(), &speeds).is_err());
        assert!(RandomMatching::new(g, &speeds, 0).is_err());
    }

    #[test]
    fn improper_cover_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        // A single matching that does not cover all edges.
        let partial = PeriodicMatchings::new(vec![Matching::new(vec![0])]);
        assert!(DimensionExchange::new(g, &speeds, partial).is_err());
    }

    #[test]
    fn matching_processes_conserve_load() {
        let g = generators::torus(3, 3).unwrap();
        let speeds = Speeds::uniform(9);
        let de = DimensionExchange::with_greedy_coloring(g.clone(), &speeds).unwrap();
        let rm = RandomMatching::new(g, &speeds, 5).unwrap();
        let initial: Vec<f64> = (0..9).map(|i| (i * 7 % 5) as f64).collect();
        let total: f64 = initial.iter().sum();

        let mut runner_de = ContinuousRunner::new(de, initial.clone());
        runner_de.run(100);
        assert!((runner_de.loads().iter().sum::<f64>() - total).abs() < 1e-9);

        let mut runner_rm = ContinuousRunner::new(rm, initial);
        runner_rm.run(100);
        assert!((runner_rm.loads().iter().sum::<f64>() - total).abs() < 1e-9);
    }
}
