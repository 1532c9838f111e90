//! Initial load distributions.
//!
//! Every generator produces an [`InitialLoad`] for a given graph (or node
//! count); the experiments sweep these to show the discrepancy bounds are
//! insensitive to where the load starts.

use lb_core::{InitialLoad, Task, TaskId};
use lb_graph::Graph;
use rand::Rng;
use std::borrow::Cow;

/// A recipe for an initial placement of unit-weight tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TokenDistribution {
    /// All tokens on one node (the paper's worst-case style input).
    SingleSource {
        /// The node receiving all tokens.
        source: usize,
    },
    /// Tokens placed uniformly at random, one by one.
    UniformRandom,
    /// Tokens split evenly, with the remainder going to the lowest-indexed
    /// nodes (an almost-balanced start).
    AlmostBalanced,
    /// Tokens concentrated geometrically: node `i` receives a share
    /// proportional to `ratio^i` (a skewed but not point-mass start).
    Geometric {
        /// Per-node decay numerator out of 100 (e.g. 50 halves the share from
        /// one node to the next).
        ratio_percent: u32,
    },
}

impl TokenDistribution {
    /// Materialises the distribution of `total` tokens over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if a `SingleSource` source index is out of
    /// range.
    pub fn generate(&self, n: usize, total: u64, rng: &mut impl Rng) -> InitialLoad {
        InitialLoad::from_token_counts(self.counts(n, total, rng))
    }

    /// The per-node token counts [`generate`](TokenDistribution::generate)
    /// places, drawing the same values from `rng`, without making a task.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or if a `SingleSource` source index is out of
    /// range.
    pub fn counts(&self, n: usize, total: u64, rng: &mut impl Rng) -> Vec<u64> {
        assert!(n > 0, "distribution requires at least one node");
        match *self {
            TokenDistribution::SingleSource { source } => {
                assert!(source < n, "source node {source} out of range for n = {n}");
                let mut counts = vec![0; n];
                counts[source] = total;
                counts
            }
            TokenDistribution::UniformRandom => {
                let mut counts = vec![0u64; n];
                for _ in 0..total {
                    counts[rng.gen_range(0..n)] += 1;
                }
                counts
            }
            TokenDistribution::AlmostBalanced => {
                let base = total / n as u64;
                let remainder = (total % n as u64) as usize;
                (0..n).map(|i| base + u64::from(i < remainder)).collect()
            }
            TokenDistribution::Geometric { ratio_percent } => {
                let ratio = f64::from(ratio_percent) / 100.0;
                let mut weights: Vec<f64> = Vec::with_capacity(n);
                let mut w = 1.0;
                for _ in 0..n {
                    weights.push(w);
                    w *= ratio;
                }
                let sum: f64 = weights.iter().sum();
                let mut counts: Vec<u64> = weights
                    .iter()
                    .map(|w| ((w / sum) * total as f64).floor() as u64)
                    .collect();
                // Give any rounding remainder to node 0 so the total is exact.
                let assigned: u64 = counts.iter().sum();
                counts[0] += total - assigned;
                counts
            }
        }
    }

    /// A short label for reports.
    pub fn label(&self) -> String {
        match self {
            TokenDistribution::SingleSource { source } => format!("single_source({source})"),
            TokenDistribution::UniformRandom => "uniform_random".to_string(),
            TokenDistribution::AlmostBalanced => "almost_balanced".to_string(),
            TokenDistribution::Geometric { ratio_percent } => {
                format!("geometric({ratio_percent}%)")
            }
        }
    }
}

/// Adds `extra_per_speed_unit · s_i` unit tokens to every node of an existing
/// distribution — the "sufficient initial load" padding required by part (2)
/// of Theorems 3 and 8 (`extra = d·w_max` for Algorithm 1). The padding is
/// numbered after the distribution's largest task id, node by node.
///
/// `initial` is an owned or a borrowed placement. An owned one is padded in
/// place: each node's vector grows once, to its exact padded length, so at
/// most one node's tasks are copied at a time. A borrowed one is cloned
/// once first.
///
/// # Panics
///
/// Panics if `speeds.len()` differs from the distribution's node count.
pub fn pad_for_min_load<'a>(
    initial: impl Into<Cow<'a, InitialLoad>>,
    speeds: &lb_core::Speeds,
    extra_per_speed_unit: u64,
) -> InitialLoad {
    let initial = initial.into();
    assert_eq!(speeds.len(), initial.node_count());
    let mut next_id: u64 = (0..initial.node_count())
        .flat_map(|i| initial.tasks_of(i))
        .map(|t| t.id().0 + 1)
        .max()
        .unwrap_or(0);
    let mut tasks = initial.into_owned().into_tasks();
    for (node_tasks, &speed) in tasks.iter_mut().zip(speeds.as_slice()) {
        let extra = extra_per_speed_unit * speed;
        node_tasks.reserve_exact(usize::try_from(extra).unwrap_or(usize::MAX));
        node_tasks.extend((next_id..next_id + extra).map(|id| Task::new(TaskId(id), 1)));
        next_id += extra;
    }
    InitialLoad::from_tasks(tasks)
}

/// Places all tokens on the node of maximum eccentricity (the "far corner"),
/// an adversarial start for neighbourhood balancing on low-diameter graphs.
pub fn corner_source(graph: &Graph, total: u64) -> InitialLoad {
    let n = graph.node_count();
    assert!(n > 0, "corner_source requires a non-empty graph");
    // Pick the node with the largest BFS eccentricity from node 0, then the
    // farthest node from it (a 2-sweep heuristic for a peripheral node).
    let far = |from: usize| -> usize {
        graph
            .bfs_distances(from)
            .iter()
            .enumerate()
            .max_by_key(|(_, d)| d.unwrap_or(0))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    let a = far(0);
    let b = far(a);
    InitialLoad::single_source(n, b, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_core::Speeds;
    use lb_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_source_and_label() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = TokenDistribution::SingleSource { source: 2 };
        let load = d.generate(4, 12, &mut rng);
        assert_eq!(load.load_vector(), vec![0, 0, 12, 0]);
        assert!(d.label().contains('2'));
    }

    #[test]
    fn uniform_random_conserves_total() {
        let mut rng = StdRng::seed_from_u64(1);
        let load = TokenDistribution::UniformRandom.generate(10, 500, &mut rng);
        assert_eq!(load.total_weight(), 500);
        assert_eq!(load.node_count(), 10);
    }

    #[test]
    fn almost_balanced_is_within_one_token() {
        let mut rng = StdRng::seed_from_u64(2);
        let load = TokenDistribution::AlmostBalanced.generate(7, 40, &mut rng);
        assert_eq!(load.total_weight(), 40);
        let counts = load.load_vector();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn geometric_is_skewed_and_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        let load = TokenDistribution::Geometric { ratio_percent: 50 }.generate(6, 1000, &mut rng);
        assert_eq!(load.total_weight(), 1000);
        let counts = load.load_vector();
        assert!(counts[0] > counts[1] && counts[1] > counts[2]);
    }

    #[test]
    fn padding_adds_speed_proportional_tokens() {
        let initial = InitialLoad::single_source(3, 0, 10);
        let speeds = Speeds::new(vec![1, 2, 3]).unwrap();
        let padded = pad_for_min_load(&initial, &speeds, 4);
        assert_eq!(padded.load_vector(), vec![10 + 4, 8, 12]);
        assert_eq!(padded.total_weight(), 10 + 4 + 8 + 12);
        // Task ids remain unique.
        let ids: std::collections::BTreeSet<u64> = padded
            .clone()
            .into_tasks()
            .iter()
            .flatten()
            .map(|t| t.id().0)
            .collect();
        assert_eq!(ids.len(), padded.task_count());
    }

    #[test]
    fn corner_source_picks_peripheral_node_on_path() {
        let g = generators::path(10).unwrap();
        let load = corner_source(&g, 5);
        let counts = load.load_vector();
        let loaded: Vec<usize> = counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(loaded.len(), 1);
        assert!(
            loaded[0] == 0 || loaded[0] == 9,
            "endpoint expected, got {loaded:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = TokenDistribution::UniformRandom.generate(0, 5, &mut rng);
    }
}
