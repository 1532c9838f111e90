//! Speed-aware diffusion matrices.
//!
//! The first- and second-order diffusion schemes of the paper are driven by a
//! stochastic matrix `P` with
//!
//! ```text
//! P[i][j] = α[i][j] / s[i]          for j ∈ N(i)
//! P[i][i] = 1 − Σ_{j ∈ N(i)} α[i][j] / s[i]
//! ```
//!
//! where the `α[i][j] = α[j][i]` are symmetric edge weights satisfying
//! `Σ_{j ∈ N(i)} α[i][j] < s[i]` for every node `i`. [`DiffusionMatrix`]
//! stores the per-edge `α` values together with node speeds and offers the
//! row-vector product `x ↦ x·P` that advances the continuous process.

use crate::error::GraphError;
use crate::graph::{EdgeId, Graph, NodeId};

/// Strategy for choosing the symmetric edge weights `α[i][j]`.
///
/// Both schemes reduce to the standard literature choices for unit speeds and
/// generalise to heterogeneous speeds by scaling with `min(s_i, s_j)`, which
/// preserves symmetry and keeps every row sum strictly below `s_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum AlphaScheme {
    /// `α[i][j] = min(s_i, s_j) / (max(d_i, d_j) + 1)` — the common
    /// `1/(max(d_i, d_j) + 1)` choice for unit speeds.
    #[default]
    MaxDegreePlusOne,
    /// `α[i][j] = min(s_i, s_j) / (2 · max(d_i, d_j))` — the common
    /// `1/(2 · max(d_i, d_j))` choice for unit speeds. Guarantees `P` has
    /// diagonal entries at least 1/2, which keeps all eigenvalues
    /// non-negative (useful on bipartite graphs).
    Lazy,
}

impl AlphaScheme {
    /// Computes `α` for the edge `{i, j}` given degrees and speeds.
    pub fn alpha(self, deg_i: usize, deg_j: usize, speed_i: f64, speed_j: f64) -> f64 {
        let dmax = deg_i.max(deg_j) as f64;
        let smin = speed_i.min(speed_j);
        match self {
            AlphaScheme::MaxDegreePlusOne => smin / (dmax + 1.0),
            AlphaScheme::Lazy => smin / (2.0 * dmax),
        }
    }
}

/// A speed-aware diffusion matrix over a fixed graph.
///
/// The matrix does not own the graph; methods that need the topology take a
/// `&Graph` argument and debug-assert that its node and edge counts match the
/// ones captured at construction time.
///
/// # Examples
///
/// ```
/// use lb_graph::{generators, AlphaScheme, DiffusionMatrix};
///
/// let g = generators::cycle(4)?;
/// let speeds = vec![1.0; 4];
/// let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// let x = vec![4.0, 0.0, 0.0, 0.0];
/// let next = p.apply(&g, &x);
/// // Load is conserved by one diffusion step.
/// assert!((next.iter().sum::<f64>() - 4.0).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionMatrix {
    /// Per-edge symmetric weight `α_e`, indexed by [`EdgeId`].
    alphas: Vec<f64>,
    /// Node speeds (strictly positive).
    speeds: Vec<f64>,
    /// Diagonal entries `P[i][i]`.
    diagonal: Vec<f64>,
    scheme: AlphaScheme,
}

impl DiffusionMatrix {
    /// Builds the diffusion matrix for `graph` with the given `speeds` and
    /// `scheme`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `speeds.len()` does not
    /// match the node count or any speed is not strictly positive and finite.
    pub fn new(graph: &Graph, speeds: &[f64], scheme: AlphaScheme) -> Result<Self, GraphError> {
        if speeds.len() != graph.node_count() {
            return Err(GraphError::invalid_parameter(format!(
                "speeds length {} does not match node count {}",
                speeds.len(),
                graph.node_count()
            )));
        }
        if let Some((i, &s)) = speeds
            .iter()
            .enumerate()
            .find(|(_, &s)| !(s.is_finite() && s > 0.0))
        {
            return Err(GraphError::invalid_parameter(format!(
                "speed of node {i} must be positive and finite, got {s}"
            )));
        }
        let mut alphas = vec![0.0; graph.edge_count()];
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            alphas[e] = scheme.alpha(graph.degree(u), graph.degree(v), speeds[u], speeds[v]);
        }
        let mut diagonal = vec![0.0; graph.node_count()];
        for i in graph.nodes() {
            let outgoing: f64 = graph
                .neighbors_with_edges(i)
                .map(|(_, e)| alphas[e] / speeds[i])
                .sum();
            diagonal[i] = 1.0 - outgoing;
        }
        Ok(DiffusionMatrix {
            alphas,
            speeds: speeds.to_vec(),
            diagonal,
            scheme,
        })
    }

    /// Convenience constructor for unit speeds.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`DiffusionMatrix::new`]; with unit speeds this
    /// only happens for internal inconsistencies.
    pub fn uniform(graph: &Graph, scheme: AlphaScheme) -> Result<Self, GraphError> {
        Self::new(graph, &vec![1.0; graph.node_count()], scheme)
    }

    /// Number of nodes the matrix was built for.
    pub fn node_count(&self) -> usize {
        self.speeds.len()
    }

    /// Number of edges the matrix was built for.
    pub fn edge_count(&self) -> usize {
        self.alphas.len()
    }

    /// The `α` scheme used at construction.
    pub fn scheme(&self) -> AlphaScheme {
        self.scheme
    }

    /// The symmetric weight `α_e` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn alpha(&self, e: EdgeId) -> f64 {
        self.alphas[e]
    }

    /// All per-edge `α` values, indexed by [`EdgeId`].
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Node speeds captured at construction.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The diagonal entry `P[i][i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn diagonal(&self, i: NodeId) -> f64 {
        self.diagonal[i]
    }

    /// The off-diagonal entry `P[i][j] = α[i][j] / s_i` for an adjacent pair,
    /// or 0.0 for non-adjacent distinct nodes, or the diagonal for `i == j`.
    pub fn entry(&self, graph: &Graph, i: NodeId, j: NodeId) -> f64 {
        self.debug_check(graph);
        if i == j {
            return self.diagonal[i];
        }
        match graph.edge_between(i, j) {
            Some(e) => self.alphas[e] / self.speeds[i],
            None => 0.0,
        }
    }

    /// Computes the row-vector product `x · P`, i.e. one synchronous step of
    /// the continuous first-order diffusion on load vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the node count.
    pub fn apply(&self, graph: &Graph, x: &[f64]) -> Vec<f64> {
        self.debug_check(graph);
        let n = self.node_count();
        assert_eq!(x.len(), n, "load vector length must equal node count");
        let mut out = vec![0.0; n];
        for i in 0..n {
            out[i] += x[i] * self.diagonal[i];
        }
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let a = self.alphas[e];
            // Mass flowing u -> v and v -> u.
            out[v] += x[u] * a / self.speeds[u];
            out[u] += x[v] * a / self.speeds[v];
        }
        out
    }

    /// Verifies that `P` is row-stochastic with non-negative entries, within
    /// floating-point tolerance. Mostly used by tests and debug assertions.
    pub fn is_stochastic(&self, graph: &Graph, tol: f64) -> bool {
        self.debug_check(graph);
        for i in 0..self.node_count() {
            if self.diagonal[i] < -tol {
                return false;
            }
            let row_sum: f64 = self.diagonal[i]
                + graph
                    .neighbors_with_edges(i)
                    .map(|(_, e)| self.alphas[e] / self.speeds[i])
                    .sum::<f64>();
            if (row_sum - 1.0).abs() > tol {
                return false;
            }
        }
        true
    }

    fn debug_check(&self, graph: &Graph) {
        debug_assert_eq!(
            graph.node_count(),
            self.node_count(),
            "graph/matrix node count mismatch"
        );
        debug_assert_eq!(
            graph.edge_count(),
            self.edge_count(),
            "graph/matrix edge count mismatch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn uniform_cycle_matrix_is_stochastic() {
        let g = generators::cycle(6).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(p.is_stochastic(&g, 1e-12));
        // Every edge weight is 1/(2+1).
        for e in 0..g.edge_count() {
            assert!((p.alpha(e) - 1.0 / 3.0).abs() < 1e-12);
        }
        assert!((p.diagonal(0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lazy_scheme_has_large_diagonal() {
        let g = generators::cycle(6).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::Lazy).unwrap();
        for i in g.nodes() {
            assert!(p.diagonal(i) >= 0.5 - 1e-12);
        }
    }

    #[test]
    fn speeds_scale_rows_but_keep_alpha_symmetric() {
        let g = generators::path(3).unwrap();
        let speeds = vec![1.0, 2.0, 4.0];
        let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(p.is_stochastic(&g, 1e-12));
        // Entry is alpha / s_i, so it differs per direction while alpha is shared.
        let e01 = g.edge_between(0, 1).unwrap();
        assert!((p.entry(&g, 0, 1) - p.alpha(e01) / 1.0).abs() < 1e-12);
        assert!((p.entry(&g, 1, 0) - p.alpha(e01) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn apply_conserves_total_load() {
        let g = generators::hypercube(4).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut x: Vec<f64> = (0..g.node_count()).map(|i| (i % 7) as f64).collect();
        let total: f64 = x.iter().sum();
        for _ in 0..50 {
            x = p.apply(&g, &x);
        }
        assert!((x.iter().sum::<f64>() - total).abs() < 1e-6);
    }

    #[test]
    fn apply_converges_to_speed_proportional_fixed_point() {
        let g = generators::complete(4).unwrap();
        let speeds = vec![1.0, 1.0, 2.0, 4.0];
        let p = DiffusionMatrix::new(&g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut x = vec![8.0, 0.0, 0.0, 0.0];
        for _ in 0..500 {
            x = p.apply(&g, &x);
        }
        let total_speed: f64 = speeds.iter().sum();
        for i in 0..4 {
            let expected = 8.0 * speeds[i] / total_speed;
            assert!(
                (x[i] - expected).abs() < 1e-6,
                "node {i}: {x:?} vs expected {expected}"
            );
        }
    }

    #[test]
    fn entry_of_non_adjacent_nodes_is_zero() {
        let g = generators::path(4).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert_eq!(p.entry(&g, 0, 3), 0.0);
    }

    #[test]
    fn rejects_bad_speeds() {
        let g = generators::cycle(4).unwrap();
        assert!(DiffusionMatrix::new(&g, &[1.0; 3], AlphaScheme::MaxDegreePlusOne).is_err());
        assert!(
            DiffusionMatrix::new(&g, &[1.0, 0.0, 1.0, 1.0], AlphaScheme::MaxDegreePlusOne).is_err()
        );
        assert!(
            DiffusionMatrix::new(&g, &[1.0, -2.0, 1.0, 1.0], AlphaScheme::MaxDegreePlusOne)
                .is_err()
        );
        assert!(DiffusionMatrix::new(
            &g,
            &[1.0, f64::NAN, 1.0, 1.0],
            AlphaScheme::MaxDegreePlusOne
        )
        .is_err());
    }

    #[test]
    fn star_alpha_uses_max_degree() {
        let g = generators::star(5).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Centre has degree 4, leaves degree 1 => alpha = 1/5 for every edge.
        for e in 0..g.edge_count() {
            assert!((p.alpha(e) - 0.2).abs() < 1e-12);
        }
        assert!(p.is_stochastic(&g, 1e-12));
    }
}
