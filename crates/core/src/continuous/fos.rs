//! First-order diffusion (FOS), Cybenko/Boillat style, with speeds.

use super::{ContinuousProcess, EdgeFlow};
use crate::error::CoreError;
use crate::task::Speeds;
use lb_graph::{AlphaScheme, DiffusionMatrix, Graph, GraphDelta, GraphError};
use std::sync::Arc;

/// Lane width of the struct-of-arrays flow kernels. Wide enough to fill
/// 256/512-bit vector units after unrolling, small enough to keep the gather
/// buffers on the stack.
pub(crate) const KERNEL_LANES: usize = 8;

/// The first-order diffusion process:
///
/// ```text
/// y[i][j](t) = α[i][j] / s_i · x_i(t)
/// x_i(t+1)   = x_i(t) − Σ_j α[i][j] · (x_i(t)/s_i − x_j(t)/s_j)
/// ```
///
/// FOS is additive and terminating (Lemma 1 of the paper) and never induces
/// negative load, so both parts of Theorem 3 / Theorem 8 apply to its
/// discretizations.
///
/// # Examples
///
/// ```
/// use lb_core::continuous::{ContinuousProcess, Fos};
/// use lb_core::Speeds;
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::hypercube(3)?;
/// let fos = Fos::new(g, &Speeds::uniform(8), AlphaScheme::MaxDegreePlusOne)?;
/// assert_eq!(fos.name(), "fos");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fos {
    graph: Arc<Graph>,
    matrix: DiffusionMatrix,
}

impl Fos {
    /// Creates a FOS process on `graph` (owned or shared via `Arc`) with the
    /// given `speeds` and `α` scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if the diffusion matrix cannot be built
    /// (mismatched speed vector, non-positive speeds).
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
        scheme: AlphaScheme,
    ) -> Result<Self, CoreError> {
        let graph = graph.into();
        let matrix = DiffusionMatrix::new(&graph, &speeds.to_f64(), scheme)?;
        Ok(Fos { graph, matrix })
    }

    /// The diffusion matrix driving the process.
    pub fn matrix(&self) -> &DiffusionMatrix {
        &self.matrix
    }

    /// The process on `new_graph`, this process's graph with `delta`
    /// applied (see [`Graph::apply_delta`]), keeping its speeds and scheme.
    /// An empty delta leaves the topology as it was, so the matrix is
    /// copied; any other delta builds it afresh on `new_graph`, exactly as
    /// [`Fos::new`] would. Either way the cost is `O(m)`, the order of
    /// building `new_graph` itself.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if an empty delta comes with a graph of
    /// another node or edge count, or if the matrix cannot be built on
    /// `new_graph` (another node count).
    pub fn patched(&self, new_graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError> {
        let matrix = if delta.is_empty() {
            let (n, m) = (self.matrix.node_count(), self.matrix.edge_count());
            if (new_graph.node_count(), new_graph.edge_count()) != (n, m) {
                return Err(CoreError::Graph(GraphError::invalid_parameter(format!(
                    "an empty delta cannot turn {n} nodes and {m} edges into {} nodes and {} edges",
                    new_graph.node_count(),
                    new_graph.edge_count()
                ))));
            }
            self.matrix.clone()
        } else {
            DiffusionMatrix::new(&new_graph, self.matrix.speeds(), self.matrix.scheme())?
        };
        Ok(Fos {
            graph: new_graph,
            matrix,
        })
    }
}

impl ContinuousProcess for Fos {
    fn name(&self) -> &str {
        "fos"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn shared_graph(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    fn speeds(&self) -> &[f64] {
        self.matrix.speeds()
    }

    // lint: zero-alloc
    fn compute_flows_into(&mut self, t: usize, x: &[f64], out: &mut [EdgeFlow]) {
        self.compute_flows_range(t, x, 0..self.graph.edge_count(), out);
    }

    fn supports_sharding(&self) -> bool {
        true
    }

    /// Stride-friendly kernel: gathers endpoint loads/speeds into fixed-width
    /// struct-of-arrays lanes, runs a branch-free arithmetic loop over
    /// contiguous `f64` arrays (auto-vectorisable), and scatters into `out`.
    /// The per-edge float-op order is exactly the scalar loop's
    /// `α · x_u / s_u`, so flows are bit-identical to the previous kernel.
    // lint: zero-alloc
    fn compute_flows_range(
        &self,
        _t: usize,
        x: &[f64],
        edges: std::ops::Range<usize>,
        out: &mut [EdgeFlow],
    ) {
        const LANES: usize = KERNEL_LANES;
        let pairs = &self.graph.edges()[edges.clone()];
        let alphas = &self.matrix.alphas()[edges];
        let speeds = self.matrix.speeds();
        let mut xu = [0.0f64; LANES];
        let mut su = [0.0f64; LANES];
        let mut xv = [0.0f64; LANES];
        let mut sv = [0.0f64; LANES];
        let mut fu = [0.0f64; LANES];
        let mut fv = [0.0f64; LANES];
        let mut k = 0usize;
        for (pair_chunk, alpha_chunk) in pairs.chunks_exact(LANES).zip(alphas.chunks_exact(LANES)) {
            for (i, &(u, v)) in pair_chunk.iter().enumerate() {
                xu[i] = x[u];
                su[i] = speeds[u];
                xv[i] = x[v];
                sv[i] = speeds[v];
            }
            for i in 0..LANES {
                fu[i] = alpha_chunk[i] * xu[i] / su[i];
                fv[i] = alpha_chunk[i] * xv[i] / sv[i];
            }
            for (slot, i) in out[k..k + LANES].iter_mut().zip(0..LANES) {
                *slot = EdgeFlow::new(fu[i], fv[i]);
            }
            k += LANES;
        }
        for (i, &(u, v)) in pairs[k..].iter().enumerate() {
            let alpha = alphas[k + i];
            out[k + i] = EdgeFlow::new(alpha * x[u] / speeds[u], alpha * x[v] / speeds[v]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousRunner;
    use crate::metrics;
    use lb_graph::generators;

    #[test]
    fn fos_flows_match_matrix_entries() {
        let g = generators::path(3).unwrap();
        let speeds = Speeds::uniform(3);
        let mut fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let x = vec![6.0, 0.0, 0.0];
        let mut flows = vec![EdgeFlow::default(); fos.graph().edge_count()];
        fos.compute_flows_into(0, &x, &mut flows);
        // Edge (0,1): alpha = 1/(2+1) = 1/3, so forward = 2.0, backward = 0.
        let e01 = fos.graph().edge_between(0, 1).unwrap();
        assert!((flows[e01].forward - 2.0).abs() < 1e-12);
        assert_eq!(flows[e01].backward, 0.0);
    }

    #[test]
    fn patched_matches_a_fresh_build() {
        let g = Arc::new(generators::hypercube(4).unwrap());
        let speeds = Speeds::new((0..16).map(|i| 1 + i % 3).collect()).unwrap();
        let scheme = AlphaScheme::Lazy;
        let fos = Fos::new(Arc::clone(&g), &speeds, scheme).unwrap();
        let delta = GraphDelta::new(16, [(0, 3), (5, 10)], [(0, 1), (4, 5)]).unwrap();
        let next = Arc::new(g.apply_delta(&delta).unwrap());
        for (graph, delta) in [(g, GraphDelta::default()), (next, delta)] {
            let patched = fos.patched(Arc::clone(&graph), &delta).unwrap();
            let fresh = Fos::new(graph, &speeds, scheme).unwrap();
            assert_eq!(patched.matrix(), fresh.matrix());
        }
    }

    #[test]
    fn patched_rejects_an_empty_delta_onto_another_shape() {
        let speeds = Speeds::uniform(6);
        let cycle = generators::cycle(6).unwrap();
        let fos = Fos::new(cycle, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        // An empty delta cannot connect cycle(6) to path(6) (the edge
        // counts differ) or to cycle(8) (the node counts differ).
        for other in [generators::path(6).unwrap(), generators::cycle(8).unwrap()] {
            let result = fos.patched(Arc::new(other), &GraphDelta::default());
            assert!(matches!(result, Err(CoreError::Graph(_))), "{result:?}");
        }
    }

    #[test]
    fn fos_converges_on_hypercube() {
        let g = generators::hypercube(4).unwrap();
        let speeds = Speeds::uniform(16);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut initial = vec![0.0; 16];
        initial[0] = 160.0;
        let mut runner = ContinuousRunner::new(fos, initial);
        runner.run_until_balanced(1.0, 10_000);
        assert!(runner.is_balanced(1.0));
        assert!(runner.no_negative_load(1e-9));
    }

    #[test]
    fn fos_converges_to_speed_proportional_allocation() {
        let g = generators::complete(3).unwrap();
        let speeds = Speeds::new(vec![1, 2, 3]).unwrap();
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut runner = ContinuousRunner::new(fos, vec![12.0, 0.0, 0.0]);
        runner.run(2000);
        let loads = runner.loads();
        assert!((loads[0] - 2.0).abs() < 1e-6);
        assert!((loads[1] - 4.0).abs() < 1e-6);
        assert!((loads[2] - 6.0).abs() < 1e-6);
        assert!(metrics::max_min_discrepancy(loads, &speeds) < 1e-6);
    }

    #[test]
    fn fos_is_terminating_on_balanced_input() {
        // Terminating (Definition 2): started from a speed-proportional
        // vector, the net flow over every edge is zero in every round.
        let g = generators::cycle(5).unwrap();
        let speeds = Speeds::new(vec![2, 1, 3, 1, 1]).unwrap();
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let balanced: Vec<f64> = speeds.to_f64().iter().map(|s| 5.0 * s).collect();
        let mut runner = ContinuousRunner::new(fos, balanced.clone());
        for _ in 0..20 {
            let flows = runner.step();
            for f in flows {
                assert!(f.net().abs() < 1e-12);
            }
        }
        for (a, b) in runner.loads().iter().zip(&balanced) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fos_is_additive() {
        // Additive (Definition 3): flows of x' + x'' equal the sum of flows.
        let g = generators::torus(3, 3).unwrap();
        let speeds = Speeds::uniform(9);
        let x1: Vec<f64> = (0..9).map(|i| (i * 3 % 7) as f64).collect();
        let x2: Vec<f64> = (0..9).map(|i| (i * 5 % 11) as f64).collect();
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();

        let mk = |x: Vec<f64>| {
            let fos = Fos::new(
                generators::torus(3, 3).unwrap(),
                &speeds,
                AlphaScheme::MaxDegreePlusOne,
            )
            .unwrap();
            ContinuousRunner::new(fos, x)
        };
        let mut r1 = mk(x1);
        let mut r2 = mk(x2);
        let mut r_sum = mk(sum);
        for _ in 0..30 {
            let f1 = r1.step();
            let f2 = r2.step();
            let fs = r_sum.step();
            for e in 0..g.edge_count() {
                assert!((fs[e].forward - f1[e].forward - f2[e].forward).abs() < 1e-9);
                assert!((fs[e].backward - f1[e].backward - f2[e].backward).abs() < 1e-9);
            }
        }
    }
}
