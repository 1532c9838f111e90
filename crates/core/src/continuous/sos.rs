//! Second-order diffusion (SOS), Muthukrishnan–Ghosh–Schultz style, with
//! speeds.

use super::fos::KERNEL_LANES;
use super::{ContinuousProcess, EdgeFlow};
use crate::error::CoreError;
use crate::task::Speeds;
use lb_graph::{AlphaScheme, DiffusionMatrix, Graph, GraphDelta, PowerIterationOptions};
use std::sync::{Arc, Weak};

/// The second-order diffusion process:
///
/// ```text
/// y[i][j](0) = α[i][j]/s_i · x_i(0)
/// y[i][j](t) = (β − 1)·y[i][j](t−1) + β·α[i][j]/s_i · x_i(t)     (t ≥ 1)
/// ```
///
/// For well-chosen `β` (the optimum is `2/(1 + √(1 − λ²))`) SOS converges in
/// `O(log(Kn)/√(1 − λ))` rounds, a quadratic improvement over FOS on
/// poorly-expanding graphs. Unlike FOS, SOS **may induce negative load**
/// (Definition 1), in which case only the max-avg part of Theorems 3/8
/// applies to its discretizations; [`ContinuousRunner::min_load_seen`]
/// reports whether that happened.
///
/// [`ContinuousRunner::min_load_seen`]: super::ContinuousRunner::min_load_seen
#[derive(Debug, Clone)]
pub struct Sos {
    graph: Arc<Graph>,
    matrix: DiffusionMatrix,
    speeds: Vec<f64>,
    beta: f64,
    /// Flows of the previous round, pre-sized to the edge count; only valid
    /// once `has_previous` is set. Kept flat (not `Option<Vec>`) so the
    /// kernel never allocates.
    previous: Vec<EdgeFlow>,
    has_previous: bool,
    name: String,
    /// The β estimated on the build topology, when the process was built by
    /// [`Sos::with_optimal_beta`]: [`Sos::patched`] back onto it reuses it.
    memo: Option<Estimate>,
}

/// A β estimated on `graph`. The weak handle keeps no graph alive, and a
/// dropped graph's address is never reused while the handle exists, so a
/// stale entry never matches a new graph.
#[derive(Debug, Clone)]
struct Estimate {
    graph: Weak<Graph>,
    beta: f64,
}

impl Sos {
    /// Creates an SOS process with an explicit relaxation parameter
    /// `beta ∈ (0, 2]`. The graph may be owned or shared via `Arc`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `beta` is outside `(0, 2]`
    /// and [`CoreError::Graph`] if the diffusion matrix cannot be built.
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
        scheme: AlphaScheme,
        beta: f64,
    ) -> Result<Self, CoreError> {
        if !(beta > 0.0 && beta <= 2.0) {
            return Err(CoreError::invalid_parameter(format!(
                "beta must be in (0, 2], got {beta}"
            )));
        }
        let graph = graph.into();
        let speeds_f64 = speeds.to_f64();
        let matrix = DiffusionMatrix::new(&graph, &speeds_f64, scheme)?;
        let m = graph.edge_count();
        Ok(Sos {
            graph,
            matrix,
            speeds: speeds_f64,
            beta,
            previous: vec![EdgeFlow::default(); m],
            has_previous: false,
            name: format!("sos(beta={beta:.3})"),
            memo: None,
        })
    }

    /// Creates an SOS process with the optimal relaxation parameter
    /// `β = 2/(1 + √(1 − λ²))`, where `λ` is estimated with power iteration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if the diffusion matrix cannot be built.
    pub fn with_optimal_beta(
        graph: impl Into<Arc<Graph>>,
        speeds: &Speeds,
        scheme: AlphaScheme,
    ) -> Result<Self, CoreError> {
        let graph = graph.into();
        let speeds_f64 = speeds.to_f64();
        let matrix = DiffusionMatrix::new(&graph, &speeds_f64, scheme)?;
        let beta = optimal_beta(&graph, &matrix);
        let m = graph.edge_count();
        let memo = Some(Estimate {
            graph: Arc::downgrade(&graph),
            beta,
        });
        Ok(Sos {
            graph,
            matrix,
            speeds: speeds_f64,
            beta,
            previous: vec![EdgeFlow::default(); m],
            has_previous: false,
            name: format!("sos(beta={beta:.3})"),
            memo,
        })
    }

    /// The relaxation parameter `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Rebuilds the process for a patched topology: `new_graph` must be this
    /// process's graph with `delta` applied. The diffusion matrix is patched
    /// incrementally (bit-identical to a fresh build). β follows the first
    /// rule that applies:
    ///
    /// - an **empty** delta leaves the matrix unchanged, so β is kept and
    ///   the spectral estimate, the dominant cost of a same-family rewire,
    ///   is skipped;
    /// - `new_graph` is the very graph (the same `Arc`) the first process
    ///   of this chain of patches was built on by
    ///   [`Sos::with_optimal_beta`]: the β estimated there is reused, so a
    ///   delta and the rewire that reverts it estimate once;
    /// - otherwise β is re-estimated exactly as [`Sos::with_optimal_beta`]
    ///   would (power iteration is seed-free and deterministic, so the
    ///   result bit-matches a full rebuild).
    ///
    /// Speeds and the α scheme never change along a chain of patches, so
    /// every β equals the cold estimate on its graph and a resume's rebuild
    /// bit-matches it. A β given to [`Sos::new`] is never remembered: an
    /// explicit-β process patched away and back gets the optimal β.
    ///
    /// The relaxation history resets, mirroring the full-rebuild churn path:
    /// a topology epoch boundary invalidates `y(t−1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] if the delta does not describe the
    /// old-to-new edge difference.
    pub fn patched(&self, new_graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError> {
        let matrix = self.matrix.patched(&self.graph, &new_graph, delta)?;
        let target = Arc::downgrade(&new_graph);
        let remembered = self
            .memo
            .as_ref()
            .filter(|entry| Weak::ptr_eq(&entry.graph, &target));
        let beta = if delta.is_empty() {
            self.beta
        } else if let Some(entry) = remembered {
            entry.beta
        } else {
            optimal_beta(&new_graph, &matrix)
        };
        let m = new_graph.edge_count();
        Ok(Sos {
            graph: new_graph,
            matrix,
            speeds: self.speeds.clone(),
            beta,
            previous: vec![EdgeFlow::default(); m],
            has_previous: false,
            name: format!("sos(beta={beta:.3})"),
            memo: self.memo.clone(),
        })
    }
}

/// `β = 2/(1 + √(1 − λ²))` with `λ` estimated by power iteration: the one
/// formula behind both [`Sos::with_optimal_beta`] and [`Sos::patched`], so a
/// patched process and its full rebuild agree to the bit (resume checks it).
fn optimal_beta(graph: &Graph, matrix: &DiffusionMatrix) -> f64 {
    #[cfg(test)]
    tests::ESTIMATES.with(|count| count.set(count.get() + 1));
    let lambda =
        lb_graph::spectral::second_eigenvalue(graph, matrix, PowerIterationOptions::default());
    2.0 / (1.0 + (1.0 - lambda * lambda).max(0.0).sqrt())
}

impl ContinuousProcess for Sos {
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
        self.compute_flows_range(t, x, 0..self.graph.edge_count(), out);
        self.commit_flows(t, out);
    }

    fn supports_sharding(&self) -> bool {
        true
    }

    /// Stride-friendly kernel, same struct-of-arrays shape as the FOS one.
    /// The `has_previous` branch is hoisted out of the per-edge loop: the
    /// first round runs the FOS-shaped variant, every later round runs the
    /// relaxation variant with the history gathered alongside the loads.
    /// Per-edge float-op order matches the scalar loop
    /// (`(β−1)·y_prev + β·(α·x_u/s_u)`), so flows are bit-identical.
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
        let alphas = &self.matrix.alphas()[edges.clone()];
        let beta = self.beta;
        let carry = self.beta - 1.0;
        let mut xu = [0.0f64; LANES];
        let mut su = [0.0f64; LANES];
        let mut xv = [0.0f64; LANES];
        let mut sv = [0.0f64; LANES];
        let mut fu = [0.0f64; LANES];
        let mut fv = [0.0f64; LANES];
        let mut k = 0usize;
        if self.has_previous {
            let prev = &self.previous[edges];
            let mut pf = [0.0f64; LANES];
            let mut pb = [0.0f64; LANES];
            for (pair_chunk, (alpha_chunk, prev_chunk)) in pairs
                .chunks_exact(LANES)
                .zip(alphas.chunks_exact(LANES).zip(prev.chunks_exact(LANES)))
            {
                for (i, &(u, v)) in pair_chunk.iter().enumerate() {
                    xu[i] = x[u];
                    su[i] = self.speeds[u];
                    xv[i] = x[v];
                    sv[i] = self.speeds[v];
                    pf[i] = prev_chunk[i].forward;
                    pb[i] = prev_chunk[i].backward;
                }
                for i in 0..LANES {
                    fu[i] = carry * pf[i] + beta * (alpha_chunk[i] * xu[i] / su[i]);
                    fv[i] = carry * pb[i] + beta * (alpha_chunk[i] * xv[i] / sv[i]);
                }
                for (slot, i) in out[k..k + LANES].iter_mut().zip(0..LANES) {
                    *slot = EdgeFlow::new(fu[i], fv[i]);
                }
                k += LANES;
            }
            for (i, &(u, v)) in pairs[k..].iter().enumerate() {
                let alpha = alphas[k + i];
                let fos_forward = alpha * x[u] / self.speeds[u];
                let fos_backward = alpha * x[v] / self.speeds[v];
                out[k + i] = EdgeFlow::new(
                    carry * prev[k + i].forward + beta * fos_forward,
                    carry * prev[k + i].backward + beta * fos_backward,
                );
            }
        } else {
            for (pair_chunk, alpha_chunk) in
                pairs.chunks_exact(LANES).zip(alphas.chunks_exact(LANES))
            {
                for (i, &(u, v)) in pair_chunk.iter().enumerate() {
                    xu[i] = x[u];
                    su[i] = self.speeds[u];
                    xv[i] = x[v];
                    sv[i] = self.speeds[v];
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
                out[k + i] =
                    EdgeFlow::new(alpha * x[u] / self.speeds[u], alpha * x[v] / self.speeds[v]);
            }
        }
    }

    /// SOS is the stateful kernel: the committed flows become the
    /// `y(t−1)` history the next round's relaxation reads.
    fn commit_flows(&mut self, _t: usize, flows: &[EdgeFlow]) {
        self.previous.copy_from_slice(flows);
        self.has_previous = true;
    }

    fn capture_history(&self) -> Option<crate::snapshot::ProcessHistory> {
        Some(crate::snapshot::ProcessHistory {
            beta: self.beta,
            previous: self.previous.clone(),
            has_previous: self.has_previous,
        })
    }

    /// Restores the relaxation history into a freshly rebuilt process. β is
    /// validated **bit-exactly**: resume rebuilds SOS deterministically from
    /// the scenario (power iteration is seed-free), so any difference means
    /// the snapshot belongs to another topology epoch or build — a stale
    /// snapshot, rejected rather than silently diverging.
    fn restore_history(
        &mut self,
        history: &crate::snapshot::ProcessHistory,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if history.beta.to_bits() != self.beta.to_bits() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot β = {} does not bit-match the rebuilt process β = {} \
                 (stale snapshot?)",
                history.beta, self.beta
            )));
        }
        if history.previous.len() != self.previous.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot SOS history has {} edges, graph has {}",
                history.previous.len(),
                self.previous.len()
            )));
        }
        self.previous.copy_from_slice(&history.previous);
        self.has_previous = history.has_previous;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{ContinuousRunner, Fos};
    use lb_graph::generators;
    use std::cell::Cell;

    thread_local! {
        /// Power iterations run on this thread (tests run one per thread).
        pub(super) static ESTIMATES: Cell<usize> = const { Cell::new(0) };
    }

    /// The power iterations `f` runs.
    fn estimates<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = ESTIMATES.with(Cell::get);
        let value = f();
        (value, ESTIMATES.with(Cell::get) - before)
    }

    #[test]
    fn beta_one_reduces_to_fos() {
        let g = generators::cycle(6).unwrap();
        let speeds = Speeds::uniform(6);
        let initial: Vec<f64> = (0..6).map(|i| (i * i % 5) as f64 * 3.0).collect();
        let sos = Sos::new(g.clone(), &speeds, AlphaScheme::MaxDegreePlusOne, 1.0).unwrap();
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut r_sos = ContinuousRunner::new(sos, initial.clone());
        let mut r_fos = ContinuousRunner::new(fos, initial);
        for _ in 0..30 {
            r_sos.step();
            r_fos.step();
            for (a, b) in r_sos.loads().iter().zip(r_fos.loads()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn invalid_beta_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        assert!(Sos::new(g.clone(), &speeds, AlphaScheme::MaxDegreePlusOne, 0.0).is_err());
        assert!(Sos::new(g.clone(), &speeds, AlphaScheme::MaxDegreePlusOne, 2.5).is_err());
        assert!(Sos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne, f64::NAN).is_err());
    }

    #[test]
    fn optimal_beta_is_in_range_and_converges_faster_than_fos_on_cycle() {
        let n = 24;
        let g = generators::cycle(n).unwrap();
        let speeds = Speeds::uniform(n);
        let sos =
            Sos::with_optimal_beta(g.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(sos.beta() > 1.0 && sos.beta() <= 2.0);

        let mut initial = vec![0.0; n];
        initial[0] = 240.0;

        let mut r_sos = ContinuousRunner::new(sos, initial.clone());
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut r_fos = ContinuousRunner::new(fos, initial);

        let sos_rounds = r_sos.run_until_balanced(1.0, 100_000);
        let fos_rounds = r_fos.run_until_balanced(1.0, 100_000);
        assert!(r_sos.is_balanced(1.0));
        assert!(r_fos.is_balanced(1.0));
        assert!(
            sos_rounds < fos_rounds,
            "SOS ({sos_rounds}) should beat FOS ({fos_rounds}) on the cycle"
        );
    }

    /// Q6 with three powers-of-two speed classes, so `β` depends on the
    /// heterogeneous couplings.
    fn pow2_hypercube() -> (Arc<Graph>, Speeds) {
        let g = generators::hypercube(6).unwrap();
        let speeds = Speeds::new((0..g.node_count()).map(|i| 1u64 << (i % 3)).collect()).unwrap();
        (Arc::new(g), speeds)
    }

    #[test]
    fn patched_beta_bit_matches_a_full_rebuild_on_a_real_delta() {
        let (g, speeds) = pow2_hypercube();
        let sos =
            Sos::with_optimal_beta(Arc::clone(&g), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Swap two cube edges for two chords.
        let delta = GraphDelta::new(g.node_count(), [(0, 3), (9, 54)], [(0, 1), (8, 9)]).unwrap();
        let new_graph = Arc::new(g.apply_delta(&delta).unwrap());
        let patched = sos.patched(Arc::clone(&new_graph), &delta).unwrap();
        let rebuilt =
            Sos::with_optimal_beta(new_graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert_eq!(patched.beta().to_bits(), rebuilt.beta().to_bits());
        assert_ne!(patched.beta().to_bits(), sos.beta().to_bits());
        assert_eq!(patched.name(), rebuilt.name());
    }

    #[test]
    fn patched_keeps_beta_on_an_empty_delta_without_estimating() {
        let (g, speeds) = pow2_hypercube();
        // An explicit, non-optimal beta: any estimate would replace it.
        let beta = 1.234_567;
        let sos = Sos::new(Arc::clone(&g), &speeds, AlphaScheme::MaxDegreePlusOne, beta).unwrap();
        let optimal =
            Sos::with_optimal_beta(Arc::clone(&g), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert_ne!(optimal.beta().to_bits(), beta.to_bits());
        let patched = sos.patched(g, &GraphDelta::default()).unwrap();
        assert_eq!(patched.beta().to_bits(), beta.to_bits());
    }

    /// Two distinct one-edge swaps on `g`, each as its delta and graph.
    fn two_swaps(g: &Graph) -> [(GraphDelta, Arc<Graph>); 2] {
        [((0, 3), (0, 1)), ((9, 54), (8, 9))].map(|(add, remove)| {
            let delta = GraphDelta::new(g.node_count(), [add], [remove]).unwrap();
            let graph = Arc::new(g.apply_delta(&delta).unwrap());
            (delta, graph)
        })
    }

    #[test]
    fn patching_back_onto_a_remembered_topology_reuses_its_beta() {
        let (w, speeds) = pow2_hypercube();
        let sos =
            Sos::with_optimal_beta(Arc::clone(&w), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let [(to_d1, d1), (_, d2)] = two_swaps(&w);
        // W → D1 → W.
        let (at_d1, n) = estimates(|| sos.patched(Arc::clone(&d1), &to_d1).unwrap());
        assert_eq!(n, 1, "D1 is new");
        let (back, n) = estimates(|| at_d1.patched(Arc::clone(&w), &d1.delta_to(&w).unwrap()));
        assert_eq!(n, 0, "W is the build topology");
        assert_eq!(back.unwrap().beta().to_bits(), sos.beta().to_bits());
        // W → D1 → D2 → W.
        let (at_d2, n) = estimates(|| at_d1.patched(Arc::clone(&d2), &d1.delta_to(&d2).unwrap()));
        assert_eq!(n, 1, "D2 is new");
        let at_d2 = at_d2.unwrap();
        let (back, n) = estimates(|| at_d2.patched(Arc::clone(&w), &d2.delta_to(&w).unwrap()));
        assert_eq!(n, 0, "W is the build topology");
        let back = back.unwrap();
        assert_eq!(back.beta().to_bits(), sos.beta().to_bits());
        assert_eq!(back.name(), sos.name());
    }

    #[test]
    fn an_explicit_beta_is_never_remembered() {
        let (w, speeds) = pow2_hypercube();
        let sos = Sos::new(
            Arc::clone(&w),
            &speeds,
            AlphaScheme::MaxDegreePlusOne,
            1.234_567,
        )
        .unwrap();
        let optimal =
            Sos::with_optimal_beta(Arc::clone(&w), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let [(to_d1, d1), _] = two_swaps(&w);
        let at_d1 = sos.patched(Arc::clone(&d1), &to_d1).unwrap();
        let (back, n) = estimates(|| at_d1.patched(Arc::clone(&w), &d1.delta_to(&w).unwrap()));
        assert_eq!(n, 1, "the explicit β is not an estimate on W");
        assert_eq!(back.unwrap().beta().to_bits(), optimal.beta().to_bits());
    }

    #[test]
    fn a_dropped_topology_never_matches() {
        let (w, speeds) = pow2_hypercube();
        let [(to_d1, d1), _] = two_swaps(&w);
        let sos = Sos::with_optimal_beta(Arc::clone(&d1), &speeds, AlphaScheme::MaxDegreePlusOne)
            .unwrap();
        let at_w = sos
            .patched(Arc::clone(&w), &d1.delta_to(&w).unwrap())
            .unwrap();
        // D1 is remembered weakly: once its last handle goes, so does the
        // entry, and a graph equal to it is estimated afresh.
        drop((sos, d1));
        assert!(at_w
            .memo
            .as_ref()
            .is_some_and(|e| e.graph.upgrade().is_none()));
        let d1_again = Arc::new(w.apply_delta(&to_d1).unwrap());
        let (again, n) = estimates(|| at_w.patched(d1_again, &to_d1));
        assert_eq!(n, 1);
        assert!(again.is_ok());
    }

    #[test]
    fn an_equal_but_distinct_graph_is_estimated_to_the_same_beta() {
        let (w, speeds) = pow2_hypercube();
        let sos =
            Sos::with_optimal_beta(Arc::clone(&w), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let [(to_d1, d1), _] = two_swaps(&w);
        let at_d1 = sos.patched(Arc::clone(&d1), &to_d1).unwrap();
        let copy = Arc::new(Graph::clone(&w));
        let (back, n) = estimates(|| at_d1.patched(copy, &d1.delta_to(&w).unwrap()));
        assert_eq!(n, 1, "another Arc is another topology to the memo");
        assert_eq!(back.unwrap().beta().to_bits(), sos.beta().to_bits());
    }

    #[test]
    fn an_engine_built_on_its_epoch_and_restored_estimates_once() {
        use crate::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
        use crate::InitialLoad;

        let (w, speeds) = pow2_hypercube();
        let n = w.node_count();
        let sos = |graph| Sos::with_optimal_beta(graph, &speeds, AlphaScheme::MaxDegreePlusOne);
        let fifo = TaskPicker::Fifo;
        let load = InitialLoad::from_token_counts((0..n as u64).map(|i| i % 7 * 3).collect());
        let mut run =
            FlowImitation::new(sos(Arc::clone(&w)).unwrap(), &load, speeds.clone(), fifo).unwrap();
        run.run(5);
        // The run moves to D1, a topology it was not built on, and goes on.
        let [(to_d1, d1), _] = two_swaps(&w);
        let at_d1 = run.continuous().process().patched(Arc::clone(&d1), &to_d1);
        run.replace_topology(at_d1.unwrap()).unwrap();
        run.run(5);
        let state = run.capture();
        // A resume builds on D1 itself with empty holdings: one estimate,
        // for D1, and the restore re-estimates nothing.
        let empty = InitialLoad::from_token_counts(vec![0; n]);
        let (resumed, count) = estimates(|| {
            let mut resumed =
                FlowImitation::new(sos(Arc::clone(&d1)).unwrap(), &empty, speeds.clone(), fifo)
                    .unwrap();
            resumed.restore(&state).unwrap();
            resumed
        });
        assert_eq!(count, 1);
        let mut resumed = resumed;
        assert_eq!(resumed.capture(), state);
        run.run(5);
        resumed.run(5);
        assert_eq!(resumed.capture(), run.capture());
    }

    #[test]
    fn sos_conserves_total_load() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let sos = Sos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne, 1.7).unwrap();
        let initial: Vec<f64> = (0..16).map(|i| (i % 4) as f64 * 5.0).collect();
        let total: f64 = initial.iter().sum();
        let mut runner = ContinuousRunner::new(sos, initial);
        runner.run(200);
        assert!((runner.loads().iter().sum::<f64>() - total).abs() < 1e-6);
    }

    #[test]
    fn sos_name_mentions_beta() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let sos = Sos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne, 1.5).unwrap();
        assert!(sos.name().contains("1.5"));
    }
}
