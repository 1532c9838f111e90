//! Second-order diffusion (SOS), Muthukrishnan–Ghosh–Schultz style, with
//! speeds.

use super::fos::KERNEL_LANES;
use super::{ContinuousProcess, EdgeFlow, Fos};
use crate::error::CoreError;
use crate::task::Speeds;
use lb_graph::{AlphaScheme, Graph, GraphDelta, PowerIterationOptions};
use std::sync::Arc;

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
    /// The graph, matrix and speeds, and the kernel of an epoch's first
    /// round, before there is a `y(t−1)` to relax.
    fos: Fos,
    beta: f64,
    /// Flows of the previous round, pre-sized to the edge count; only valid
    /// once `has_previous` is set. Kept flat (not `Option<Vec>`) so the
    /// kernel never allocates.
    previous: Vec<EdgeFlow>,
    has_previous: bool,
    name: String,
    /// The unit vector the estimate behind β converged to, the warm start
    /// of the next estimate along a chain of patches; empty when β was
    /// given to [`Sos::new`].
    basis: Vec<f64>,
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
        if !valid_beta(beta) {
            return Err(CoreError::invalid_parameter(format!(
                "beta must be in (0, 2], got {beta}"
            )));
        }
        let fos = Fos::new(graph, speeds, scheme)?;
        Ok(Sos::relaxing(fos, beta, Vec::new()))
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
        let fos = Fos::new(graph, speeds, scheme)?;
        let (beta, basis) = optimal_beta(&fos, &[]);
        Ok(Sos::relaxing(fos, beta, basis))
    }

    /// The process that relaxes `fos` with `beta`, with no history yet.
    fn relaxing(fos: Fos, beta: f64, basis: Vec<f64>) -> Self {
        let m = fos.graph().edge_count();
        Sos {
            fos,
            beta,
            previous: vec![EdgeFlow::default(); m],
            has_previous: false,
            name: format!("sos(beta={beta:.3})"),
            basis,
        }
    }

    /// The relaxation parameter `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The process on `new_graph`, this process's graph with `delta`
    /// applied. The FOS part follows [`Fos::patched`]: an empty delta
    /// copies the matrix, any other builds it afresh. β follows the delta:
    ///
    /// - an **empty** delta leaves the matrix unchanged, so β and its basis
    ///   are kept and the spectral estimate, the dominant cost of a
    ///   same-family rewire, is skipped;
    /// - any other delta re-estimates β by power iteration started from the
    ///   basis, the vector the previous estimate converged to. This warm
    ///   start takes a fraction of a cold start's iterations. A process
    ///   whose β was given to [`Sos::new`] has no basis and starts cold.
    ///
    /// A warm estimate agrees closely with a cold one on the same graph
    /// (λ within 1e-6 in a seeded property test over random delta chains),
    /// but not to the bit: β depends on the chain of patches that led to
    /// the graph. Power iteration is seed-free and
    /// deterministic, so patching along the same chain always gives the
    /// same bits, and a snapshot carries β and the basis
    /// ([`ContinuousProcess::capture_history`]) so a resume continues the
    /// chain.
    ///
    /// The relaxation history resets, mirroring the full-rebuild churn path:
    /// a topology epoch boundary invalidates `y(t−1)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Graph`] where [`Fos::patched`] does.
    pub fn patched(&self, new_graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError> {
        let fos = self.fos.patched(new_graph, delta)?;
        let (beta, basis) = if delta.is_empty() {
            (self.beta, self.basis.clone())
        } else {
            optimal_beta(&fos, &self.basis)
        };
        Ok(Sos::relaxing(fos, beta, basis))
    }
}

/// Whether `beta` is a valid relaxation parameter: in `(0, 2]`, so neither
/// NaN nor infinite.
fn valid_beta(beta: f64) -> bool {
    beta > 0.0 && beta <= 2.0
}

/// `β = 2/(1 + √(1 − λ²))` with `λ` estimated by power iteration from
/// `start` (a cold start when it is empty), and the vector the estimate
/// converged to: the one formula behind [`Sos::with_optimal_beta`] and
/// [`Sos::patched`].
fn optimal_beta(fos: &Fos, start: &[f64]) -> (f64, Vec<f64>) {
    let estimate = lb_graph::spectral::second_eigenvalue(
        fos.graph(),
        fos.matrix(),
        start,
        PowerIterationOptions::default(),
    );
    #[cfg(test)]
    tests::ESTIMATES.with(|log| {
        log.borrow_mut()
            .push((!start.is_empty(), estimate.iterations))
    });
    let lambda = estimate.lambda;
    let beta = 2.0 / (1.0 + (1.0 - lambda * lambda).max(0.0).sqrt());
    (beta, estimate.vector)
}

impl ContinuousProcess for Sos {
    fn name(&self) -> &str {
        &self.name
    }

    fn graph(&self) -> &Graph {
        self.fos.graph()
    }

    fn shared_graph(&self) -> Arc<Graph> {
        self.fos.shared_graph()
    }

    fn speeds(&self) -> &[f64] {
        self.fos.speeds()
    }

    // lint: zero-alloc
    fn compute_flows_into(&mut self, t: usize, x: &[f64], out: &mut [EdgeFlow]) {
        self.compute_flows_range(t, x, 0..self.graph().edge_count(), out);
        self.commit_flows(t, out);
    }

    fn supports_sharding(&self) -> bool {
        true
    }

    /// The first round of an epoch has no `y(t−1)` and is the FOS kernel.
    /// Every later round runs the relaxation in the FOS kernel's
    /// struct-of-arrays shape, with the history gathered alongside the
    /// loads. Per-edge float-op order matches the scalar loop
    /// (`(β−1)·y_prev + β·(α·x_u/s_u)`), so flows are bit-identical.
    // lint: zero-alloc
    fn compute_flows_range(
        &self,
        t: usize,
        x: &[f64],
        edges: std::ops::Range<usize>,
        out: &mut [EdgeFlow],
    ) {
        if !self.has_previous {
            return self.fos.compute_flows_range(t, x, edges, out);
        }
        const LANES: usize = KERNEL_LANES;
        let pairs = &self.graph().edges()[edges.clone()];
        let alphas = &self.fos.matrix().alphas()[edges.clone()];
        let speeds = self.speeds();
        let prev = &self.previous[edges];
        let beta = self.beta;
        let carry = self.beta - 1.0;
        let mut xu = [0.0f64; LANES];
        let mut su = [0.0f64; LANES];
        let mut xv = [0.0f64; LANES];
        let mut sv = [0.0f64; LANES];
        let mut pf = [0.0f64; LANES];
        let mut pb = [0.0f64; LANES];
        let mut fu = [0.0f64; LANES];
        let mut fv = [0.0f64; LANES];
        let mut k = 0usize;
        for (pair_chunk, (alpha_chunk, prev_chunk)) in pairs
            .chunks_exact(LANES)
            .zip(alphas.chunks_exact(LANES).zip(prev.chunks_exact(LANES)))
        {
            for (i, &(u, v)) in pair_chunk.iter().enumerate() {
                xu[i] = x[u];
                su[i] = speeds[u];
                xv[i] = x[v];
                sv[i] = speeds[v];
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
            let fos_forward = alpha * x[u] / speeds[u];
            let fos_backward = alpha * x[v] / speeds[v];
            out[k + i] = EdgeFlow::new(
                carry * prev[k + i].forward + beta * fos_forward,
                carry * prev[k + i].backward + beta * fos_backward,
            );
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
            basis: self.basis.clone(),
            previous: self.previous.clone(),
            has_previous: self.has_previous,
        })
    }

    /// Restores the relaxation history, β and its basis into a freshly
    /// built process on the snapshot's topology. β is taken from the
    /// snapshot, not re-estimated: it depends on the chain of patches the
    /// captured process followed ([`Sos::patched`]), which the basis lets a
    /// resume continue.
    fn restore_history(
        &mut self,
        history: &crate::snapshot::ProcessHistory,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        if !valid_beta(history.beta) {
            return Err(SnapshotError::mismatch(format!(
                "snapshot β = {} is outside (0, 2]",
                history.beta
            )));
        }
        let n = self.graph().node_count();
        if !history.basis.is_empty() && history.basis.len() != n {
            return Err(SnapshotError::mismatch(format!(
                "snapshot β basis has {} entries, graph has {n} nodes",
                history.basis.len()
            )));
        }
        if history.previous.len() != self.previous.len() {
            return Err(SnapshotError::mismatch(format!(
                "snapshot SOS history has {} edges, graph has {}",
                history.previous.len(),
                self.previous.len()
            )));
        }
        self.beta = history.beta;
        self.name = format!("sos(beta={:.3})", self.beta);
        self.basis.clone_from(&history.basis);
        self.previous.copy_from_slice(&history.previous);
        self.has_previous = history.has_previous;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::ContinuousRunner;
    use lb_graph::generators;
    use std::cell::RefCell;

    thread_local! {
        /// The power iterations run on this thread (tests run one per
        /// thread): whether each was warm-started, and its iterations.
        pub(super) static ESTIMATES: RefCell<Vec<(bool, usize)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// The power iterations `f` runs, as `(warm, iterations)` pairs.
    fn estimates<T>(f: impl FnOnce() -> T) -> (T, Vec<(bool, usize)>) {
        let before = ESTIMATES.with(|log| log.borrow().len());
        let value = f();
        (value, ESTIMATES.with(|log| log.borrow()[before..].to_vec()))
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
        pow2_hypercube_of(6)
    }

    /// The fixture's speed pattern on `Q_dim`.
    fn pow2_hypercube_of(dim: u32) -> (Arc<Graph>, Speeds) {
        let g = generators::hypercube(dim).unwrap();
        let speeds = Speeds::new((0..g.node_count()).map(|i| 1u64 << (i % 3)).collect()).unwrap();
        (Arc::new(g), speeds)
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
    fn patched_beta_is_near_a_cold_rebuild_and_repeats_bit_for_bit() {
        let (g, speeds) = pow2_hypercube();
        let sos =
            Sos::with_optimal_beta(Arc::clone(&g), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Swap two cube edges for two chords.
        let delta = GraphDelta::new(g.node_count(), [(0, 3), (9, 54)], [(0, 1), (8, 9)]).unwrap();
        let new_graph = Arc::new(g.apply_delta(&delta).unwrap());
        let patched = sos.patched(Arc::clone(&new_graph), &delta).unwrap();
        let again = sos.patched(Arc::clone(&new_graph), &delta).unwrap();
        let rebuilt =
            Sos::with_optimal_beta(new_graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        assert!(
            (patched.beta() - rebuilt.beta()).abs() <= 1e-6,
            "warm β {} vs cold β {}",
            patched.beta(),
            rebuilt.beta()
        );
        assert_ne!(patched.beta().to_bits(), sos.beta().to_bits());
        assert_eq!(patched.beta().to_bits(), again.beta().to_bits());
        assert_eq!(patched.capture_history(), again.capture_history());
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
        let (patched, log) = estimates(|| sos.patched(Arc::clone(&g), &GraphDelta::default()));
        assert!(log.is_empty());
        assert_eq!(patched.unwrap().beta().to_bits(), beta.to_bits());
        // With no basis to start from, a real delta estimates cold.
        let [(to_d1, d1), _] = two_swaps(&g);
        let (_, log) = estimates(|| sos.patched(d1, &to_d1).unwrap());
        assert!(matches!(log[..], [(false, _)]), "{log:?}");
    }

    /// A delta chain W → D1 → W → D2 → W estimates cold once, at the build,
    /// and then warm-starts each real delta from the previous basis. How
    /// much a warm start saves grows with the graph: a one-edge swap moves
    /// the eigenvector of a larger cube less. On the Q6 fixture every warm
    /// estimate is still cheaper than the cold one; from Q11 on each takes
    /// at most a quarter of its iterations (Q13, the `churn_sos` cube: 27,
    /// 12, 22 and 15 against 423).
    #[test]
    fn a_delta_chain_estimates_cold_once_then_warm_from_the_basis() {
        // (dimension, how many times cheaper each warm estimate must be)
        for (dim, saving) in [(6, 1), (11, 4)] {
            let (w, speeds) = pow2_hypercube_of(dim);
            let scheme = AlphaScheme::MaxDegreePlusOne;
            let [(to_d1, d1), (to_d2, d2)] = two_swaps(&w);
            let (back, log) = estimates(|| {
                let sos = Sos::with_optimal_beta(Arc::clone(&w), &speeds, scheme).unwrap();
                let at_d1 = sos.patched(Arc::clone(&d1), &to_d1).unwrap();
                let at_w = at_d1.patched(Arc::clone(&w), &d1.delta_to(&w).unwrap());
                let at_d2 = at_w.unwrap().patched(Arc::clone(&d2), &to_d2).unwrap();
                at_d2
                    .patched(Arc::clone(&w), &d2.delta_to(&w).unwrap())
                    .unwrap()
            });
            let [(false, cold), warm @ ..] = &log[..] else {
                panic!("Q{dim}: the build must estimate cold first: {log:?}");
            };
            assert_eq!(warm.len(), 4, "Q{dim}: {log:?}");
            for &(is_warm, iterations) in warm {
                assert!(is_warm && saving * iterations < *cold, "Q{dim}: {log:?}");
            }
            let cold_w = Sos::with_optimal_beta(Arc::clone(&w), &speeds, scheme).unwrap();
            assert!((back.beta() - cold_w.beta()).abs() <= 1e-6, "Q{dim}");
        }
    }

    #[test]
    fn patched_rejects_an_empty_delta_onto_another_shape() {
        let speeds = Speeds::uniform(6);
        let cycle = generators::cycle(6).unwrap();
        let sos = Sos::with_optimal_beta(cycle, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        for other in [generators::path(6).unwrap(), generators::cycle(8).unwrap()] {
            let result = sos.patched(Arc::new(other), &GraphDelta::default());
            assert!(matches!(result, Err(CoreError::Graph(_))), "{result:?}");
        }
    }

    #[test]
    fn an_engine_restored_on_its_epoch_makes_no_estimate() {
        use crate::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
        use crate::InitialLoad;

        let (w, speeds) = pow2_hypercube();
        let n = w.node_count();
        let scheme = AlphaScheme::MaxDegreePlusOne;
        let fifo = TaskPicker::Fifo;
        let load = InitialLoad::from_token_counts((0..n as u64).map(|i| i % 7 * 3).collect());
        let sos = Sos::with_optimal_beta(Arc::clone(&w), &speeds, scheme).unwrap();
        let mut run = FlowImitation::new(sos, &load, speeds.clone(), fifo).unwrap();
        run.run(5);
        // The run moves to D1, where β comes from a warm estimate, and goes on.
        let [(to_d1, d1), _] = two_swaps(&w);
        let at_d1 = run.continuous().process().patched(Arc::clone(&d1), &to_d1);
        run.replace_topology(at_d1.unwrap()).unwrap();
        run.run(5);
        let state = run.capture();
        // A resume builds on D1 itself with empty holdings and any β: the
        // restore takes β and its basis from the snapshot, so nothing is
        // estimated.
        let empty = InitialLoad::from_token_counts(vec![0; n]);
        let (resumed, log) = estimates(|| {
            let sos = Sos::new(Arc::clone(&d1), &speeds, scheme, 1.0).unwrap();
            let mut resumed = FlowImitation::new(sos, &empty, speeds.clone(), fifo).unwrap();
            resumed.restore(&state).unwrap();
            resumed
        });
        assert!(log.is_empty(), "{log:?}");
        let mut resumed = resumed;
        assert_eq!(resumed.capture(), state);
        assert_eq!(resumed.name(), run.name());
        // The next delta warm-starts from the carried basis in both.
        let back = d1.delta_to(&w).unwrap();
        for engine in [&mut run, &mut resumed] {
            let at_w = engine.continuous().process().patched(Arc::clone(&w), &back);
            engine.replace_topology(at_w.unwrap()).unwrap();
            engine.run(5);
        }
        assert_eq!(resumed.capture(), run.capture());
    }

    #[test]
    fn restoring_an_invalid_beta_or_basis_is_a_mismatch() {
        use crate::snapshot::SnapshotError;
        let (g, speeds) = pow2_hypercube();
        let sos =
            Sos::with_optimal_beta(Arc::clone(&g), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let good = sos.capture_history().unwrap();
        let n = g.node_count();
        let mut bad = Vec::new();
        for beta in [0.0, -1.0, 2.5, f64::NAN, f64::INFINITY] {
            bad.push(crate::snapshot::ProcessHistory {
                beta,
                ..good.clone()
            });
        }
        for len in [1, n - 1, n + 1] {
            let basis = vec![0.5; len];
            bad.push(crate::snapshot::ProcessHistory {
                basis,
                ..good.clone()
            });
        }
        for history in bad {
            let mut target = sos.clone();
            match target.restore_history(&history) {
                Err(SnapshotError::Mismatch { .. }) => {}
                other => panic!(
                    "β {} basis {}: {other:?}",
                    history.beta,
                    history.basis.len()
                ),
            }
        }
        // No basis is valid: the next real delta estimates cold.
        let mut target = sos.clone();
        let unestimated = crate::snapshot::ProcessHistory {
            basis: Vec::new(),
            ..good
        };
        target.restore_history(&unestimated).unwrap();
        assert_eq!(target.capture_history(), Some(unestimated));
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
