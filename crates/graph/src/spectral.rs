//! Spectral quantities used in convergence-time estimates.
//!
//! The continuous first-order diffusion balances in
//! `T = O(log(K·n) / (1 − λ))` rounds, where `λ` is the second-largest
//! eigenvalue (in absolute value) of the diffusion matrix `P`, and the
//! random-matching process balances in `O(d · log(K·n) / γ)` rounds, where
//! `γ` is the second-smallest eigenvalue of the graph Laplacian. This module
//! computes `λ` and `γ` with deflated power iteration — no external linear
//! algebra dependency is required at the experiment scales used here.

use crate::graph::Graph;
use crate::matrix::DiffusionMatrix;

/// Options controlling the power-iteration routines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerIterationOptions {
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the eigenvalue estimate between iterations.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iterations: 20_000,
            tolerance: 1e-10,
        }
    }
}

/// A `λ` estimate together with the power iteration's final state.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaEstimate {
    /// `λ`, in `[0, 1]`.
    pub lambda: f64,
    /// The unit iterate `λ` was read from, orthogonal to the top
    /// eigenvector: a start vector for the next estimate on a nearby graph
    /// with the same speeds. Empty when there is none (a single node, or a
    /// deflated spectrum that is numerically zero).
    pub vector: Vec<f64>,
    /// Power-iteration steps taken, each one `M²` product.
    pub iterations: usize,
}

/// Estimates `λ`, the second-largest eigenvalue *in absolute value* of the
/// diffusion matrix `P`, by power iteration from `start`.
///
/// The matrix `P` with heterogeneous speeds is similar to the symmetric
/// matrix `M[i][j] = α[i][j] / √(s_i · s_j)` (with the same diagonal), whose
/// top eigenvector is `(√s_1, …, √s_n)` with eigenvalue 1. We deflate that
/// eigenvector and run power iteration on `M²` (so that eigenvalues `±λ` of
/// equal magnitude — e.g. on bipartite graphs — do not cause oscillation);
/// the dominant value of the deflated `M²` is `λ²`.
///
/// `start` is the first iterate, before deflation and normalisation. Pass
/// the [`LambdaEstimate::vector`] of an estimate on a nearby graph to warm
/// start: the iteration then needs a fraction of a cold start's steps. A
/// `start` of the wrong length (e.g. empty), or one with nothing left once
/// the top eigenvector is projected away, is replaced by a fixed generic
/// vector: the cold start, whose result depends on the graph and matrix
/// alone.
///
/// # Cost
///
/// O(n + m) per iteration: two applications of `M` (one `M²` product), with
/// the m couplings `α[e] / √(s_u · s_w)` computed once per call and three
/// n-vectors reused, so the loop does not allocate. The `M²` product at an
/// iteration's new unit vector gives its Rayleigh quotient and is also the
/// next iteration's product, so it is computed once. Every float operation
/// and summation order is the same as computing it twice, so the result is
/// bit-identical.
///
/// # Panics
///
/// Panics if the matrix was built for a graph with fewer edges or nodes, or
/// the graph is empty.
pub fn second_eigenvalue(
    graph: &Graph,
    matrix: &DiffusionMatrix,
    start: &[f64],
    options: PowerIterationOptions,
) -> LambdaEstimate {
    let n = graph.node_count();
    assert!(n > 0, "second_eigenvalue requires a non-empty graph");
    let done = |lambda: f64, vector, iterations| LambdaEstimate {
        lambda,
        vector,
        iterations,
    };
    if n == 1 {
        return done(0.0, Vec::new(), 0);
    }
    let speeds = matrix.speeds();
    // Top eigenvector of the symmetrised matrix, normalised.
    let mut top: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
    normalize(&mut top);

    // The symmetrised matrix's per-edge couplings, computed once per call.
    let couplings: Vec<f64> = graph
        .edges()
        .iter()
        .enumerate()
        .map(|(e, &(u, w))| matrix.alpha(e) / (speeds[u] * speeds[w]).sqrt())
        .collect();
    // `out = M v`: the diagonal term first (`0.0 +` turns a `-0.0` product
    // into `+0.0`, as accumulating into a zeroed vector would), then the
    // edges in edge-list order.
    let sym_apply = |v: &[f64], out: &mut [f64]| {
        for (i, o) in out.iter_mut().enumerate() {
            *o = 0.0 + matrix.diagonal(i) * v[i];
        }
        for (&(u, w), c) in graph.edges().iter().zip(&couplings) {
            out[u] += c * v[w];
            out[w] += c * v[u];
        }
    };
    // One iteration step: `out = M² v` with the top eigenvector projected
    // away.
    let step = |v: &[f64], out: &mut [f64], scratch: &mut [f64]| {
        sym_apply(v, scratch);
        sym_apply(scratch, out);
        deflate(out, &top);
    };

    let mut v = start_vector(start, &top);
    let mut scratch = vec![0.0; n];
    let mut product = vec![0.0; n];
    step(&v, &mut product, &mut scratch);

    let mut estimate_sq = 0.0;
    for iteration in 1..=options.max_iterations {
        // `product` holds M²v (deflated); normalised, it is the next iterate.
        let norm = l2_norm(&product);
        if norm < 1e-15 {
            // The deflated spectrum is numerically zero.
            return done(0.0, Vec::new(), iteration);
        }
        for x in &mut product {
            *x /= norm;
        }
        // `v` is spent: it receives M² at the new unit vector, which is the
        // Rayleigh product now and the next iteration's M²v after the swap.
        step(&product, &mut v, &mut scratch);
        // Rayleigh quotient of M^2 at the current unit vector: converges to
        // lambda^2 monotonically from below for power iteration.
        let rayleigh_sq: f64 = dot(&product, &v).max(0.0);
        if (rayleigh_sq - estimate_sq).abs() < options.tolerance {
            return done(rayleigh_sq.sqrt().clamp(0.0, 1.0), product, iteration);
        }
        estimate_sq = rayleigh_sq;
        std::mem::swap(&mut v, &mut product);
    }
    // The budget ran out: `v` holds the last unit iterate.
    done(
        estimate_sq.sqrt().clamp(0.0, 1.0),
        v,
        options.max_iterations,
    )
}

/// The first unit iterate of [`second_eigenvalue`]: `start` with the top
/// eigenvector `top` projected away, or the generic cold start when `start`
/// has the wrong length or (numerically) nothing orthogonal to `top`.
fn start_vector(start: &[f64], top: &[f64]) -> Vec<f64> {
    if start.len() == top.len() {
        let mut v = start.to_vec();
        let before = l2_norm(&v);
        deflate(&mut v, top);
        // Also false for a start holding NaN or an infinity.
        if l2_norm(&v) > 1e-9 * before {
            normalize(&mut v);
            return v;
        }
    }
    // Deterministic, generic start vector; deflation removes the top
    // component before iterating.
    let mut v: Vec<f64> = (0..top.len())
        .map(|i| ((i as f64) * 0.754_877_666 + 0.1).sin())
        .collect();
    deflate(&mut v, top);
    normalize(&mut v);
    v
}

/// Estimates `γ`, the second-smallest eigenvalue of the graph Laplacian
/// `L = D − A` (the algebraic connectivity).
///
/// Uses power iteration on `c·I − L` with `c = 2·d_max + 1 ≥ λ_max(L)`,
/// deflating the all-ones vector (the eigenvector of `L` for eigenvalue 0).
/// The dominant eigenvalue of the deflated operator is `c − γ`.
///
/// Costs O(n + m) per iteration: one application of `c·I − L`, whose result
/// at the new unit vector is both the Rayleigh product and, once deflated,
/// the next iterate (reused, not recomputed, so the bits are unchanged).
///
/// Returns 0.0 for disconnected graphs (up to numerical tolerance).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn laplacian_gap(graph: &Graph, options: PowerIterationOptions) -> f64 {
    let n = graph.node_count();
    assert!(n > 0, "laplacian_gap requires a non-empty graph");
    if n == 1 {
        return 0.0;
    }
    let c = 2.0 * graph.max_degree() as f64 + 1.0;
    let ones = {
        let mut v = vec![1.0; n];
        normalize(&mut v);
        v
    };
    let apply = |v: &[f64], out: &mut [f64]| {
        // (c I - L) v = c v - D v + A v
        for (i, o) in out.iter_mut().enumerate() {
            *o = (c - graph.degree(i) as f64) * v[i];
        }
        for &(u, w) in graph.edges() {
            out[u] += v[w];
            out[w] += v[u];
        }
    };
    let mut v: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 1.234_567 + 0.37).cos())
        .collect();
    deflate(&mut v, &ones);
    normalize(&mut v);
    let mut product = vec![0.0; n];
    apply(&v, &mut product);
    let mut estimate = 0.0;
    for _ in 0..options.max_iterations {
        // `product` holds (c I - L) v; deflated and normalised, it is the
        // next iterate.
        deflate(&mut product, &ones);
        let norm = l2_norm(&product);
        if norm < 1e-300 {
            return c;
        }
        for x in &mut product {
            *x /= norm;
        }
        apply(&product, &mut v);
        let rayleigh = dot(&product, &v);
        if (rayleigh - estimate).abs() < options.tolerance {
            return (c - rayleigh).max(0.0);
        }
        estimate = rayleigh;
        std::mem::swap(&mut v, &mut product);
    }
    (c - estimate).max(0.0)
}

/// Estimated balancing time of continuous FOS: `⌈log(K·n) / (1 − λ)⌉`, where
/// `K` is the initial discrepancy. Returns at least 1.
///
/// This is the quantity `T` used throughout the paper; the engine uses it as
/// a default horizon when an explicit round budget is not given.
pub fn estimate_fos_balancing_time(lambda: f64, initial_discrepancy: f64, n: usize) -> usize {
    let lambda = lambda.clamp(0.0, 1.0 - 1e-9);
    let k = initial_discrepancy.max(1.0);
    let t = ((k * n as f64).ln() / (1.0 - lambda)).ceil();
    (t as usize).max(1)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn l2_norm(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

fn normalize(v: &mut [f64]) {
    let norm = l2_norm(v);
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Removes the component of `v` along the (unit-norm) direction `dir`.
fn deflate(v: &mut [f64], dir: &[f64]) {
    let proj = dot(v, dir);
    for (x, d) in v.iter_mut().zip(dir) {
        *x -= proj * d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::GraphDelta;
    use crate::matrix::AlphaScheme;

    /// The power iterations as first written: every application allocates,
    /// recomputes its couplings, and the Rayleigh product is computed again
    /// as the next iteration's step. The oracle for bit-identity.
    fn reference_second_eigenvalue(
        graph: &Graph,
        matrix: &DiffusionMatrix,
        options: PowerIterationOptions,
    ) -> f64 {
        let n = graph.node_count();
        if n == 1 {
            return 0.0;
        }
        let speeds = matrix.speeds();
        let mut top: Vec<f64> = speeds.iter().map(|s| s.sqrt()).collect();
        normalize(&mut top);
        let sym_apply = |v: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n];
            for i in 0..n {
                out[i] += matrix.diagonal(i) * v[i];
            }
            for (e, &(u, w)) in graph.edges().iter().enumerate() {
                let coupling = matrix.alpha(e) / (speeds[u] * speeds[w]).sqrt();
                out[u] += coupling * v[w];
                out[w] += coupling * v[u];
            }
            out
        };
        let step = |v: &[f64]| -> Vec<f64> {
            let mut out = sym_apply(&sym_apply(v));
            deflate(&mut out, &top);
            out
        };
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 0.754_877_666 + 0.1).sin())
            .collect();
        deflate(&mut v, &top);
        normalize(&mut v);
        let mut estimate_sq = 0.0;
        for _ in 0..options.max_iterations {
            let mut next = step(&v);
            let norm = l2_norm(&next);
            if norm < 1e-15 {
                return 0.0;
            }
            for x in &mut next {
                *x /= norm;
            }
            let rayleigh_sq: f64 = dot(&next, &step(&next)).max(0.0);
            if (rayleigh_sq - estimate_sq).abs() < options.tolerance {
                return rayleigh_sq.sqrt().clamp(0.0, 1.0);
            }
            estimate_sq = rayleigh_sq;
            v = next;
        }
        estimate_sq.sqrt().clamp(0.0, 1.0)
    }

    /// [`laplacian_gap`] as first written (see the λ reference above).
    fn reference_laplacian_gap(graph: &Graph, options: PowerIterationOptions) -> f64 {
        let n = graph.node_count();
        if n == 1 {
            return 0.0;
        }
        let c = 2.0 * graph.max_degree() as f64 + 1.0;
        let ones = {
            let mut v = vec![1.0; n];
            normalize(&mut v);
            v
        };
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut out: Vec<f64> = (0..n)
                .map(|i| (c - graph.degree(i) as f64) * v[i])
                .collect();
            for &(u, w) in graph.edges() {
                out[u] += v[w];
                out[w] += v[u];
            }
            out
        };
        let mut v: Vec<f64> = (0..n)
            .map(|i| ((i as f64) * 1.234_567 + 0.37).cos())
            .collect();
        deflate(&mut v, &ones);
        normalize(&mut v);
        let mut estimate = 0.0;
        for _ in 0..options.max_iterations {
            let mut next = apply(&v);
            deflate(&mut next, &ones);
            let norm = l2_norm(&next);
            if norm < 1e-300 {
                return c;
            }
            for x in &mut next {
                *x /= norm;
            }
            let rayleigh = dot(&next, &apply(&next));
            if (rayleigh - estimate).abs() < options.tolerance {
                return (c - rayleigh).max(0.0);
            }
            estimate = rayleigh;
            v = next;
        }
        (c - estimate).max(0.0)
    }

    /// Every graph of the oracle corpus with its diffusion matrix: uniform
    /// and heterogeneous speeds, bipartite and odd cycles, a graph whose
    /// deflated spectrum is zero, a bottleneck, a single node, and a
    /// hypercube rewired by a non-empty delta.
    fn oracle_corpus() -> Vec<(&'static str, Graph, DiffusionMatrix)> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let uniform = |name, g: Graph| {
            let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
            (name, g, p)
        };
        let q7 = generators::hypercube(7).unwrap();
        let pow2: Vec<f64> = (0..q7.node_count())
            .map(|i| f64::from(1u32 << (i % 3)))
            .collect();
        let q7_pow2 = DiffusionMatrix::new(&q7, &pow2, AlphaScheme::MaxDegreePlusOne).unwrap();

        let old = generators::hypercube(5).unwrap();
        let speeds: Vec<f64> = (0..old.node_count())
            .map(|i| 1.0 + (i % 4) as f64 * 0.5)
            .collect();
        let delta = GraphDelta::new(old.node_count(), [(0, 3), (5, 30)], [(0, 1), (4, 6)]).unwrap();
        let new = old.apply_delta(&delta).unwrap();
        let p_new = DiffusionMatrix::new(&new, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        vec![
            ("hypercube(7) pow2 speeds", q7, q7_pow2),
            uniform("torus(8,8)", generators::torus(8, 8).unwrap()),
            uniform("cycle(9)", generators::cycle(9).unwrap()),
            uniform("cycle(12)", generators::cycle(12).unwrap()),
            uniform(
                "random_regular(64,6)",
                generators::random_regular(64, 6, &mut rng).unwrap(),
            ),
            uniform("complete(8)", generators::complete(8).unwrap()),
            uniform("barbell(8,2)", generators::barbell(8, 2).unwrap()),
            uniform("single node", Graph::from_edges(1, []).unwrap()),
            ("rewired hypercube(5)", new, p_new),
        ]
    }

    #[test]
    fn estimates_are_bit_identical_to_the_reference() {
        let budgets = [
            PowerIterationOptions::default(),
            // Exhausts the budget: the return after the loop.
            PowerIterationOptions {
                max_iterations: 3,
                tolerance: 1e-10,
            },
        ];
        for (name, g, p) in oracle_corpus() {
            for options in budgets {
                let lambda = second_eigenvalue(&g, &p, &[], options).lambda;
                let expected = reference_second_eigenvalue(&g, &p, options);
                assert_eq!(
                    lambda.to_bits(),
                    expected.to_bits(),
                    "{name}, {options:?}: lambda {lambda} vs reference {expected}"
                );
                let gamma = laplacian_gap(&g, options);
                let expected = reference_laplacian_gap(&g, options);
                assert_eq!(
                    gamma.to_bits(),
                    expected.to_bits(),
                    "{name}, {options:?}: gamma {gamma} vs reference {expected}"
                );
            }
        }
    }

    fn lambda_of(graph: &Graph) -> f64 {
        let p = DiffusionMatrix::uniform(graph, AlphaScheme::MaxDegreePlusOne).unwrap();
        second_eigenvalue(graph, &p, &[], PowerIterationOptions::default()).lambda
    }

    /// `graph` with `swaps` random edges replaced by random non-edges.
    fn random_delta(graph: &Graph, swaps: usize, rng: &mut impl rand::Rng) -> GraphDelta {
        let n = graph.node_count();
        let mut remove = Vec::new();
        let mut add = Vec::new();
        while remove.len() < swaps {
            let edge = graph.edges()[rng.gen_range(0..graph.edge_count())];
            if !remove.contains(&edge) {
                remove.push(edge);
            }
        }
        while add.len() < swaps {
            let (u, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let pair = (u.min(w), u.max(w));
            if u != w && !graph.has_edge(u, w) && !add.contains(&pair) {
                add.push(pair);
            }
        }
        GraphDelta::new(n, add, remove).unwrap()
    }

    /// Warm starts along a chain of random deltas: each estimate starts from
    /// the previous graph's converged vector and must agree with a cold
    /// estimate on the same graph. Speeds stay fixed along a chain, as they
    /// do along an SOS process's chain of patches.
    #[test]
    fn warm_starts_along_random_delta_chains_agree_with_cold_estimates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let options = PowerIterationOptions::default();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let families = [
                (
                    "hypercube(7) pow2 speeds",
                    generators::hypercube(7).unwrap(),
                ),
                ("torus(8,12)", generators::torus(8, 12).unwrap()),
                (
                    "random_regular(128,4)",
                    generators::random_regular(128, 4, &mut rng).unwrap(),
                ),
            ];
            for (name, mut graph) in families {
                let n = graph.node_count();
                let speeds: Vec<f64> = if name.contains("pow2") {
                    (0..n)
                        .map(|_| f64::from(1u32 << rng.gen_range(0..3)))
                        .collect()
                } else {
                    vec![1.0; n]
                };
                let scheme = AlphaScheme::MaxDegreePlusOne;
                let matrix = DiffusionMatrix::new(&graph, &speeds, scheme).unwrap();
                let mut basis = second_eigenvalue(&graph, &matrix, &[], options).vector;
                for step in 1..=8 {
                    let delta = random_delta(&graph, rng.gen_range(1..=3), &mut rng);
                    graph = graph.apply_delta(&delta).unwrap();
                    let matrix = DiffusionMatrix::new(&graph, &speeds, scheme).unwrap();
                    let cold = second_eigenvalue(&graph, &matrix, &[], options);
                    let warm = second_eigenvalue(&graph, &matrix, &basis, options);
                    assert!(
                        (warm.lambda - cold.lambda).abs() <= 1e-6,
                        "seed {seed}, {name}, delta {step}: warm λ {} vs cold λ {} \
                         ({} vs {} iterations)",
                        warm.lambda,
                        cold.lambda,
                        warm.iterations,
                        cold.iterations
                    );
                    assert_eq!(warm.vector.len(), n);
                    basis = warm.vector;
                }
            }
        }
    }

    #[test]
    fn a_start_of_the_wrong_length_or_without_a_deflated_part_runs_cold() {
        for (name, g, p) in oracle_corpus() {
            let options = PowerIterationOptions::default();
            let cold = second_eigenvalue(&g, &p, &[], options);
            let n = g.node_count();
            // The top eigenvector (√s, unnormalised) deflates to nothing.
            let top: Vec<f64> = p.speeds().iter().map(|s| s.sqrt()).collect();
            for start in [vec![1.0; n + 1], vec![0.0; n], top, vec![f64::NAN; n]] {
                let estimate = second_eigenvalue(&g, &p, &start, options);
                assert_eq!(estimate, cold, "{name}: start {:?}", &start[..1]);
            }
        }
    }

    #[test]
    fn complete_graph_lambda_matches_closed_form() {
        // For K_n with alpha = 1/n, P = (1 - (n-1)/n) I + (1/n) (J - I)
        // = (1/n) J, except diagonal: P_ii = 1/n. So P = J/n and the spectrum
        // is {1, 0, ..., 0}: lambda = 0.
        let g = generators::complete(8).unwrap();
        let lambda = lambda_of(&g);
        assert!(lambda.abs() < 1e-6, "lambda = {lambda}");
    }

    #[test]
    fn cycle_lambda_matches_closed_form() {
        // Cycle C_n with alpha = 1/3: P = I/3 + A/3, eigenvalues
        // (1 + 2cos(2 pi k / n)) / 3; second largest magnitude is
        // (1 + 2cos(2 pi / n)) / 3 for odd n (no -1 issue).
        let n = 9;
        let g = generators::cycle(n).unwrap();
        let lambda = lambda_of(&g);
        let expected = (1.0 + 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos()) / 3.0;
        assert!(
            (lambda - expected).abs() < 1e-6,
            "lambda = {lambda}, expected {expected}"
        );
    }

    #[test]
    fn even_cycle_negative_branch_is_captured() {
        // For even cycles the most negative eigenvalue is (1 - 2)/3 = -1/3,
        // but the second largest positive one dominates in magnitude, so the
        // result is the same closed form as above.
        let n = 12;
        let g = generators::cycle(n).unwrap();
        let lambda = lambda_of(&g);
        let expected = (1.0 + 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos()) / 3.0;
        assert!((lambda - expected).abs() < 1e-6);
    }

    #[test]
    fn hypercube_lambda_closed_form() {
        // Hypercube Q_d with alpha = 1/(d+1): eigenvalues are
        // 1 - 2k/(d+1) for k = 0..d; the second-largest magnitude is
        // 1 - 2/(d+1).
        let d = 5u32;
        let g = generators::hypercube(d).unwrap();
        let lambda = lambda_of(&g);
        let expected = 1.0 - 2.0 / (d as f64 + 1.0);
        assert!(
            (lambda - expected).abs() < 1e-6,
            "lambda = {lambda}, expected {expected}"
        );
    }

    #[test]
    fn lambda_is_smaller_for_better_expanders() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let expander = generators::random_regular(64, 6, &mut rng).unwrap();
        let ring = generators::cycle(64).unwrap();
        assert!(lambda_of(&expander) < lambda_of(&ring));
    }

    #[test]
    fn laplacian_gap_cycle_closed_form() {
        // gamma(C_n) = 2 - 2 cos(2 pi / n)
        let n = 10;
        let g = generators::cycle(n).unwrap();
        let gamma = laplacian_gap(&g, PowerIterationOptions::default());
        let expected = 2.0 - 2.0 * (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!(
            (gamma - expected).abs() < 1e-6,
            "gamma = {gamma}, expected {expected}"
        );
    }

    #[test]
    fn laplacian_gap_complete_graph() {
        // gamma(K_n) = n
        let g = generators::complete(7).unwrap();
        let gamma = laplacian_gap(&g, PowerIterationOptions::default());
        assert!((gamma - 7.0).abs() < 1e-6, "gamma = {gamma}");
    }

    #[test]
    fn laplacian_gap_barbell_is_small() {
        let barbell = generators::barbell(8, 2).unwrap();
        let expander = generators::complete(18).unwrap();
        let g1 = laplacian_gap(&barbell, PowerIterationOptions::default());
        let g2 = laplacian_gap(&expander, PowerIterationOptions::default());
        assert!(g1 < g2 / 10.0, "barbell gap {g1} vs complete gap {g2}");
    }

    #[test]
    fn balancing_time_estimate_is_monotone_in_lambda() {
        let t_fast = estimate_fos_balancing_time(0.5, 100.0, 64);
        let t_slow = estimate_fos_balancing_time(0.99, 100.0, 64);
        assert!(t_slow > t_fast);
        assert!(estimate_fos_balancing_time(0.0, 1.0, 1) >= 1);
    }

    #[test]
    fn single_node_graph_is_degenerate() {
        let g = Graph::from_edges(1, []).unwrap();
        let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne).unwrap();
        let estimate = second_eigenvalue(&g, &p, &[], PowerIterationOptions::default());
        assert_eq!(estimate.lambda, 0.0);
        assert!(estimate.vector.is_empty());
        assert_eq!(laplacian_gap(&g, PowerIterationOptions::default()), 0.0);
    }
}
