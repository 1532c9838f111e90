//! Algorithm 2 — randomized flow imitation (identical tasks).
//!
//! Like Algorithm 1, the discrete process tracks the cumulative continuous
//! flow of a twin process, but the per-edge flow deficit
//! `Ŷ_e(t) = f^A_e(t) − F^D_e(t−1)` is rounded *randomly*: up with
//! probability equal to its fractional part, down otherwise. Only unit-weight
//! tokens are supported.
//!
//! Each rounding decision draws from an independent sub-RNG derived from the
//! master seed and the `(round, edge)` coordinates
//! ([`edge_rounding_rng`]) rather than consuming one sequential stream.
//! The rounding indicators stay independent across edges and rounds (all the
//! Chernoff-style analysis of Theorem 8 needs), every trajectory remains
//! deterministic per seed, and — because no draw depends on how many draws
//! other edges made — sharded and federated execution
//! ([`RandomizedImitation::step_sharded`],
//! [`RandomizedImitation::step_federated`]) is bit-identical to sequential
//! execution for every shard and part count.
//!
//! Guarantees (Theorem 8): at the continuous balancing time the max-avg
//! discrepancy is `d/4 + O(√(d·log n))` w.h.p.; with initial load at least
//! `(d/4 + Θ(√(d·log n)))·s_i` per node the max-min discrepancy is
//! `O(√(d·log n))` w.h.p.
//!
//! # Hot path
//!
//! The per-edge rule is written once, as [`Alg2`]'s [`Algorithm::send`];
//! [`RandomizedImitation`] is the shared engine of [`super::imitation`]
//! running it, and its sequential, sharded and federated steps are that
//! engine's. Per edge, the send loop reads the twin's cumulative flow and
//! the ledger entry (16 bytes) and rounds the deficit first: the whole part
//! is an integer truncation (no libm `floor` call), and a non-zero fraction
//! draws from the edge's own [`edge_rounding_rng`]. Only when the rounded
//! amount is non-zero does it read the edge's endpoints and route the
//! tokens; most deficits of a balanced run round to zero. Because a draw
//! depends only on `(seed, round, edge)`, rounding before the routing test
//! takes the same decisions as routing first, so every executor keeps the
//! same trajectory.

use super::imitation::{Algorithm, CommonState, Deficits, Holding, Imitation, Senders, Tally};
use crate::continuous::ContinuousProcess;
use crate::error::CoreError;
use crate::federate::SendBatch;
use crate::load::InitialLoad;
use crate::snapshot::{Alg2State, DiscreteState, SnapshotError};
use crate::task::{Speeds, Task, Weight};
use lb_graph::EdgeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sub-RNG deciding whether edge `edge`'s fractional deficit rounds up
/// in round `round`, derived from the master `seed` the same way the
/// scenario stream derives its sub-seeds: a SplitMix-style combination of
/// the coordinates feeding the seeding expansion.
///
/// Deriving per `(round, edge)` instead of consuming one stream edge-by-edge
/// makes the draw independent of every other edge's draw, which is what lets
/// shard workers round their edges concurrently while staying bit-identical
/// to the sequential engine for any shard count.
pub fn edge_rounding_rng(seed: u64, round: usize, edge: usize) -> StdRng {
    let mixed = seed
        ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (edge as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    StdRng::seed_from_u64(mixed)
}

/// Algorithm 2: the randomized flow-imitation discretization of a continuous
/// process `A`, for identical (unit-weight) tasks: the generic [`Imitation`]
/// engine running `Alg2`'s rule. Only the constructors are Algorithm 2's
/// own; every other method is the engine's, shared with
/// [`FlowImitation`](super::FlowImitation).
///
/// # Examples
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, RandomizedImitation};
/// use lb_core::{InitialLoad, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::torus(4, 4)?;
/// let speeds = Speeds::uniform(16);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// // Give every node enough initial load for the max-min guarantee.
/// let mut counts = vec![8u64; 16];
/// counts[0] += 320;
/// let initial = InitialLoad::from_token_counts(counts);
/// let mut alg2 = RandomizedImitation::new(fos, &initial, speeds, 42)?;
/// alg2.run(300);
/// assert!(alg2.metrics().max_min < 16.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type RandomizedImitation<A> = Imitation<A, Alg2>;

impl<A: ContinuousProcess> RandomizedImitation<A> {
    /// Creates the randomized discretization of `process` starting from
    /// `initial`, with an explicit RNG `seed` for reproducibility.
    ///
    /// The engine keeps only per-node token counts, so `initial` is read and
    /// never copied. A caller that has the counts and no tasks uses
    /// [`from_token_counts`](RandomizedImitation::from_token_counts).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the initial load contains
    /// non-unit task weights or the node counts of process, load and speeds
    /// disagree.
    pub fn new(
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        seed: u64,
    ) -> Result<Self, CoreError> {
        if !initial.is_unit_weight() {
            return Err(CoreError::invalid_parameter(
                "randomized flow imitation (Algorithm 2) requires unit-weight tasks",
            ));
        }
        Self::from_token_counts(process, initial.load_vector(), speeds, seed)
    }

    /// Creates the randomized discretization of `process` starting from
    /// `counts[i]` unit tokens on node `i`, with an explicit RNG `seed`;
    /// no task is made.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of
    /// process, load and speeds disagree.
    pub fn from_token_counts(
        process: A,
        counts: Vec<u64>,
        speeds: Speeds,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let loads = counts.iter().map(|&c| c as f64).collect();
        Imitation::with_holdings(process, loads, speeds, counts, Alg2 { seed })
    }
}

/// Algorithm 2's rule and parameters: each deficit rounds up with
/// probability equal to its fractional part, drawn from the edge's own
/// [`edge_rounding_rng`]; the sender pays with real tokens first, then held
/// dummies, then the infinite source.
#[derive(Debug, Clone)]
pub struct Alg2 {
    /// Master seed; every rounding decision derives its own sub-RNG from it.
    pub(crate) seed: u64,
}

impl Alg2 {
    /// `magnitude` rounded at random in round `round`: its whole part, plus
    /// one with probability equal to its fractional part, drawn from edge
    /// `e`'s own [`edge_rounding_rng`].
    ///
    /// The whole part is an `as` truncation, not `f64::floor`, which the
    /// baseline x86-64 target compiles to a libm call. For a non-negative
    /// magnitude below 2^64 the two agree bit for bit, fraction included.
    /// At or above 2^64, and at +∞, the cast saturates to `u64::MAX` and so
    /// does the sum, as `floor` followed by the saturating cast gives. A NaN
    /// truncates to 0 and its NaN fraction fails `> 0.0`, so it never
    /// reaches `gen_bool`.
    // lint: zero-alloc
    #[inline]
    pub(crate) fn rounded(&self, round: usize, e: EdgeId, magnitude: f64) -> u64 {
        let whole = magnitude as u64;
        let fraction = magnitude - whole as f64;
        let round_up =
            fraction > 0.0 && edge_rounding_rng(self.seed, round, e).gen_bool(fraction.min(1.0));
        whole.saturating_add(u64::from(round_up))
    }
}

impl Algorithm for Alg2 {
    type Holding = u64;
    const LABEL: &'static str = "alg2";

    // lint: zero-alloc
    fn send(
        &self,
        round: usize,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, u64>,
        out: &mut SendBatch,
    ) -> Tally {
        let mut tally = Tally::default();
        for e in edges {
            let deficit = deficits.deficit(e);
            let amount = self.rounded(round, e, deficit.abs());
            if amount == 0 {
                continue;
            }
            let Some(t) = deficits.route(e, deficit, &senders.range) else {
                continue;
            };
            let real = amount.min(senders.held[t.at]);
            senders.held[t.at] -= real;
            let dummy = amount - real;
            let from_held = dummy.min(senders.dummy[t.at]);
            senders.dummy[t.at] -= from_held;
            tally.dummy_created += dummy - from_held;
            out.tokens.push((t.receiver, real, dummy));
            out.deltas.push((e, t.sign * amount as i64));
        }
        tally
    }

    /// Arrivals must be unit-weight, since Algorithm 2 is defined for
    /// identical tasks only.
    fn admit(&mut self, task: Task) -> Result<(), CoreError> {
        if task.weight() != 1 {
            return Err(CoreError::invalid_parameter(
                "randomized flow imitation (Algorithm 2) accepts unit-weight arrivals only",
            ));
        }
        Ok(())
    }

    fn empty(&self) -> u64 {
        0
    }

    fn capture<A: ContinuousProcess>(engine: &RandomizedImitation<A>) -> DiscreteState {
        DiscreteState::Alg2(Alg2State {
            tokens: engine.held.clone(),
            dummy: engine.dummy.clone(),
            discrete_flow: engine.discrete_flow.clone(),
            seed: engine.alg.seed,
            dummy_created: engine.dummy_created,
            arrived_weight: engine.arrived_weight,
            completed_weight: engine.completed_weight,
        })
    }

    /// Validates the master seed: a snapshot from a differently seeded run
    /// is stale and rejected instead of silently diverging.
    fn restore<'s, A: ContinuousProcess>(
        engine: &mut RandomizedImitation<A>,
        state: &'s DiscreteState,
    ) -> Result<CommonState<'s>, SnapshotError> {
        let DiscreteState::Alg2(alg2) = state else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 1 state but the engine runs Algorithm 2",
            ));
        };
        engine.check_shape(
            alg2.tokens.len(),
            alg2.dummy.len(),
            alg2.discrete_flow.len(),
        )?;
        if alg2.seed != engine.alg.seed {
            return Err(SnapshotError::mismatch(format!(
                "snapshot rounding seed {} differs from the run's seed {} (stale snapshot?)",
                alg2.seed, engine.alg.seed
            )));
        }
        engine.held.copy_from_slice(&alg2.tokens);
        Ok(CommonState {
            dummy: &alg2.dummy,
            discrete_flow: &alg2.discrete_flow,
            dummy_created: alg2.dummy_created,
            arrived_weight: alg2.arrived_weight,
            completed_weight: alg2.completed_weight,
        })
    }
}

impl Holding for u64 {
    #[inline]
    fn weight(&self) -> Weight {
        *self
    }

    fn adopt(&mut self, orphan: Self) {
        *self += orphan;
    }

    #[inline]
    fn receive_tokens(&mut self, real: u64) {
        *self += real;
    }

    #[inline]
    fn arrive(&mut self, _task: Task) {
        *self += 1;
    }

    /// Tokens are interchangeable: a budget drains up to that many units.
    #[inline]
    fn complete(&mut self, budget: Weight, mut done: impl FnMut(u64, Weight)) {
        let take = budget.min(*self);
        *self -= take;
        done(take, take);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{DimensionExchange, Fos, RandomMatching};
    use crate::discrete::DiscreteBalancer;
    use crate::metrics;
    use lb_graph::{generators, AlphaScheme, Graph};

    fn fos_on(graph: Graph, speeds: &Speeds) -> Fos {
        Fos::new(graph, speeds, AlphaScheme::MaxDegreePlusOne).unwrap()
    }

    /// Builds an initial load with `base` tokens everywhere plus `extra` on
    /// node 0.
    fn padded_load(n: usize, base: u64, extra: u64) -> InitialLoad {
        let mut counts = vec![base; n];
        counts[0] += extra;
        InitialLoad::from_token_counts(counts)
    }

    #[test]
    fn rejects_weighted_tasks() {
        use crate::task::{Task, TaskId};
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let weighted =
            InitialLoad::from_tasks(vec![vec![Task::new(TaskId(0), 2)], vec![], vec![], vec![]]);
        assert!(RandomizedImitation::new(fos, &weighted, speeds, 1).is_err());
    }

    #[test]
    fn conserves_real_tokens() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = padded_load(16, 8, 160);
        let total = initial.total_weight() as f64;
        let mut alg2 =
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds.clone(), 7).unwrap();
        alg2.run(200);
        assert!((alg2.real_loads().iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn flow_deviation_stays_below_one() {
        let g = generators::hypercube(4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = padded_load(16, 8, 320);
        let mut alg2 = RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds, 11).unwrap();
        for _ in 0..200 {
            alg2.step();
            assert!(
                alg2.max_flow_deviation() < 1.0 + 1e-9,
                "per-edge deviation must stay below 1 (Observation 9(3))"
            );
        }
    }

    #[test]
    fn sufficient_load_avoids_infinite_source_whp() {
        // With d/4 + 2c·sqrt(d log n) ≈ a handful of tokens per node on a
        // degree-4 torus, the infinite source should not be touched.
        let g = generators::torus(6, 6).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = padded_load(n, 10, 360);
        let mut alg2 =
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds.clone(), 3).unwrap();
        alg2.run(1_000);
        assert_eq!(alg2.dummy_created(), 0);
        // Discrepancy is small (O(sqrt(d log n)) ≈ single digits).
        let max_min = metrics::max_min_discrepancy(&alg2.loads(), &speeds);
        assert!(max_min <= 12.0, "max_min = {max_min}");
    }

    #[test]
    fn determinism_per_seed_and_variation_across_seeds() {
        let mk = |seed| {
            let g = generators::torus(4, 4).unwrap();
            let speeds = Speeds::uniform(16);
            let initial = padded_load(16, 4, 100);
            RandomizedImitation::new(fos_on(g, &speeds), &initial, speeds, seed).unwrap()
        };
        let mut a = mk(5);
        let mut b = mk(5);
        let mut c = mk(6);
        a.run(50);
        b.run(50);
        c.run(50);
        assert_eq!(a.loads(), b.loads());
        // Different seeds should (almost surely) differ somewhere.
        assert_ne!(a.loads(), c.loads());
    }

    #[test]
    fn works_with_matching_processes() {
        let g = generators::hypercube(4).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = padded_load(n, 8, 320);

        let de = DimensionExchange::with_greedy_coloring(g.clone(), &speeds).unwrap();
        let mut alg2_de = RandomizedImitation::new(de, &initial, speeds.clone(), 1).unwrap();
        alg2_de.run(1_000);
        assert!(metrics::max_min_discrepancy(&alg2_de.loads(), &speeds) <= 12.0);

        let rm = RandomMatching::new(g, &speeds, 99).unwrap();
        let mut alg2_rm = RandomizedImitation::new(rm, &initial, speeds.clone(), 2).unwrap();
        alg2_rm.run(2_000);
        assert!(metrics::max_min_discrepancy(&alg2_rm.loads(), &speeds) <= 12.0);
    }

    #[test]
    fn heterogeneous_speeds_balance_proportionally() {
        let g = generators::complete(4).unwrap();
        let speeds = Speeds::new(vec![1, 1, 2, 4]).unwrap();
        let initial = padded_load(4, 16, 800);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg2 = RandomizedImitation::new(fos, &initial, speeds.clone(), 13).unwrap();
        alg2.run(500);
        let loads = alg2.loads();
        assert!(loads[3] > loads[0], "fast node should carry more load");
        assert!(metrics::max_min_discrepancy(&loads, &speeds) <= 12.0);
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let wrong_nodes = InitialLoad::single_source(5, 0, 10);
        assert!(RandomizedImitation::new(fos, &wrong_nodes, speeds.clone(), 0).is_err());

        let g = generators::cycle(4).unwrap();
        let fos = fos_on(g, &speeds);
        let initial = InitialLoad::single_source(4, 0, 10);
        assert!(RandomizedImitation::new(fos, &initial, Speeds::uniform(3), 0).is_err());
    }
}
