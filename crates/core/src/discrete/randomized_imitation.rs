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
//! other edges made — sharded execution
//! ([`RandomizedImitation::step_sharded`]) is bit-identical to sequential
//! execution for every shard count.
//!
//! Guarantees (Theorem 8): at the continuous balancing time the max-avg
//! discrepancy is `d/4 + O(√(d·log n))` w.h.p.; with initial load at least
//! `(d/4 + Θ(√(d·log n)))·s_i` per node the max-min discrepancy is
//! `O(√(d·log n))` w.h.p.

use super::dynamic::{DynamicBalancer, EventReport, RoundEvents};
use super::imitation::{Deficits, Holding, Imitation, SendRule, Senders, Tally};
use super::DiscreteBalancer;
use crate::continuous::{ContinuousProcess, ContinuousRunner};
use crate::error::CoreError;
use crate::federate::{FederateLink, FederatedExecutor, SendBatch};
use crate::load::InitialLoad;
use crate::shard::ShardedExecutor;
use crate::task::{Speeds, Task, Weight};
use lb_graph::{EdgeId, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

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
/// process `A`, for identical (unit-weight) tasks.
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
#[derive(Debug, Clone)]
pub struct RandomizedImitation<A: ContinuousProcess> {
    /// The shared engine; each node's holdings are a real-token count.
    core: Imitation<A, u64>,
    /// Master seed; every rounding decision derives its own sub-RNG from it
    /// (see [`edge_rounding_rng`]).
    seed: u64,
}

impl<A: ContinuousProcess> RandomizedImitation<A> {
    /// Creates the randomized discretization of `process` starting from
    /// `initial`, with an explicit RNG `seed` for reproducibility.
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
        let tokens = initial.load_vector();
        Ok(RandomizedImitation {
            core: Imitation::new("alg2", process, initial, speeds, tokens)?,
            seed,
        })
    }

    /// Replaces the topology (and the continuous twin) mid-run: the
    /// churn-event half of a dynamic scenario. Same carry-over rules as
    /// `FlowImitation::replace_topology`: per-node token counts carry over
    /// index-by-index, removed nodes bequeath their tokens to node 0, new
    /// nodes start empty, and the twin restarts from the current discrete
    /// load vector with both flow ledgers reset.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the new graph is empty.
    pub fn replace_topology(&mut self, process: A) -> Result<(), CoreError> {
        self.core.rebind(process, || 0)
    }

    /// The continuous twin being imitated.
    pub fn continuous(&self) -> &ContinuousRunner<A> {
        &self.core.twin
    }

    /// Total dummy load created from the infinite source so far.
    pub fn dummy_created(&self) -> u64 {
        self.core.dummy_created
    }

    /// Per-node dummy holdings. In a federated partition only the owned
    /// entries are authoritative (foreign slots are stale); a sampler must
    /// slice its own node range.
    pub fn dummy_holdings(&self) -> &[u64] {
        &self.core.dummy
    }

    /// Per-node loads excluding dummy tokens.
    pub fn real_loads(&self) -> Vec<f64> {
        self.core.real_loads()
    }

    /// Maximum absolute per-edge deviation `|E_e(t)|` between the continuous
    /// and discrete cumulative flows. With randomized rounding this stays
    /// below 1 (part (3) of Observation 9).
    pub fn max_flow_deviation(&self) -> f64 {
        self.core.max_flow_deviation()
    }

    /// Captures the engine's full state at a between-rounds boundary for a
    /// snapshot. The rounding RNG needs no serialization: every decision
    /// derives a fresh sub-RNG from `(seed, round, edge)`
    /// ([`edge_rounding_rng`]), so the seed and round counter are its full
    /// derivation inputs. Event-time only — allocates freely.
    pub fn capture(&self) -> crate::snapshot::EngineState {
        crate::snapshot::EngineState {
            round: self.core.round as u64,
            twin: self.core.twin.capture(),
            discrete: crate::snapshot::DiscreteState::Alg2(crate::snapshot::Alg2State {
                tokens: self.core.held.clone(),
                dummy: self.core.dummy.clone(),
                discrete_flow: self.core.discrete_flow.clone(),
                seed: self.seed,
                dummy_created: self.core.dummy_created,
                arrived_weight: self.core.arrived_weight,
                completed_weight: self.core.completed_weight,
            }),
        }
    }

    /// Restores state captured by [`capture`](RandomizedImitation::capture)
    /// into an engine freshly built on the snapshot's topology epoch. The
    /// master seed is validated: a snapshot from a differently seeded run is
    /// stale and rejected instead of silently diverging.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the snapshot belongs to Algorithm 1, does not fit the graph, or
    /// was captured under a different master seed.
    pub fn restore(
        &mut self,
        state: &crate::snapshot::EngineState,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{DiscreteState, SnapshotError};
        let DiscreteState::Alg2(alg2) = &state.discrete else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 1 state but the engine runs Algorithm 2",
            ));
        };
        let core = &mut self.core;
        core.check_shape(
            alg2.tokens.len(),
            alg2.dummy.len(),
            alg2.discrete_flow.len(),
        )?;
        if alg2.seed != self.seed {
            return Err(SnapshotError::mismatch(format!(
                "snapshot rounding seed {} differs from the run's seed {} (stale snapshot?)",
                alg2.seed, self.seed
            )));
        }
        core.twin.restore(&state.twin)?;
        core.held.copy_from_slice(&alg2.tokens);
        core.dummy.copy_from_slice(&alg2.dummy);
        core.discrete_flow.copy_from_slice(&alg2.discrete_flow);
        core.round = state.round as usize;
        core.dummy_created = alg2.dummy_created;
        core.arrived_weight = alg2.arrived_weight;
        core.completed_weight = alg2.completed_weight;
        Ok(())
    }

    /// Sharded [`step`](DiscreteBalancer::step): the twin advances through
    /// [`ContinuousRunner::step_sharded`], then each shard runs the send
    /// rule over the edges incident to its node range for the senders it
    /// owns, every rounding decision drawn from its own `(seed, round,
    /// edge)` sub-RNG ([`edge_rounding_rng`]) — so the draws, and therefore
    /// the trajectory, are **bit-identical** to the sequential step for
    /// every shard count. Token moves and ledger deltas are additive and
    /// delivered from the per-shard outboxes afterwards.
    ///
    /// Steady-state calls on an unchanged topology do not allocate; after
    /// [`replace_topology`](RandomizedImitation::replace_topology) the
    /// executor rebinds on the next sharded step.
    pub fn step_sharded(&mut self, exec: &mut ShardedExecutor)
    where
        A: Sync,
    {
        self.core.step_sharded(exec, &self.rule());
    }

    /// Federated [`step`](DiscreteBalancer::step): this engine instance owns
    /// one contiguous node range of a larger simulation. The twin advances
    /// through [`ContinuousRunner::step_federated`], then this part runs the
    /// send rule over the edges whose **sender** it owns, each decision
    /// drawn from its own `(seed, round, edge)` sub-RNG
    /// ([`edge_rounding_rng`]) — so no RNG-stream coordination between
    /// processes is needed and the owned slice of every state vector stays
    /// **bit-identical** to the sequential engine's. Token moves and ledger
    /// deltas for remote receivers travel in the outgoing
    /// [`SendBatch`](crate::SendBatch).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] if an exchange fails or a peer sends
    /// a malformed payload, and [`CoreError::InvalidParameter`] if the
    /// underlying process does not support range-split kernels.
    pub fn step_federated(
        &mut self,
        fed: &mut FederatedExecutor,
        link: &mut dyn FederateLink,
    ) -> Result<(), CoreError>
    where
        A: Sync,
    {
        self.core.step_federated(fed, link, &self.rule())
    }

    /// Federated [`apply_events`](DynamicBalancer::apply_events): every part
    /// sees the **full** event stream (scenario-derived, so no broadcast is
    /// needed) but applies token and twin effects only for the nodes it
    /// owns. Validation (node bounds, unit arrival weights) covers all
    /// events so every part rejects a bad stream identically. The returned
    /// report counts owned events only, so gathered partials sum to the
    /// sequential report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if an event names a node
    /// outside the graph or an arrival is not unit-weight.
    pub fn apply_events_federated(
        &mut self,
        events: &RoundEvents,
        fed: &mut FederatedExecutor,
    ) -> Result<EventReport, CoreError> {
        fed.ensure_plan(&self.core.graph)?;
        self.apply_owned_events(events, fed.plan.node_range())
    }

    /// Both `apply_events` forms: arrivals must be unit-weight, since
    /// Algorithm 2 is defined for identical tasks only.
    fn apply_owned_events(
        &mut self,
        events: &RoundEvents,
        owned: Range<NodeId>,
    ) -> Result<EventReport, CoreError> {
        self.core.apply_events(events, owned, |task| {
            if task.weight() != 1 {
                return Err(CoreError::invalid_parameter(
                    "randomized flow imitation (Algorithm 2) accepts unit-weight arrivals only",
                ));
            }
            Ok(())
        })
    }

    /// This round's send rule.
    fn rule(&self) -> Alg2 {
        Alg2 {
            seed: self.seed,
            round: self.core.round,
        }
    }
}

/// Algorithm 2's per-edge send rule: each deficit rounds up with
/// probability equal to its fractional part, drawn from the edge's own
/// [`edge_rounding_rng`]; the sender pays with real tokens first, then held
/// dummies, then the infinite source.
struct Alg2 {
    seed: u64,
    round: usize,
}

impl SendRule for Alg2 {
    type Holding = u64;

    // lint: zero-alloc
    fn send(
        &self,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, u64>,
        out: &mut SendBatch,
    ) -> Tally {
        let mut tally = Tally::default();
        for e in edges {
            let Some(t) = deficits.transfer(e, &senders.range) else {
                continue;
            };
            let floor = t.magnitude.floor();
            let fraction = t.magnitude - floor;
            let round_up = fraction > 0.0
                && edge_rounding_rng(self.seed, self.round, e).gen_bool(fraction.min(1.0));
            let amount = floor as u64 + u64::from(round_up);
            if amount == 0 {
                continue;
            }
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

impl<A: ContinuousProcess> DiscreteBalancer for RandomizedImitation<A> {
    fn name(&self) -> &str {
        &self.core.name
    }

    fn graph(&self) -> &Graph {
        &self.core.graph
    }

    fn speeds(&self) -> &Speeds {
        &self.core.speeds
    }

    fn round(&self) -> usize {
        self.core.round
    }

    fn loads(&self) -> Vec<f64> {
        self.core.loads()
    }

    fn dummy_load(&self) -> u64 {
        self.core.dummy.iter().sum()
    }

    // lint: zero-alloc
    fn step(&mut self) {
        self.core.step(&self.rule());
    }
}

impl<A: ContinuousProcess> DynamicBalancer for RandomizedImitation<A> {
    fn apply_events(&mut self, events: &RoundEvents) -> Result<EventReport, CoreError> {
        self.apply_owned_events(events, 0..self.core.graph.node_count())
    }

    fn completed_weight(&self) -> u64 {
        self.core.completed_weight
    }

    fn arrived_weight(&self) -> u64 {
        self.core.arrived_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{DimensionExchange, Fos, RandomMatching};
    use crate::metrics;
    use lb_graph::{generators, AlphaScheme};

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
