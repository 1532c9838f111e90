//! Algorithm 1 — deterministic flow imitation.
//!
//! The discrete process `D(A)` runs the continuous process `A` as a twin and,
//! over every edge and in every round, forwards whole tasks until the
//! cumulative discrete flow is within `w_max` of the cumulative continuous
//! flow `f^A_e(t)`. When a node runs out of tasks it draws unit-weight dummy
//! tokens from an attached infinite source (bookkept as a scalar amount, as
//! the paper's implementation note prescribes).
//!
//! Guarantees (Theorem 3): at the continuous balancing time the max-avg
//! discrepancy is at most `2·d·w_max + 2`; if every node starts with load at
//! least `d·w_max·s_i`, no dummy token is ever created and the same bound
//! holds for the max-min discrepancy.
//!
//! # Hot path
//!
//! The per-edge rule is written once, as [`Alg1`]'s [`SendRule`]; the
//! sequential, sharded and federated steps all run it through the shared
//! engine in [`super::imitation`]. [`FlowImitation::step`] is
//! allocation-free in steady state: per-node storage is a [`TaskQueue`]
//! (O(1) FIFO pops, O(log k) heap pops), the outbox is owned by the engine
//! and reused, and the topology is shared with the twin through one
//! `Arc<Graph>`.

use super::dynamic::{DynamicBalancer, EventReport, RoundEvents};
use super::imitation::{Deficits, Holding, Imitation, SendRule, Senders, Tally};
use super::DiscreteBalancer;
use crate::continuous::{ContinuousProcess, ContinuousRunner};
use crate::error::CoreError;
use crate::federate::{FederateLink, FederatedExecutor, SendBatch};
use crate::load::InitialLoad;
use crate::shard::ShardedExecutor;
use crate::task::{Speeds, Task, TaskQueue, Weight};
use lb_graph::{EdgeId, Graph, NodeId};
use std::ops::Range;

pub use crate::task::TaskPicker;

/// Algorithm 1: the deterministic flow-imitation discretization of a
/// continuous process `A`.
///
/// # Examples
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
/// use lb_core::{InitialLoad, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::hypercube(3)?;
/// let speeds = Speeds::uniform(8);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// // Every node starts with d·w_max = 3 tokens (Theorem 3(2) condition),
/// // plus an imbalanced pile on node 0.
/// let mut counts = vec![3u64; 8];
/// counts[0] += 232;
/// let initial = InitialLoad::from_token_counts(counts);
/// let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;
/// alg1.run(200);
/// // No dummy token was needed and the final max-min discrepancy is bounded
/// // by 2·d·w_max + 2 = 8.
/// assert_eq!(alg1.dummy_created(), 0);
/// assert!(alg1.metrics().max_min <= 8.0 + 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowImitation<A: ContinuousProcess> {
    /// The shared engine; each node's holdings are a [`TaskQueue`].
    core: Imitation<A, TaskQueue>,
    wmax: Weight,
    picker: TaskPicker,
}

impl<A: ContinuousProcess> FlowImitation<A> {
    /// Creates the discretization of `process` starting from `initial`.
    ///
    /// The continuous twin starts from the same load vector, as the paper
    /// prescribes; the topology is shared with the twin (no graph clone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of the
    /// process, the initial load and the speed vector disagree.
    pub fn new(
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        picker: TaskPicker,
    ) -> Result<Self, CoreError> {
        let queues = initial.clone().into_tasks().into_iter();
        let queues = queues.map(|tasks| TaskQueue::with_tasks(picker, tasks));
        Ok(FlowImitation {
            core: Imitation::new("alg1", process, initial, speeds, queues.collect())?,
            wmax: initial.max_weight(),
            picker,
        })
    }

    /// Replaces the topology (and the continuous twin) mid-run: the
    /// churn-event half of a dynamic scenario.
    ///
    /// `process` is a freshly built continuous process on the new graph. Per-
    /// node task queues and dummy holdings carry over index-by-index; if the
    /// new graph is smaller, the tasks of removed nodes are re-queued on node
    /// 0 (the deterministic "orphan adoption" rule); if it is larger, the new
    /// nodes start empty. The twin restarts from the *current* discrete load
    /// vector and both flow ledgers reset to zero — imitation begins a fresh
    /// epoch on the new topology, so the Observation 4 deviation bound holds
    /// per epoch.
    ///
    /// For a same-size rewire this reuses every engine buffer (queues, twin
    /// load/flow vectors, ledgers are cleared in place, not reallocated);
    /// only a node-count change reallocates the carried containers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the new graph is empty.
    pub fn replace_topology(&mut self, process: A) -> Result<(), CoreError> {
        let picker = self.picker;
        self.core.rebind(process, || TaskQueue::new(picker))
    }

    /// The maximum task weight `w_max` the discretization assumes.
    pub fn wmax(&self) -> Weight {
        self.wmax
    }

    /// The task-picking policy in use.
    pub fn picker(&self) -> TaskPicker {
        self.picker
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

    /// Total items (real tasks and dummy units) sent over edges so far.
    pub fn items_sent(&self) -> u64 {
        self.core.items_sent
    }

    /// Per-node loads *excluding* dummy load (the real workload only).
    ///
    /// Each entry is O(1): the queues maintain their totals incrementally,
    /// so sampling this inside an experiment loop costs O(n), not O(n·k).
    pub fn real_loads(&self) -> Vec<f64> {
        self.core.real_loads()
    }

    /// A snapshot of the tasks currently held by node `i` (dummy load not
    /// included), in unspecified order. Intended for inspection and tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tasks_of(&self, i: NodeId) -> Vec<Task> {
        self.core.held[i].iter().copied().collect()
    }

    /// Number of tasks currently held by node `i` (dummy load not included).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn task_count_of(&self, i: NodeId) -> usize {
        self.core.held[i].len()
    }

    /// Maximum absolute per-edge deviation `|e_e(t)| = |f^A_e(t) − f^D_e(t)|`
    /// between the continuous and discrete cumulative flows. Observation 4
    /// guarantees this stays below `w_max`.
    pub fn max_flow_deviation(&self) -> f64 {
        self.core.max_flow_deviation()
    }

    /// Captures the engine's full state at a between-rounds boundary (the
    /// quiescent point: no deliveries pending) for a snapshot. Event-time
    /// only — allocates freely; rounds between checkpoints stay
    /// allocation-free.
    pub fn capture(&self) -> crate::snapshot::EngineState {
        let queues = self.core.held.iter().map(|queue| {
            let (next_seq, entries) = queue.snapshot();
            crate::snapshot::QueueState { next_seq, entries }
        });
        crate::snapshot::EngineState {
            round: self.core.round as u64,
            twin: self.core.twin.capture(),
            discrete: crate::snapshot::DiscreteState::Alg1(crate::snapshot::Alg1State {
                queues: queues.collect(),
                dummy: self.core.dummy.clone(),
                discrete_flow: self.core.discrete_flow.clone(),
                wmax: self.wmax,
                dummy_created: self.core.dummy_created,
                items_sent: self.core.items_sent,
                arrived_weight: self.core.arrived_weight,
                completed_weight: self.core.completed_weight,
            }),
        }
    }

    /// Restores state captured by [`capture`](FlowImitation::capture) into
    /// an engine freshly built on the snapshot's topology epoch (same graph,
    /// speeds and picker). After a successful restore the engine continues
    /// **bit-identically** to the uninterrupted run, at any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the snapshot belongs to Algorithm 2, does not fit the graph, or
    /// carries corrupt queue sequence numbers.
    pub fn restore(
        &mut self,
        state: &crate::snapshot::EngineState,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::{DiscreteState, SnapshotError};
        let DiscreteState::Alg1(alg1) = &state.discrete else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 2 state but the engine runs Algorithm 1",
            ));
        };
        let core = &mut self.core;
        core.check_shape(
            alg1.queues.len(),
            alg1.dummy.len(),
            alg1.discrete_flow.len(),
        )?;
        core.twin.restore(&state.twin)?;
        let queues = alg1.queues.iter().enumerate().map(|(node, queue)| {
            TaskQueue::restore(self.picker, queue.next_seq, &queue.entries)
                .map_err(|e| SnapshotError::mismatch(format!("queue of node {node}: {e}")))
        });
        core.held = queues.collect::<Result<Vec<_>, _>>()?;
        core.dummy.copy_from_slice(&alg1.dummy);
        core.discrete_flow.copy_from_slice(&alg1.discrete_flow);
        self.wmax = alg1.wmax;
        core.round = state.round as usize;
        core.dummy_created = alg1.dummy_created;
        core.items_sent = alg1.items_sent;
        core.arrived_weight = alg1.arrived_weight;
        core.completed_weight = alg1.completed_weight;
        Ok(())
    }

    /// Sharded [`step`](DiscreteBalancer::step): the twin advances through
    /// [`ContinuousRunner::step_sharded`], then each shard runs the send
    /// rule over the edges incident to its node range for the senders it
    /// owns (so all pops from one queue happen on one thread, in canonical
    /// edge order — exactly the sequential pop sequence) into its own
    /// outbox. Delivery merges the outboxes back into global edge order,
    /// making the round **bit-identical** to
    /// [`step`](DiscreteBalancer::step) for every shard count.
    ///
    /// The executor rebinds itself to the engine's current topology (plan
    /// rebuild after [`replace_topology`](FlowImitation::replace_topology)
    /// happens on the next sharded step). Steady-state calls on an unchanged
    /// topology do not allocate once the outboxes have warmed up.
    pub fn step_sharded(&mut self, exec: &mut ShardedExecutor)
    where
        A: Sync,
    {
        self.core.step_sharded(exec, &self.rule());
    }

    /// Federated [`step`](DiscreteBalancer::step): this engine instance owns
    /// one contiguous node range of a larger simulation and exchanges three
    /// payloads per round over `link` (boundary twin loads, crossing-edge
    /// flows, cross-partition deliveries). The twin advances through
    /// [`ContinuousRunner::step_federated`], then this part runs the send
    /// rule over the edges whose **sender** it owns — the same unique-sender
    /// rule as the sharded step — routing deliveries to remote receivers
    /// into the outgoing [`SendBatch`](crate::SendBatch). Incoming batches
    /// merge back into global edge order, so the owned slice of every state
    /// vector stays **bit-identical** to the sequential engine's at every
    /// round.
    ///
    /// Counters (`dummy_created`, `items_sent`, `arrived_weight`,
    /// `completed_weight`) hold this part's disjoint partial sums; foreign
    /// entries of per-node and per-edge vectors are stale and never read.
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
    /// needed) but applies queue and twin effects only for the nodes it owns.
    /// `w_max` tracks all arrivals — it is global state every part must agree
    /// on. The returned report counts owned events only, so gathered partials
    /// sum to the sequential report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if an event names a node
    /// outside the graph (checked for all events, owned or not).
    pub fn apply_events_federated(
        &mut self,
        events: &RoundEvents,
        fed: &mut FederatedExecutor,
    ) -> Result<EventReport, CoreError> {
        fed.ensure_plan(&self.core.graph)?;
        self.apply_owned_events(events, fed.plan.node_range())
    }

    /// Both `apply_events` forms: `w_max` tracks the heaviest task ever
    /// seen, owned or not, so the imitation floor rule stays conservative.
    fn apply_owned_events(
        &mut self,
        events: &RoundEvents,
        owned: Range<NodeId>,
    ) -> Result<EventReport, CoreError> {
        let wmax = &mut self.wmax;
        self.core.apply_events(events, owned, |task| {
            *wmax = (*wmax).max(task.weight());
            Ok(())
        })
    }

    /// This round's send rule.
    fn rule(&self) -> Alg1 {
        Alg1 {
            wmax: self.wmax as f64,
        }
    }
}

/// Algorithm 1's per-edge send rule: over each edge, forward whole tasks
/// while the remaining deficit is at least `w_max` — the paper's floor
/// rule for unit tasks, keeping the per-edge deviation in `[0, w_max)` —
/// preferring a real task, then a held dummy, then the infinite source.
/// Dummies behave like normal tokens once created, so any choice is
/// admissible per the paper.
struct Alg1 {
    wmax: f64,
}

impl SendRule for Alg1 {
    type Holding = TaskQueue;

    // lint: zero-alloc
    fn send(
        &self,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, TaskQueue>,
        out: &mut SendBatch,
    ) -> Tally {
        let mut tally = Tally::default();
        for e in edges {
            let Some(t) = deficits.transfer(e, &senders.range) else {
                continue;
            };
            let mut moved: u64 = 0;
            let mut dummy_moved: u64 = 0;
            while t.magnitude - moved as f64 >= self.wmax {
                if let Some(task) = senders.held[t.at].pop() {
                    moved += task.weight();
                    out.tasks.push((e, t.receiver, task));
                } else {
                    if senders.dummy[t.at] > 0 {
                        senders.dummy[t.at] -= 1;
                    } else {
                        tally.dummy_created += 1;
                    }
                    moved += 1;
                    dummy_moved += 1;
                }
                tally.items_sent += 1;
            }
            if dummy_moved > 0 {
                out.dummy.push((t.receiver, dummy_moved));
            }
            if moved > 0 {
                out.deltas.push((e, t.sign * moved as i64));
            }
        }
        tally
    }
}

impl Holding for TaskQueue {
    #[inline]
    fn weight(&self) -> Weight {
        self.total_weight()
    }

    fn adopt(&mut self, mut orphan: Self) {
        while let Some(task) = orphan.pop() {
            self.push(task);
        }
    }

    #[inline]
    fn receive_task(&mut self, task: Task) {
        self.push(task);
    }

    #[inline]
    fn arrive(&mut self, task: Task) {
        self.push(task);
    }

    /// Whole tasks only, in pick order, while the budget lasts.
    #[inline]
    fn complete(&mut self, budget: Weight, mut done: impl FnMut(u64, Weight)) {
        let mut remaining = budget;
        while let Some(w) = self.peek().map(Task::weight).filter(|&w| w <= remaining) {
            self.pop();
            remaining -= w;
            done(1, w);
        }
    }
}

impl<A: ContinuousProcess> DiscreteBalancer for FlowImitation<A> {
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

impl<A: ContinuousProcess> DynamicBalancer for FlowImitation<A> {
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
    use crate::task::TaskId;
    use lb_graph::{generators, AlphaScheme};

    fn fos_on(graph: Graph, speeds: &Speeds) -> Fos {
        Fos::new(graph, speeds, AlphaScheme::MaxDegreePlusOne).unwrap()
    }

    #[test]
    fn conserves_real_tasks() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 160);
        let mut alg1 = FlowImitation::new(
            fos_on(g, &speeds),
            &initial,
            speeds.clone(),
            TaskPicker::Fifo,
        )
        .unwrap();
        alg1.run(100);
        let total_real: f64 = alg1.real_loads().iter().sum();
        assert!((total_real - 160.0).abs() < 1e-9);
        // Task identities survive: exactly 160 distinct tasks exist.
        let count: usize = (0..16).map(|i| alg1.task_count_of(i)).sum();
        assert_eq!(count, 160);
        let snapshot_count: usize = (0..16).map(|i| alg1.tasks_of(i).len()).sum();
        assert_eq!(snapshot_count, 160);
        assert!(alg1.items_sent() > 0);
    }

    #[test]
    fn flow_deviation_stays_below_wmax() {
        let g = generators::hypercube(4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 5, 320);
        let mut alg1 =
            FlowImitation::new(fos_on(g, &speeds), &initial, speeds, TaskPicker::Fifo).unwrap();
        for _ in 0..150 {
            alg1.step();
            assert!(
                alg1.max_flow_deviation() < alg1.wmax() as f64 + 1e-9,
                "Observation 4 violated at round {}",
                alg1.round()
            );
        }
    }

    #[test]
    fn theorem3_bound_on_hypercube_tokens() {
        // Unit tasks with the Theorem 3(2) sufficient-load condition: every
        // node starts with d·w_max = 5 tokens, plus an imbalanced pile on
        // node 0. The final max-min (and max-avg) discrepancy must be at most
        // 2d + 2.
        let dim = 5u32;
        let g = generators::hypercube(dim).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as f64;
        let speeds = Speeds::uniform(n);
        let mut counts = vec![dim as u64; n];
        counts[0] += (n * 20) as u64;
        let initial = InitialLoad::from_token_counts(counts);
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        // Run well past the continuous balancing time.
        alg1.run(2_000);
        assert!(alg1.continuous().is_balanced(1.0));
        assert_eq!(alg1.dummy_created(), 0);
        let max_avg = metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(
            max_avg <= 2.0 * d + 2.0 + 1e-9 && max_min <= 2.0 * d + 2.0 + 1e-9,
            "max-avg {max_avg} / max-min {max_min} exceed 2d + 2 = {}",
            2.0 * d + 2.0
        );
    }

    #[test]
    fn sufficient_initial_load_never_uses_infinite_source() {
        // Condition of Theorem 3(2): x(0) = x' + d·w_max·(s_1, …, s_n).
        let g = generators::torus(4, 4).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as u64;
        let speeds = Speeds::uniform(n);
        // Everyone starts with exactly d·w_max = 4 tokens plus an imbalanced
        // extra pile on node 0.
        let mut counts = vec![d; n];
        counts[0] += 200;
        let initial = InitialLoad::from_token_counts(counts);
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(1_500);
        assert_eq!(alg1.dummy_created(), 0, "infinite source must stay unused");
        assert_eq!(alg1.dummy_load(), 0);
        let d = d as f64;
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(
            max_min <= 2.0 * d + 2.0 + 1e-9,
            "max-min {max_min} exceeds 2d + 2"
        );
    }

    #[test]
    fn weighted_tasks_respect_theorem3_bound() {
        // Weighted tasks with w_max = 4 on a 2-dim torus.
        let g = generators::torus(4, 4).unwrap();
        let n = g.node_count();
        let d = g.max_degree() as u64;
        let wmax = 4u64;
        let speeds = Speeds::uniform(n);
        // Node 0 holds 60 tasks of alternating weights 1..=4; everyone else
        // holds d·w_max worth of unit tasks so the no-dummy condition holds.
        let mut tasks: Vec<Vec<Task>> = Vec::new();
        let mut id = 0u64;
        for i in 0..n {
            let mut node_tasks = Vec::new();
            if i == 0 {
                for k in 0..60u64 {
                    node_tasks.push(Task::new(TaskId(id), (k % wmax) + 1));
                    id += 1;
                }
            }
            for _ in 0..(d * wmax) {
                node_tasks.push(Task::new(TaskId(id), 1));
                id += 1;
            }
            tasks.push(node_tasks);
        }
        let initial = InitialLoad::from_tasks(tasks);
        assert_eq!(initial.max_weight(), wmax);
        let fos = fos_on(g, &speeds);
        let mut alg1 =
            FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::LargestFirst).unwrap();
        alg1.run(1_500);
        assert!(alg1.continuous().is_balanced(1.0));
        assert_eq!(alg1.dummy_created(), 0);
        let bound = 2.0 * d as f64 * wmax as f64 + 2.0;
        let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
        assert!(max_min <= bound + 1e-9, "max-min {max_min} exceeds {bound}");
    }

    #[test]
    fn heterogeneous_speeds_balance_proportionally() {
        let g = generators::complete(4).unwrap();
        let speeds = Speeds::new(vec![1, 1, 2, 4]).unwrap();
        let initial = InitialLoad::single_source(4, 0, 800);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(500);
        let d = alg1.graph().max_degree() as f64;
        let max_avg = metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        assert!(max_avg <= 2.0 * d + 2.0 + 1e-9);
        // The fastest node must end with substantially more load than the
        // slowest ones.
        let loads = alg1.loads();
        assert!(loads[3] > loads[0]);
    }

    #[test]
    fn works_with_matching_based_processes() {
        let g = generators::hypercube(3).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = InitialLoad::single_source(n, 0, 64);

        let de = DimensionExchange::with_greedy_coloring(g.clone(), &speeds).unwrap();
        let mut alg1_de =
            FlowImitation::new(de, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1_de.run(400);
        let d = 3.0;
        assert!(metrics::max_avg_discrepancy(&alg1_de.loads(), &speeds) <= 2.0 * d + 2.0 + 1e-9);

        let rm = RandomMatching::new(g, &speeds, 42).unwrap();
        let mut alg1_rm =
            FlowImitation::new(rm, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1_rm.run(800);
        assert!(metrics::max_avg_discrepancy(&alg1_rm.loads(), &speeds) <= 2.0 * d + 2.0 + 1e-9);
    }

    #[test]
    fn determinism_same_inputs_same_trajectory() {
        let mk = || {
            let g = generators::torus(3, 3).unwrap();
            let speeds = Speeds::uniform(9);
            let initial = InitialLoad::single_source(9, 4, 90);
            let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            a.step();
            b.step();
            assert_eq!(a.loads(), b.loads());
        }
    }

    #[test]
    fn picker_variants_all_satisfy_bound() {
        for picker in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            let g = generators::cycle(8).unwrap();
            let speeds = Speeds::uniform(8);
            let mut tasks = Vec::new();
            let mut id = 0;
            for i in 0..8 {
                let mut node_tasks = Vec::new();
                let count = if i == 0 { 30 } else { 4 };
                for k in 0..count {
                    node_tasks.push(Task::new(TaskId(id), (k % 3) + 1));
                    id += 1;
                }
                tasks.push(node_tasks);
            }
            let initial = InitialLoad::from_tasks(tasks);
            let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), picker).unwrap();
            alg1.run(1_000);
            assert_eq!(alg1.picker(), picker);
            let bound = 2.0 * 2.0 * 3.0 + 2.0;
            assert!(
                metrics::max_avg_discrepancy(&alg1.loads(), &speeds) <= bound + 1e-9,
                "picker {picker:?} violated the bound"
            );
        }
    }

    #[test]
    fn mismatched_dimensions_rejected() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = fos_on(g, &speeds);
        let wrong_nodes = InitialLoad::single_source(5, 0, 10);
        assert!(FlowImitation::new(fos, &wrong_nodes, speeds.clone(), TaskPicker::Fifo).is_err());

        let g = generators::cycle(4).unwrap();
        let fos = fos_on(g, &speeds);
        let initial = InitialLoad::single_source(4, 0, 10);
        let wrong_speeds = Speeds::uniform(3);
        assert!(FlowImitation::new(fos, &initial, wrong_speeds, TaskPicker::Fifo).is_err());
    }

    #[test]
    fn insufficient_load_uses_dummy_but_bounds_real_max_avg() {
        // Start with very little load: dummies may be created, but ignoring
        // them at the end (as the paper prescribes) the maximum real makespan
        // stays within 2·d·w_max + 2 of the original average W/S.
        let g = generators::star(9).unwrap();
        let n = g.node_count();
        let speeds = Speeds::uniform(n);
        let initial = InitialLoad::single_source(n, 1, 5);
        let original_avg = 5.0 / n as f64;
        let fos = fos_on(g, &speeds);
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(600);
        let d = 8.0;
        // Real workload is conserved even when dummies circulate.
        let real = alg1.real_loads();
        assert!((real.iter().sum::<f64>() - 5.0).abs() < 1e-9);
        let real_max_avg = metrics::max_makespan(&real, &speeds) - original_avg;
        assert!(
            real_max_avg <= 2.0 * d + 2.0 + 1e-9,
            "real max-avg = {real_max_avg}"
        );
    }

    #[test]
    fn twin_shares_the_graph_instance() {
        let g = generators::torus(3, 3).unwrap();
        let speeds = Speeds::uniform(9);
        let initial = InitialLoad::single_source(9, 0, 18);
        let fos = fos_on(g, &speeds);
        let alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        assert!(
            std::ptr::eq(alg1.graph(), alg1.continuous().process().graph()),
            "discretizer and twin must share one Graph allocation"
        );
    }
}
