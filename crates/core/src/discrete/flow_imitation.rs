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
//! The per-edge rule is written once, as [`Alg1`]'s [`Algorithm::send`];
//! [`FlowImitation`] is the shared engine of [`super::imitation`] running
//! it, and its sequential, sharded and federated steps are that engine's.
//! Observation 4 keeps almost every edge's deficit below `w_max`, so almost
//! no edge sends in a round: the send loop tests each deficit against
//! `w_max` from the twin's cumulative flow and the ledger (16 bytes per
//! edge) and loads an edge's endpoints only when it can send.
//! The sequential step is allocation-free in steady state: per-node storage
//! is a [`TaskQueue`] (O(1) FIFO pops, O(log k) heap pops), the outbox is
//! owned by the engine and reused, and the topology is shared with the twin
//! through one `Arc<Graph>`.

use super::imitation::{Algorithm, CommonState, Deficits, Holding, Imitation, Senders, Tally};
use crate::continuous::ContinuousProcess;
use crate::error::CoreError;
use crate::federate::SendBatch;
use crate::load::InitialLoad;
use crate::snapshot::{Alg1State, DiscreteState, QueueState, SnapshotError};
use crate::task::{Speeds, Task, TaskQueue, Weight};
use lb_graph::{EdgeId, NodeId};
use std::borrow::Cow;

pub use crate::task::TaskPicker;

/// Algorithm 1: the deterministic flow-imitation discretization of a
/// continuous process `A`, the generic [`Imitation`] engine running
/// `Alg1`'s rule. Only the constructor and the accessors below are
/// Algorithm 1's own; every other method is the engine's.
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
pub type FlowImitation<A> = Imitation<A, Alg1>;

impl<A: ContinuousProcess> FlowImitation<A> {
    /// Creates the discretization of `process` starting from `initial`.
    ///
    /// The continuous twin starts from the same load vector, as the paper
    /// prescribes; the topology is shared with the twin (no graph clone).
    /// `initial` is an owned or a borrowed placement: an owned one moves
    /// into the task queues (a FIFO queue keeps each node's vector as its
    /// buffer), and a borrowed one is cloned once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of the
    /// process, the initial load and the speed vector disagree.
    pub fn new<'a>(
        process: A,
        initial: impl Into<Cow<'a, InitialLoad>>,
        speeds: Speeds,
        picker: TaskPicker,
    ) -> Result<Self, CoreError> {
        let initial = initial.into().into_owned();
        let alg = Alg1 {
            wmax: initial.max_weight(),
            picker,
        };
        let loads = initial.load_vector_f64();
        let queues = initial.into_tasks().into_iter();
        let queues = queues.map(|tasks| TaskQueue::with_tasks(picker, tasks));
        Imitation::with_holdings(process, loads, speeds, queues.collect(), alg)
    }

    /// The maximum task weight `w_max` the discretization assumes: the
    /// heaviest task ever seen, initial or arrived.
    pub fn wmax(&self) -> Weight {
        self.alg.wmax
    }

    /// The task-picking policy in use.
    pub fn picker(&self) -> TaskPicker {
        self.alg.picker
    }

    /// Total items (real tasks and dummy units) sent over edges so far.
    pub fn items_sent(&self) -> u64 {
        self.items_sent
    }

    /// A snapshot of the tasks currently held by node `i` (dummy load not
    /// included), in unspecified order. Intended for inspection and tests.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tasks_of(&self, i: NodeId) -> Vec<Task> {
        self.held[i].iter().copied().collect()
    }

    /// Number of tasks currently held by node `i` (dummy load not included).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn task_count_of(&self, i: NodeId) -> usize {
        self.held[i].len()
    }
}

/// Algorithm 1's rule and parameters: over each edge, forward whole tasks
/// while the remaining deficit is at least `w_max` — the paper's floor rule
/// for unit tasks, keeping the per-edge deviation in `[0, w_max)` —
/// preferring a real task, then a held dummy, then the infinite source.
/// Dummies behave like normal tokens once created, so any choice is
/// admissible per the paper.
#[derive(Debug, Clone)]
pub struct Alg1 {
    /// The heaviest task ever seen, owned or not, so the floor rule stays
    /// conservative.
    pub(crate) wmax: Weight,
    /// Which task a queue gives up first.
    pub(crate) picker: TaskPicker,
}

impl Algorithm for Alg1 {
    type Holding = TaskQueue;
    const LABEL: &'static str = "alg1";

    // lint: zero-alloc
    fn send(
        &self,
        _round: usize,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, TaskQueue>,
        out: &mut SendBatch,
    ) -> Tally {
        let wmax = self.wmax as f64;
        let mut tally = Tally::default();
        for e in edges {
            let deficit = deficits.deficit(e);
            let magnitude = deficit.abs();
            if magnitude < wmax {
                continue;
            }
            let Some(t) = deficits.route(e, deficit, &senders.range) else {
                continue;
            };
            let mut moved: u64 = 0;
            let mut dummy_moved: u64 = 0;
            while magnitude - moved as f64 >= wmax {
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

    fn admit(&mut self, task: Task) -> Result<(), CoreError> {
        self.wmax = self.wmax.max(task.weight());
        Ok(())
    }

    fn empty(&self) -> TaskQueue {
        TaskQueue::new(self.picker)
    }

    fn capture<A: ContinuousProcess>(engine: &FlowImitation<A>) -> DiscreteState {
        let queues = engine.held.iter().map(|queue| {
            let (next_seq, entries) = queue.snapshot();
            QueueState { next_seq, entries }
        });
        DiscreteState::Alg1(Alg1State {
            queues: queues.collect(),
            dummy: engine.dummy.clone(),
            discrete_flow: engine.discrete_flow.clone(),
            wmax: engine.alg.wmax,
            dummy_created: engine.dummy_created,
            items_sent: engine.items_sent,
            arrived_weight: engine.arrived_weight,
            completed_weight: engine.completed_weight,
        })
    }

    /// Rebuilds every queue with the engine's picker, rejecting corrupt
    /// sequence numbers.
    fn restore<'s, A: ContinuousProcess>(
        engine: &mut FlowImitation<A>,
        state: &'s DiscreteState,
    ) -> Result<CommonState<'s>, SnapshotError> {
        let DiscreteState::Alg1(alg1) = state else {
            return Err(SnapshotError::mismatch(
                "snapshot carries Algorithm 2 state but the engine runs Algorithm 1",
            ));
        };
        engine.check_shape(
            alg1.queues.len(),
            alg1.dummy.len(),
            alg1.discrete_flow.len(),
        )?;
        let picker = engine.alg.picker;
        let queues = alg1.queues.iter().enumerate().map(|(node, queue)| {
            TaskQueue::restore(picker, queue.next_seq, &queue.entries)
                .map_err(|e| SnapshotError::mismatch(format!("queue of node {node}: {e}")))
        });
        engine.held = queues.collect::<Result<Vec<_>, _>>()?;
        engine.alg.wmax = alg1.wmax;
        engine.items_sent = alg1.items_sent;
        Ok(CommonState {
            dummy: &alg1.dummy,
            discrete_flow: &alg1.discrete_flow,
            dummy_created: alg1.dummy_created,
            arrived_weight: alg1.arrived_weight,
            completed_weight: alg1.completed_weight,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{DimensionExchange, Fos, RandomMatching};
    use crate::discrete::{DiscreteBalancer, DynamicBalancer, RoundEvents};
    use crate::metrics;
    use crate::task::TaskId;
    use lb_graph::{generators, AlphaScheme, Graph};

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
    fn an_arrival_that_raises_wmax_raises_the_send_floor_at_once() {
        // Two nodes: node 0 holds 10 unit tasks. Before round 0, node 1
        // receives weight 8, as one task of weight 8 or as eight unit
        // tasks. The twin moves (10 − 8)/2 = 1 over the edge either way, so
        // the engines differ only in `w_max`: at w_max = 8 a deficit of 1
        // must not send, at w_max = 1 it sends one task.
        let run = |arrivals: Vec<Task>| {
            let speeds = Speeds::uniform(2);
            let fos = fos_on(generators::complete(2).unwrap(), &speeds);
            let initial = InitialLoad::single_source(2, 0, 10);
            let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
            let events = RoundEvents {
                arrivals: arrivals.into_iter().map(|task| (1, task)).collect(),
                completions: vec![],
            };
            alg1.apply_events(&events).unwrap();
            alg1.step();
            assert_eq!(alg1.continuous().cumulative_flows(), &[1.0]);
            alg1
        };
        let heavy = run(vec![Task::new(TaskId(100), 8)]);
        assert_eq!(heavy.wmax(), 8);
        assert_eq!(heavy.items_sent(), 0, "a deficit below the new w_max sends");
        assert_eq!(heavy.loads(), vec![10.0, 8.0]);

        let units = run((0..8).map(|k| Task::new(TaskId(100 + k), 1)).collect());
        assert_eq!(units.wmax(), 1);
        assert_eq!(units.items_sent(), 1);
        assert_eq!(units.loads(), vec![9.0, 9.0]);
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
