//! Dynamic workloads: per-round events applied between balancing rounds.
//!
//! The paper analyses a *static drain*: a fixed initial load vector is
//! balanced until the continuous twin converges. Real deployments see ongoing
//! task arrivals, task completions and topology churn. This module opens that
//! workload class for the flow-imitation discretizers:
//!
//! * [`RoundEvents`] — one round's batch of arrivals and per-node completion
//!   budgets, with reusable internal buffers;
//! * [`DynamicBalancer`] — the object-safe extension of
//!   [`DiscreteBalancer`] that applies such a batch between rounds.
//!
//! # Contract with the zero-allocation hot loop
//!
//! [`DynamicBalancer::apply_events`] **may allocate** (queues grow, the twin
//! never does) — it runs between rounds, off the steady-state path. The
//! subsequent [`step`](super::DiscreteBalancer::step) must remain
//! allocation-free once buffers are warm; `tests/zero_alloc.rs` enforces this
//! with a counting global allocator under a sustained arrival stream.
//!
//! # Why injecting load preserves the imitation guarantees
//!
//! Both the discrete process and its continuous twin receive every event: an
//! arriving task adds its weight to the node's queue *and* to the twin's load
//! vector; a completion removes the same whole-task weight from both.
//! Because the continuous processes are additive (Definition 3), the twin's
//! future flows decompose into "flows of the old load" plus "flows of the
//! injected load", and the cumulative-flow ledger the discretizer imitates
//! remains meaningful. The per-edge deviation bound of Observation 4
//! (`|f^A_e − f^D_e| < w_max`) is argued round-by-round from the floor rule
//! alone and is therefore untouched by load injection — only `w_max` itself
//! can grow, if an arrival carries a heavier task than any seen before.

use crate::error::CoreError;
use crate::task::{Task, Weight};
use lb_graph::NodeId;

use super::DiscreteBalancer;

/// One round's worth of workload events, applied between balancing rounds.
///
/// The two vectors are plain buffers so a driver can fill, apply and
/// [`clear`](RoundEvents::clear) one instance per round without reallocating
/// in steady state.
#[derive(Debug, Clone, Default)]
pub struct RoundEvents {
    /// Tasks arriving this round: `(destination node, task)`.
    pub arrivals: Vec<(NodeId, Task)>,
    /// Per-node completion budgets `(node, weight)`: the node completes whole
    /// tasks in pick order while the next task fits in the remaining budget.
    pub completions: Vec<(NodeId, Weight)>,
}

impl RoundEvents {
    /// Clears both buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.arrivals.clear();
        self.completions.clear();
    }

    /// Returns `true` if the batch contains no events.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty() && self.completions.is_empty()
    }
}

/// What applying one [`RoundEvents`] batch actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventReport {
    /// Number of tasks delivered to queues.
    pub arrived_tasks: u64,
    /// Total weight delivered to queues.
    pub arrived_weight: u64,
    /// Number of whole tasks completed (removed from queues).
    pub completed_tasks: u64,
    /// Total weight completed.
    pub completed_weight: u64,
}

/// A discrete balancer that supports dynamic workloads: task arrivals and
/// completions applied between rounds.
///
/// Object-safe, like [`DiscreteBalancer`], so scenario drivers can hold
/// heterogeneous engines behind `Box<dyn DynamicBalancer>`.
///
/// Topology churn is *not* part of this trait — rebuilding a process needs
/// the concrete continuous type, so it lives on the implementor: the one
/// `replace_topology` that `FlowImitation` and `RandomizedImitation` share.
pub trait DynamicBalancer: DiscreteBalancer {
    /// Applies one batch of events: completions first (finished work leaves
    /// the system), then arrivals. Both sides of the twin pairing receive
    /// every event (see the module docs).
    ///
    /// May allocate; the following [`step`](DiscreteBalancer::step) must not.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if an event names a node
    /// outside the graph, or if the implementation cannot represent the
    /// event (e.g. a non-unit-weight arrival for Algorithm 2).
    fn apply_events(&mut self, events: &RoundEvents) -> Result<EventReport, CoreError>;

    /// Total weight completed (drained via completion budgets) so far.
    fn completed_weight(&self) -> u64;

    /// Total weight arrived (injected after round 0) so far.
    fn arrived_weight(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::Fos;
    use crate::discrete::{FlowImitation, RandomizedImitation, TaskPicker};
    use crate::load::InitialLoad;
    use crate::task::{Speeds, TaskId};
    use lb_graph::{generators, AlphaScheme};

    fn alg1_on_torus() -> FlowImitation<Fos> {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
    }

    #[test]
    fn arrivals_increase_real_load_on_both_sides() {
        let mut alg1 = alg1_on_torus();
        alg1.run(10);
        let twin_total_before: f64 = alg1.continuous().loads().iter().sum();
        let mut events = RoundEvents::default();
        events.arrivals.push((3, Task::new(TaskId(1_000), 2)));
        events.arrivals.push((5, Task::new(TaskId(1_001), 1)));
        let report = alg1.apply_events(&events).unwrap();
        assert_eq!(report.arrived_tasks, 2);
        assert_eq!(report.arrived_weight, 3);
        assert_eq!(alg1.arrived_weight(), 3);
        let real: f64 = alg1.real_loads().iter().sum();
        assert!((real - 67.0).abs() < 1e-9);
        let twin_total: f64 = alg1.continuous().loads().iter().sum();
        assert!((twin_total - twin_total_before - 3.0).abs() < 1e-9);
        // w_max tracks the heaviest arrival.
        assert_eq!(alg1.wmax(), 2);
    }

    #[test]
    fn completions_respect_whole_task_budgets() {
        let mut alg1 = alg1_on_torus();
        let mut events = RoundEvents::default();
        // Node 0 holds 64 unit tokens; budget 5 completes exactly 5.
        events.completions.push((0, 5));
        // Node 1 holds nothing; budget is simply unused.
        events.completions.push((1, 7));
        let report = alg1.apply_events(&events).unwrap();
        assert_eq!(report.completed_tasks, 5);
        assert_eq!(report.completed_weight, 5);
        assert_eq!(alg1.completed_weight(), 5);
        let real: f64 = alg1.real_loads().iter().sum();
        assert!((real - 59.0).abs() < 1e-9);
        let twin_total: f64 = alg1.continuous().loads().iter().sum();
        assert!((twin_total - 59.0).abs() < 1e-9);
    }

    #[test]
    fn heavy_head_blocks_completion_budget() {
        // A FIFO queue whose head is heavier than the budget completes
        // nothing: budgets complete whole tasks in pick order only.
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let initial = InitialLoad::from_tasks(vec![
            vec![Task::new(TaskId(0), 5), Task::new(TaskId(1), 1)],
            vec![],
            vec![],
            vec![],
        ]);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        let mut events = RoundEvents::default();
        events.completions.push((0, 3));
        let report = alg1.apply_events(&events).unwrap();
        assert_eq!(report.completed_tasks, 0);
        assert_eq!(report.completed_weight, 0);
    }

    #[test]
    fn out_of_range_events_are_rejected() {
        let mut alg1 = alg1_on_torus();
        let mut events = RoundEvents::default();
        events.arrivals.push((16, Task::new(TaskId(0), 1)));
        assert!(alg1.apply_events(&events).is_err());
        events.clear();
        assert!(events.is_empty());
        events.completions.push((99, 1));
        assert!(alg1.apply_events(&events).is_err());
    }

    #[test]
    fn alg2_rejects_weighted_arrivals_but_takes_tokens() {
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 32);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg2 = RandomizedImitation::new(fos, &initial, speeds, 9).unwrap();
        let mut events = RoundEvents::default();
        events.arrivals.push((2, Task::new(TaskId(500), 3)));
        assert!(alg2.apply_events(&events).is_err());
        events.clear();
        events.arrivals.push((2, Task::new(TaskId(500), 1)));
        events.completions.push((0, 4));
        let report = alg2.apply_events(&events).unwrap();
        assert_eq!(report.arrived_weight, 1);
        assert_eq!(report.completed_weight, 4);
        let real: f64 = alg2.real_loads().iter().sum();
        assert!((real - 29.0).abs() < 1e-9);
    }

    #[test]
    fn replace_topology_carries_tasks_and_resets_ledgers() {
        let mut alg1 = alg1_on_torus();
        alg1.run(30);
        let total_before: f64 = alg1.real_loads().iter().sum();

        // Shrink to a 3×3 torus: nodes 9..16 bequeath their tasks to node 0.
        let smaller = generators::torus(3, 3).unwrap();
        let speeds9 = Speeds::uniform(9);
        let fos = Fos::new(smaller, &speeds9, AlphaScheme::MaxDegreePlusOne).unwrap();
        alg1.replace_topology(fos).unwrap();
        assert_eq!(alg1.graph().node_count(), 9);
        assert_eq!(alg1.speeds().len(), 9);
        let total_after: f64 = alg1.real_loads().iter().sum();
        assert!((total_after - total_before).abs() < 1e-9, "tasks conserved");
        assert_eq!(alg1.max_flow_deviation(), 0.0, "fresh imitation epoch");

        // The twin restarts from the current discrete loads and the system
        // keeps balancing on the new topology.
        alg1.run(800);
        let d = alg1.graph().max_degree() as f64;
        let speeds = alg1.speeds().clone();
        let max_avg = crate::metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        assert!(max_avg <= 2.0 * d + 2.0 + 1e-9, "max-avg {max_avg}");

        // Grow back to 16 nodes: new nodes start empty, balancing resumes.
        let larger = generators::torus(4, 4).unwrap();
        let speeds16 = Speeds::uniform(16);
        let fos = Fos::new(larger, &speeds16, AlphaScheme::MaxDegreePlusOne).unwrap();
        alg1.replace_topology(fos).unwrap();
        assert_eq!(alg1.graph().node_count(), 16);
        let total_grown: f64 = alg1.real_loads().iter().sum();
        assert!((total_grown - total_before).abs() < 1e-9);
        alg1.run(100);
    }

    #[test]
    fn replace_topology_takes_the_process_speeds_at_an_unchanged_node_count() {
        let mut alg1 = alg1_on_torus();
        alg1.run(5);
        let g = generators::torus(4, 4).unwrap();
        let speeds = Speeds::new((0..16).map(|i| 1 + i % 3).collect()).unwrap();
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        alg1.replace_topology(fos).unwrap();
        assert_eq!(
            alg1.speeds(),
            &speeds,
            "carried over would keep unit speeds"
        );
    }

    #[test]
    fn balancing_continues_to_bound_discrepancy_under_events() {
        // Inject a burst, let the system re-balance, and check the Theorem 3
        // style bound still holds at the end (the twin re-converges on the
        // new total).
        let mut alg1 = alg1_on_torus();
        alg1.run(50);
        let mut events = RoundEvents::default();
        for k in 0..64 {
            events.arrivals.push((7, Task::new(TaskId(10_000 + k), 1)));
        }
        alg1.apply_events(&events).unwrap();
        alg1.run(1_500);
        let d = alg1.graph().max_degree() as f64;
        let speeds = alg1.speeds().clone();
        let max_avg = crate::metrics::max_avg_discrepancy(&alg1.loads(), &speeds);
        assert!(
            max_avg <= 2.0 * d + 2.0 + 1e-9,
            "max-avg {max_avg} after burst exceeds 2d + 2"
        );
    }
}
