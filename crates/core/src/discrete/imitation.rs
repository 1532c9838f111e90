//! The engine both flow-imitation algorithms share: its state, its round
//! under every executor, and its event path.
//!
//! A discrete round is: advance the continuous twin; run the algorithm's
//! per-edge [`SendRule`] over an edge list for the senders one executor
//! range owns, filling that range's outbox (a [`SendBatch`]); then
//! [`deliver`] every outbox — task records merged back into global edge
//! order, everything else additive.
//! The sequential, sharded and federated steps of [`Imitation`] differ only
//! in which ranges they run, where the outboxes live and how they reach
//! [`deliver`], so their bit-identity follows from running this one code
//! path. The algorithms themselves supply only a [`Holding`] type (task
//! queues or token counts) and a [`SendRule`].

use std::ops::{AddAssign, Range};
use std::sync::Arc;

use lb_graph::{EdgeId, Graph, NodeId};

use super::dynamic::{EventReport, RoundEvents};
use crate::continuous::{ContinuousProcess, ContinuousRunner};
use crate::error::CoreError;
use crate::federate::{FederateLink, FederatedExecutor, SendBatch};
use crate::load::InitialLoad;
use crate::shard::{ShardedExecutor, SharedSliceMut};
use crate::task::{Speeds, Task, Weight};

/// A node's real holdings: Algorithm 1's task queue or Algorithm 2's token
/// count. Dummy units are kept beside them, as a plain count per node.
pub(crate) trait Holding: Send {
    /// The real weight held.
    fn weight(&self) -> Weight;
    /// Takes over everything `orphan` holds (churn's orphan adoption).
    fn adopt(&mut self, orphan: Self);
    /// A delivered task arrives (Algorithm 1 sends tasks).
    fn receive_task(&mut self, _task: Task) {}
    /// Delivered real tokens arrive (Algorithm 2 sends token counts).
    fn receive_tokens(&mut self, _real: u64) {}
    /// An admitted arrival event lands here.
    fn arrive(&mut self, task: Task);
    /// Completes work within `budget`, reporting each drained batch to
    /// `done(tasks, weight)`.
    fn complete(&mut self, budget: Weight, done: impl FnMut(u64, Weight));
}

/// One algorithm's per-edge send rule, which every executor runs over its
/// own edge list and sender range.
pub(crate) trait SendRule: Sync {
    /// The per-node real holdings the rule draws from.
    type Holding: Holding;

    /// Runs the rule over `edges` for `senders`, putting every delivery in
    /// the outbox `out`, so a node only forwards what it held at the start
    /// of the round.
    fn send(
        &self,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, Self::Holding>,
        out: &mut SendBatch,
    ) -> Tally;
}

/// Counters one send phase accumulates (summed across ranges).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    /// Items (tasks or dummy units) moved over edges.
    pub(crate) items_sent: u64,
    /// Dummy units drawn from the infinite source.
    pub(crate) dummy_created: u64,
}

impl AddAssign for Tally {
    fn add_assign(&mut self, other: Tally) {
        self.items_sent += other.items_sent;
        self.dummy_created += other.dummy_created;
    }
}

/// The senders one executor range owns: their node range, and their
/// holdings and dummy counts indexed from `range.start`.
pub(crate) struct Senders<'a, H> {
    pub(crate) range: Range<NodeId>,
    pub(crate) held: &'a mut [H],
    pub(crate) dummy: &'a mut [u64],
}

/// One edge's transfer this round, oriented by the sign of its flow
/// deficit `f^A_e(t) − F^D_e(t−1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    /// The sender's index into the range's [`Senders`] slices.
    pub(crate) at: usize,
    pub(crate) receiver: NodeId,
    /// `|deficit|`.
    pub(crate) magnitude: f64,
    /// Sign of the ledger delta along the canonical orientation.
    pub(crate) sign: i64,
}

/// The read-only inputs of a send phase: the canonical edge list, the
/// twin's cumulative flows and the discrete ledger as of the last round.
pub(crate) struct Deficits<'a> {
    edges: &'a [(NodeId, NodeId)],
    continuous: &'a [f64],
    discrete: &'a [i64],
}

impl<'a> Deficits<'a> {
    fn new(graph: &'a Graph, continuous: &'a [f64], discrete: &'a [i64]) -> Self {
        Deficits {
            edges: graph.edges(),
            continuous,
            discrete,
        }
    }

    /// Edge `e`'s transfer, or `None` when its deficit is zero or its sender
    /// lies outside `senders`. The sign of the deficit picks the sender, so
    /// exactly one of the ranges incident to an edge processes it.
    // lint: zero-alloc
    #[inline]
    pub(crate) fn transfer(&self, e: EdgeId, senders: &Range<NodeId>) -> Option<Transfer> {
        let (u, v) = self.edges[e];
        let deficit = self.continuous[e] - self.discrete[e] as f64;
        let (sender, receiver, sign) = if deficit > 0.0 {
            (u, v, 1)
        } else if deficit < 0.0 {
            (v, u, -1)
        } else {
            return None;
        };
        senders.contains(&sender).then(|| Transfer {
            at: sender - senders.start,
            receiver,
            magnitude: deficit.abs(),
            sign,
        })
    }
}

/// The state a delivery lands in: every node's holdings and dummy counts,
/// and the discrete-flow ledger.
pub(crate) struct Sink<'a, H> {
    held: &'a mut [H],
    dummy: &'a mut [u64],
    ledger: &'a mut [i64],
}

/// The delivery phase: applies the `count` batches `outbox(0..count)` to
/// `sink`, keeping only records whose receiver lies in `owned`. Task
/// records are merged into global edge order — each batch is edge-sorted
/// and every edge has one sender-owner per round, so this is the order one
/// sequential scan produces — and everything else is additive. Ledger
/// deltas apply unfiltered; their edge ids must be in range. `cursors`
/// needs `count` slots.
// lint: zero-alloc
pub(crate) fn deliver<'b, H: Holding>(
    count: usize,
    outbox: impl Fn(usize) -> &'b SendBatch,
    owned: &Range<NodeId>,
    cursors: &mut [usize],
    sink: Sink<'_, H>,
) {
    let cursors = &mut cursors[..count];
    cursors.fill(0);
    loop {
        let mut best: Option<(EdgeId, usize)> = None;
        for (k, cursor) in cursors.iter_mut().enumerate() {
            let tasks = &outbox(k).tasks;
            while tasks
                .get(*cursor)
                .is_some_and(|&(_, receiver, _)| !owned.contains(&receiver))
            {
                *cursor += 1;
            }
            if let Some(&(edge, _, _)) = tasks.get(*cursor) {
                if best.is_none_or(|(e, _)| edge < e) {
                    best = Some((edge, k));
                }
            }
        }
        let Some((_, k)) = best else { break };
        let (_, receiver, task) = outbox(k).tasks[cursors[k]];
        cursors[k] += 1;
        sink.held[receiver].receive_task(task);
    }
    for k in 0..count {
        let batch = outbox(k);
        for &(receiver, amount) in batch.dummy.iter().filter(|r| owned.contains(&r.0)) {
            sink.dummy[receiver] += amount;
        }
        for &(receiver, real, dummy) in batch.tokens.iter().filter(|r| owned.contains(&r.0)) {
            sink.held[receiver].receive_tokens(real);
            sink.dummy[receiver] += dummy;
        }
        for &(e, delta) in &batch.deltas {
            sink.ledger[e] += delta;
        }
    }
}

/// The state both flow-imitation engines share: the continuous twin, the
/// topology, per-node real holdings and dummy counts, the discrete-flow
/// ledger and the run counters.
#[derive(Debug, Clone)]
pub(crate) struct Imitation<A: ContinuousProcess, H> {
    pub(crate) twin: ContinuousRunner<A>,
    pub(crate) graph: Arc<Graph>,
    pub(crate) speeds: Speeds,
    /// Real holdings of each node.
    pub(crate) held: Vec<H>,
    /// Unit-weight dummy load held by each node.
    pub(crate) dummy: Vec<u64>,
    /// Cumulative net discrete flow along each canonical edge orientation.
    pub(crate) discrete_flow: Vec<i64>,
    pub(crate) round: usize,
    pub(crate) dummy_created: u64,
    /// Total items moved over edges so far (Algorithm 1 counts them).
    pub(crate) items_sent: u64,
    /// Total weight injected by arrival events.
    pub(crate) arrived_weight: u64,
    /// Total weight drained by completion events.
    pub(crate) completed_weight: u64,
    /// `"alg1"` or `"alg2"`; the engine's name is `{label}({process})`.
    label: &'static str,
    pub(crate) name: String,
    /// The sequential step's outbox, reused across rounds.
    outbox: SendBatch,
}

impl<A: ContinuousProcess, H: Holding> Imitation<A, H> {
    /// Binds `held` (one entry per node of `initial`) to a twin of
    /// `process` started from the same load vector, sharing its topology.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of the
    /// process, the initial load and the speed vector disagree.
    pub(crate) fn new(
        label: &'static str,
        process: A,
        initial: &InitialLoad,
        speeds: Speeds,
        held: Vec<H>,
    ) -> Result<Self, CoreError> {
        let graph = process.shared_graph();
        let n = graph.node_count();
        if initial.node_count() != n {
            return Err(CoreError::invalid_parameter(format!(
                "initial load has {} nodes, graph has {n}",
                initial.node_count()
            )));
        }
        if speeds.len() != n {
            return Err(CoreError::invalid_parameter(format!(
                "speeds vector has {} entries, graph has {n} nodes",
                speeds.len()
            )));
        }
        let m = graph.edge_count();
        let mut outbox = SendBatch::default();
        outbox.reset_for(m);
        Ok(Imitation {
            name: format!("{label}({})", process.name()),
            twin: ContinuousRunner::new(process, initial.load_vector_f64()),
            graph,
            speeds,
            held,
            dummy: vec![0; n],
            discrete_flow: vec![0; m],
            round: 0,
            dummy_created: 0,
            items_sent: 0,
            arrived_weight: 0,
            completed_weight: 0,
            label,
            outbox,
        })
    }

    /// Replaces the topology and the twin mid-run (see the engines'
    /// `replace_topology`). Holdings and dummy counts carry over index by
    /// index; node 0 adopts those of removed nodes, and `empty` fills new
    /// ones. Speeds are truncated or padded with the unit speed. The twin
    /// restarts from the current discrete loads and the ledger resets, so a
    /// same-size rewire reuses every buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the new graph is empty.
    pub(crate) fn rebind(&mut self, process: A, empty: impl FnMut() -> H) -> Result<(), CoreError> {
        let graph = process.shared_graph();
        let n = graph.node_count();
        if n == 0 {
            return Err(CoreError::invalid_parameter(
                "cannot replace topology with an empty graph",
            ));
        }
        while self.held.len() > n {
            // lint: allow(R03, non-empty by the loop condition)
            let orphan = self.held.pop().expect("len checked above");
            self.held[0].adopt(orphan);
            // lint: allow(R03, dummy mirrors held length by construction)
            let orphan_dummy = self.dummy.pop().expect("dummy tracks held");
            self.dummy[0] += orphan_dummy;
        }
        self.held.resize_with(n, empty);
        self.dummy.resize(n, 0);
        if self.speeds.len() != n {
            let mut speed_values = self.speeds.as_slice().to_vec();
            speed_values.resize(n, 1);
            // lint: allow(R03, carried values validated positive at admission)
            self.speeds = Speeds::new(speed_values).expect("carried speeds stay positive");
        }
        self.name = format!("{}({})", self.label, process.name());
        let loads = self.held.iter().zip(&self.dummy);
        self.twin
            .rebind(process, loads.map(|(h, &d)| (h.weight() + d) as f64));
        self.graph = graph;
        let m = self.graph.edge_count();
        self.discrete_flow.clear();
        self.discrete_flow.resize(m, 0);
        self.outbox.reset_for(m);
        Ok(())
    }

    /// Checks a snapshot's per-node and per-edge vector lengths against the
    /// current graph.
    pub(crate) fn check_shape(
        &self,
        held: usize,
        dummy: usize,
        ledger: usize,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = self.graph.node_count();
        let m = self.graph.edge_count();
        if held != n || dummy != n {
            return Err(SnapshotError::mismatch(format!(
                "snapshot has {held} node entries, graph has {n} nodes"
            )));
        }
        if ledger != m {
            return Err(SnapshotError::mismatch(format!(
                "snapshot flow ledger has {ledger} entries, graph has {m} edges"
            )));
        }
        Ok(())
    }

    /// Per-node loads: real holdings plus dummy units.
    pub(crate) fn loads(&self) -> Vec<f64> {
        let loads = self.held.iter().zip(&self.dummy);
        loads.map(|(h, &d)| (h.weight() + d) as f64).collect()
    }

    /// Per-node real loads, dummy units excluded.
    pub(crate) fn real_loads(&self) -> Vec<f64> {
        self.held.iter().map(|h| h.weight() as f64).collect()
    }

    /// Maximum absolute per-edge deviation between the continuous and
    /// discrete cumulative flows.
    pub(crate) fn max_flow_deviation(&self) -> f64 {
        let flows = self.twin.cumulative_flows().iter().zip(&self.discrete_flow);
        flows
            .map(|(&fa, &fd)| (fa - fd as f64).abs())
            .fold(0.0, f64::max)
    }

    /// The event path of both `apply_events` forms: completions first
    /// (finished work leaves the holdings and the twin), then arrivals (new
    /// work lands on a node and on the twin). Holding and twin effects apply
    /// to `owned` nodes only; node bounds are checked for every event, and
    /// `admit` sees every arrival, owned or not, so global rules (Algorithm
    /// 1's `w_max`, Algorithm 2's unit weights) agree across federated
    /// parts. The report counts owned events only.
    pub(crate) fn apply_events(
        &mut self,
        events: &RoundEvents,
        owned: Range<NodeId>,
        mut admit: impl FnMut(Task) -> Result<(), CoreError>,
    ) -> Result<EventReport, CoreError> {
        let n = self.graph.node_count();
        let check = |kind: &str, node: NodeId| {
            if node >= n {
                return Err(CoreError::invalid_parameter(format!(
                    "{kind} on node {node}, graph has {n} nodes"
                )));
            }
            Ok(owned.contains(&node))
        };
        let mut report = EventReport::default();
        for &(node, budget) in &events.completions {
            if check("completion", node)? {
                self.held[node].complete(budget, |tasks, weight| {
                    report.completed_tasks += tasks;
                    report.completed_weight += weight;
                    self.twin.adjust_load(node, -(weight as f64));
                });
            }
        }
        for &(node, task) in &events.arrivals {
            let own = check("arrival", node)?;
            admit(task)?;
            if own {
                self.held[node].arrive(task);
                self.twin.adjust_load(node, task.weight() as f64);
                report.arrived_tasks += 1;
                report.arrived_weight += task.weight();
            }
        }
        self.arrived_weight += report.arrived_weight;
        self.completed_weight += report.completed_weight;
        Ok(report)
    }

    /// The delivery target: every node's state and the ledger.
    // lint: zero-alloc
    fn sink(&mut self) -> Sink<'_, H> {
        Sink {
            held: &mut self.held,
            dummy: &mut self.dummy,
            ledger: &mut self.discrete_flow,
        }
    }

    /// One sequential round: the twin advances so `f^A` refers to the end
    /// of the round, `rule` runs over every edge for every sender into the
    /// engine's own outbox, and delivery applies it.
    // lint: zero-alloc
    pub(crate) fn step(&mut self, rule: &impl SendRule<Holding = H>) {
        self.twin.step();
        let all = 0..self.graph.node_count();
        let mut outbox = std::mem::take(&mut self.outbox);
        outbox.clear();
        let deficits = Deficits::new(
            &self.graph,
            self.twin.cumulative_flows(),
            &self.discrete_flow,
        );
        let senders = Senders {
            range: all.clone(),
            held: &mut self.held,
            dummy: &mut self.dummy,
        };
        let edges = 0..self.graph.edge_count();
        let tally = rule.send(&deficits, edges, senders, &mut outbox);
        deliver(1, |_| &outbox, &all, &mut [0], self.sink());
        self.outbox = outbox;
        self.finish_round(tally);
    }

    /// One sharded round: the twin advances through
    /// [`ContinuousRunner::step_sharded`], then every shard runs `rule`
    /// over the edges incident to its node range for the senders it owns —
    /// so all draws from one node happen on one thread, in canonical edge
    /// order, exactly as in the sequential scan — and delivery merges the
    /// shard outboxes back into global edge order.
    // lint: zero-alloc
    pub(crate) fn step_sharded(
        &mut self,
        exec: &mut ShardedExecutor,
        rule: &impl SendRule<Holding = H>,
    ) where
        A: Sync,
    {
        exec.ensure_plan(&self.graph);
        if exec.shard_count() == 1 {
            self.step(rule);
            return;
        }
        self.twin.step_sharded(exec);
        {
            let deficits = Deficits::new(
                &self.graph,
                self.twin.cumulative_flows(),
                &self.discrete_flow,
            );
            let held = SharedSliceMut::new(&mut self.held);
            let dummy = SharedSliceMut::new(&mut self.dummy);
            exec.send_phase(|range, edges, out| {
                // SAFETY: shard node ranges partition `0..n`.
                let (held, dummy) = unsafe {
                    (
                        held.range_mut(range.clone()),
                        dummy.range_mut(range.clone()),
                    )
                };
                let senders = Senders { range, held, dummy };
                rule.send(&deficits, edges.iter().copied(), senders, out)
            });
        }
        let tally = exec.deliver(self.sink());
        self.finish_round(tally);
    }

    /// One federated round for the part `fed` owns: the twin advances
    /// through [`ContinuousRunner::step_federated`], `rule` runs over the
    /// edges incident to the part for the senders it owns, deliveries to
    /// remote receivers travel in the wire batch over `link`, and delivery
    /// merges this part's outbox with every foreign batch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] if an exchange fails or a peer
    /// sends a malformed payload, and [`CoreError::InvalidParameter`] if the
    /// process does not support range-split kernels.
    pub(crate) fn step_federated(
        &mut self,
        fed: &mut FederatedExecutor,
        link: &mut dyn FederateLink,
        rule: &impl SendRule<Holding = H>,
    ) -> Result<(), CoreError>
    where
        A: Sync,
    {
        fed.ensure_plan(&self.graph)?;
        self.twin.step_federated(fed, link)?;
        let deficits = Deficits::new(
            &self.graph,
            self.twin.cumulative_flows(),
            &self.discrete_flow,
        );
        let tally = fed.send_phase(|range, edges, out| {
            let held = &mut self.held[range.clone()];
            let dummy = &mut self.dummy[range.clone()];
            let senders = Senders { range, held, dummy };
            rule.send(&deficits, edges.iter().copied(), senders, out)
        });
        fed.deliver(link, self.sink())?;
        self.finish_round(tally);
        Ok(())
    }

    /// Folds one round's send counters in and closes the round.
    // lint: zero-alloc
    fn finish_round(&mut self, tally: Tally) {
        self.items_sent += tally.items_sent;
        self.dummy_created += tally.dummy_created;
        self.round += 1;
    }
}
