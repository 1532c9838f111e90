//! The flow-imitation engine `D(A)`, written once for both algorithms: its
//! state, its round under every executor, its event path and its churn
//! rebind.
//!
//! A discrete round is: advance the continuous twin; run the algorithm's
//! per-edge [`Algorithm::send`] over an edge list for the senders one
//! executor range owns, filling that range's outbox (a [`SendBatch`]); then
//! [`deliver`] every outbox — task records merged back into global edge
//! order, everything else additive.
//! The sequential, sharded and federated steps of [`Imitation`] differ only
//! in which ranges they run, where the outboxes live and how they reach
//! [`deliver`], so their bit-identity follows from running this one code
//! path. An [`Algorithm`] supplies only its [`Holding`] type (task queues or
//! token counts), its per-edge send, its arrival admission rule, the
//! holding a new node starts with and its snapshot variant;
//! `FlowImitation` and `RandomizedImitation` are this engine with
//! Algorithm 1 and Algorithm 2.

use std::ops::{AddAssign, Range};
use std::sync::Arc;

use lb_graph::{EdgeId, Graph, NodeId};

use super::dynamic::{DynamicBalancer, EventReport, RoundEvents};
use super::DiscreteBalancer;
use crate::continuous::{ContinuousProcess, ContinuousRunner};
use crate::error::CoreError;
use crate::federate::{FederateLink, FederatedExecutor, SendBatch};
use crate::shard::{ShardedExecutor, SharedSliceMut};
use crate::snapshot::{DiscreteState, EngineState, SnapshotError};
use crate::task::{Speeds, Task, Weight};

/// A node's real holdings: Algorithm 1's task queue or Algorithm 2's token
/// count. Dummy units are kept beside them, as a plain count per node.
pub trait Holding: Send {
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

/// One flow-imitation algorithm: how an edge's flow deficit is rounded into
/// whole items, plus the parameters that rule needs.
pub trait Algorithm: Sized + Sync {
    /// The per-node real holdings the algorithm moves.
    type Holding: Holding;
    /// `"alg1"` or `"alg2"`; the engine's name is `{LABEL}({process})`.
    const LABEL: &'static str;

    /// Runs round `round`'s rule over `edges` for `senders`, putting every
    /// delivery in the outbox `out`, so a node only forwards what it held at
    /// the start of the round. Each edge's deficit is read first
    /// (`Deficits::deficit`, its two flow entries) and tested by the rule:
    /// Algorithm 1 skips a deficit below `w_max`, Algorithm 2 one that
    /// rounds to zero. Only an edge that will send goes through the shared
    /// routing step (`Deficits::route`), which reads its endpoints.
    fn send(
        &self,
        round: usize,
        deficits: &Deficits<'_>,
        edges: impl IntoIterator<Item = EdgeId>,
        senders: Senders<'_, Self::Holding>,
        out: &mut SendBatch,
    ) -> Tally;

    /// Admits an arrival event. Every federated part sees every arrival,
    /// owned or not, so global rules (Algorithm 1's `w_max`, Algorithm 2's
    /// unit weights) agree across parts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the algorithm cannot take
    /// the task.
    fn admit(&mut self, task: Task) -> Result<(), CoreError>;

    /// The holdings a node added by churn starts with.
    fn empty(&self) -> Self::Holding;

    /// `engine`'s discrete half as this algorithm's [`DiscreteState`]
    /// variant: its holdings, the fields both variants carry and its own
    /// parameter.
    fn capture<A: ContinuousProcess>(engine: &Imitation<A, Self>) -> DiscreteState;

    /// Restores the holdings and parameters of `state` into `engine` and
    /// returns the fields both variants carry, which the engine restores.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`] if `state` is the other
    /// algorithm's variant, does not fit the graph, or disagrees with the
    /// algorithm's parameters.
    fn restore<'s, A: ContinuousProcess>(
        engine: &mut Imitation<A, Self>,
        state: &'s DiscreteState,
    ) -> Result<CommonState<'s>, SnapshotError>;
}

/// The fields of a [`DiscreteState`] that both algorithms' variants carry.
pub struct CommonState<'s> {
    pub(crate) dummy: &'s [u64],
    pub(crate) discrete_flow: &'s [i64],
    pub(crate) dummy_created: u64,
    pub(crate) arrived_weight: u64,
    pub(crate) completed_weight: u64,
}

/// Counters one send phase accumulates (summed across ranges).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
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
pub struct Senders<'a, H> {
    pub(crate) range: Range<NodeId>,
    pub(crate) held: &'a mut [H],
    pub(crate) dummy: &'a mut [u64],
}

/// Where one edge's transfer goes this round, oriented by the sign of its
/// flow deficit `f^A_e(t) − F^D_e(t−1)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    /// The sender's index into the range's [`Senders`] slices.
    pub(crate) at: usize,
    pub(crate) receiver: NodeId,
    /// Sign of the ledger delta along the canonical orientation.
    pub(crate) sign: i64,
}

/// The read-only inputs of a send phase: the canonical edge list, the
/// twin's cumulative flows and the discrete ledger as of the last round.
pub struct Deficits<'a> {
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

    /// Edge `e`'s flow deficit `f^A_e(t) − F^D_e(t−1)`, from the twin's
    /// cumulative flow and the ledger entry alone (16 bytes). A rule tests
    /// it before it calls [`route`](Self::route), so an edge that cannot
    /// send never loads its endpoints.
    // lint: zero-alloc
    #[inline]
    pub(crate) fn deficit(&self, e: EdgeId) -> f64 {
        self.continuous[e] - self.discrete[e] as f64
    }

    /// Routes edge `e`'s `deficit`: `None` when it is zero or NaN, or when
    /// its sender lies outside `senders`. The sign of the deficit picks the
    /// sender, so exactly one of the ranges incident to an edge processes
    /// it. This is the only place an edge's endpoints are read.
    // lint: zero-alloc
    #[inline]
    pub(crate) fn route(
        &self,
        e: EdgeId,
        deficit: f64,
        senders: &Range<NodeId>,
    ) -> Option<Transfer> {
        // A zero or NaN deficit fails both comparisons.
        let sign = if deficit > 0.0 {
            1
        } else if deficit < 0.0 {
            -1
        } else {
            return None;
        };
        let (u, v) = self.edges[e];
        let (sender, receiver) = if sign > 0 { (u, v) } else { (v, u) };
        senders.contains(&sender).then(|| Transfer {
            at: sender - senders.start,
            receiver,
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

/// The flow-imitation discretization `D(A)` of a continuous process `A`
/// under algorithm `R`: the continuous twin, the topology, per-node real
/// holdings and dummy counts, the discrete-flow ledger, the run counters
/// and the algorithm's own parameters. Used through its two aliases,
/// `FlowImitation` (Algorithm 1) and `RandomizedImitation` (Algorithm 2).
#[derive(Debug, Clone)]
pub struct Imitation<A: ContinuousProcess, R: Algorithm> {
    pub(crate) twin: ContinuousRunner<A>,
    pub(crate) graph: Arc<Graph>,
    pub(crate) speeds: Speeds,
    /// Real holdings of each node.
    pub(crate) held: Vec<R::Holding>,
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
    /// `{R::LABEL}({process})`.
    name: String,
    /// The sequential step's outbox, reused across rounds.
    outbox: SendBatch,
    /// The algorithm and its parameters.
    pub(crate) alg: R,
}

impl<A: ContinuousProcess, R: Algorithm> Imitation<A, R> {
    /// Binds `held` (one entry per node) and `alg` to a twin of `process`
    /// started from `loads`, the same load vector, as the paper prescribes,
    /// sharing its topology (no graph clone).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the node counts of the
    /// process, the initial load and the speed vector disagree.
    pub(crate) fn with_holdings(
        process: A,
        loads: Vec<f64>,
        speeds: Speeds,
        held: Vec<R::Holding>,
        alg: R,
    ) -> Result<Self, CoreError> {
        let graph = process.shared_graph();
        let n = graph.node_count();
        if loads.len() != n {
            return Err(CoreError::invalid_parameter(format!(
                "initial load has {} nodes, graph has {n}",
                loads.len()
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
            name: format!("{}({})", R::LABEL, process.name()),
            twin: ContinuousRunner::new(process, loads),
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
            outbox,
            alg,
        })
    }

    /// Replaces the topology (and the continuous twin) mid-run: the
    /// churn-event half of a dynamic scenario.
    ///
    /// `process` is a freshly built continuous process on the new graph.
    /// Per-node holdings (task queues or token counts) and dummy counts
    /// carry over index by index; if the new graph is smaller, node 0 adopts
    /// the holdings of removed nodes (the deterministic "orphan adoption"
    /// rule); if it is larger, the new nodes start empty. The engine takes
    /// its speeds from `process`, which a churn driver builds on the carried
    /// speeds ([`Speeds::resized`]), so even an engine rebound onto an epoch
    /// of its own node count drops speeds that are no longer carried (a
    /// resume after a resize and back). The twin restarts from the
    /// *current* discrete load vector and the flow ledger resets to zero —
    /// imitation begins a
    /// fresh epoch on the new topology, so the Observation 4 deviation bound
    /// holds per epoch.
    ///
    /// For a same-size rewire this reuses every engine buffer (holdings,
    /// twin load/flow vectors and the ledger are cleared in place, not
    /// reallocated); only a node-count change reallocates the carried
    /// containers. A sharded or federated executor rebinds itself to the new
    /// topology on its next step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the new graph is empty or
    /// the process's speeds are not whole numbers of at least 1.
    pub fn replace_topology(&mut self, process: A) -> Result<(), CoreError> {
        let graph = process.shared_graph();
        let n = graph.node_count();
        if n == 0 {
            return Err(CoreError::invalid_parameter(
                "cannot replace topology with an empty graph",
            ));
        }
        let speeds = process.speeds();
        let unchanged = speeds.len() == self.speeds.len()
            && speeds
                .iter()
                .zip(self.speeds.as_slice())
                .all(|(&f, &s)| f == s as f64);
        if !unchanged {
            self.speeds = Speeds::from_f64(speeds).map_err(CoreError::invalid_parameter)?;
        }
        while self.held.len() > n {
            // lint: allow(R03, non-empty by the loop condition)
            let orphan = self.held.pop().expect("len checked above");
            self.held[0].adopt(orphan);
            // lint: allow(R03, dummy mirrors held length by construction)
            let orphan_dummy = self.dummy.pop().expect("dummy tracks held");
            self.dummy[0] += orphan_dummy;
        }
        self.held.resize_with(n, || self.alg.empty());
        self.dummy.resize(n, 0);
        self.name = format!("{}({})", R::LABEL, process.name());
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

    /// The continuous twin being imitated.
    pub fn continuous(&self) -> &ContinuousRunner<A> {
        &self.twin
    }

    /// Total dummy load created from the infinite source so far.
    pub fn dummy_created(&self) -> u64 {
        self.dummy_created
    }

    /// Per-node dummy holdings. In a federated partition only the owned
    /// entries are authoritative (foreign slots are stale); a sampler must
    /// slice its own node range.
    pub fn dummy_holdings(&self) -> &[u64] {
        &self.dummy
    }

    /// Per-node loads *excluding* dummy load (the real workload only).
    ///
    /// Each entry is O(1): task queues maintain their totals incrementally,
    /// so sampling this inside an experiment loop costs O(n), not O(n·k).
    pub fn real_loads(&self) -> Vec<f64> {
        self.held.iter().map(|h| h.weight() as f64).collect()
    }

    /// Maximum absolute per-edge deviation `|f^A_e(t) − f^D_e(t)|` between
    /// the continuous and discrete cumulative flows. Observation 4 keeps it
    /// below `w_max` for Algorithm 1; randomized rounding keeps it below 1
    /// for Algorithm 2 (part (3) of Observation 9).
    pub fn max_flow_deviation(&self) -> f64 {
        let flows = self.twin.cumulative_flows().iter().zip(&self.discrete_flow);
        flows
            .map(|(&fa, &fd)| (fa - fd as f64).abs())
            .fold(0.0, f64::max)
    }

    /// Sharded [`step`](DiscreteBalancer::step): the twin advances through
    /// [`ContinuousRunner::step_sharded`], then every shard runs the send
    /// rule over the edges incident to its node range for the senders it
    /// owns — so all draws from one node happen on one thread, in canonical
    /// edge order, exactly as in the sequential scan, and Algorithm 2's
    /// rounding draws come from per-`(seed, round, edge)` sub-RNGs
    /// ([`edge_rounding_rng`](super::edge_rounding_rng)) — into its own
    /// outbox. Delivery merges the shard outboxes back into global edge
    /// order, making the round **bit-identical** to
    /// [`step`](DiscreteBalancer::step) for every shard count.
    ///
    /// The executor rebinds itself to the engine's current topology (plan
    /// rebuild after [`replace_topology`](Self::replace_topology) happens on
    /// the next sharded step). Steady-state calls on an unchanged topology
    /// do not allocate once the outboxes have warmed up.
    // lint: zero-alloc
    pub fn step_sharded(&mut self, exec: &mut ShardedExecutor)
    where
        A: Sync,
    {
        exec.ensure_plan(&self.graph);
        if exec.shard_count() == 1 {
            self.step();
            return;
        }
        self.twin.step_sharded(exec);
        {
            let deficits = Deficits::new(
                &self.graph,
                self.twin.cumulative_flows(),
                &self.discrete_flow,
            );
            let (alg, round) = (&self.alg, self.round);
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
                alg.send(round, &deficits, edges.iter().copied(), senders, out)
            });
        }
        let tally = exec.deliver(self.sink());
        self.finish_round(tally);
    }

    /// Federated [`step`](DiscreteBalancer::step): this engine instance owns
    /// one contiguous node range of a larger simulation and exchanges three
    /// payloads per round over `link` (boundary twin loads, crossing-edge
    /// flows, cross-partition deliveries). The twin advances through
    /// [`ContinuousRunner::step_federated`], then this part runs the send
    /// rule over the edges whose **sender** it owns — the same
    /// unique-sender rule as the sharded step, with no RNG-stream
    /// coordination between processes — routing deliveries to remote
    /// receivers into the outgoing [`SendBatch`]. Incoming batches merge
    /// back into global edge order, so the owned slice of every state vector
    /// stays **bit-identical** to the sequential engine's at every round.
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
        fed.ensure_plan(&self.graph)?;
        self.twin.step_federated(fed, link)?;
        let deficits = Deficits::new(
            &self.graph,
            self.twin.cumulative_flows(),
            &self.discrete_flow,
        );
        let (alg, round) = (&self.alg, self.round);
        let tally = fed.send_phase(|range, edges, out| {
            let held = &mut self.held[range.clone()];
            let dummy = &mut self.dummy[range.clone()];
            let senders = Senders { range, held, dummy };
            alg.send(round, &deficits, edges.iter().copied(), senders, out)
        });
        fed.deliver(link, self.sink())?;
        self.finish_round(tally);
        Ok(())
    }

    /// Federated [`apply_events`](DynamicBalancer::apply_events): every part
    /// sees the **full** event stream (scenario-derived, so no broadcast is
    /// needed) but applies holding and twin effects only for the nodes it
    /// owns. Validation (node bounds, and the algorithm's admission rule:
    /// Algorithm 1 tracks `w_max`, Algorithm 2 takes unit weights only)
    /// covers all events, so every part agrees on global state and rejects
    /// a bad stream identically. The returned report counts owned events
    /// only, so gathered partials sum to the sequential report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if an event names a node
    /// outside the graph or the algorithm rejects an arrival.
    pub fn apply_events_federated(
        &mut self,
        events: &RoundEvents,
        fed: &mut FederatedExecutor,
    ) -> Result<EventReport, CoreError> {
        fed.ensure_plan(&self.graph)?;
        self.apply_owned_events(events, fed.plan.node_range())
    }

    /// Captures the engine's full state at a between-rounds boundary (the
    /// quiescent point: no deliveries pending) for a snapshot. Algorithm 2's
    /// rounding RNG needs no serialization: every decision derives a fresh
    /// sub-RNG from `(seed, round, edge)`
    /// ([`edge_rounding_rng`](super::edge_rounding_rng)), so the seed and
    /// round counter are its full derivation inputs. Event-time only —
    /// allocates freely; rounds between checkpoints stay allocation-free.
    pub fn capture(&self) -> EngineState {
        EngineState {
            round: self.round as u64,
            twin: self.twin.capture(),
            discrete: R::capture(self),
        }
    }

    /// Restores state captured by [`capture`](Self::capture) into an engine
    /// freshly built on the snapshot's topology epoch (same graph, speeds,
    /// picker and seed). The continuous process takes its history from the
    /// snapshot (SOS: β and its basis, so the engine's name follows β).
    /// After a successful restore the engine continues **bit-identically**
    /// to the uninterrupted run, at any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`] if the snapshot belongs to the
    /// other algorithm, does not fit the graph or the continuous process,
    /// carries corrupt queue sequence numbers (Algorithm 1) or was captured
    /// under a different master seed (Algorithm 2, a stale snapshot). After
    /// an error the engine may be partly overwritten; rebuild it before use.
    pub fn restore(&mut self, state: &EngineState) -> Result<(), SnapshotError> {
        let common = R::restore(self, &state.discrete)?;
        self.twin.restore(&state.twin)?;
        self.name = format!("{}({})", R::LABEL, self.twin.process().name());
        self.dummy.copy_from_slice(common.dummy);
        self.discrete_flow.copy_from_slice(common.discrete_flow);
        self.round = state.round as usize;
        self.dummy_created = common.dummy_created;
        self.arrived_weight = common.arrived_weight;
        self.completed_weight = common.completed_weight;
        Ok(())
    }

    /// Checks a snapshot's per-node and per-edge vector lengths against the
    /// current graph.
    pub(crate) fn check_shape(
        &self,
        held: usize,
        dummy: usize,
        ledger: usize,
    ) -> Result<(), SnapshotError> {
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

    /// The event path of both `apply_events` forms: completions first
    /// (finished work leaves the holdings and the twin), then arrivals (new
    /// work lands on a node and on the twin). Holding and twin effects apply
    /// to `owned` nodes only; node bounds are checked and
    /// [`Algorithm::admit`] runs for every event, owned or not. The report
    /// counts owned events only.
    fn apply_owned_events(
        &mut self,
        events: &RoundEvents,
        owned: Range<NodeId>,
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
            self.alg.admit(task)?;
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
    fn sink(&mut self) -> Sink<'_, R::Holding> {
        Sink {
            held: &mut self.held,
            dummy: &mut self.dummy,
            ledger: &mut self.discrete_flow,
        }
    }

    /// Folds one round's send counters in and closes the round.
    // lint: zero-alloc
    fn finish_round(&mut self, tally: Tally) {
        self.items_sent += tally.items_sent;
        self.dummy_created += tally.dummy_created;
        self.round += 1;
    }
}

impl<A: ContinuousProcess, R: Algorithm> DiscreteBalancer for Imitation<A, R> {
    fn name(&self) -> &str {
        &self.name
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn speeds(&self) -> &Speeds {
        &self.speeds
    }

    fn round(&self) -> usize {
        self.round
    }

    fn loads(&self) -> Vec<f64> {
        let loads = self.held.iter().zip(&self.dummy);
        loads.map(|(h, &d)| (h.weight() + d) as f64).collect()
    }

    fn dummy_load(&self) -> u64 {
        self.dummy.iter().sum()
    }

    /// One sequential round: the twin advances so `f^A` refers to the end
    /// of the round, the send rule runs over every edge for every sender
    /// into the engine's own outbox, and delivery applies it. The scan over
    /// all `m` edges reads each edge's twin flow and ledger entry; an edge's
    /// endpoints are read only when the algorithm's rule sends over it (see
    /// [`Algorithm::send`]).
    // lint: zero-alloc
    fn step(&mut self) {
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
        let tally = self
            .alg
            .send(self.round, &deficits, edges, senders, &mut outbox);
        deliver(1, |_| &outbox, &all, &mut [0], self.sink());
        self.outbox = outbox;
        self.finish_round(tally);
    }
}

impl<A: ContinuousProcess, R: Algorithm> DynamicBalancer for Imitation<A, R> {
    fn apply_events(&mut self, events: &RoundEvents) -> Result<EventReport, CoreError> {
        self.apply_owned_events(events, 0..self.graph.node_count())
    }

    fn completed_weight(&self) -> u64 {
        self.completed_weight
    }

    fn arrived_weight(&self) -> u64 {
        self.arrived_weight
    }
}

#[cfg(test)]
mod tests {
    use super::super::flow_imitation::Alg1;
    use super::super::randomized_imitation::{edge_rounding_rng, Alg2};
    use super::*;
    use crate::task::{TaskPicker, TaskQueue};
    use rand::Rng;

    /// A one-edge ledger: edge 0 joins nodes 0 and 1.
    fn deficits<'a>(continuous: &'a [f64], discrete: &'a [i64]) -> Deficits<'a> {
        Deficits {
            edges: &[(0, 1)],
            continuous,
            discrete,
        }
    }

    /// Runs `alg`'s rule in round `round` over edge `e` of a ledger whose
    /// every edge joins nodes 0 and 1 and carries `continuous` against
    /// `discrete`, for the senders in `range`, each starting from `held`.
    fn send<R: Algorithm>(
        alg: &R,
        round: usize,
        e: EdgeId,
        (continuous, discrete): (f64, i64),
        range: Range<NodeId>,
        held: impl Fn() -> R::Holding,
    ) -> SendBatch {
        let edges = vec![(0, 1); e + 1];
        let continuous = vec![continuous; e + 1];
        let discrete = vec![discrete; e + 1];
        let deficits = Deficits {
            edges: &edges,
            continuous: &continuous,
            discrete: &discrete,
        };
        let mut held: Vec<_> = range.clone().map(|_| held()).collect();
        let mut dummy = vec![0; range.len()];
        let senders = Senders {
            range,
            held: &mut held,
            dummy: &mut dummy,
        };
        let mut out = SendBatch::default();
        alg.send(round, &deficits, [e], senders, &mut out);
        out
    }

    fn alg1(wmax: Weight) -> Alg1 {
        Alg1 {
            wmax,
            picker: TaskPicker::Fifo,
        }
    }

    fn no_tasks() -> TaskQueue {
        TaskQueue::new(TaskPicker::Fifo)
    }

    /// Algorithm 2's rounding written with `f64::floor`: the oracle its
    /// integer truncation must match.
    fn floor_rounded(seed: u64, round: usize, e: EdgeId, magnitude: f64) -> u64 {
        let floor = magnitude.floor();
        let fraction = magnitude - floor;
        let round_up =
            fraction > 0.0 && edge_rounding_rng(seed, round, e).gen_bool(fraction.min(1.0));
        floor as u64 + u64::from(round_up)
    }

    /// The tokens Algorithm 2 moved: `(receiver, real + dummy)` per record.
    fn moved(out: &SendBatch) -> Vec<(NodeId, u64)> {
        let tokens = out.tokens.iter();
        tokens
            .map(|&(to, real, dummy)| (to, real + dummy))
            .collect()
    }

    #[test]
    fn a_deficit_at_the_floor_sends() {
        // Algorithm 1 with w_max 3 on a deficit of exactly 3: node 0 holds
        // no task, so it sends one dummy unit, which leaves 2 < w_max.
        let out = send(&alg1(3), 0, 0, (5.0, 2), 0..2, no_tasks);
        assert_eq!(out.dummy, [(1, 1)]);
        assert_eq!(out.deltas, [(0, 1)]);
    }

    #[test]
    fn a_deficit_just_below_the_floor_does_not_send() {
        let below = f64::from_bits(5.0f64.to_bits() - 1);
        assert!(below - 2.0 < 3.0);
        let out = send(&alg1(3), 0, 0, (below, 2), 0..2, no_tasks);
        assert!(out.is_empty());
    }

    #[test]
    fn a_zero_or_nan_deficit_does_not_send_even_at_floor_zero() {
        for (continuous, discrete) in [([2.0], [2]), ([f64::NAN], [0])] {
            let ledger = deficits(&continuous, &discrete);
            assert!(ledger.route(0, ledger.deficit(0), &(0..2)).is_none());
            let flows = (continuous[0], discrete[0]);
            assert!(send(&alg1(0), 0, 0, flows, 0..2, no_tasks).is_empty());
        }
    }

    #[test]
    fn a_negative_deficit_sends_from_v_with_sign_minus_one() {
        let ledger = deficits(&[-3.5], &[0]);
        let t = ledger
            .route(0, ledger.deficit(0), &(0..2))
            .expect("a negative deficit routes from v");
        assert_eq!((t.at, t.receiver, t.sign), (1, 0, -1));
        // Indexed from the range start: node 1 is slot 0 of the range 1..2.
        let t = ledger.route(0, -3.5, &(1..2)).unwrap();
        assert_eq!(t.at, 0);
    }

    #[test]
    fn a_sender_outside_the_range_gives_none() {
        // u = 0 sends a positive deficit, v = 1 a negative one.
        let ledger = deficits(&[0.0], &[0]);
        assert!(ledger.route(0, 4.0, &(1..2)).is_none());
        assert!(ledger.route(0, -4.0, &(0..1)).is_none());
    }

    #[test]
    fn alg2_sends_an_integer_deficit_whole() {
        let alg = Alg2 { seed: 42 };
        for (flows, amount) in [((7.0, 2), 5), ((1.0, 0), 1), ((3.0, -4), 7)] {
            let out = send(&alg, 3, 0, flows, 0..2, || 2);
            assert_eq!(moved(&out), [(1, amount)]);
            assert_eq!(out.deltas, [(0, amount as i64)]);
        }
    }

    #[test]
    fn alg2_rounds_a_fraction_up_exactly_when_the_edge_draw_says_so() {
        let (mut ups, mut downs) = (0, 0);
        for seed in [0, 7, 42, 1009] {
            for round in [0, 1, 5, 77] {
                for e in [0, 1, 3, 250] {
                    for fraction in [0.1, 0.5, 0.9] {
                        let alg = Alg2 { seed };
                        let out = send(&alg, round, e, (2.0 + fraction, 0), 0..2, || 9);
                        let up = edge_rounding_rng(seed, round, e).gen_bool(fraction);
                        let amount = 2 + u64::from(up);
                        assert_eq!(out.tokens, [(1, amount, 0)], "{seed}/{round}/{e}");
                        assert_eq!(out.deltas, [(e, amount as i64)]);
                        if up {
                            ups += 1;
                        } else {
                            downs += 1;
                        }
                    }
                }
            }
        }
        assert!(ups > 0 && downs > 0, "the grid rounds both ways");
    }

    #[test]
    fn alg2_zero_and_nan_deficits_send_nothing() {
        let alg = Alg2 { seed: 42 };
        for flows in [(0.0, 0), (5.0, 5), (f64::NAN, 0), (-f64::NAN, 3)] {
            assert!(send(&alg, 0, 0, flows, 0..2, || 1).is_empty());
        }
        // A fraction that rounds down sends nothing either.
        let seed = (0..)
            .find(|&seed| !edge_rounding_rng(seed, 0, 0).gen_bool(0.25))
            .unwrap();
        assert!(send(&Alg2 { seed }, 0, 0, (0.25, 0), 0..2, || 1).is_empty());
    }

    #[test]
    fn alg2_sends_a_negative_deficit_from_v_with_sign_minus_one() {
        let out = send(&Alg2 { seed: 1 }, 0, 0, (-4.0, 0), 0..2, || 10);
        assert_eq!(out.tokens, [(0, 4, 0)]);
        assert_eq!(out.deltas, [(0, -4)]);
        // Node 1 is slot 0 of the range 1..2 and pays from its own tokens.
        let out = send(&Alg2 { seed: 1 }, 0, 0, (0.0, 3), 1..2, || 1);
        assert_eq!(out.tokens, [(0, 1, 2)]);
        assert_eq!(out.deltas, [(0, -3)]);
    }

    #[test]
    fn alg2_a_sender_outside_the_range_sends_nothing() {
        let alg = Alg2 { seed: 42 };
        assert!(send(&alg, 0, 0, (4.0, 0), 1..2, || 9).is_empty());
        assert!(send(&alg, 0, 0, (-4.0, 0), 0..1, || 9).is_empty());
    }

    #[test]
    fn alg2_huge_magnitudes_round_as_floor_does() {
        let two53 = 2f64.powi(53);
        let two64 = 2f64.powi(64);
        let below64 = f64::from_bits(two64.to_bits() - 1);
        let cases = [
            two53,
            2f64.powi(52) + 0.5,
            below64,
            two64,
            two64 * 3.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for magnitude in cases {
            for (seed, round, e) in [(42, 0, 0), (1009, 9, 4)] {
                let alg = Alg2 { seed };
                let expected = floor_rounded(seed, round, e, magnitude);
                assert_eq!(alg.rounded(round, e, magnitude), expected, "{magnitude}");
                let out = send(&alg, round, e, (magnitude, 0), 0..2, || 0);
                assert_eq!(moved(&out), [(1, expected)], "{magnitude}");
            }
        }
        assert_eq!(Alg2 { seed: 0 }.rounded(0, 0, two53), 1 << 53);
        assert_eq!(Alg2 { seed: 0 }.rounded(0, 0, two64), u64::MAX);
        assert_eq!(Alg2 { seed: 0 }.rounded(0, 0, f64::INFINITY), u64::MAX);
    }
}
