//! Federation: one simulation partitioned across cooperating processes.
//!
//! In-process sharding ([`crate::shard`]) splits a round across threads that
//! share one address space. Federation splits the *same* round across OS
//! processes that share nothing: each **part** owns a contiguous node range
//! (the same edge-balanced planner as the shard plan), runs its partition of
//! the discrete engine plus continuous twin, and exchanges exactly three
//! payloads per round over a [`FederateLink`]:
//!
//! 1. **boundary loads** — after events, before the twin kernel: every part
//!    publishes the loads of its own nodes that have a remote neighbour, so
//!    remote parts can evaluate `compute_flows_range` on crossing edges;
//! 2. **crossing flows** — after the kernel: every part publishes the flows
//!    it computed for its own edges whose higher endpoint is remote, so the
//!    neighbouring part can apply them to its node loads and ledgers;
//! 3. **sends** — after the discrete scan: cross-partition task deliveries,
//!    dummy transfers, token moves and discrete-flow ledger deltas, merged by
//!    the receiver in global edge order (the same k-way merge discipline as
//!    `lb-core::ingest::merge` and the shard outboxes).
//!
//! # Determinism contract
//!
//! Federated execution is **bit-identical** to sequential execution for
//! every part count and per-part shard count. The argument is the sharding
//! argument extended across address spaces: per-node f64 updates follow
//! canonical edge order, each edge has a unique sender-owner per round
//! (the deficit sign picks the sender, the sender's owner processes the
//! edge), deliveries are merged in global edge order, every other
//! cross-part effect is additive, and Algorithm 2 derives
//! an independent sub-RNG per `(seed, round, edge)`
//! ([`edge_rounding_rng`](crate::discrete::edge_rounding_rng)) so randomized
//! rounding needs no RNG-stream coordination between processes.
//!
//! Each part holds full-length state vectors but only its **owned** entries
//! (and, transiently, refreshed boundary entries) are authoritative; foreign
//! entries are stale and never read. Counters (`dummy_created`,
//! `items_sent`, arrival/completion totals) are disjoint partials that an
//! assembler sums in rank order.

use std::ops::Range;
use std::sync::Arc;

use lb_graph::{EdgeId, Graph, NodeId};

use crate::discrete::imitation::{self, Holding, Sink, Tally};
use crate::error::CoreError;
use crate::shard::{edge_balanced_bounds, ShardPool};
use crate::task::Task;

/// The contiguous node-range partition of one graph across `parts`
/// federated processes, plus everything part `part` needs to know about its
/// boundary: which of its nodes face a remote neighbour, which of its edges
/// cross the cut, and which edges touch it at all.
///
/// A node is owned by the part whose node range contains it; a canonical
/// edge is owned by the owner of its lower endpoint. The planner is the same
/// edge-balanced splitter the in-process [`ShardedExecutor`] uses, so a
/// federated part and a shard see identical ranges for identical counts.
///
/// [`ShardedExecutor`]: crate::ShardedExecutor
#[derive(Debug, Clone)]
pub struct FederationPlan {
    part: usize,
    /// Node range starts, length `parts + 1`.
    node_bounds: Vec<usize>,
    /// Canonical edge range starts, length `parts + 1`.
    edge_bounds: Vec<usize>,
    /// Own nodes with at least one remote neighbour, ascending.
    boundary: Vec<NodeId>,
    /// Own edges whose higher endpoint is remote, ascending.
    crossing: Vec<EdgeId>,
    /// Every edge with at least one own endpoint, ascending.
    incident: Vec<EdgeId>,
}

impl FederationPlan {
    /// Builds the plan for `graph` partitioned into `parts` parts, viewed
    /// from part `part`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `parts` is zero or
    /// `part` is out of range.
    pub fn new(graph: &Graph, part: usize, parts: usize) -> Result<Self, CoreError> {
        if parts == 0 {
            return Err(CoreError::invalid_parameter(
                "federation needs at least one part",
            ));
        }
        if part >= parts {
            return Err(CoreError::invalid_parameter(format!(
                "federation rank {part} is out of range for {parts} part(s)"
            )));
        }
        let (node_bounds, edge_bounds) = edge_balanced_bounds(parts, graph);
        let own = node_bounds[part]..node_bounds[part + 1];
        let mut boundary_mark = vec![false; own.len()];
        let mut crossing = Vec::new();
        let mut incident = Vec::new();
        for (e, &(u, v)) in graph.edges().iter().enumerate() {
            let u_own = own.contains(&u);
            let v_own = own.contains(&v);
            if !u_own && !v_own {
                continue;
            }
            incident.push(e);
            if u_own != v_own {
                if u_own {
                    boundary_mark[u - own.start] = true;
                    crossing.push(e);
                } else {
                    boundary_mark[v - own.start] = true;
                }
            }
        }
        let boundary = boundary_mark
            .iter()
            .enumerate()
            .filter(|&(_, &marked)| marked)
            .map(|(i, _)| own.start + i)
            .collect();
        Ok(FederationPlan {
            part,
            node_bounds,
            edge_bounds,
            boundary,
            crossing,
            incident,
        })
    }

    /// This part's rank.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of parts.
    pub fn parts(&self) -> usize {
        self.node_bounds.len() - 1
    }

    /// The node range owned by this part.
    pub fn node_range(&self) -> Range<usize> {
        self.node_range_of(self.part)
    }

    /// The canonical edge range owned by this part.
    pub fn edge_range(&self) -> Range<usize> {
        self.edge_range_of(self.part)
    }

    /// The node range owned by part `p` (for assemblers).
    pub fn node_range_of(&self, p: usize) -> Range<usize> {
        self.node_bounds[p]..self.node_bounds[p + 1]
    }

    /// The canonical edge range owned by part `p` (for assemblers).
    pub fn edge_range_of(&self, p: usize) -> Range<usize> {
        self.edge_bounds[p]..self.edge_bounds[p + 1]
    }

    /// Whether this part owns `node`.
    pub fn owns_node(&self, node: NodeId) -> bool {
        self.node_range().contains(&node)
    }

    /// Own nodes that have at least one remote neighbour, ascending.
    pub fn boundary(&self) -> &[NodeId] {
        &self.boundary
    }

    /// Own edges whose higher endpoint is remote, ascending.
    pub fn crossing(&self) -> &[EdgeId] {
        &self.crossing
    }

    /// Every edge with at least one own endpoint, ascending.
    pub fn incident(&self) -> &[EdgeId] {
        &self.incident
    }
}

/// One round's deliveries from one executor range: task deliveries, dummy
/// transfers, Algorithm 2 token moves and discrete-flow ledger deltas. It is
/// the outbox of every send phase; on the wire, a part's batch carries its
/// deliveries to remote receivers only.
///
/// `tasks` is ascending by edge id (the incident scan is ascending);
/// receivers merge batches by edge id, which reproduces the sequential
/// delivery order because each edge has a unique sender-owner per round.
/// Every other field is additive, so its order does not matter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SendBatch {
    /// Algorithm 1 task deliveries `(edge, receiver, task)`.
    pub tasks: Vec<(EdgeId, NodeId, Task)>,
    /// Algorithm 1 dummy transfers `(receiver, amount)`.
    pub dummy: Vec<(NodeId, u64)>,
    /// Algorithm 2 token moves `(receiver, real, dummy)`.
    pub tokens: Vec<(NodeId, u64, u64)>,
    /// Discrete-flow ledger deltas `(edge, delta)` for crossing edges.
    pub deltas: Vec<(EdgeId, i64)>,
}

impl SendBatch {
    /// Empties every buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.dummy.clear();
        self.tokens.clear();
        self.deltas.clear();
    }

    /// Whether the batch carries nothing.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
            && self.dummy.is_empty()
            && self.tokens.is_empty()
            && self.deltas.is_empty()
    }

    /// Empties the batch and sizes its per-edge lists for `edges` records
    /// (a send phase writes at most one per edge), so steady-state rounds
    /// never grow them. Task records warm up instead.
    pub(crate) fn reset_for(&mut self, edges: usize) {
        self.clear();
        self.dummy.reserve(edges);
        self.tokens.reserve(edges);
        self.deltas.reserve(edges);
    }
}

/// The transport a federated engine exchanges its per-round payloads over.
///
/// Every method is an **all-gather with a barrier**: the call blocks until
/// every part has contributed, then returns the combined payloads. `f64`
/// values travel as IEEE-754 bit patterns so a link never has to round-trip
/// decimal text.
///
/// Implementations relay through a coordinator (sockets) or through shared
/// memory (the loopback hub used by this module's tests); the engine only
/// relies on the barrier + rank-order semantics below.
pub trait FederateLink {
    /// Publishes this part's boundary loads `(node, bits)` and returns every
    /// part's entries, concatenated in rank order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] when a peer is lost or the payload
    /// cannot be exchanged.
    fn exchange_loads(&mut self, own: &[(NodeId, u64)]) -> Result<Vec<(NodeId, u64)>, CoreError>;

    /// Publishes this part's crossing-edge flows
    /// `(edge, forward_bits, backward_bits)` and returns every part's
    /// entries, concatenated in rank order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] when a peer is lost or the payload
    /// cannot be exchanged.
    fn exchange_flows(
        &mut self,
        own: &[(EdgeId, u64, u64)],
    ) -> Result<Vec<(EdgeId, u64, u64)>, CoreError>;

    /// Publishes this part's send batch and returns every part's batch in
    /// rank order (one entry per part, own included).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] when a peer is lost or the payload
    /// cannot be exchanged.
    fn exchange_sends(&mut self, own: &SendBatch) -> Result<Vec<SendBatch>, CoreError>;
}

/// Drives federated rounds for one part of one engine: the partition plan,
/// an optional intra-part worker pool for the continuous kernel, and the
/// reusable exchange buffers.
///
/// Like [`ShardedExecutor`](crate::ShardedExecutor), the executor rebinds to
/// whatever graph the engine currently runs on (checked by `Arc` identity),
/// so topology churn triggers a plan rebuild on the next federated step.
/// Intra-part `shards` parallelise the continuous kernel (Phase A) only —
/// any chunking of the owned edge range is bit-identical because per-edge
/// flow computation is independent.
pub struct FederatedExecutor {
    pub(crate) plan: FederationPlan,
    pub(crate) pool: ShardPool,
    shards: usize,
    part: usize,
    parts: usize,
    graph: Option<Arc<Graph>>,
    /// Scratch: boundary loads published this round.
    pub(crate) loads_out: Vec<(NodeId, u64)>,
    /// Scratch: crossing flows published this round.
    pub(crate) flows_out: Vec<(EdgeId, u64, u64)>,
    /// Scratch: this part's outbox, every delivery its senders made.
    outbox: SendBatch,
    /// Scratch: the outbox's records for remote receivers (the wire batch).
    wire: SendBatch,
    /// Reusable cursors for the delivery merge.
    cursors: Vec<usize>,
}

impl FederatedExecutor {
    /// Creates the executor for rank `part` of `parts`, with `shards`
    /// intra-part kernel shards (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `parts` is zero or
    /// `part` is out of range.
    pub fn new(part: usize, parts: usize, shards: usize) -> Result<Self, CoreError> {
        if parts == 0 {
            return Err(CoreError::invalid_parameter(
                "federation needs at least one part",
            ));
        }
        if part >= parts {
            return Err(CoreError::invalid_parameter(format!(
                "federation rank {part} is out of range for {parts} part(s)"
            )));
        }
        let shards = shards.max(1);
        Ok(FederatedExecutor {
            plan: FederationPlan {
                part,
                node_bounds: vec![0; parts + 1],
                edge_bounds: vec![0; parts + 1],
                boundary: Vec::new(),
                crossing: Vec::new(),
                incident: Vec::new(),
            },
            pool: ShardPool::new(shards - 1),
            shards,
            part,
            parts,
            graph: None,
            loads_out: Vec::new(),
            flows_out: Vec::new(),
            outbox: SendBatch::default(),
            wire: SendBatch::default(),
            cursors: vec![0; parts],
        })
    }

    /// This part's rank.
    pub fn part(&self) -> usize {
        self.part
    }

    /// Total number of parts.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Intra-part kernel shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The current partition plan.
    pub fn plan(&self) -> &FederationPlan {
        &self.plan
    }

    /// Rebinds the plan to `graph` if it changed (initial call, topology
    /// churn).
    pub(crate) fn ensure_plan(&mut self, graph: &Arc<Graph>) -> Result<(), CoreError> {
        if self.graph.as_ref().is_some_and(|g| Arc::ptr_eq(g, graph)) {
            return Ok(());
        }
        self.plan = FederationPlan::new(graph, self.part, self.parts)?;
        self.loads_out = Vec::with_capacity(self.plan.boundary.len());
        self.flows_out = Vec::with_capacity(self.plan.crossing.len());
        self.graph = Some(Arc::clone(graph));
        Ok(())
    }

    /// The owned edge range split into `shards` contiguous chunks: chunk `c`
    /// of the Phase A kernel fan-out.
    pub(crate) fn kernel_chunk(&self, c: usize) -> Range<usize> {
        let range = self.plan.edge_range();
        let len = range.end - range.start;
        let start = range.start + len * c / self.shards;
        let end = range.start + len * (c + 1) / self.shards;
        start..end
    }

    /// The federated send phase: runs `send(owned, incident, outbox)` with
    /// the owned node range, the edges incident to it and this part's
    /// cleared outbox, then copies every record for a remote receiver, in
    /// send order, into the wire batch. A ledger delta is remote when its
    /// edge crosses the partition: its sender is owned, so its receiver is
    /// not.
    pub(crate) fn send_phase(
        &mut self,
        send: impl FnOnce(Range<NodeId>, &[EdgeId], &mut SendBatch) -> Tally,
    ) -> Tally {
        self.outbox.clear();
        let owned = self.plan.node_range();
        let tally = send(owned.clone(), &self.plan.incident, &mut self.outbox);
        let remote = |node: NodeId| !owned.contains(&node);
        let edges = self.graph.as_ref().map_or(&[][..], |g| g.edges());
        let (outbox, wire) = (&self.outbox, &mut self.wire);
        wire.clear();
        wire.tasks
            .extend(outbox.tasks.iter().filter(|r| remote(r.1)));
        wire.dummy
            .extend(outbox.dummy.iter().filter(|r| remote(r.0)));
        wire.tokens
            .extend(outbox.tokens.iter().filter(|r| remote(r.0)));
        let crossing = |e: EdgeId| remote(edges[e].0) || remote(edges[e].1);
        wire.deltas
            .extend(outbox.deltas.iter().filter(|r| crossing(r.0)));
        tally
    }

    /// The federated delivery phase: exchanges the wire batch over `link`,
    /// validates the incoming batches, then delivers this part's outbox and
    /// every foreign batch to the owned nodes — task records merged into
    /// global edge order (see [`imitation::deliver`]). The outbox stands in
    /// for this part's own slot: it holds the wire records too, so its
    /// ledger deltas apply once and its remote receivers are filtered out.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Federation`] when the exchange fails, returns
    /// the wrong number of batches, or a batch names an unknown edge.
    pub(crate) fn deliver<H: Holding>(
        &mut self,
        link: &mut dyn FederateLink,
        sink: Sink<'_, H>,
    ) -> Result<(), CoreError> {
        let batches = link.exchange_sends(&self.wire)?;
        if batches.len() != self.parts {
            return Err(CoreError::federation(format!(
                "send exchange returned {} batches for {} parts",
                batches.len(),
                self.parts
            )));
        }
        let m = self.graph.as_ref().map_or(0, |g| g.edge_count());
        for batch in &batches {
            if let Some(&(e, _)) = batch.deltas.iter().find(|&&(e, _)| e >= m) {
                return Err(CoreError::federation(format!(
                    "flow delta for unknown edge {e}"
                )));
            }
        }
        let (part, own) = (self.part, &self.outbox);
        let outbox = |k: usize| if k == part { own } else { &batches[k] };
        let owned = self.plan.node_range();
        imitation::deliver(self.parts, outbox, &owned, &mut self.cursors, sink);
        Ok(())
    }
}

impl std::fmt::Debug for FederatedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedExecutor")
            .field("part", &self.part)
            .field("parts", &self.parts)
            .field("shards", &self.shards)
            .finish()
    }
}

/// Writes exchanged `(node, bits)` load entries into a full-length load
/// vector, validating indices (a link is an external input).
pub(crate) fn apply_load_entries(
    loads: &mut [f64],
    entries: &[(NodeId, u64)],
) -> Result<(), CoreError> {
    for &(node, bits) in entries {
        let slot = loads.get_mut(node).ok_or_else(|| {
            CoreError::federation(format!("exchanged load names unknown node {node}"))
        })?;
        *slot = f64::from_bits(bits);
    }
    Ok(())
}

#[cfg(test)]
mod loopback {
    //! A shared-memory [`FederateLink`] for in-crate equivalence tests: all
    //! parts rendezvous on a hub, each exchange is an all-gather barrier.

    use super::*;
    use std::sync::{Condvar, Mutex};

    struct GatherCell<T> {
        state: Mutex<GatherState<T>>,
        cv: Condvar,
    }

    struct GatherState<T> {
        slots: Vec<Option<T>>,
        deposited: usize,
        taken: usize,
    }

    impl<T: Clone> GatherCell<T> {
        fn new(parts: usize) -> Self {
            GatherCell {
                state: Mutex::new(GatherState {
                    slots: (0..parts).map(|_| None).collect(),
                    deposited: 0,
                    taken: 0,
                }),
                cv: Condvar::new(),
            }
        }

        fn exchange(&self, rank: usize, own: T) -> Vec<T> {
            let mut state = self.state.lock().unwrap();
            let parts = state.slots.len();
            // Wait out a previous exchange that is still draining.
            while state.deposited == parts && state.taken < parts {
                state = self.cv.wait(state).unwrap();
            }
            state.slots[rank] = Some(own);
            state.deposited += 1;
            if state.deposited == parts {
                self.cv.notify_all();
            }
            while state.deposited < parts {
                state = self.cv.wait(state).unwrap();
            }
            let out: Vec<T> = state
                .slots
                .iter()
                .map(|s| s.as_ref().cloned().unwrap())
                .collect();
            state.taken += 1;
            if state.taken == parts {
                state.slots.iter_mut().for_each(|s| *s = None);
                state.deposited = 0;
                state.taken = 0;
                self.cv.notify_all();
            }
            out
        }
    }

    /// The rendezvous point shared by every part's [`LoopbackLink`].
    pub(crate) struct LoopbackHub {
        loads: GatherCell<Vec<(NodeId, u64)>>,
        flows: GatherCell<Vec<(EdgeId, u64, u64)>>,
        sends: GatherCell<SendBatch>,
    }

    impl LoopbackHub {
        pub(crate) fn new(parts: usize) -> Arc<Self> {
            Arc::new(LoopbackHub {
                loads: GatherCell::new(parts),
                flows: GatherCell::new(parts),
                sends: GatherCell::new(parts),
            })
        }

        pub(crate) fn link(self: &Arc<Self>, rank: usize) -> LoopbackLink {
            LoopbackLink {
                hub: Arc::clone(self),
                rank,
            }
        }
    }

    /// One part's handle onto a [`LoopbackHub`].
    pub(crate) struct LoopbackLink {
        hub: Arc<LoopbackHub>,
        rank: usize,
    }

    impl FederateLink for LoopbackLink {
        fn exchange_loads(
            &mut self,
            own: &[(NodeId, u64)],
        ) -> Result<Vec<(NodeId, u64)>, CoreError> {
            Ok(self
                .hub
                .loads
                .exchange(self.rank, own.to_vec())
                .into_iter()
                .flatten()
                .collect())
        }

        fn exchange_flows(
            &mut self,
            own: &[(EdgeId, u64, u64)],
        ) -> Result<Vec<(EdgeId, u64, u64)>, CoreError> {
            Ok(self
                .hub
                .flows
                .exchange(self.rank, own.to_vec())
                .into_iter()
                .flatten()
                .collect())
        }

        fn exchange_sends(&mut self, own: &SendBatch) -> Result<Vec<SendBatch>, CoreError> {
            Ok(self.hub.sends.exchange(self.rank, own.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::loopback::LoopbackHub;
    use super::*;
    use crate::continuous::{Fos, Sos};
    use crate::discrete::{
        DynamicBalancer, FlowImitation, RandomizedImitation, RoundEvents, TaskPicker,
    };
    use crate::load::InitialLoad;
    use crate::task::{Speeds, TaskId};
    use lb_graph::{generators, AlphaScheme};

    fn torus_graph() -> Graph {
        generators::torus(4, 4).unwrap()
    }

    #[test]
    fn plan_partitions_and_marks_the_boundary() {
        let g = torus_graph();
        for parts in [1, 2, 3, 4] {
            let mut node = 0;
            let mut edge = 0;
            for part in 0..parts {
                let plan = FederationPlan::new(&g, part, parts).unwrap();
                assert_eq!(plan.part(), part);
                assert_eq!(plan.parts(), parts);
                assert_eq!(plan.node_range().start, node);
                node = plan.node_range().end;
                assert_eq!(plan.edge_range().start, edge);
                edge = plan.edge_range().end;
                // Crossing edges are owned and face a remote endpoint.
                for &e in plan.crossing() {
                    let (u, v) = g.edges()[e];
                    assert!(plan.owns_node(u) && !plan.owns_node(v));
                }
                // Boundary nodes are owned and have a remote neighbour.
                for &b in plan.boundary() {
                    assert!(plan.owns_node(b));
                    assert!(g.neighbors(b).iter().any(|&w| !plan.owns_node(w)));
                }
                // Incident edges touch the part; sorted ascending.
                assert!(plan.incident().windows(2).all(|w| w[0] < w[1]));
                for &e in plan.incident() {
                    let (u, v) = g.edges()[e];
                    assert!(plan.owns_node(u) || plan.owns_node(v));
                }
            }
            assert_eq!(node, g.node_count());
            assert_eq!(edge, g.edge_count());
        }
        // One part: no boundary at all.
        let whole = FederationPlan::new(&g, 0, 1).unwrap();
        assert!(whole.boundary().is_empty());
        assert!(whole.crossing().is_empty());
        assert_eq!(whole.incident().len(), g.edge_count());
    }

    #[test]
    fn invalid_ranks_are_rejected() {
        let g = torus_graph();
        assert!(FederationPlan::new(&g, 0, 0).is_err());
        assert!(FederationPlan::new(&g, 2, 2).is_err());
        assert!(FederatedExecutor::new(3, 2, 1).is_err());
    }

    fn events_for(round: usize) -> RoundEvents {
        // A deterministic little arrival/completion stream exercising both
        // owned and foreign nodes from every part's perspective.
        let mut events = RoundEvents::default();
        if round.is_multiple_of(3) {
            events
                .arrivals
                .push((round % 16, Task::new(TaskId(10_000 + round as u64), 1)));
            events.arrivals.push((
                (round * 7) % 16,
                Task::new(TaskId(20_000 + round as u64), 1),
            ));
        }
        if round % 4 == 1 {
            events.completions.push(((round * 5) % 16, 2));
        }
        events
    }

    /// Runs `parts` federated copies of `engine` next to a sequential copy
    /// and asserts bit-identical owned state every round.
    fn assert_federated_equivalence<E>(make: impl Fn() -> E, parts: usize, shards: usize)
    where
        E: DynamicBalancer + FederatedEngine + Clone + Send,
    {
        let rounds = 12;
        let hub = LoopbackHub::new(parts);
        let mut sequential = make();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..parts)
                .map(|part| {
                    let hub = Arc::clone(&hub);
                    let mut engine = make();
                    scope.spawn(move || {
                        let mut link = hub.link(part);
                        let mut fed = FederatedExecutor::new(part, parts, shards).unwrap();
                        for round in 0..rounds {
                            let events = events_for(round);
                            if !events.is_empty() {
                                engine.apply_events_federated(&events, &mut fed).unwrap();
                            }
                            engine.step_federated(&mut fed, &mut link).unwrap();
                        }
                        (part, engine, fed)
                    })
                })
                .collect();
            for round in 0..rounds {
                let events = events_for(round);
                if !events.is_empty() {
                    sequential.apply_events(&events).unwrap();
                }
                sequential.step();
            }
            let expected = sequential.loads();
            for handle in handles {
                let (part, engine, fed) = handle.join().unwrap();
                let plan = fed.plan().clone();
                let loads = engine.loads();
                for i in plan.node_range() {
                    assert_eq!(
                        loads[i].to_bits(),
                        expected[i].to_bits(),
                        "part {part} node {i} load"
                    );
                }
                engine.assert_owned_state_matches(&sequential, &plan);
            }
        });
    }

    /// Test-only view over the two federated engines.
    trait FederatedEngine: Sized {
        fn step_federated(
            &mut self,
            fed: &mut FederatedExecutor,
            link: &mut dyn FederateLink,
        ) -> Result<(), CoreError>;
        fn apply_events_federated(
            &mut self,
            events: &RoundEvents,
            fed: &mut FederatedExecutor,
        ) -> Result<crate::discrete::EventReport, CoreError>;
        fn assert_owned_state_matches(&self, sequential: &Self, plan: &FederationPlan);
    }

    impl<A: crate::continuous::ContinuousProcess + Clone + Sync> FederatedEngine for FlowImitation<A> {
        fn step_federated(
            &mut self,
            fed: &mut FederatedExecutor,
            link: &mut dyn FederateLink,
        ) -> Result<(), CoreError> {
            FlowImitation::step_federated(self, fed, link)
        }
        fn apply_events_federated(
            &mut self,
            events: &RoundEvents,
            fed: &mut FederatedExecutor,
        ) -> Result<crate::discrete::EventReport, CoreError> {
            FlowImitation::apply_events_federated(self, events, fed)
        }
        fn assert_owned_state_matches(&self, sequential: &Self, plan: &FederationPlan) {
            let mine = self.capture();
            let theirs = sequential.capture();
            let (crate::snapshot::DiscreteState::Alg1(a), crate::snapshot::DiscreteState::Alg1(b)) =
                (&mine.discrete, &theirs.discrete)
            else {
                panic!("alg1 capture");
            };
            for i in plan.node_range() {
                assert_eq!(a.queues[i], b.queues[i], "queue {i}");
                assert_eq!(a.dummy[i], b.dummy[i], "dummy {i}");
                assert_eq!(
                    mine.twin.loads[i].to_bits(),
                    theirs.twin.loads[i].to_bits(),
                    "twin load {i}"
                );
            }
            for &e in plan.incident() {
                assert_eq!(a.discrete_flow[e], b.discrete_flow[e], "discrete flow {e}");
                assert_eq!(
                    mine.twin.cumulative_flow[e].to_bits(),
                    theirs.twin.cumulative_flow[e].to_bits(),
                    "cumulative flow {e}"
                );
            }
            assert_eq!(a.wmax, b.wmax);
            assert_eq!(mine.round, theirs.round);
        }
    }

    impl<A: crate::continuous::ContinuousProcess + Clone + Sync> FederatedEngine
        for RandomizedImitation<A>
    {
        fn step_federated(
            &mut self,
            fed: &mut FederatedExecutor,
            link: &mut dyn FederateLink,
        ) -> Result<(), CoreError> {
            RandomizedImitation::step_federated(self, fed, link)
        }
        fn apply_events_federated(
            &mut self,
            events: &RoundEvents,
            fed: &mut FederatedExecutor,
        ) -> Result<crate::discrete::EventReport, CoreError> {
            RandomizedImitation::apply_events_federated(self, events, fed)
        }
        fn assert_owned_state_matches(&self, sequential: &Self, plan: &FederationPlan) {
            let mine = self.capture();
            let theirs = sequential.capture();
            let (crate::snapshot::DiscreteState::Alg2(a), crate::snapshot::DiscreteState::Alg2(b)) =
                (&mine.discrete, &theirs.discrete)
            else {
                panic!("alg2 capture");
            };
            for i in plan.node_range() {
                assert_eq!(a.tokens[i], b.tokens[i], "tokens {i}");
                assert_eq!(a.dummy[i], b.dummy[i], "dummy {i}");
                assert_eq!(
                    mine.twin.loads[i].to_bits(),
                    theirs.twin.loads[i].to_bits(),
                    "twin load {i}"
                );
            }
            for &e in plan.incident() {
                assert_eq!(a.discrete_flow[e], b.discrete_flow[e], "discrete flow {e}");
                assert_eq!(
                    mine.twin.cumulative_flow[e].to_bits(),
                    theirs.twin.cumulative_flow[e].to_bits(),
                    "cumulative flow {e}"
                );
            }
            assert_eq!(mine.round, theirs.round);
        }
    }

    fn alg1_fos() -> FlowImitation<Fos> {
        let g = torus_graph();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap()
    }

    fn alg1_sos() -> FlowImitation<Sos> {
        let g = torus_graph();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let sos = Sos::with_optimal_beta(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        FlowImitation::new(sos, &initial, speeds, TaskPicker::Fifo).unwrap()
    }

    fn alg2_fos() -> RandomizedImitation<Fos> {
        let g = torus_graph();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        RandomizedImitation::new(fos, &initial, speeds, 77).unwrap()
    }

    fn alg2_sos() -> RandomizedImitation<Sos> {
        let g = torus_graph();
        let speeds = Speeds::uniform(16);
        let initial = InitialLoad::single_source(16, 0, 64);
        let sos = Sos::with_optimal_beta(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        RandomizedImitation::new(sos, &initial, speeds, 77).unwrap()
    }

    #[test]
    fn alg1_fos_matches_sequential_across_parts() {
        for parts in [1, 2, 3] {
            assert_federated_equivalence(alg1_fos, parts, 1);
        }
        assert_federated_equivalence(alg1_fos, 2, 2);
    }

    #[test]
    fn alg1_sos_matches_sequential_across_parts() {
        for parts in [1, 2, 3] {
            assert_federated_equivalence(alg1_sos, parts, 1);
        }
        assert_federated_equivalence(alg1_sos, 2, 2);
    }

    #[test]
    fn alg2_fos_matches_sequential_across_parts() {
        for parts in [1, 2, 3] {
            assert_federated_equivalence(alg2_fos, parts, 1);
        }
        assert_federated_equivalence(alg2_fos, 2, 2);
    }

    #[test]
    fn alg2_sos_matches_sequential_across_parts() {
        for parts in [1, 2, 3] {
            assert_federated_equivalence(alg2_sos, parts, 1);
        }
        assert_federated_equivalence(alg2_sos, 2, 2);
    }
}
