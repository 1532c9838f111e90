//! Continuous (idealised, divisible-load) balancing processes.
//!
//! A continuous process `A` prescribes, for every round `t` and every edge,
//! how much (divisible) load flows in each direction given the current load
//! vector. The discrete transformations of the paper (`Algorithm 1` and
//! `Algorithm 2`, in [`crate::discrete`]) simulate `A` as a *twin* alongside
//! the discrete execution and imitate its cumulative per-edge flow.
//!
//! Implemented processes (all additive and terminating, Lemma 1):
//!
//! * [`Fos`] — first-order diffusion,
//! * [`Sos`] — second-order diffusion,
//! * [`DimensionExchange`] — periodic-matching dimension exchange,
//! * [`RandomMatching`] — random-matching model.
//!
//! # Hot-path contract
//!
//! The per-round kernel is [`ContinuousProcess::compute_flows_into`], which
//! writes into a caller-owned buffer. Implementations must not allocate in
//! steady state (after any lazily initialised internal state has warmed up),
//! so that [`ContinuousRunner::step`] — and with it the whole simulation
//! round of the discretizers — runs without touching the heap.

mod fos;
mod matching_process;
mod sos;

pub use fos::Fos;
pub use matching_process::{DimensionExchange, RandomMatching};
pub use sos::Sos;

use crate::shard::{ShardPool, SharedSliceMut};
use lb_graph::{EdgeId, Graph};
use std::ops::Range;
use std::sync::Arc;

/// Gross flows over one undirected edge `(u, v)` (canonical orientation,
/// `u < v`) in a single round.
///
/// `forward` is the load sent from `u` to `v`; `backward` the load sent from
/// `v` to `u`. The net transfer along the canonical orientation is
/// [`EdgeFlow::net`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeFlow {
    /// Load sent from the smaller-indexed endpoint to the larger one.
    pub forward: f64,
    /// Load sent from the larger-indexed endpoint to the smaller one.
    pub backward: f64,
}

impl EdgeFlow {
    /// Creates an edge flow from its two directed components.
    pub fn new(forward: f64, backward: f64) -> Self {
        EdgeFlow { forward, backward }
    }

    /// Net flow along the canonical orientation (`forward − backward`).
    pub fn net(&self) -> f64 {
        self.forward - self.backward
    }
}

/// A continuous neighbourhood load-balancing process.
///
/// Implementations are driven by [`ContinuousRunner`], which owns the load
/// vector, applies the flows produced by [`compute_flows_into`] and keeps the
/// cumulative per-edge flow `f^A_e(t)` that the discretizers imitate.
///
/// # Implementing the buffer-reuse kernel
///
/// [`compute_flows_into`] receives `out` with exactly
/// `self.graph().edge_count()` slots, indexed by canonical [`EdgeId`], and
/// must overwrite **every** slot (stale contents from the previous round
/// are visible otherwise). Implementations
/// must not allocate per call in steady state — keep any history (e.g. SOS's
/// previous flows) in pre-sized buffers owned by the process.
///
/// Topology is shared: processes hold an [`Arc<Graph>`] so twins, balancers
/// and experiment configurations can reference one graph instance without
/// deep copies.
///
/// [`compute_flows_into`]: ContinuousProcess::compute_flows_into
pub trait ContinuousProcess {
    /// Short human-readable name, e.g. `"fos"` or `"sos(beta=1.8)"`.
    fn name(&self) -> &str;

    /// The graph the process operates on.
    fn graph(&self) -> &Graph;

    /// A shared handle to the graph, for components (twins, discretizers)
    /// that need to keep the topology alive without cloning it.
    fn shared_graph(&self) -> Arc<Graph>;

    /// Node speeds as `f64` (length = node count).
    fn speeds(&self) -> &[f64];

    /// Computes the gross flows of round `t` for the load vector `x` (the
    /// load at the *beginning* of round `t`) into `out`.
    ///
    /// `out` has length `self.graph().edge_count()`; every entry must be
    /// overwritten. This is the zero-allocation hot-path kernel.
    fn compute_flows_into(&mut self, t: usize, x: &[f64], out: &mut [EdgeFlow]);

    /// Whether this process implements the sharded kernel protocol
    /// ([`compute_flows_range`](ContinuousProcess::compute_flows_range) /
    /// [`commit_flows`](ContinuousProcess::commit_flows)). Processes that do
    /// not (the matching-based models) fall back to a sequential twin step
    /// inside a sharded round.
    fn supports_sharding(&self) -> bool {
        false
    }

    /// Sharded kernel: computes the round-`t` flows of the canonical edge
    /// range `edges` into `out` (`out.len() == edges.len()`), **reading**
    /// process state only — shard workers call this concurrently on disjoint
    /// ranges. Must produce values bit-identical to
    /// [`compute_flows_into`](ContinuousProcess::compute_flows_into) over
    /// the same edges. Only called when
    /// [`supports_sharding`](ContinuousProcess::supports_sharding) is true.
    fn compute_flows_range(
        &self,
        _t: usize,
        _x: &[f64],
        _edges: std::ops::Range<usize>,
        _out: &mut [EdgeFlow],
    ) {
        unreachable!("process does not support the sharded kernel protocol")
    }

    /// Commits the complete flow vector of round `t` after a sharded
    /// compute: the mutable half of the sharded kernel protocol (e.g. SOS
    /// stores `flows` as its previous-round history here). Called once per
    /// round, sequentially. The default is a no-op for memoryless kernels.
    fn commit_flows(&mut self, _t: usize, _flows: &[EdgeFlow]) {}

    /// Captures process-internal history for an engine snapshot (SOS's β and
    /// previous-round flows). Memoryless kernels return `None` (the
    /// default).
    fn capture_history(&self) -> Option<crate::snapshot::ProcessHistory> {
        None
    }

    /// Restores history captured by
    /// [`capture_history`](ContinuousProcess::capture_history) into a
    /// freshly built process. The default (for memoryless kernels) rejects
    /// any history as a model mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the history does not belong to this process.
    fn restore_history(
        &mut self,
        _history: &crate::snapshot::ProcessHistory,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Err(crate::snapshot::SnapshotError::mismatch(format!(
            "snapshot carries twin history but process {:?} keeps none",
            self.name()
        )))
    }
}

/// Drives a [`ContinuousProcess`], maintaining its load vector and the
/// cumulative net per-edge flows `f^A_e(t)`.
///
/// The runner owns a reusable flow buffer: a steady-state [`step`] performs
/// no heap allocations (for processes whose kernel is allocation-free).
///
/// [`step`]: ContinuousRunner::step
///
/// # Examples
///
/// ```
/// use lb_core::continuous::{ContinuousRunner, Fos};
/// use lb_core::Speeds;
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::cycle(4)?;
/// let speeds = Speeds::uniform(4);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// let mut runner = ContinuousRunner::new(fos, vec![8.0, 0.0, 0.0, 0.0]);
/// runner.run(100);
/// // After enough rounds the load is nearly balanced.
/// for &x in runner.loads() {
///     assert!((x - 2.0).abs() < 0.01);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContinuousRunner<A: ContinuousProcess> {
    process: A,
    loads: Vec<f64>,
    cumulative_flow: Vec<f64>,
    /// Reused per-round flow buffer (the "out" side of the double buffer;
    /// `loads` is updated in place from it).
    flow_buf: Vec<EdgeFlow>,
    round: usize,
    min_load_seen: f64,
}

impl<A: ContinuousProcess> ContinuousRunner<A> {
    /// Creates a runner for `process` starting from the load vector
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the process's node count.
    pub fn new(process: A, initial: Vec<f64>) -> Self {
        assert_eq!(
            initial.len(),
            process.graph().node_count(),
            "initial load vector length must equal node count"
        );
        let m = process.graph().edge_count();
        let min_load_seen = initial.iter().copied().fold(f64::INFINITY, f64::min);
        ContinuousRunner {
            process,
            loads: initial,
            cumulative_flow: vec![0.0; m],
            flow_buf: vec![EdgeFlow::default(); m],
            round: 0,
            min_load_seen,
        }
    }

    /// Rebinds the runner to a new process and initial load vector, reusing
    /// the runner's existing buffers. Semantically identical to replacing the
    /// runner with `ContinuousRunner::new(process, initial)`, but the
    /// load/flow vectors keep their allocations, so a same-size topology
    /// patch allocates nothing here.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields a different number of loads than the
    /// process's node count.
    pub fn rebind(&mut self, process: A, initial: impl IntoIterator<Item = f64>) {
        self.loads.clear();
        self.loads.extend(initial);
        assert_eq!(
            self.loads.len(),
            process.graph().node_count(),
            "initial load vector length must equal node count"
        );
        let m = process.graph().edge_count();
        self.process = process;
        self.cumulative_flow.clear();
        self.cumulative_flow.resize(m, 0.0);
        self.flow_buf.clear();
        self.flow_buf.resize(m, EdgeFlow::default());
        self.round = 0;
        self.min_load_seen = self.loads.iter().copied().fold(f64::INFINITY, f64::min);
    }

    /// The underlying process.
    pub fn process(&self) -> &A {
        &self.process
    }

    /// The current round index (number of completed rounds).
    pub fn round(&self) -> usize {
        self.round
    }

    /// The current load vector `x^A(t)`.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Cumulative net flow `f^A_e(t)` along each canonical edge orientation,
    /// at the end of the last completed round.
    pub fn cumulative_flows(&self) -> &[f64] {
        &self.cumulative_flow
    }

    /// The smallest node load observed at any round boundary so far;
    /// negative values indicate the process induced negative load
    /// (Definition 1 violated), which only SOS can do.
    pub fn min_load_seen(&self) -> f64 {
        self.min_load_seen
    }

    /// Returns `true` if no node load has dipped below `-tolerance` so far.
    pub fn no_negative_load(&self, tolerance: f64) -> bool {
        self.min_load_seen >= -tolerance
    }

    /// Executes one round: computes the flows for the current round into the
    /// runner's reusable buffer, applies them to the load vector, and
    /// accumulates the per-edge totals. Returns the flows of the executed
    /// round (valid until the next `step`).
    ///
    /// This is the zero-allocation hot path: no heap allocation happens here
    /// for processes with an allocation-free kernel.
    // lint: zero-alloc
    pub fn step(&mut self) -> &[EdgeFlow] {
        self.process
            .compute_flows_into(self.round, &self.loads, &mut self.flow_buf);
        let round_min = apply_flows(
            self.process.graph(),
            &self.flow_buf,
            0..self.loads.len(),
            &[],
            0..self.flow_buf.len(),
            &mut self.loads,
            &mut self.cumulative_flow,
        );
        self.finish_round(round_min);
        &self.flow_buf
    }

    /// Executes `rounds` rounds.
    pub fn run(&mut self, rounds: usize) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Sharded [`step`](ContinuousRunner::step): the flow computation and
    /// the load/ledger application each run in parallel across the
    /// executor's shards, **bit-identically** to the sequential step — every
    /// load entry receives the same floating-point operations in the same
    /// (CSR incident-edge, i.e. canonical edge) order, just from its own
    /// shard's worker.
    ///
    /// Falls back to the sequential step when the process does not implement
    /// the sharded kernel protocol or the executor has a single shard.
    /// Steady-state calls on an unchanged topology do not allocate.
    // lint: zero-alloc
    pub fn step_sharded(&mut self, exec: &mut crate::shard::ShardedExecutor) -> &[EdgeFlow]
    where
        A: Sync,
    {
        exec.ensure_plan(&self.process.shared_graph());
        if !self.process.supports_sharding() || exec.shard_count() == 1 {
            return self.step();
        }
        let (pool, plan, scratch) = exec.split();
        self.compute_chunks(pool, |s| plan.edge_range(s));
        self.process.commit_flows(self.round, &self.flow_buf);
        {
            let graph = self.process.graph();
            let flows = &self.flow_buf[..];
            let loads = SharedSliceMut::new(&mut self.loads);
            let cumulative = SharedSliceMut::new(&mut self.cumulative_flow);
            pool.run(|s| {
                let (nodes, owned) = (plan.node_range(s), plan.edge_range(s));
                let incident = plan.incident(s);
                let incoming = &incident[..incident.partition_point(|&e| e < owned.start)];
                // SAFETY: scratch cell, node range and edge range all belong
                // to shard `s` alone.
                let (scratch, loads, totals) = unsafe {
                    (
                        &mut *scratch[s].get(),
                        loads.range_mut(nodes.clone()),
                        cumulative.range_mut(owned.clone()),
                    )
                };
                scratch.min_load = apply_flows(graph, flows, nodes, incoming, owned, loads, totals);
            });
        }
        let round_min = exec
            .shard_results()
            .fold(f64::INFINITY, |min, scratch| min.min(scratch.min_load));
        self.finish_round(round_min);
        &self.flow_buf
    }

    /// Federated [`step`](ContinuousRunner::step): this runner advances one
    /// **part** of the round and exchanges boundary state over `link` —
    /// boundary loads before the kernel, crossing-edge flows after it. Owned
    /// node loads, owned + incident edge ledgers and the owned-range minimum
    /// watermark receive exactly the floating-point operations of the
    /// sequential step, in the same order; foreign entries are stale and
    /// never read.
    ///
    /// The kernel (Phase A) fans out over the executor's intra-part shards;
    /// any chunking of the owned edge range is bit-identical because per-edge
    /// flow computation is independent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`](crate::CoreError) when the
    /// process does not implement the sharded kernel protocol (federation
    /// needs [`compute_flows_range`](ContinuousProcess::compute_flows_range)
    /// as its isolation seam), and propagates link failures as
    /// [`CoreError::Federation`](crate::CoreError).
    pub fn step_federated(
        &mut self,
        fed: &mut crate::federate::FederatedExecutor,
        link: &mut dyn crate::federate::FederateLink,
    ) -> Result<(), crate::CoreError>
    where
        A: Sync,
    {
        use crate::CoreError;
        if !self.process.supports_sharding() {
            return Err(CoreError::invalid_parameter(format!(
                "process {:?} does not support the range kernel federation relies on",
                self.process.name()
            )));
        }
        fed.ensure_plan(&self.process.shared_graph())?;

        // Boundary-loads exchange: publish own boundary entries, refresh the
        // remote ones the kernel will read on crossing edges.
        fed.loads_out.clear();
        for &node in fed.plan.boundary() {
            fed.loads_out.push((node, self.loads[node].to_bits()));
        }
        let incoming = link.exchange_loads(&fed.loads_out)?;
        crate::federate::apply_load_entries(&mut self.loads, &incoming)?;

        // Phase A over the owned canonical edge range, chunked across the
        // intra-part shards.
        self.compute_chunks(&fed.pool, |c| fed.kernel_chunk(c));

        // Crossing-flows exchange: publish own crossing edges, receive the
        // flows remote owners computed for edges incident to this part.
        fed.flows_out.clear();
        for &e in fed.plan.crossing() {
            let f = self.flow_buf[e];
            fed.flows_out
                .push((e, f.forward.to_bits(), f.backward.to_bits()));
        }
        let incoming = link.exchange_flows(&fed.flows_out)?;
        for (e, forward, backward) in incoming {
            let slot = self.flow_buf.get_mut(e).ok_or_else(|| {
                CoreError::federation(format!("exchanged flow names unknown edge {e}"))
            })?;
            *slot = EdgeFlow::new(f64::from_bits(forward), f64::from_bits(backward));
        }
        self.process.commit_flows(self.round, &self.flow_buf);

        // Phase B over the owned nodes. Incoming crossing edges accumulate
        // their ledgers here too: both endpoints of a crossing edge hold
        // identical ledger bits.
        let (nodes, owned) = (fed.plan.node_range(), fed.plan.edge_range());
        let incident = fed.plan.incident();
        let incoming = &incident[..incident.partition_point(|&e| e < owned.start)];
        for &e in incoming {
            self.cumulative_flow[e] += self.flow_buf[e].net();
        }
        let round_min = apply_flows(
            self.process.graph(),
            &self.flow_buf,
            nodes.clone(),
            incoming,
            owned.clone(),
            &mut self.loads[nodes],
            &mut self.cumulative_flow[owned],
        );
        self.finish_round(round_min);
        Ok(())
    }

    /// Phase A fan-out for the sharded and federated steps: worker `s` of
    /// `pool` computes the round's flows of the canonical edges `chunk(s)`
    /// with the read-only range kernel. Chunks must be disjoint.
    // lint: zero-alloc
    fn compute_chunks(&mut self, pool: &ShardPool, chunk: impl Fn(usize) -> Range<usize> + Sync)
    where
        A: Sync,
    {
        let (t, process, loads) = (self.round, &self.process, &self.loads[..]);
        let flow = SharedSliceMut::new(&mut self.flow_buf);
        pool.run(|s| {
            let range = chunk(s);
            if range.is_empty() {
                return;
            }
            // SAFETY: chunks are disjoint across workers.
            let out = unsafe { flow.range_mut(range.clone()) };
            process.compute_flows_range(t, loads, range, out);
        });
    }

    /// Closes a round whose loads bottomed out at `round_min`.
    // lint: zero-alloc
    fn finish_round(&mut self, round_min: f64) {
        self.round += 1;
        self.min_load_seen = self.min_load_seen.min(round_min);
    }

    /// Captures the runner's state for an engine snapshot: loads, cumulative
    /// flows, the round counter, the minimum-load watermark and the
    /// process's internal history. Snapshot-time only (allocates).
    pub fn capture(&self) -> crate::snapshot::TwinState {
        crate::snapshot::TwinState {
            round: self.round as u64,
            loads: self.loads.clone(),
            cumulative_flow: self.cumulative_flow.clone(),
            min_load_seen: self.min_load_seen,
            history: self.process.capture_history(),
        }
    }

    /// Restores state captured by [`capture`](ContinuousRunner::capture)
    /// into a runner freshly built on the same topology. The flow buffer is
    /// scratch (fully overwritten each round) and is left as constructed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Mismatch`](crate::snapshot::SnapshotError)
    /// if the vector lengths do not fit the graph or the history does not
    /// belong to this process.
    pub fn restore(
        &mut self,
        state: &crate::snapshot::TwinState,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let n = self.process.graph().node_count();
        let m = self.process.graph().edge_count();
        if state.loads.len() != n {
            return Err(SnapshotError::mismatch(format!(
                "twin load vector has {} entries, graph has {n} nodes",
                state.loads.len()
            )));
        }
        if state.cumulative_flow.len() != m {
            return Err(SnapshotError::mismatch(format!(
                "twin flow ledger has {} entries, graph has {m} edges",
                state.cumulative_flow.len()
            )));
        }
        match &state.history {
            Some(history) => self.process.restore_history(history)?,
            None => {
                if self.process.capture_history().is_some() {
                    return Err(SnapshotError::mismatch(format!(
                        "snapshot has no twin history but process {:?} keeps history",
                        self.process.name()
                    )));
                }
            }
        }
        self.loads.copy_from_slice(&state.loads);
        self.cumulative_flow.copy_from_slice(&state.cumulative_flow);
        self.round = state.round as usize;
        self.min_load_seen = state.min_load_seen;
        Ok(())
    }

    /// Adds `delta` load units to node `i` between rounds (negative values
    /// remove load).
    ///
    /// This is the twin-side half of a dynamic-workload event: when a task
    /// arrives at (or completes on) a node of the discrete process, the twin
    /// receives the same load change so both processes keep balancing the
    /// same workload. Cumulative flows are untouched — the imitation ledger
    /// stays valid because the processes are additive (Definition 3), so the
    /// flows of "old load + injected load" are the sums of the flows each
    /// part would generate on its own.
    ///
    /// Removing more load than the node currently holds may drive the twin's
    /// entry negative; diffusion processes are well defined on arbitrary
    /// reals, and [`min_load_seen`](ContinuousRunner::min_load_seen) records
    /// the dip.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn adjust_load(&mut self, i: usize, delta: f64) {
        self.loads[i] += delta;
        self.min_load_seen = self.min_load_seen.min(self.loads[i]);
    }

    /// Runs until every node load is within `tolerance` of its balanced
    /// value `W·s_i/S` (the paper's balancing-time condition with
    /// `tolerance = 1`), or until `max_rounds` have elapsed. Returns the
    /// number of rounds executed by this call.
    pub fn run_until_balanced(&mut self, tolerance: f64, max_rounds: usize) -> usize {
        let executed_start = self.round;
        for _ in 0..max_rounds {
            if self.is_balanced(tolerance) {
                break;
            }
            self.step();
        }
        self.round - executed_start
    }

    /// Returns `true` if every node load is within `tolerance` of its
    /// balanced value.
    pub fn is_balanced(&self, tolerance: f64) -> bool {
        let speeds = self.process.speeds();
        let total_speed: f64 = speeds.iter().sum();
        let total_load: f64 = self.loads.iter().sum();
        self.loads
            .iter()
            .zip(speeds)
            .all(|(&x, &s)| (x - total_load * s / total_speed).abs() <= tolerance)
    }
}

/// Phase B for one node range, shared by all three runner steps: applies
/// the round's `flows` to `loads`, the loads of the nodes in `nodes`, and
/// accumulates `totals`, the ledger entries of the range's own canonical
/// edges `owned` (those whose lower endpoint lies in the range). `incoming`
/// lists, ascending, the edges whose lower endpoint lies below the range and
/// whose upper endpoint lies in it; every id in it is below `owned.start`.
/// Walking `incoming` and then `owned` visits each node's edges in
/// canonical order, so every load sees the sequential float-op sequence
/// whatever range it falls in. Returns the range's minimum load afterwards.
// lint: zero-alloc
fn apply_flows(
    graph: &Graph,
    flows: &[EdgeFlow],
    nodes: Range<usize>,
    incoming: &[EdgeId],
    owned: Range<EdgeId>,
    loads: &mut [f64],
    totals: &mut [f64],
) -> f64 {
    let edges = graph.edges();
    let lo = nodes.start;
    for &e in incoming {
        loads[edges[e].1 - lo] += flows[e].net();
    }
    for (total, e) in totals.iter_mut().zip(owned) {
        let (u, v) = edges[e];
        let net = flows[e].net();
        loads[u - lo] -= net;
        if v < nodes.end {
            loads[v - lo] += net;
        }
        *total += net;
    }
    loads.iter().fold(f64::INFINITY, |min, &x| min.min(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Speeds;
    use lb_graph::{generators, AlphaScheme};

    #[test]
    fn runner_conserves_load_and_tracks_flow() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut runner = ContinuousRunner::new(fos, vec![4.0, 0.0, 0.0, 0.0]);
        let total: f64 = runner.loads().iter().sum();
        runner.run(25);
        assert!((runner.loads().iter().sum::<f64>() - total).abs() < 1e-9);
        assert_eq!(runner.round(), 25);
        // Node 0 must have exported load, so the flows on its two incident
        // edges are non-zero.
        let g = runner.process().graph();
        let e01 = g.edge_between(0, 1).unwrap();
        assert!(runner.cumulative_flows()[e01].abs() > 0.0);
        assert!(runner.no_negative_load(1e-9));
    }

    #[test]
    fn run_until_balanced_stops_early_on_balanced_input() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut runner = ContinuousRunner::new(fos, vec![3.0; 4]);
        let executed = runner.run_until_balanced(1.0, 100);
        assert_eq!(executed, 0);
        assert!(runner.is_balanced(1e-12));
    }

    #[test]
    fn edge_flow_net() {
        let f = EdgeFlow::new(2.5, 1.0);
        assert!((f.net() - 1.5).abs() < 1e-12);
        assert_eq!(EdgeFlow::default().net(), 0.0);
    }

    #[test]
    fn kernel_overwrites_every_slot() {
        let g = generators::torus(3, 3).unwrap();
        let speeds = Speeds::uniform(9);
        let x: Vec<f64> = (0..9).map(|i| (i * 5 % 7) as f64).collect();
        let mut a = Fos::new(g.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut b = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut from_zero = vec![EdgeFlow::default(); a.graph().edge_count()];
        a.compute_flows_into(0, &x, &mut from_zero);
        let mut from_stale = vec![EdgeFlow::new(9.9, 9.9); from_zero.len()];
        b.compute_flows_into(0, &x, &mut from_stale);
        assert_eq!(from_zero, from_stale, "kernel must overwrite every slot");
    }

    #[test]
    fn shared_graph_is_one_allocation() {
        let g = generators::cycle(5).unwrap();
        let speeds = Speeds::uniform(5);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let a = fos.shared_graph();
        let b = fos.shared_graph();
        assert!(Arc::ptr_eq(&a, &b), "both handles must share one graph");
        assert!(std::ptr::eq(fos.graph(), a.as_ref()));
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_initial_vector_panics() {
        let g = generators::cycle(4).unwrap();
        let speeds = Speeds::uniform(4);
        let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let _ = ContinuousRunner::new(fos, vec![1.0; 3]);
    }
}
