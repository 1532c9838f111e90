//! Intra-instance parallelism: one simulation round, many cores.
//!
//! `parallel_map`-style fan-out (in `lb-bench`) only parallelises
//! *independent* trials; a single large instance (n ≥ 10⁶) was still bound
//! by a serial `O(m)` round. This module shards **one** instance: the node
//! range `0..n` is split into `S` contiguous shards, the canonical edge list
//! splits with it (edges are sorted by lower endpoint, so each shard owns a
//! contiguous edge range), and every round runs as a two-phase protocol:
//!
//! 1. **Compute (parallel)** — each shard worker processes the edges it is
//!    responsible for, mutating only *its own* node state (queues, token
//!    counts, load entries) and appending cross-shard effects (task
//!    deliveries, dummy transfers, flow-ledger deltas) to per-shard
//!    *outboxes*;
//! 2. **Apply (sequential)** — the outboxes are drained in a deterministic
//!    order (task deliveries in global edge order, everything else is
//!    additive), reproducing the exact state the sequential engine builds.
//!
//! Both phases run the code the sequential step runs (`discrete::imitation`
//! for the discrete engines, the twin's shared phase helpers for
//! [`ContinuousRunner`](crate::continuous::ContinuousRunner)): the executor
//! only chooses the ranges and holds the outboxes.
//!
//! # Determinism contract
//!
//! Sharded execution is **bit-identical** to sequential execution, for every
//! shard count: all floating-point operations touch the same accumulators in
//! the same order (per-node load updates follow canonical edge order in
//! every node range), task queues pop in the same per-node
//! sequence and receive deliveries in global edge order, and Algorithm 2
//! derives an independent sub-RNG per `(seed, round, edge)` instead of
//! consuming one stream edge-by-edge (see
//! [`edge_rounding_rng`](crate::discrete::edge_rounding_rng)).
//! `tests/sharded_equivalence.rs` and the shard-count invariance property in
//! `tests/properties.rs` pin this.
//!
//! # Zero-allocation contract
//!
//! [`ShardedExecutor`] owns `S − 1` persistent worker threads (spawning per
//! round would allocate) and pre-sizes every per-shard outbox when the shard
//! plan is (re)built — at construction and after topology churn. Steady-state
//! sharded rounds perform no heap allocation; `tests/zero_alloc.rs` enforces
//! this with shards > 1.

use lb_graph::{EdgeId, Graph, NodeId};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::discrete::imitation::{self, Holding, Sink, Tally};
use crate::federate::SendBatch;

/// Contiguous node-range sharding of one graph: which nodes, canonical
/// edges and incident edges each shard is responsible for.
///
/// Shard boundaries are chosen so canonical edge counts balance (the edge
/// loops dominate a round); shards may be empty when `n < S`.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlan {
    /// Node range starts, length `S + 1`.
    node_bounds: Vec<usize>,
    /// Canonical edge range starts (edges grouped by lower endpoint),
    /// length `S + 1`.
    edge_bounds: Vec<usize>,
    /// Per shard: every edge with at least one endpoint in the shard's node
    /// range, ascending by edge id.
    incident: Vec<Vec<EdgeId>>,
}

impl ShardPlan {
    /// An empty placeholder plan (no graph bound yet).
    fn empty(shards: usize) -> Self {
        ShardPlan {
            node_bounds: vec![0; shards + 1],
            edge_bounds: vec![0; shards + 1],
            incident: vec![Vec::new(); shards],
        }
    }

    /// Builds the plan for `graph` with exactly `shards` shards.
    fn build(shards: usize, graph: &Graph) -> Self {
        let n = graph.node_count();
        let edges = graph.edges();
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "canonical order");

        let (node_bounds, edge_bounds) = edge_balanced_bounds(shards, graph);

        let mut shard_of = vec![0u32; n];
        for s in 0..shards {
            for slot in &mut shard_of[node_bounds[s]..node_bounds[s + 1]] {
                *slot = s as u32;
            }
        }
        let mut incident = vec![Vec::new(); shards];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let su = shard_of[u] as usize;
            let sv = shard_of[v] as usize;
            incident[su].push(e);
            if sv != su {
                incident[sv].push(e);
            }
        }

        ShardPlan {
            node_bounds,
            edge_bounds,
            incident,
        }
    }

    /// Number of shards (some possibly empty).
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.incident.len()
    }

    /// The node range owned by shard `s`.
    pub(crate) fn node_range(&self, s: usize) -> Range<usize> {
        self.node_bounds[s]..self.node_bounds[s + 1]
    }

    /// The canonical edge range owned by shard `s`.
    pub(crate) fn edge_range(&self, s: usize) -> Range<usize> {
        self.edge_bounds[s]..self.edge_bounds[s + 1]
    }

    /// Edges incident to shard `s`, ascending by edge id.
    pub(crate) fn incident(&self, s: usize) -> &[EdgeId] {
        &self.incident[s]
    }
}

/// The edge-balanced contiguous node partition shared by [`ShardPlan`] and
/// the federation planner: node-range starts (length `parts + 1`) chosen so
/// canonical edge counts balance across parts, plus the matching canonical
/// edge-range starts (edges grouped by lower endpoint).
pub(crate) fn edge_balanced_bounds(parts: usize, graph: &Graph) -> (Vec<usize>, Vec<usize>) {
    let n = graph.node_count();
    let m = graph.edge_count();
    let edges = graph.edges();

    let mut node_bounds = Vec::with_capacity(parts + 1);
    node_bounds.push(0);
    for s in 1..parts {
        // Aim for m·s/P canonical edges per prefix, then snap the cut to
        // a node boundary so each node's canonical edges stay together.
        let target = m * s / parts;
        let node = if target >= m { n } else { edges[target].0 };
        node_bounds.push(node.max(node_bounds[s - 1]));
    }
    node_bounds.push(n);

    let mut edge_bounds = Vec::with_capacity(parts + 1);
    for &node in &node_bounds {
        edge_bounds.push(edges.partition_point(|&(u, _)| u < node));
    }
    (node_bounds, edge_bounds)
}

/// A raw shared-mutable view of a slice, for handing **disjoint** ranges to
/// shard workers.
///
/// Every access goes through [`range_mut`](SharedSliceMut::range_mut), whose
/// safety contract is that concurrently handed-out ranges never overlap; the
/// shard plan's node/edge ranges partition their index spaces, which is what
/// every caller in this crate relies on.
pub(crate) struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper only ever yields disjoint subslices (the caller
// contract of `range_mut`), so sending/sharing it across the pool's scoped
// workers is no more dangerous than `slice::split_at_mut`.
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// A mutable view of `range`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no two live views (across all threads)
    /// overlap. `range` must lie within the original slice.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// An `UnsafeCell` that may be shared across the pool's workers; each worker
/// only touches the cell matching its shard index.
pub(crate) struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: access discipline is per-shard-index (enforced by every call
// site); no two threads touch the same cell during a parallel phase.
unsafe impl<T: Send> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    fn new(value: T) -> Self {
        SyncCell(UnsafeCell::new(value))
    }

    pub(crate) fn get(&self) -> *mut T {
        self.0.get()
    }

    fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

/// The wide pointer to the current phase closure, lifetime-erased so it can
/// sit in the pool's shared state. Valid only while `ShardPool::run` has not
/// returned — workers finish (and bump `done`) before `run` returns, so no
/// worker ever dereferences a stale job.
#[derive(Clone, Copy)]
struct JobHandle(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` and outlives every dereference (see above).
unsafe impl Send for JobHandle {}

struct PoolState {
    epoch: u64,
    shutdown: bool,
    job: Option<JobHandle>,
    /// Workers finished with the current epoch.
    done: usize,
    /// A worker's phase closure panicked during the current epoch.
    panicked: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

/// `S − 1` persistent worker threads executing one closure per phase.
///
/// Workers park on a condvar between phases; dispatch is a mutex'd epoch
/// bump plus `notify_all`, and the caller blocks on a completion condvar —
/// none of which allocates, keeping sharded steady-state rounds heap-free
/// (per-round `thread::scope` spawning would not be). Blocking (rather than
/// spinning) on completion keeps the overhead small even when shards
/// outnumber cores.
pub(crate) struct ShardPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardPool {
    /// Spawns `workers` threads, serving shard indices `1..=workers` (the
    /// caller itself runs shard 0).
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                shutdown: false,
                job: None,
                done: 0,
                panicked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..=workers)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        let job = {
                            let mut state = shared.state.lock().expect("pool mutex poisoned");
                            loop {
                                if state.shutdown {
                                    return;
                                }
                                if state.epoch != seen {
                                    break;
                                }
                                state = shared.work.wait(state).expect("pool mutex poisoned");
                            }
                            seen = state.epoch;
                            // lint: allow(R03, run() stores the job before bumping the epoch)
                            state.job.expect("job published with epoch")
                        };
                        // SAFETY: `run` keeps the closure alive until every
                        // worker has reported done for this epoch. A panic in
                        // the phase closure is caught so the worker always
                        // reports done — otherwise `run` would block forever —
                        // and is re-raised on the calling thread.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                (unsafe { &*job.0 })(shard)
                            }));
                        let mut state = shared.state.lock().expect("pool mutex poisoned");
                        state.done += 1;
                        state.panicked |= outcome.is_err();
                        if state.done == workers {
                            shared.done.notify_one();
                        }
                    }
                })
            })
            .collect();
        ShardPool { shared, handles }
    }

    /// Runs `f(s)` for every shard index `0..=workers`, shard 0 on the
    /// calling thread, and returns once all have finished.
    pub(crate) fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the lifetime is erased only for the duration of this call;
        // the done-condvar wait below (reached even when shard 0 panics)
        // ensures every worker is finished with the pointer before `f` drops.
        let job = JobHandle(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        });
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.epoch += 1;
            state.job = Some(job);
        }
        self.shared.work.notify_all();
        // Shard 0 runs on this thread. Its panic must not unwind before the
        // workers are done — they still hold the lifetime-erased pointer to
        // `f` — so catch it, drain the epoch, and only then re-raise.
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let mut state = self.shared.state.lock().expect("pool mutex poisoned");
        while state.done < self.handles.len() {
            state = self.shared.done.wait(state).expect("pool mutex poisoned");
        }
        state.done = 0;
        let worker_panicked = std::mem::take(&mut state.panicked);
        drop(state);
        if let Err(payload) = own {
            std::panic::resume_unwind(payload);
        }
        if worker_panicked {
            // lint: allow(R03, propagates a worker thread's caught panic)
            panic!("a shard worker panicked during a parallel phase");
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-shard scratch: the outbox a send phase fills and the delivery phase
/// drains, the shard's send counters, and its post-twin minimum load. The
/// outbox's per-edge lists are pre-sized when the plan is built, so
/// steady-state rounds never allocate (task records warm up like the
/// sequential engine's outbox does).
pub(crate) struct ShardScratch {
    /// Everything this shard's senders delivered this round; task records
    /// ascend by edge id (the incident list is sorted).
    outbox: SendBatch,
    /// This shard's send counters this round.
    tally: Tally,
    /// Minimum load over this shard's nodes after the twin's apply phase.
    pub(crate) min_load: f64,
}

/// Drives sharded rounds for one engine: the persistent worker pool, the
/// current shard plan and the per-shard scratch.
///
/// An executor is engine-agnostic — it binds to whatever graph the engine
/// currently runs on (checked by `Arc` identity each round), so topology
/// churn just triggers a plan rebuild on the next sharded step. Pass the
/// same executor to every `step_sharded` call of one engine:
///
/// ```
/// use lb_core::continuous::Fos;
/// use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
/// use lb_core::{InitialLoad, ShardedExecutor, Speeds};
/// use lb_graph::{generators, AlphaScheme};
///
/// let g = generators::hypercube(4)?;
/// let speeds = Speeds::uniform(16);
/// let fos = Fos::new(g, &speeds, AlphaScheme::MaxDegreePlusOne)?;
/// let initial = InitialLoad::single_source(16, 0, 160);
/// let mut sharded = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;
/// let mut sequential = sharded.clone();
/// let mut exec = ShardedExecutor::new(4);
/// for _ in 0..50 {
///     sharded.step_sharded(&mut exec);
///     sequential.step();
/// }
/// // Sharded execution is bit-identical to sequential execution.
/// assert_eq!(sharded.loads(), sequential.loads());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedExecutor {
    pool: ShardPool,
    plan: ShardPlan,
    scratch: Vec<SyncCell<ShardScratch>>,
    /// Reusable cursors for the k-way merge of task outboxes.
    merge_cursor: Vec<usize>,
    /// The graph the current plan was built for.
    graph: Option<Arc<Graph>>,
}

impl ShardedExecutor {
    /// Creates an executor with `shards` shards (clamped to at least 1),
    /// spawning `shards − 1` persistent worker threads.
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedExecutor {
            pool: ShardPool::new(shards - 1),
            plan: ShardPlan::empty(shards),
            scratch: (0..shards)
                .map(|_| {
                    SyncCell::new(ShardScratch {
                        outbox: SendBatch::default(),
                        tally: Tally::default(),
                        min_load: f64::INFINITY,
                    })
                })
                .collect(),
            merge_cursor: vec![0; shards],
            graph: None,
        }
    }

    /// The shard count this executor runs with.
    pub fn shard_count(&self) -> usize {
        self.scratch.len()
    }

    /// Binds the executor to `graph` ahead of time, building the shard plan
    /// and pre-sizing the per-shard outboxes. Calling this is optional —
    /// every sharded step rebinds lazily — but lets benchmarks and warm-up
    /// paths keep plan construction out of the measured region.
    pub fn bind(&mut self, graph: &Arc<Graph>) {
        self.ensure_plan(graph);
    }

    /// Rebinds the plan to `graph` if it changed (initial call, topology
    /// churn), pre-sizing the per-shard outboxes for their incident edges.
    /// Allocation only happens here — never in a steady-state round on an
    /// unchanged graph.
    pub(crate) fn ensure_plan(&mut self, graph: &Arc<Graph>) {
        if self.graph.as_ref().is_some_and(|g| Arc::ptr_eq(g, graph)) {
            return;
        }
        self.plan = ShardPlan::build(self.shard_count(), graph);
        for (s, cell) in self.scratch.iter_mut().enumerate() {
            cell.get_mut().outbox.reset_for(self.plan.incident(s).len());
        }
        self.graph = Some(Arc::clone(graph));
    }

    /// The pool, plan and scratch cells, split for a parallel phase.
    pub(crate) fn split(&self) -> (&ShardPool, &ShardPlan, &[SyncCell<ShardScratch>]) {
        (&self.pool, &self.plan, &self.scratch)
    }

    /// Per-shard scratch for sequential (apply-phase) inspection.
    pub(crate) fn shard_results(&mut self) -> impl Iterator<Item = &ShardScratch> {
        self.scratch.iter_mut().map(|cell| &*cell.get_mut())
    }

    /// The sharded send phase: on the pool, every non-empty shard clears
    /// its outbox and runs `send(nodes, incident, outbox)` with its node
    /// range and the edges incident to it, keeping the returned counters.
    // lint: zero-alloc
    pub(crate) fn send_phase(
        &mut self,
        send: impl Fn(Range<NodeId>, &[EdgeId], &mut SendBatch) -> Tally + Sync,
    ) {
        let (plan, scratch) = (&self.plan, &self.scratch);
        self.pool.run(|s| {
            // SAFETY: shard `s` touches only its own scratch cell.
            let scratch = unsafe { &mut *scratch[s].get() };
            scratch.outbox.clear();
            let nodes = plan.node_range(s);
            scratch.tally = if nodes.is_empty() {
                Tally::default()
            } else {
                send(nodes, plan.incident(s), &mut scratch.outbox)
            };
        });
    }

    /// The sharded delivery phase: every shard's outbox, task records
    /// merged back into global edge order (see [`imitation::deliver`]).
    /// Returns the shards' summed send counters.
    // lint: zero-alloc
    pub(crate) fn deliver<H: Holding>(&mut self, sink: Sink<'_, H>) -> Tally {
        let every = 0..self.plan.node_bounds[self.shard_count()];
        let scratch = &self.scratch;
        // SAFETY: `&mut self` — no parallel phase is running, so the cells
        // are only read here.
        let outbox = |s: usize| unsafe { &(*scratch[s].get()).outbox };
        imitation::deliver(scratch.len(), outbox, &every, &mut self.merge_cursor, sink);
        let mut tally = Tally::default();
        for cell in &mut self.scratch {
            tally += cell.get_mut().tally;
        }
        tally
    }
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("shards", &self.shard_count())
            .field("bound", &self.graph.as_ref().map(|g| g.name().to_string()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_graph::generators;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn plan_partitions_nodes_and_edges() {
        let g = generators::torus(6, 6).unwrap();
        for shards in [1, 2, 3, 7, 64] {
            let plan = ShardPlan::build(shards, &g);
            assert_eq!(plan.shard_count(), shards);
            // Node ranges partition 0..n; edge ranges partition 0..m.
            let mut node = 0;
            let mut edge = 0;
            for s in 0..shards {
                assert_eq!(plan.node_range(s).start, node);
                node = plan.node_range(s).end;
                assert_eq!(plan.edge_range(s).start, edge);
                edge = plan.edge_range(s).end;
                // An owned edge's lower endpoint lies in the node range.
                for e in plan.edge_range(s) {
                    let (u, _) = g.edges()[e];
                    assert!(plan.node_range(s).contains(&u));
                }
                // Incident lists are sorted and cover the node range.
                let incident = plan.incident(s);
                assert!(incident.windows(2).all(|w| w[0] < w[1]));
            }
            assert_eq!(node, g.node_count());
            assert_eq!(edge, g.edge_count());
            // Every edge is incident to exactly the shards of its endpoints.
            let total: usize = (0..shards).map(|s| plan.incident(s).len()).sum();
            assert!(total >= g.edge_count());
            assert!(total <= 2 * g.edge_count());
        }
    }

    #[test]
    fn pool_runs_every_shard_exactly_once() {
        let pool = ShardPool::new(3);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..100 {
            pool.run(|s| {
                hits[s].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 100);
        }
    }

    #[test]
    fn pool_survives_panicking_phases() {
        // A panic on a worker shard must not deadlock `run`, and a panic on
        // the caller's shard must not free the job closure under running
        // workers; both re-raise on the caller and leave the pool usable.
        let pool = ShardPool::new(2);
        for &bad_shard in &[1usize, 0] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|s| {
                    if s == bad_shard {
                        panic!("phase failure on shard {s}");
                    }
                });
            }));
            assert!(result.is_err(), "panic on shard {bad_shard} propagates");
        }
        // The pool still dispatches cleanly after both failure modes.
        let hits: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        pool.run(|s| {
            hits[s].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn executor_rebinds_on_graph_change() {
        let g1: Arc<Graph> = Arc::new(generators::hypercube(3).unwrap());
        let g2: Arc<Graph> = Arc::new(generators::torus(4, 4).unwrap());
        let mut exec = ShardedExecutor::new(2);
        exec.ensure_plan(&g1);
        assert_eq!(exec.plan.node_range(1).end, 8);
        exec.ensure_plan(&g2);
        assert_eq!(exec.plan.node_range(1).end, 16);
        // Same Arc: no rebuild needed (checked by identity).
        exec.ensure_plan(&g2);
        assert_eq!(exec.shard_count(), 2);
    }
}
