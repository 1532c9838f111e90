//! Hot-path benchmark: measures the per-round cost of the optimised engine
//! (buffer-reuse flow kernel + `TaskQueue` storage + shared graphs) against a
//! faithful reimplementation of the seed engine's per-round semantics
//! (per-round `Vec` allocations, `Vec<Task>` storage with O(k) scans and
//! O(k) removals, cloned cumulative-flow snapshots), and writes the numbers
//! to `BENCH_hotpath.json` so the performance trajectory is tracked — and
//! CI-gated via `lb bench-check` — from this change onward.
//!
//! Run with: `cargo run --release -p lb-bench --bin lb -- hotpath [--quick]`.

use crate::harness::{standard_initial_load, GraphClass};
use crate::parallel::worker_threads;
use lb_analysis::artifact::unique_name;
use lb_analysis::Json;
use lb_core::continuous::{ContinuousProcess, EdgeFlow, Fos};
use lb_core::discrete::{DiscreteBalancer, FlowImitation, RoundEvents, TaskPicker};
use lb_core::ingest::merge::MergeSession;
use lb_core::snapshot::{self, Snapshot};
use lb_core::{ingest, InitialLoad, ShardedExecutor, Speeds, Task, TaskId};
use lb_graph::{AlphaScheme, Graph};
use std::sync::Arc;
use std::time::Instant;

/// A faithful reimplementation of the seed engine's Algorithm 1 round:
/// the continuous twin allocates a fresh flow vector per round (the
/// allocating `compute_flows` path), the cumulative flows are snapshotted
/// with `to_vec`, per-node storage is a `Vec<Task>` with an O(k) pick scan
/// and an O(k) `remove`, and the edge list is collected into a fresh `Vec`
/// each round — exactly the allocations and scans the optimised engine
/// removed.
///
/// This is the **single** seed-semantics reference: the benchmark below
/// times it, and `tests/engine_equivalence.rs` pins the optimised engine's
/// trajectories against it bit for bit. Keep any semantic change in sync
/// with both consumers.
pub struct SeedAlg1<A: ContinuousProcess> {
    process: A,
    graph: Graph, // deep clone, as the seed constructor made
    twin_loads: Vec<f64>,
    cumulative_flow: Vec<f64>,
    tasks: Vec<Vec<Task>>,
    dummy: Vec<u64>,
    discrete_flow: Vec<i64>,
    wmax: u64,
    picker: TaskPicker,
    round: usize,
    dummy_created: u64,
    items_sent: u64,
}

impl<A: ContinuousProcess> SeedAlg1<A> {
    /// Builds the reference discretization of `process` starting from
    /// `initial` (panics on dimension mismatch, unlike the checked optimised
    /// constructor — this is test/bench scaffolding).
    pub fn new(process: A, initial: &InitialLoad, picker: TaskPicker) -> Self {
        let graph = process.graph().clone();
        let m = graph.edge_count();
        let n = graph.node_count();
        SeedAlg1 {
            twin_loads: initial.load_vector_f64(),
            cumulative_flow: vec![0.0; m],
            tasks: initial.clone().into_tasks(),
            dummy: vec![0; n],
            discrete_flow: vec![0; m],
            wmax: initial.max_weight(),
            picker,
            round: 0,
            dummy_created: 0,
            items_sent: 0,
            process,
            graph,
        }
    }

    /// Executes one seed-semantics round.
    pub fn step(&mut self) {
        // Twin advance into a freshly allocated flow vector, per round.
        let mut flows = vec![EdgeFlow::default(); self.graph.edge_count()];
        self.process
            .compute_flows_into(self.round, &self.twin_loads, &mut flows);
        for (e, &(u, v)) in self.graph.edges().iter().enumerate() {
            let net = flows[e].net();
            self.twin_loads[u] -= net;
            self.twin_loads[v] += net;
            self.cumulative_flow[e] += net;
        }

        let continuous_flow = self.cumulative_flow.to_vec();
        let mut deliveries: Vec<(usize, Task)> = Vec::new();
        let mut dummy_deliveries: Vec<u64> = vec![0; self.graph.node_count()];
        let edges: Vec<(usize, usize, usize)> = self
            .graph
            .edges()
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u, v))
            .collect();
        for (e, u, v) in edges {
            let deficit = continuous_flow[e] - self.discrete_flow[e] as f64;
            let (sender, receiver, magnitude, sign) = if deficit >= 0.0 {
                (u, v, deficit, 1i64)
            } else {
                (v, u, -deficit, -1i64)
            };
            let mut moved: u64 = 0;
            while magnitude - moved as f64 >= self.wmax as f64 {
                if let Some(idx) = self.picker.pick_reference(&self.tasks[sender]) {
                    let task = self.tasks[sender].remove(idx);
                    moved += task.weight();
                    deliveries.push((receiver, task));
                } else {
                    if self.dummy[sender] > 0 {
                        self.dummy[sender] -= 1;
                    } else {
                        self.dummy_created += 1;
                    }
                    moved += 1;
                    dummy_deliveries[receiver] += 1;
                }
                self.items_sent += 1;
            }
            self.discrete_flow[e] += sign * moved as i64;
        }
        for (receiver, task) in deliveries {
            self.tasks[receiver].push(task);
        }
        for (node, amount) in dummy_deliveries.into_iter().enumerate() {
            self.dummy[node] += amount;
        }
        self.round += 1;
    }

    /// Per-node loads including dummy load.
    pub fn loads(&self) -> Vec<f64> {
        self.tasks
            .iter()
            .zip(&self.dummy)
            .map(|(tasks, &d)| (tasks.iter().map(|t| t.weight()).sum::<u64>() + d) as f64)
            .collect()
    }

    /// Per-node loads excluding dummy load.
    pub fn real_loads(&self) -> Vec<f64> {
        self.tasks
            .iter()
            .map(|tasks| tasks.iter().map(|t| t.weight()).sum::<u64>() as f64)
            .collect()
    }

    /// Cumulative net continuous flow per canonical edge.
    pub fn cumulative_flows(&self) -> &[f64] {
        &self.cumulative_flow
    }

    /// Total dummy load created from the infinite source.
    pub fn dummy_created(&self) -> u64 {
        self.dummy_created
    }

    /// Total items moved over edges.
    pub fn items_sent(&self) -> u64 {
        self.items_sent
    }
}

struct EngineResult {
    rounds: usize,
    elapsed_secs: f64,
    items_sent: u64,
    final_loads: Vec<f64>,
}

impl EngineResult {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.elapsed_secs
    }

    fn ns_per_task_send(&self) -> f64 {
        if self.items_sent == 0 {
            return 0.0;
        }
        self.elapsed_secs * 1e9 / self.items_sent as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", Json::from(self.rounds)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("items_sent", Json::from(self.items_sent)),
            ("rounds_per_sec", Json::from(self.rounds_per_sec())),
            ("ns_per_task_send", Json::from(self.ns_per_task_send())),
        ])
    }
}

fn run_optimized(
    graph: &Arc<Graph>,
    speeds: &Speeds,
    initial: &InitialLoad,
    rounds: usize,
) -> EngineResult {
    let fos =
        Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let start = Instant::now();
    alg1.run(rounds);
    let elapsed_secs = start.elapsed().as_secs_f64();
    EngineResult {
        rounds,
        elapsed_secs,
        items_sent: alg1.items_sent(),
        final_loads: alg1.loads(),
    }
}

/// Times the same engine stepping through a [`ShardedExecutor`] with
/// `shards` shards. The executor's worker threads and shard plan are built
/// before the clock starts (a long-running simulation amortises them); the
/// per-shard task outboxes warm up during the first timed rounds, exactly
/// as the sequential engine's delivery scratch does — both measurements
/// include the same class of first-round growth.
fn run_sharded(
    graph: &Arc<Graph>,
    speeds: &Speeds,
    initial: &InitialLoad,
    rounds: usize,
    shards: usize,
) -> EngineResult {
    let fos =
        Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let mut exec = ShardedExecutor::new(shards);
    exec.bind(graph);
    let start = Instant::now();
    for _ in 0..rounds {
        alg1.step_sharded(&mut exec);
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    EngineResult {
        rounds,
        elapsed_secs,
        items_sent: alg1.items_sent(),
        final_loads: alg1.loads(),
    }
}

fn run_baseline(
    graph: &Arc<Graph>,
    speeds: &Speeds,
    initial: &InitialLoad,
    rounds: usize,
) -> EngineResult {
    let fos =
        Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut alg1 = SeedAlg1::new(fos, initial, TaskPicker::Fifo);
    let start = Instant::now();
    for _ in 0..rounds {
        alg1.step();
    }
    let elapsed_secs = start.elapsed().as_secs_f64();
    EngineResult {
        rounds,
        elapsed_secs,
        items_sent: alg1.items_sent(),
        final_loads: alg1.loads(),
    }
}

/// Events per batch in the ingestion benchmark (half completions, half
/// arrivals — the shape of a sustained-load round).
const INGEST_BATCH: usize = 128;

/// Channel capacity of the ingestion benchmark (how far the producer may run
/// ahead of the consumer).
const INGEST_CAPACITY: usize = 64;

/// Fills `out` with round `round`'s deterministic benchmark batch.
fn fill_ingest_batch(out: &mut RoundEvents, round: usize, n: usize, next_id: &mut u64) {
    out.clear();
    for k in 0..INGEST_BATCH / 2 {
        out.completions.push(((round + 7 * k) % n, 1));
    }
    for k in 0..INGEST_BATCH / 2 {
        let task = Task::new(TaskId(*next_id), 1 + (k as u64 & 1));
        *next_id += 1;
        out.arrivals.push(((round + 13 * k) % n, task));
    }
}

/// Folds a batch into a checksum, standing in for event application — keeps
/// the comparison about delivery cost, and defeats dead-code elimination.
fn consume_ingest_batch(events: &RoundEvents) -> u64 {
    let mut sum = 0u64;
    for &(node, weight) in &events.completions {
        sum += node as u64 + weight;
    }
    for &(node, task) in &events.arrivals {
        sum += node as u64 + task.weight();
    }
    sum
}

struct IngestResult {
    elapsed_secs: f64,
    events: u64,
    checksum: u64,
}

impl IngestResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed_secs
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("events", Json::from(self.events)),
            ("elapsed_secs", Json::from(self.elapsed_secs)),
            ("events_per_sec", Json::from(self.events_per_sec())),
        ])
    }
}

/// The synchronous reference: generate and consume each batch inline, the
/// way the sync scenario driver feeds the engine.
fn run_ingest_sync(rounds: usize, n: usize) -> IngestResult {
    let mut events = RoundEvents::default();
    let mut next_id = 0u64;
    let mut checksum = 0u64;
    let start = Instant::now();
    for round in 0..rounds {
        fill_ingest_batch(&mut events, round, n, &mut next_id);
        checksum = checksum.wrapping_add(consume_ingest_batch(&events));
    }
    IngestResult {
        elapsed_secs: start.elapsed().as_secs_f64(),
        events: (rounds * INGEST_BATCH) as u64,
        checksum,
    }
}

/// Feeds in the merge-stage benchmark entry.
const MERGE_FEEDS: usize = 2;

/// The merge path: [`MERGE_FEEDS`] producer threads each generate the full
/// deterministic batch and send their contiguous slice of it over their own
/// channel; the consumer k-way merges the slices back into whole batches.
/// Coalescing in feed order reconstructs each batch exactly, so the checksum
/// must match the sync path's.
fn run_ingest_merge(rounds: usize, n: usize) -> IngestResult {
    let start = Instant::now();
    let mut consumers = Vec::with_capacity(MERGE_FEEDS);
    let mut producers = Vec::with_capacity(MERGE_FEEDS);
    for feed in 0..MERGE_FEEDS {
        let (mut tx, rx) = ingest::bounded(INGEST_CAPACITY);
        consumers.push(rx);
        producers.push(std::thread::spawn(move || {
            let mut next_id = 0u64;
            let mut full = RoundEvents::default();
            for round in 0..rounds {
                fill_ingest_batch(&mut full, round, n, &mut next_id);
                let mut batch = tx.buffer();
                batch.completions.extend_from_slice(
                    &full.completions
                        [crate::dynamic::feed_slice(full.completions.len(), feed, MERGE_FEEDS)],
                );
                batch.arrivals.extend_from_slice(
                    &full.arrivals
                        [crate::dynamic::feed_slice(full.arrivals.len(), feed, MERGE_FEEDS)],
                );
                if tx.send(round as u64, batch).is_err() {
                    return;
                }
            }
        }));
    }
    let mut session = MergeSession::new(consumers);
    let mut merged = RoundEvents::default();
    let mut checksum = 0u64;
    for round in 0..rounds {
        session
            .fill_round(round as u64, &mut merged)
            .expect("merge bench batches stay in order");
        checksum = checksum.wrapping_add(consume_ingest_batch(&merged));
    }
    drop(session);
    for producer in producers {
        producer.join().expect("merge bench producer finishes");
    }
    IngestResult {
        elapsed_secs: start.elapsed().as_secs_f64(),
        events: (rounds * INGEST_BATCH) as u64,
        checksum,
    }
}

/// The channel path: a producer thread generates the same batches and sends
/// them through the bounded SPSC channel; the consumer drains and recycles.
/// The timed window covers producer spawn through join — the full cost of
/// standing up and draining the ingestion pipeline.
fn run_ingest_channel(rounds: usize, n: usize) -> IngestResult {
    let start = Instant::now();
    let (mut tx, mut rx) = ingest::bounded(INGEST_CAPACITY);
    let producer = std::thread::spawn(move || {
        let mut next_id = 0u64;
        for round in 0..rounds {
            let mut batch = tx.buffer();
            fill_ingest_batch(&mut batch, round, n, &mut next_id);
            if tx.send(round as u64, batch).is_err() {
                return;
            }
        }
    });
    let mut checksum = 0u64;
    while let Some((_, events)) = rx.recv() {
        checksum = checksum.wrapping_add(consume_ingest_batch(&events));
        rx.recycle(events);
    }
    producer.join().expect("ingest producer finishes");
    IngestResult {
        elapsed_secs: start.elapsed().as_secs_f64(),
        events: (rounds * INGEST_BATCH) as u64,
        checksum,
    }
}

/// Benchmarks event throughput through the async ingestion channel against
/// inline generation, returning the `ingest` entry of `BENCH_hotpath.json`.
/// The channel entry is gated by `lb bench-check` when the committed
/// baseline carries an `ingest.channel.events_per_sec` floor.
fn run_ingest_bench(quick: bool) -> Json {
    let rounds = if quick { 5_000 } else { 40_000 };
    let trials = if quick { 2 } else { 3 };
    // `n` is node-index space only — no engine in the loop. Trials
    // interleave the two paths so machine-load drift biases neither.
    let n = 8_192;
    let mut sync_trials = Vec::new();
    let mut channel_trials = Vec::new();
    let mut merge_trials = Vec::new();
    for _ in 0..trials {
        sync_trials.push(run_ingest_sync(rounds, n));
        channel_trials.push(run_ingest_channel(rounds, n));
        merge_trials.push(run_ingest_merge(rounds, n));
    }
    assert!(
        sync_trials
            .iter()
            .chain(&channel_trials)
            .chain(&merge_trials)
            .all(|r| r.checksum == sync_trials[0].checksum),
        "ingestion paths consumed different event streams"
    );
    let sync = sync_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    let channel = channel_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    let merge = merge_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    eprintln!(
        "ingest: sync {:.0} events/sec, channel {:.0} events/sec ({:.2}x channel \
         overhead), merge({MERGE_FEEDS}) {:.0} events/sec",
        sync.events_per_sec(),
        channel.events_per_sec(),
        sync.events_per_sec() / channel.events_per_sec(),
        merge.events_per_sec(),
    );
    Json::obj([
        (
            "config",
            Json::obj([
                ("batch", Json::from(INGEST_BATCH)),
                ("rounds", Json::from(rounds)),
                ("capacity", Json::from(INGEST_CAPACITY)),
                ("merge_feeds", Json::from(MERGE_FEEDS)),
            ]),
        ),
        ("sync", sync.to_json()),
        ("channel", channel.to_json()),
        ("merge", merge.to_json()),
        (
            "overhead_ratio",
            Json::from(sync.events_per_sec() / channel.events_per_sec()),
        ),
    ])
}

/// Benchmarks the checkpoint path on the large-instance engine state:
/// capture + render + atomic write (the per-cadence cost of
/// `--checkpoint-every`) and load + parse + restore (the `--resume` startup
/// cost), both expressed as MB/sec over the on-disk snapshot size. The
/// restored engine is stepped once against the original to prove the
/// round-trip is exact. Gated by `lb bench-check` when the committed
/// baseline carries `snapshot.capture_write.mb_per_sec` /
/// `snapshot.read_restore.mb_per_sec` floors.
fn run_snapshot_bench(
    graph: &Arc<Graph>,
    speeds: &Speeds,
    initial: &InitialLoad,
    quick: bool,
) -> Json {
    let fos =
        Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut alg1 = FlowImitation::new(fos, initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    // A few warm rounds so queues, flow ledgers and the twin carry the mixed
    // state a mid-run checkpoint serializes.
    let warm = if quick { 2 } else { 4 };
    alg1.run(warm);
    let trials = if quick { 2 } else { 3 };
    let path = std::env::temp_dir().join(format!("{}.jsonl", unique_name("lb_hotpath_snapshot")));
    let header = Json::obj([("name", Json::from("hotpath_snapshot"))]);

    let mut write_secs = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        let snap = Snapshot {
            scenario: header.clone(),
            driver: Json::Null,
            round: warm as u64,
            engine: alg1.capture(),
        };
        snapshot::write_atomic(&path, &snap).expect("snapshot writes");
        write_secs = write_secs.min(start.elapsed().as_secs_f64());
    }
    let bytes = std::fs::metadata(&path).expect("snapshot on disk").len();

    let fos =
        Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).expect("FOS constructs");
    let mut restored = FlowImitation::new(fos, initial, speeds.clone(), TaskPicker::Fifo)
        .expect("dimensions agree");
    let mut read_secs = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        let snap = snapshot::load(&path).expect("snapshot loads");
        restored.restore(&snap.engine).expect("snapshot restores");
        read_secs = read_secs.min(start.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path).ok();

    // The round-trip must be exact: both engines take the same next step.
    alg1.step();
    restored.step();
    assert_eq!(
        alg1.loads(),
        restored.loads(),
        "restored engine diverged from the captured one"
    );

    let mb = bytes as f64 / 1e6;
    eprintln!(
        "snapshot: {bytes} bytes on disk, capture+write {:.1} MB/sec, \
         read+restore {:.1} MB/sec",
        mb / write_secs,
        mb / read_secs,
    );
    Json::obj([
        (
            "config",
            Json::obj([
                ("graph", Json::from(graph.name())),
                ("nodes", Json::from(graph.node_count())),
                ("tasks", Json::from(initial.task_count())),
                ("bytes", Json::from(bytes)),
            ]),
        ),
        (
            "capture_write",
            Json::obj([
                ("elapsed_secs", Json::from(write_secs)),
                ("mb_per_sec", Json::from(mb / write_secs)),
            ]),
        ),
        (
            "read_restore",
            Json::obj([
                ("elapsed_secs", Json::from(read_secs)),
                ("mb_per_sec", Json::from(mb / read_secs)),
            ]),
        ),
    ])
}

/// Benchmarks the federated driver: the scenario below partitioned across
/// two worker threads speaking the real TCP round protocol to a coordinator
/// [`crate::dynamic::Session`] on localhost — the per-round cost of the
/// three barrier relays plus partitioned stepping, expressed as rounds/sec.
/// The federated result document is asserted byte-identical to the
/// sequential run's before the numbers are reported. Gated by
/// `lb bench-check` when the committed baseline carries a
/// `federate.rounds_per_sec` floor.
fn run_federate_bench(quick: bool) -> Json {
    use lb_workloads::Scenario;
    let parts = 2usize;
    let rounds: usize = if quick { 100 } else { 400 };
    let text = format!(
        r#"{{
  "name": "hotpath_federate",
  "seed": 7,
  "rounds": {rounds},
  "sample_every": {rounds},
  "federation": {parts},
  "algorithm": "alg1",
  "model": "fos",
  "topology": {{"family": "hypercube", "target_n": 4096}},
  "initial": {{
    "distribution": {{"model": "single_source", "source": 0}},
    "tokens_per_node": 4,
    "pad": "degree"
  }},
  "arrivals": {{"model": "poisson", "rate_per_node": 0.25, "max_weight": 1}},
  "completions": {{"model": "uniform", "weight_per_speed": 1}}
}}"#
    );
    let scenario = Scenario::parse(&text).expect("federate bench scenario parses");

    let sequential = crate::dynamic::Session::from_scenario(&scenario)
        .run(|_| {})
        .expect("federate bench sequential run");

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("federate bench bind");
    let addr = listener
        .local_addr()
        .expect("federate bench bound address")
        .to_string();
    let workers: Vec<_> = (0..parts)
        .map(|rank| {
            let addr = addr.clone();
            std::thread::spawn(move || crate::federate::worker_entry(&addr, rank, parts))
        })
        .collect();
    // The timed window covers worker admission through the final round
    // barrier — the full cost of standing up and driving the federation.
    let start = Instant::now();
    let role = crate::federate::FederationRole::coordinator(listener, Vec::new());
    let federated = crate::dynamic::Session::from_scenario(&scenario)
        .federated(role, parts)
        .run(|_| {})
        .expect("federate bench coordinator run");
    let elapsed_secs = start.elapsed().as_secs_f64();
    for worker in workers {
        worker
            .join()
            .expect("federate bench worker thread")
            .expect("federate bench worker run");
    }
    assert_eq!(
        federated.to_json().render(),
        sequential.to_json().render(),
        "federated driver diverged from the sequential driver"
    );

    let rounds_per_sec = rounds as f64 / elapsed_secs;
    eprintln!("federate ({parts} processes): {rounds_per_sec:.1} rounds/sec");
    Json::obj([
        (
            "config",
            Json::obj([
                ("parts", Json::from(parts)),
                ("nodes", Json::from(4096usize)),
                ("rounds", Json::from(rounds)),
            ]),
        ),
        ("elapsed_secs", Json::from(elapsed_secs)),
        ("rounds_per_sec", Json::from(rounds_per_sec)),
    ])
}

/// Edges added (and, separately, removed) per churn round in the churn
/// benchmark — the fixed `Δ` of the delta-rewire path.
const CHURN_DELTA_EDGES: usize = 16;

/// A deterministic `Δ`-edge rewire of the `dim`-dimensional hypercube:
/// removes the dimension-0 edge at every 8th node and adds the (two-bit,
/// hence non-hypercube) `i ↔ i^3` chord there instead. Every endpoint is
/// distinct, so the delta touches exactly `4·Δ` node slots.
fn churn_delta(n: usize) -> lb_graph::GraphDelta {
    assert!(
        8 * CHURN_DELTA_EDGES <= n,
        "graph too small for churn delta"
    );
    let removed = (0..CHURN_DELTA_EDGES).map(|j| (8 * j, (8 * j) ^ 1));
    let added = (0..CHURN_DELTA_EDGES).map(|j| (8 * j, (8 * j) ^ 3));
    lb_graph::GraphDelta::new(n, added, removed).expect("churn delta is canonical")
}

/// Inverts a delta: applying `invert(d)` after `d` restores the graph.
fn invert_delta(delta: &lb_graph::GraphDelta) -> lb_graph::GraphDelta {
    lb_graph::GraphDelta {
        removed: delta.added.clone(),
        added: delta.removed.clone(),
    }
}

/// Benchmarks the delta-churn path: a rewire-heavy loop on the n = 8192
/// hypercube where **every** round patches the topology through
/// [`Fos::patched`] + `replace_topology` (a fixed Δ = [`CHURN_DELTA_EDGES`]
/// alternating with its inverse) and then steps the engine once. The
/// patched trajectory is asserted bit-identical to the same loop run
/// through full `Fos::new` rebuilds before the numbers are reported.
/// `churn.rounds_per_sec` is gated by `lb bench-check` when the committed
/// baseline carries a floor; the `delta_scaling` block reports the patch
/// cost at fixed Δ on two graph sizes next to the full-rebuild cost — the
/// evidence that rewire cost tracks Δ, not m.
fn run_churn_bench(quick: bool) -> Json {
    let dim = 13u32; // 8192 nodes
    let (load_per_node, rounds, trials) = if quick { (2, 30, 2) } else { (2, 120, 3) };

    let run_loop = |patch: bool, rounds: usize| -> EngineResult {
        let graph: Arc<Graph> = lb_graph::generators::hypercube(dim)
            .expect("hypercube builds")
            .into();
        let n = graph.node_count();
        let d = graph.max_degree() as u64;
        let speeds = Speeds::uniform(n);
        let initial = standard_initial_load(n, load_per_node, d);
        let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
            .expect("FOS constructs");
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo)
            .expect("dimensions agree");
        let forward = churn_delta(n);
        let backward = invert_delta(&forward);
        let mut current = graph;
        let start = Instant::now();
        for round in 0..rounds {
            let delta = if round % 2 == 0 { &forward } else { &backward };
            let next: Arc<Graph> = current.apply_delta(delta).expect("delta applies").into();
            let process = if patch {
                alg1.continuous()
                    .process()
                    .patched(Arc::clone(&next), delta)
                    .expect("FOS patches")
            } else {
                Fos::new(Arc::clone(&next), &speeds, AlphaScheme::MaxDegreePlusOne)
                    .expect("FOS constructs")
            };
            alg1.replace_topology(process).expect("topology replaces");
            current = next;
            alg1.step();
        }
        EngineResult {
            rounds,
            elapsed_secs: start.elapsed().as_secs_f64(),
            items_sent: alg1.items_sent(),
            final_loads: alg1.loads(),
        }
    };

    // Trials interleave the patched and rebuild loops so machine-load drift
    // biases neither; the fastest trial of each is kept.
    let mut patched_trials = Vec::new();
    let mut rebuild_trials = Vec::new();
    for _ in 0..trials {
        patched_trials.push(run_loop(true, rounds));
        rebuild_trials.push(run_loop(false, rounds));
    }
    let patched = patched_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    let rebuild = rebuild_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    // The delta path must be a pure optimisation: same trajectory, bit for
    // bit, as rebuilding the process from scratch every churn.
    assert_eq!(
        patched.final_loads, rebuild.final_loads,
        "delta-patched churn diverged from the full-rebuild path"
    );
    eprintln!(
        "churn (Δ = {CHURN_DELTA_EDGES} edges/round): patched {:.1} rounds/sec, \
         full-rebuild {:.1} rounds/sec",
        patched.rounds_per_sec(),
        rebuild.rounds_per_sec(),
    );

    // Δ-vs-m evidence: the same fixed-Δ patch timed on two graph sizes,
    // next to the full rebuild it replaces. Patch cost is a copy walk plus
    // O(Δ·d) recompute; rebuild cost is the full O(m) alpha derivation.
    let scale = |dim: u32| -> Json {
        let graph: Arc<Graph> = lb_graph::generators::hypercube(dim)
            .expect("hypercube builds")
            .into();
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let fos = Fos::new(Arc::clone(&graph), &speeds, AlphaScheme::MaxDegreePlusOne)
            .expect("FOS constructs");
        let delta = churn_delta(n);
        let next: Arc<Graph> = graph.apply_delta(&delta).expect("delta applies").into();
        let reps = if quick { 10 } else { 40 };
        let mut patch_secs = f64::INFINITY;
        let mut rebuild_secs = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let patched = fos.patched(Arc::clone(&next), &delta).expect("FOS patches");
            patch_secs = patch_secs.min(start.elapsed().as_secs_f64());
            drop(patched);
            let start = Instant::now();
            let fresh = Fos::new(Arc::clone(&next), &speeds, AlphaScheme::MaxDegreePlusOne)
                .expect("FOS constructs");
            rebuild_secs = rebuild_secs.min(start.elapsed().as_secs_f64());
            drop(fresh);
        }
        eprintln!(
            "churn scaling: n = {n}, m = {}: patch {:.1} µs, rebuild {:.1} µs",
            graph.edge_count(),
            patch_secs * 1e6,
            rebuild_secs * 1e6,
        );
        Json::obj([
            ("nodes", Json::from(n)),
            ("edges", Json::from(graph.edge_count())),
            ("patch_secs", Json::from(patch_secs)),
            ("rebuild_secs", Json::from(rebuild_secs)),
        ])
    };
    let small = scale(dim);
    let large = scale(dim + 2);

    Json::obj([
        (
            "config",
            Json::obj([
                ("nodes", Json::from(1usize << dim)),
                ("delta_edges", Json::from(CHURN_DELTA_EDGES)),
                ("rounds", Json::from(rounds)),
            ]),
        ),
        ("rounds_per_sec", Json::from(patched.rounds_per_sec())),
        ("elapsed_secs", Json::from(patched.elapsed_secs)),
        (
            "full_rebuild",
            Json::obj([("rounds_per_sec", Json::from(rebuild.rounds_per_sec()))]),
        ),
        (
            "delta_scaling",
            Json::obj([("small", small), ("large", large)]),
        ),
    ])
}

/// Peak resident set size of this process in kilobytes (Linux `VmHWM`),
/// or 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Runs the hot-path benchmark and writes `BENCH_hotpath.json`.
///
/// `shards` sets the shard count of the sharded large-instance entry;
/// explicit values are used verbatim (the CLI range-checks them), and the
/// default is `min(cores, 8)` with a floor of 2 so the sharded path is
/// always exercised even on a single-core host.
///
/// # Panics
///
/// Panics if the optimised engine's trajectory diverges from the seed
/// semantics, if the sharded engine diverges from the sequential one, or if
/// the artefact cannot be written.
pub fn run(quick: bool, shards: Option<usize>) {
    // The acceptance configuration: the ~10k-node hypercube (rounded to the
    // nearest power of two, 8192), single-source workload, FIFO picking.
    let target_n = 10_000;
    let (load_per_node, rounds, trials) = if quick { (2, 5, 1) } else { (4, 12, 3) };

    let graph: Arc<Graph> = GraphClass::Hypercube
        .build(target_n, 0)
        .expect("hypercube builds")
        .into();
    let n = graph.node_count();
    let d = graph.max_degree() as u64;
    let speeds = Speeds::uniform(n);
    let initial = standard_initial_load(n, load_per_node, d);

    eprintln!(
        "hotpath: {} (n = {n}, m = {}), {} tasks, {rounds} rounds, {trials} trial(s), {} worker thread(s)",
        graph.name(),
        graph.edge_count(),
        initial.task_count(),
        worker_threads(),
    );

    // Both engines are timed under the same policy — trials run one at a
    // time, so neither side's min-of-trials is depressed by co-running
    // trials contending for memory bandwidth. Keep the fastest trial of
    // each engine. (The `lb bench-check` CI gate compares rounds/sec across
    // runs, so the timing policy must stay contention-free and symmetric.)
    let optimized = (0..trials)
        .map(|_| run_optimized(&graph, &speeds, &initial, rounds))
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    eprintln!(
        "optimized: {:.1} rounds/sec, {:.0} ns/task-send",
        optimized.rounds_per_sec(),
        optimized.ns_per_task_send()
    );

    let baseline = (0..trials.min(2))
        .map(|_| run_baseline(&graph, &speeds, &initial, rounds))
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    eprintln!(
        "baseline (seed semantics): {:.2} rounds/sec, {:.0} ns/task-send",
        baseline.rounds_per_sec(),
        baseline.ns_per_task_send()
    );

    // Both engines implement the same algorithm; their trajectories must
    // agree exactly (FIFO picking is deterministic).
    assert_eq!(
        baseline.final_loads, optimized.final_loads,
        "optimised engine diverged from seed semantics"
    );

    let speedup = optimized.rounds_per_sec() / baseline.rounds_per_sec();
    eprintln!("speedup: {speedup:.1}x rounds/sec");

    // The sharded large-instance entry: a hypercube with n ≥ 10⁵ nodes —
    // the regime where a single instance's serial O(m) round is the wall —
    // stepped sequentially and through a ShardedExecutor. Trajectories must
    // agree bit for bit; the throughput ratio is the intra-instance scaling
    // headline that `lb bench-check` gates. An explicit `--shards` /
    // `LB_BENCH_SHARDS` value is honoured verbatim (the CLI validates the
    // range); only the default is derived from the core count.
    let shards = shards.unwrap_or_else(|| worker_threads().clamp(2, 8));
    let large_graph: Arc<Graph> = GraphClass::Hypercube
        .build(100_000, 0)
        .expect("large hypercube builds")
        .into();
    let large_n = large_graph.node_count();
    let large_d = large_graph.max_degree() as u64;
    let large_speeds = Speeds::uniform(large_n);
    let large_initial = standard_initial_load(large_n, if quick { 1 } else { 2 }, large_d);
    let large_rounds = if quick { 3 } else { 8 };
    eprintln!(
        "large: {} (n = {large_n}, m = {}), {} tasks, {large_rounds} rounds, {shards} shard(s)",
        large_graph.name(),
        large_graph.edge_count(),
        large_initial.task_count(),
    );

    // Trials interleave the two engines so slow drift in machine load or
    // clock frequency biases neither side; the fastest trial of each is kept.
    let mut sequential_trials = Vec::new();
    let mut sharded_trials = Vec::new();
    for _ in 0..trials.max(2) {
        sequential_trials.push(run_optimized(
            &large_graph,
            &large_speeds,
            &large_initial,
            large_rounds,
        ));
        sharded_trials.push(run_sharded(
            &large_graph,
            &large_speeds,
            &large_initial,
            large_rounds,
            shards,
        ));
    }
    let sequential_large = sequential_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    eprintln!(
        "large sequential: {:.1} rounds/sec",
        sequential_large.rounds_per_sec()
    );
    let sharded_large = sharded_trials
        .into_iter()
        .min_by(|a, b| a.elapsed_secs.total_cmp(&b.elapsed_secs))
        .expect("at least one trial");
    eprintln!(
        "large sharded ({shards} shards): {:.1} rounds/sec",
        sharded_large.rounds_per_sec()
    );
    assert_eq!(
        sequential_large.final_loads, sharded_large.final_loads,
        "sharded engine diverged from the sequential engine"
    );
    let sharded_speedup = sharded_large.rounds_per_sec() / sequential_large.rounds_per_sec();
    eprintln!("large sharded speedup: {sharded_speedup:.2}x rounds/sec");

    // The ingestion entry: event throughput through the async SPSC channel
    // vs inline generation (no engine in the loop — this isolates delivery).
    let ingest = run_ingest_bench(quick);

    // The snapshot entry: checkpoint capture+write and resume read+restore
    // throughput on the large-instance engine state.
    let snapshot_entry = run_snapshot_bench(&large_graph, &large_speeds, &large_initial, quick);

    // The federation entry: the two-process round protocol over localhost
    // TCP, asserted byte-identical to the sequential driver first.
    let federate_entry = run_federate_bench(quick);

    // The churn entry: per-round topology rewires through the delta-patch
    // path, asserted bit-identical to full rebuilds first.
    let churn_entry = run_churn_bench(quick);

    let report = Json::obj([
        ("benchmark", Json::from("hotpath_alg1_fifo")),
        (
            "config",
            Json::obj([
                ("graph", Json::from(graph.name())),
                ("nodes", Json::from(n)),
                ("edges", Json::from(graph.edge_count())),
                ("max_degree", Json::from(d)),
                ("tasks", Json::from(initial.task_count())),
                ("rounds", Json::from(rounds)),
                ("picker", Json::from("fifo")),
                ("quick", Json::from(quick)),
                ("worker_threads", Json::from(worker_threads())),
            ]),
        ),
        ("baseline_seed_semantics", baseline.to_json()),
        ("optimized", optimized.to_json()),
        ("speedup_rounds_per_sec", Json::from(speedup)),
        (
            "large",
            Json::obj([
                (
                    "config",
                    Json::obj([
                        ("graph", Json::from(large_graph.name())),
                        ("nodes", Json::from(large_n)),
                        ("edges", Json::from(large_graph.edge_count())),
                        ("tasks", Json::from(large_initial.task_count())),
                        ("rounds", Json::from(large_rounds)),
                        ("shards", Json::from(shards)),
                    ]),
                ),
                ("sequential", sequential_large.to_json()),
                ("sharded", sharded_large.to_json()),
                ("speedup_rounds_per_sec", Json::from(sharded_speedup)),
            ]),
        ),
        ("ingest", ingest),
        ("snapshot", snapshot_entry),
        ("federate", federate_entry),
        ("churn", churn_entry),
        ("peak_rss_kb", Json::from(peak_rss_kb())),
    ]);
    let path = "BENCH_hotpath.json";
    lb_analysis::write_bytes_atomic(
        std::path::Path::new(path),
        report.render_pretty().as_bytes(),
    )
    .expect("write BENCH_hotpath.json");
    println!("{}", report.render_pretty());
    eprintln!("(written to {path})");
}
