//! Scenario driver: binds a [`Scenario`] spec to a dynamic flow-imitation
//! engine and runs it, streaming per-round metric samples and producing a
//! fully deterministic JSON result document.
//!
//! Everything downstream of the spec is seeded: graph construction, speed
//! assignment, the initial distribution and the arrival stream all derive
//! sub-seeds from one master seed, so the same scenario file and seed produce
//! **bit-identical** result JSON across runs and machines (the document
//! contains no timings). `tests/dynamic_scenarios.rs` pins this.
//!
//! Every single-process run goes through one builder, [`Session`]:
//! construct it from a scenario ([`Session::from_scenario`]), a recorded
//! trace or live byte stream ([`Session::from_stream`]) or a checkpoint
//! snapshot ([`Session::from_snapshot`]); layer on side outputs and the
//! event feed (`.shards()`, `.producer()`, `.record()`, `.checkpoint()`,
//! `.stream()`, `.merged()`); then [`Session::run`]. Failures come back as
//! the typed [`crate::error::BenchError`]. A federated run calls the two
//! roles of [`crate::federate`] directly, which reuse this module's world,
//! churn cursor and sampling.
//!
//! Every run, a federated worker's included, picks its engine in one
//! place: a match on the scenario's algorithm and model names the concrete
//! [`Imitation`] (Algorithm 1 or 2 over FOS or SOS) and runs a driver loop
//! generic in both, which builds the engine once (a resume builds it on the
//! capture epoch, with no initial placement) and calls it directly.
//!
//! Events can reach the engine four ways, all bit-identical for the same
//! scenario and seed (`tests/ingest_equivalence.rs`,
//! `tests/merge_equivalence.rs`, `tests/serve_faults.rs`):
//!
//! * **sync** ([`Producer::Scenario`]) — the driver materialises each
//!   round's batch inline from the scenario's event stream;
//! * **merge** ([`Producer::Merge`]) — N producer threads each stream a
//!   contiguous per-round slice of the same batches over their own bounded
//!   SPSC channel ([`lb_core::ingest`]), k-way merged back into round order
//!   by [`lb_core::ingest::merge`]. The CLI's `--producer channel` is the
//!   one-feed merge: one producer thread streams whole batches;
//! * **replay** ([`Session::from_stream`]) — the batches are parsed
//!   incrementally from a recorded trace ([`lb_workloads::trace`]) on a
//!   producer thread and fed through a one-feed merge, whether the trace is
//!   a finished file, a growing file tail or any pipe/socket reader
//!   ([`lb_workloads::source`]);
//! * **external merge** ([`Session::merged`]) — the driver consumes an
//!   externally built [`MergeSession`] whose feeds are produced elsewhere —
//!   e.g. the socket connections of [`crate::serve`], registered on the fly
//!   through a [`lb_core::ingest::merge::FeedRegistrar`].
//!
//! Any run can be recorded ([`Session::record`]) and replayed later.
//! Channel-fed runs additionally report backpressure metrics (blocked
//! sends/duration per feed, high-water depth) through
//! [`ScenarioOutcome::ingest`] — out of band, because those counters are
//! timing-dependent while the result document is pinned byte-identical.
//!
//! Any run can also be **checkpointed** ([`Session::checkpoint`]): a
//! rotating [`lb_core::snapshot`] of the full engine state — plus the
//! effective scenario and the trajectory accumulated so far — is atomically
//! replaced every `checkpoint_every` rounds, at the between-rounds boundary
//! (the one quiescent point the ingest contract defines).
//! [`Session::from_snapshot`] continues from the newest checkpoint and
//! emits result JSON **byte-identical** to the uninterrupted run's — at any
//! shard count (resume overrides the executor, never the recorded scenario,
//! so a snapshot doubles as a migration unit), through any producer mode,
//! and with `--record` still producing the complete trace (the drained
//! prefix is re-recorded). [`Session::stream`] on a snapshot session does
//! the same for byte-stream feeds and composes with
//! [`lb_workloads::TraceSource`] checkpoints: a source resumed past the
//! applied prefix simply yields empty batches for the fast-forwarded
//! rounds.

use lb_analysis::Json;
use lb_core::continuous::{ContinuousProcess, Fos, Sos};
use lb_core::discrete::{
    Algorithm, DiscreteBalancer, DynamicBalancer, FlowImitation, Imitation, RandomizedImitation,
    RoundEvents, TaskPicker,
};
use lb_core::ingest;
use lb_core::ingest::merge::MergeSession;
use lb_core::snapshot::{self, ProcessHistory, Snapshot};
use lb_core::{metrics, CoreError, InitialLoad, ShardedExecutor, Speeds};
use lb_graph::{AlphaScheme, Graph, GraphDelta};
use lb_workloads::{
    pad_for_min_load, AlgorithmSpec, ChurnEvent, ChurnKind, ModelSpec, PadSpec, RoundSource,
    Scenario, ScenarioEvents, TraceWriter,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::error::BenchError;
use crate::harness::GraphClass;

/// Diffusion matrix scheme used by every scenario engine (the harness
/// default).
const SCHEME: AlphaScheme = AlphaScheme::MaxDegreePlusOne;

/// Sub-seed offsets, so the master seed decorrelates its consumers.
const GRAPH_SEED_OFFSET: u64 = 0x6EA9;
const SPEEDS_SEED_OFFSET: u64 = 0x0059_EED5;
const INITIAL_SEED_OFFSET: u64 = 0x1417;

/// One sampled point of a scenario trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSample {
    /// Completed rounds when the sample was taken (0 = initial state).
    pub round: usize,
    /// Node count at sample time (changes across resize churn).
    pub nodes: usize,
    /// Max-min makespan discrepancy (dummy load included, as in the paper).
    pub max_min: f64,
    /// Max-avg makespan discrepancy.
    pub max_avg: f64,
    /// Total real (workload) task weight in the system.
    pub real_weight: f64,
    /// Total dummy load in circulation.
    pub dummy_load: u64,
    /// Cumulative weight arrived via dynamic events.
    pub arrived_weight: u64,
    /// Cumulative weight completed via dynamic events.
    pub completed_weight: u64,
}

impl RoundSample {
    /// JSON form used in trajectory arrays.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("round", Json::from(self.round)),
            ("nodes", Json::from(self.nodes)),
            ("max_min", Json::from(self.max_min)),
            ("max_avg", Json::from(self.max_avg)),
            ("real_weight", Json::from(self.real_weight)),
            ("dummy_load", Json::from(self.dummy_load)),
            ("arrived_weight", Json::from(self.arrived_weight)),
            ("completed_weight", Json::from(self.completed_weight)),
        ])
    }
}

/// The result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The effective scenario (with the resolved seed).
    pub scenario: Scenario,
    /// Engine name, e.g. `"alg1(fos)"`.
    pub engine: String,
    /// Sampled trajectory (round 0, every `sample_every` rounds, final round).
    pub trajectory: Vec<RoundSample>,
    /// Total dummy load drawn from the infinite source over the run.
    pub dummy_created: u64,
    /// Ingestion report for channel-fed runs (`None` on the sync path):
    /// per-feed batch/event totals and backpressure metrics. Deliberately
    /// **not** part of [`to_json`](ScenarioOutcome::to_json) — the counters
    /// are timing-dependent, while the result document is pinned
    /// byte-identical across producer modes; emit this out of band (stderr,
    /// `--ingest-stats`).
    pub ingest: Option<Json>,
}

impl ScenarioOutcome {
    /// The final sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty trajectory, which no driver returns: each records
    /// round 0 first, and a resume carries it over from the snapshot.
    pub fn last(&self) -> &RoundSample {
        // lint: allow(R03, every driver pushes round 0 first and a resume carries it over; the panic is documented)
        self.trajectory.last().expect("trajectory is never empty")
    }

    /// Renders the deterministic result document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("engine", Json::from(self.engine.clone())),
            (
                "trajectory",
                Json::Arr(self.trajectory.iter().map(RoundSample::to_json).collect()),
            ),
            (
                "final",
                Json::obj([
                    ("sample", self.last().to_json()),
                    ("dummy_created", Json::from(self.dummy_created)),
                ]),
            ),
        ])
    }
}

/// Resolves a scenario `topology.family` string to a harness graph class.
///
/// # Errors
///
/// Returns a message listing the known families for unknown names.
pub fn family_class(family: &str) -> Result<GraphClass, String> {
    match family {
        "arbitrary" => Ok(GraphClass::Arbitrary),
        "expander" => Ok(GraphClass::Expander),
        "hypercube" => Ok(GraphClass::Hypercube),
        "torus" => Ok(GraphClass::Torus),
        "ring_of_cliques" => Ok(GraphClass::RingOfCliques),
        "cycle" => Ok(GraphClass::Cycle),
        other => Err(format!(
            "unknown topology family {other:?} \
             (want arbitrary|expander|hypercube|torus|ring_of_cliques|cycle)"
        )),
    }
}

/// The continuous models a scenario engine runs: how a run builds one and
/// how churn patches one onto a same-size edge change. Only the build
/// differs between them.
pub(crate) trait Model: ContinuousProcess + Sync + Sized {
    /// Builds the process on `graph` from scratch, or, on a resume, from
    /// the `carried` history of the snapshot's process: SOS then takes β
    /// and its basis from it instead of estimating.
    fn build(
        graph: Arc<Graph>,
        speeds: &Speeds,
        carried: Option<&ProcessHistory>,
    ) -> Result<Self, BenchError>;
    /// This process patched onto `graph`, its own graph with `delta`
    /// applied, keeping its speeds; identical to [`Model::build`] on `graph`
    /// with those speeds, except that SOS re-estimates `β` from its basis
    /// on a non-empty delta ([`Sos::patched`]).
    fn patch(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError>;
}

impl Model for Fos {
    fn build(
        graph: Arc<Graph>,
        speeds: &Speeds,
        _carried: Option<&ProcessHistory>,
    ) -> Result<Self, BenchError> {
        Ok(Fos::new(graph, speeds, SCHEME)?)
    }

    fn patch(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError> {
        self.patched(graph, delta)
    }
}

impl Model for Sos {
    /// A fresh build estimates the optimal `β` cold; a resume restores the
    /// carried β (validated) over a placeholder and estimates nothing.
    fn build(
        graph: Arc<Graph>,
        speeds: &Speeds,
        carried: Option<&ProcessHistory>,
    ) -> Result<Self, BenchError> {
        let Some(history) = carried else {
            return Ok(Sos::with_optimal_beta(graph, speeds, SCHEME)?);
        };
        let mut sos = Sos::new(graph, speeds, SCHEME, 1.0)?;
        sos.restore_history(history)?;
        Ok(sos)
    }

    fn patch(&self, graph: Arc<Graph>, delta: &GraphDelta) -> Result<Self, CoreError> {
        self.patched(graph, delta)
    }
}

/// A scenario engine's constructor: process, initial load, speeds, seed.
pub(crate) type Build<A, R> =
    fn(A, &InitialLoad, Speeds, u64) -> Result<Imitation<A, R>, CoreError>;

/// A driver loop over one scenario's engine, generic in the engine's
/// continuous model and algorithm; [`drive`] picks them and runs it.
pub(crate) trait Driver {
    /// What a finished loop returns.
    type Output;
    /// The effective scenario the engine is built from.
    fn scenario(&self) -> &Scenario;
    /// Runs the loop on the one engine `build` makes (a constructor).
    fn run<A: Model, R: Algorithm>(
        self,
        world: &World,
        build: Build<A, R>,
    ) -> Result<Self::Output, BenchError>;
}

/// Derives the driver's [`World`] and runs the driver on the engine its
/// scenario names: Algorithm 1 with the FIFO picker or Algorithm 2, over FOS
/// or SOS. Federated workers run here too; the coordinator builds no engine.
pub(crate) fn drive<D: Driver>(driver: D) -> Result<D::Output, BenchError> {
    let scenario = driver.scenario();
    let world = build_world(scenario)?;
    match (scenario.algorithm, scenario.model) {
        (AlgorithmSpec::Alg1, ModelSpec::Fos) => driver.run(&world, |p, l, s, _| {
            FlowImitation::<Fos>::new(p, l, s, TaskPicker::Fifo)
        }),
        (AlgorithmSpec::Alg1, ModelSpec::Sos) => driver.run(&world, |p, l, s, _| {
            FlowImitation::<Sos>::new(p, l, s, TaskPicker::Fifo)
        }),
        (AlgorithmSpec::Alg2, ModelSpec::Fos) => {
            driver.run(&world, RandomizedImitation::<Fos>::new)
        }
        (AlgorithmSpec::Alg2, ModelSpec::Sos) => {
            driver.run(&world, RandomizedImitation::<Sos>::new)
        }
    }
}

/// Rebuilds `engine`'s continuous process on `graph` and swaps it in
/// (topology churn). A rebuild uses `speeds`, the new epoch's carried
/// speeds ([`Speeds::resized`] over every event so far, as [`ChurnCursor`]
/// tracks them); the engine takes its speeds from the process either way.
///
/// With `delta: Some(_)` — a same-size rewire whose edge difference from
/// the engine's *current* graph is known — the continuous process is
/// patched: an empty delta keeps its matrix, any other rebuilds the matrix
/// in `O(m)`; SOS keeps its `β` on an empty delta and warm-starts its
/// estimate from the previous one on any other (see [`Sos::patched`]). A
/// patch keeps the process's speeds, which equal `speeds` wherever the
/// engine has followed every epoch. Every execution mode patches along the
/// same chain of epochs, so all of them see the same processes. Only churn
/// during a run calls this: a resume builds its engine on the capture epoch
/// directly.
pub(crate) fn replace_topology<A: Model, R: Algorithm>(
    engine: &mut Imitation<A, R>,
    graph: Arc<Graph>,
    speeds: &Speeds,
    delta: Option<&GraphDelta>,
) -> Result<(), BenchError> {
    let process = match delta {
        Some(d) => engine.continuous().process().patch(graph, d)?,
        None => A::build(graph, speeds, None)?,
    };
    Ok(engine.replace_topology(process)?)
}

/// How a run's events reach the engine. Both modes apply the same batches at
/// the same round boundaries, so trajectories are bit-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Producer {
    /// The synchronous path: the driver materialises each round's batch
    /// inline from the scenario's event stream (the default).
    #[default]
    Scenario,
    /// The async ingestion path: `feeds` producer threads each generate the
    /// stream and send a contiguous per-round slice of every batch over
    /// their own bounded SPSC channel ([`lb_core::ingest`]); the consumer
    /// side k-way merges the slices back into one round-ordered stream
    /// ([`lb_core::ingest::merge`]) and the driver drains one round's batch
    /// between rounds. Coalescing in feed index order reconstructs each
    /// batch exactly, so results stay byte-identical to the sync path. One
    /// feed is the single-channel path (the CLI's `--producer channel`).
    Merge {
        /// Number of producer feeds (1..=[`MAX_MERGE_FEEDS`]).
        feeds: usize,
        /// Per-feed channel capacity: the most in-flight batches, i.e. how
        /// far a producer may run ahead of the engine.
        capacity: usize,
    },
}

/// Default channel capacity for the CLI's producer modes and for
/// trace/stream replay sessions.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 32;

/// Upper bound on [`Producer::Merge`] feeds: each feed is an OS thread, so
/// an absurd count must be a validation error, not a `thread::spawn` abort.
pub const MAX_MERGE_FEEDS: usize = 64;

/// Run configuration carried by a [`Session`]; its builder methods
/// document each field.
#[derive(Debug, Clone, Default)]
struct RunOptions {
    shards: Option<usize>,
    producer: Producer,
    record: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: Option<usize>,
}

/// The checkpoint path and cadence, validated as a pair: both or neither,
/// and a cadence of at least one round. [`Session::run`] checks its own
/// pair here, and `lb run` and `lb federate` check their flags here before
/// any I/O.
pub(crate) fn checkpoint_plan(
    path: Option<&Path>,
    every: Option<usize>,
) -> Result<Option<(PathBuf, usize)>, BenchError> {
    match (path, every) {
        (Some(_), Some(0)) => Err(BenchError::usage(
            "the checkpoint cadence must be at least one round",
        )),
        (Some(path), Some(every)) => Ok(Some((path.to_path_buf(), every))),
        (Some(_), None) => Err(BenchError::usage(
            "a checkpoint path requires a checkpoint cadence (checkpoint-every)",
        )),
        (None, Some(_)) => Err(BenchError::usage(
            "a checkpoint cadence requires a checkpoint path",
        )),
        (None, None) => Ok(None),
    }
}

/// Where the driver's per-round batches come from.
enum EventSource {
    /// Inline generation from the scenario stream.
    Sync(ScenarioEvents),
    /// Producer threads (none for an external merge) on the other ends of
    /// the channels of a k-way merge.
    Merge {
        session: MergeSession,
        producers: Vec<JoinHandle<Result<(), String>>>,
    },
}

impl EventSource {
    /// Fills `out` with the batch for `round` (empty when the round has no
    /// events). Merge ordering violations are stream-protocol errors.
    fn fill_round(&mut self, round: usize, out: &mut RoundEvents) -> Result<(), BenchError> {
        match self {
            EventSource::Sync(stream) => {
                stream.fill_round(round, out);
                Ok(())
            }
            EventSource::Merge { session, .. } => session
                .fill_round(round as u64, out)
                .map_err(|err| BenchError::protocol(err.to_string())),
        }
    }

    /// Propagates topology churn to the source. Only the inline stream needs
    /// telling — channel producers follow the churn's node counts and carry
    /// the speeds themselves.
    fn set_topology(&mut self, speeds: &Speeds) {
        if let EventSource::Sync(stream) = self {
            stream.set_topology(speeds);
        }
    }

    /// Joins one producer thread: a panic becomes a typed error (the panic
    /// already released the channel via `Drop`, so the run itself degraded
    /// to an event-free remainder instead of deadlocking), and a producer's
    /// own error — e.g. a torn trace tail — propagates verbatim, classified
    /// I/O-versus-protocol by its message shape.
    fn join_producer(handle: JoinHandle<Result<(), String>>) -> Result<(), BenchError> {
        handle
            .join()
            .map_err(|_| BenchError::run("ingest producer thread panicked"))?
            .map_err(BenchError::from_source)
    }

    /// Tears the source down: snapshots the ingestion stats, drops the
    /// consumer side (any still-blocked producer send fails immediately, so
    /// this never blocks on a full queue), then joins every producer thread
    /// and propagates the first failure.
    fn finish(self) -> Result<Option<Json>, BenchError> {
        let EventSource::Merge { session, producers } = self else {
            return Ok(None);
        };
        let feeds = session
            .feed_reports()
            .into_iter()
            .enumerate()
            .map(|(feed, report)| {
                Json::obj([
                    ("feed", Json::from(feed)),
                    ("batches", Json::from(report.batches)),
                    ("events", Json::from(report.events)),
                    ("drained", Json::from(report.drained)),
                    ("blocked_sends", Json::from(report.channel.blocked_sends)),
                    ("blocked_nanos", Json::from(report.channel.blocked_nanos)),
                    ("high_water", Json::from(report.channel.high_water)),
                ])
            })
            .collect();
        let stats = Json::obj([
            ("producer", Json::from("merge")),
            ("feeds", Json::Arr(feeds)),
        ]);
        drop(session);
        let mut failure = None;
        for handle in producers {
            if let Err(err) = Self::join_producer(handle) {
                failure.get_or_insert(err);
            }
        }
        match failure {
            Some(err) => Err(err),
            None => Ok(Some(stats)),
        }
    }
}

/// A churn failure, named by the round the event fires before.
pub(crate) fn churn_error(round: usize, err: impl std::fmt::Display) -> BenchError {
    BenchError::run(format!("churn at round {round}: {err}"))
}

/// The churn epochs of one run, each built when its round arrives.
///
/// Each churn event starts a new imitation epoch, and an epoch needs only
/// its own topology, so the cursor holds the current graph and nothing
/// ahead of it:
///
/// - a `rewire` builds the family graph and diffs it against the current
///   one (`delta_to`), so the engine can patch its process, which keeps
///   the matrix (and SOS's β) when the delta is empty;
/// - an explicit `delta` patches the current graph (`apply_delta`);
/// - a `resize` builds the new size for the full-rebuild path.
///
/// A seed-independent family ([`GraphClass::is_seeded`]) has one graph per
/// node count. The cursor keeps it, starting with the world graph, and a
/// rewire reuses it instead of building a copy.
///
/// Before round 0 the cursor builds no graph. It derives each event's node
/// count and checks the form of each explicit delta against the node count
/// in effect at its round (endpoints in range, no self-loops or repeats).
/// Whether a delta's removed edges exist and its added edges are new is
/// known only once its round arrives. Such a failure is a run error there.
pub(crate) struct ChurnCursor<'a> {
    class: GraphClass,
    events: &'a [ChurnEvent],
    /// The node count in effect after each event.
    node_counts: Vec<usize>,
    /// The events passed so far: `events[next]` fires next.
    next: usize,
    /// The events `graph` reflects (`built <= next`; they differ only while
    /// a resume fast-forward passes events without building them).
    built: usize,
    /// The current epoch's topology.
    graph: Arc<Graph>,
    /// A seed-independent family's one graph at the current node count.
    family: Option<Arc<Graph>>,
    /// Carried speeds after `events[..next]`.
    speeds: Speeds,
}

/// A churn epoch as it fires: its topology and, for a same-size edge
/// change, the edge delta from the previous epoch's topology.
pub(crate) struct Epoch {
    pub(crate) graph: Arc<Graph>,
    pub(crate) delta: Option<GraphDelta>,
}

impl<'a> ChurnCursor<'a> {
    /// A cursor before the first of `churn`'s events, on `world`.
    pub(crate) fn new(world: &World, churn: &'a [ChurnEvent]) -> Result<Self, BenchError> {
        let mut n = world.graph.node_count();
        let mut node_counts = Vec::with_capacity(churn.len());
        for event in churn {
            match &event.kind {
                ChurnKind::Rewire { .. } => {}
                ChurnKind::Resize { target_n, .. } => n = world.class.node_count(*target_n),
                ChurnKind::Delta { add, remove } => {
                    GraphDelta::new(n, add.iter().copied(), remove.iter().copied())
                        .map_err(|err| churn_error(event.round, err))?;
                }
            }
            node_counts.push(n);
        }
        Ok(ChurnCursor {
            class: world.class,
            events: churn,
            node_counts,
            next: 0,
            built: 0,
            graph: Arc::clone(&world.graph),
            family: (!world.class.is_seeded()).then(|| Arc::clone(&world.graph)),
            speeds: world.speeds.clone(),
        })
    }

    /// The current epoch's topology.
    pub(crate) fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The speeds the current epoch carries.
    pub(crate) fn speeds(&self) -> &Speeds {
        &self.speeds
    }

    /// `(round, node count after the event)` for every event: all a
    /// producer thread needs to follow the speeds (see [`Speeds::resized`]).
    pub(crate) fn node_counts(&self) -> Vec<(usize, usize)> {
        self.events
            .iter()
            .map(|event| event.round)
            .zip(self.node_counts.iter().copied())
            .collect()
    }

    /// Whether an event fires before `round`.
    pub(crate) fn due(&self, round: usize) -> bool {
        self.events.get(self.next).is_some_and(|e| e.round == round)
    }

    /// Builds the next epoch if an event fires before `round`, else returns
    /// `None`; call it until `None` at every round, in order.
    pub(crate) fn fire(&mut self, round: usize) -> Result<Option<Epoch>, BenchError> {
        debug_assert_eq!(self.built, self.next, "a fast-forward must seek first");
        if !self.due(round) {
            return Ok(None);
        }
        let i = self.next;
        let event = &self.events[i];
        let before = Arc::clone(&self.graph);
        let (graph, delta) = self.epoch_graph(i, &before)?;
        let delta = match event.kind {
            ChurnKind::Rewire { .. } => Some(
                before
                    .delta_to(&graph)
                    .map_err(|err| churn_error(round, err))?,
            ),
            _ => delta,
        };
        self.pass_one()?;
        self.built = self.next;
        self.graph = Arc::clone(&graph);
        Ok(Some(Epoch { graph, delta }))
    }

    /// Passes the events that fire before `round` without building their
    /// topologies, and says whether there were any. The resume fast-forward
    /// uses it: the event stream needs each epoch's speeds, but only the
    /// last epoch's graph matters ([`seek`](Self::seek)).
    pub(crate) fn pass(&mut self, round: usize) -> Result<bool, BenchError> {
        let start = self.next;
        while self.due(round) {
            self.pass_one()?;
        }
        Ok(self.next > start)
    }

    /// Moves the cursor to just before `round` and builds the topology of
    /// the epoch it lands in: only the last `rewire` or `resize` at or before
    /// it, then the `delta`s that follow that one. Returns the topology, or
    /// `None` when no event was passed since the last one built.
    pub(crate) fn seek(&mut self, round: usize) -> Result<Option<Arc<Graph>>, BenchError> {
        while self.events.get(self.next).is_some_and(|e| e.round < round) {
            self.pass_one()?;
        }
        if self.built == self.next {
            return Ok(None);
        }
        let events = self.events;
        let start = (self.built..self.next)
            .rev()
            .find(|&i| !matches!(events[i].kind, ChurnKind::Delta { .. }))
            .unwrap_or(self.built);
        let mut graph = Arc::clone(&self.graph);
        for i in start..self.next {
            graph = self.epoch_graph(i, &graph)?.0;
        }
        self.built = self.next;
        self.graph = Arc::clone(&graph);
        Ok(Some(graph))
    }

    /// Carries the speeds over event `events[next]` and passes it.
    fn pass_one(&mut self) -> Result<(), BenchError> {
        let n = self.node_counts[self.next];
        if n != self.speeds.len() {
            self.speeds = self
                .speeds
                .resized(n)
                .map_err(|err| churn_error(self.events[self.next].round, err))?;
        }
        self.next += 1;
        Ok(())
    }

    /// Event `i`'s topology, and for an explicit `delta` the delta itself.
    /// `before` is the topology in effect before the event; only a `delta`
    /// reads it.
    fn epoch_graph(
        &mut self,
        i: usize,
        before: &Graph,
    ) -> Result<(Arc<Graph>, Option<GraphDelta>), BenchError> {
        let event = &self.events[i];
        let round = event.round;
        match &event.kind {
            ChurnKind::Rewire { seed } => {
                Ok((self.family_graph(self.node_counts[i], *seed, round)?, None))
            }
            ChurnKind::Resize { target_n, seed } => {
                Ok((self.family_graph(*target_n, *seed, round)?, None))
            }
            ChurnKind::Delta { add, remove } => {
                let delta = GraphDelta::new(
                    self.node_counts[i],
                    add.iter().copied(),
                    remove.iter().copied(),
                )
                .map_err(|err| churn_error(round, err))?;
                let graph = before
                    .apply_delta(&delta)
                    .map_err(|err| churn_error(round, err))?;
                Ok((Arc::new(graph), Some(delta)))
            }
        }
    }

    /// The family's graph for `target_n` and `seed`. A seed-independent
    /// family reuses the graph it holds when the node count matches.
    fn family_graph(
        &mut self,
        target_n: usize,
        seed: u64,
        round: usize,
    ) -> Result<Arc<Graph>, BenchError> {
        if let Some(graph) = &self.family {
            if graph.node_count() == self.class.node_count(target_n) {
                return Ok(Arc::clone(graph));
            }
        }
        let graph: Arc<Graph> = self
            .class
            .build(target_n, seed)
            .map_err(|err| churn_error(round, err))?
            .into();
        if !self.class.is_seeded() {
            self.family = Some(Arc::clone(&graph));
        }
        Ok(graph)
    }
}

/// The contiguous slice of a `len`-element event list that feed `feed` of
/// `feeds` carries. Concatenating the slices in feed index order — exactly
/// what the merge stage's coalescing does — reconstructs the original list.
/// (`pub(crate)`: the hotpath merge benchmark partitions with the same
/// formula so it measures the production path's shape.)
pub(crate) fn feed_slice(len: usize, feed: usize, feeds: usize) -> std::ops::Range<usize> {
    (len * feed / feeds)..(len * (feed + 1) / feeds)
}

/// Spawns the producer threads for [`Producer::Merge`]: every feed runs the
/// full (deterministic) scenario stream and sends only its contiguous slice
/// of each round's batch over its own channel — no cross-thread coordination
/// on the producer side at all. Empty slices are skipped, so a feed can go
/// whole rounds without sending.
///
/// A producer never builds a graph: it follows the churn's `(round, node
/// count)` schedule from [`ChurnCursor::node_counts`] and carries `speeds`
/// over each change with the engine's rule ([`Speeds::resized`]).
fn spawn_merge_producers(
    stream: ScenarioEvents,
    speeds: &Speeds,
    schedule: &[(usize, usize)],
    rounds: usize,
    feeds: usize,
    capacity: usize,
) -> EventSource {
    let mut consumers = Vec::with_capacity(feeds);
    let mut handles = Vec::with_capacity(feeds);
    for feed in 0..feeds {
        let (mut tx, rx) = ingest::bounded(capacity);
        consumers.push(rx);
        let mut stream = stream.clone();
        let mut speeds = speeds.clone();
        let schedule = schedule.to_vec();
        handles.push(std::thread::spawn(move || {
            let mut next = 0;
            let mut full = RoundEvents::default();
            let mut spare: Option<RoundEvents> = None;
            for round in 0..rounds {
                while let Some(&(_, n)) = schedule.get(next).filter(|(r, _)| *r == round) {
                    if n != speeds.len() {
                        speeds = speeds.resized(n)?;
                        stream.set_topology(&speeds);
                    }
                    next += 1;
                }
                stream.fill_round(round, &mut full);
                let mut batch = spare.take().unwrap_or_else(|| tx.buffer());
                batch.clear();
                batch.completions.extend_from_slice(
                    &full.completions[feed_slice(full.completions.len(), feed, feeds)],
                );
                batch.arrivals.extend_from_slice(
                    &full.arrivals[feed_slice(full.arrivals.len(), feed, feeds)],
                );
                if batch.is_empty() {
                    spare = Some(batch);
                } else if tx.send(round as u64, batch).is_err() {
                    return Ok(()); // consumer hung up; the driver reports it
                }
            }
            Ok(())
        }));
    }
    EventSource::Merge {
        session: MergeSession::new(consumers),
        producers: handles,
    }
}

/// Spawns the producer thread for [`Session::from_stream`]: pulls round
/// batches off a live byte-stream source ([`lb_workloads::source`]) and
/// feeds them through a one-feed merge, recycling drained buffers. A source
/// error — a torn trace tail, a stalled writer, malformed records — ends
/// production early (the engine sees an event-free remainder and the run
/// completes) and then surfaces as the run's error when the driver joins
/// the thread.
fn spawn_source_producer(mut source: Box<dyn RoundSource>, capacity: usize) -> EventSource {
    let (mut tx, rx) = ingest::bounded(capacity);
    let handle = std::thread::spawn(move || {
        let mut spare: Option<RoundEvents> = None;
        loop {
            // Deliberately no `tx.is_disconnected()` fast-exit here: the
            // engine finishing first must not mask a source fault — a torn
            // tail discovered after the last consumed round still has to
            // surface as this run's error (tests/ingest_faults.rs), and the
            // source's own idle timeout already bounds how long a stalled
            // tail can hold the join.
            let mut batch = spare.take().unwrap_or_else(|| tx.buffer());
            match source.next_round(&mut batch)? {
                Some(round) => {
                    if batch.is_empty() {
                        spare = Some(batch); // recorded empty rounds are legal
                    } else if tx.send(round, batch).is_err() {
                        return Ok(());
                    }
                }
                None => return Ok(()),
            }
        }
    });
    EventSource::Merge {
        session: MergeSession::new(vec![rx]),
        producers: vec![handle],
    }
}

/// Where a [`Session`] starts from: a scenario spec to run, or a snapshot
/// to resume.
enum Origin {
    /// A validated-on-`run` scenario (from a spec, a trace header or a
    /// stream header).
    Scenario(Box<Scenario>),
    /// A checkpoint snapshot (boxed: snapshots carry the full engine
    /// state).
    Snapshot(Box<Snapshot>),
}

/// The entry point of every single-process run: a builder binding an
/// origin (scenario, trace, stream or snapshot) to overrides, side outputs
/// and an event feed, executed by [`Session::run`].
///
/// ```no_run
/// # use lb_bench::dynamic::{Producer, Session};
/// # use std::path::PathBuf;
/// # let scenario: lb_workloads::Scenario = unimplemented!();
/// let outcome = Session::from_scenario(&scenario)
///     .shards(4)
///     .producer(Producer::Merge { feeds: 2, capacity: 8 })
///     .record(PathBuf::from("run.trace.jsonl"))
///     .run(|_| {})?;
/// # Ok::<(), lb_bench::error::BenchError>(())
/// ```
pub struct Session {
    origin: Origin,
    feed: Feed,
    options: RunOptions,
}

impl Session {
    /// Starts a session that runs `scenario` with its own event generator
    /// (the default feed; [`Session::producer`] selects how the generated
    /// batches reach the engine).
    pub fn from_scenario(scenario: &Scenario) -> Self {
        Session {
            origin: Origin::Scenario(Box::new(scenario.clone())),
            feed: Feed::Generate,
            options: RunOptions::default(),
        }
    }

    /// Starts a session that replays a recorded trace through the async
    /// ingestion channel: the source's header embeds the effective
    /// scenario, which derives the graph, speeds and initial load, and its
    /// round records drive the engine as they arrive — from any framed
    /// reader ([`lb_workloads::ReadSource`]: a trace file, pipes, sockets,
    /// stdin) or a growing trace file ([`lb_workloads::TraceSource`]). For a
    /// trace recorded from the same scenario and seed, the result document
    /// is byte-identical to the original run's.
    ///
    /// The source runs on the producer thread; a source failure (torn tail,
    /// stalled writer, malformed record) ends production early — the engine
    /// finishes the remaining rounds event-free — and surfaces as the run's
    /// error, never as a deadlock. The stream pins the scenario, seed
    /// included; [`Session::shards`] replaces the embedded shard count
    /// (shard count never changes the result).
    pub fn from_stream(source: Box<dyn RoundSource>) -> Self {
        Session {
            origin: Origin::Scenario(Box::new(source.scenario().clone())),
            feed: Feed::Source(source),
            options: RunOptions::default(),
        }
    }

    /// Starts a session that resumes a checkpointed run
    /// ([`Session::checkpoint`]) from `snapshot`: the embedded scenario's
    /// pre-resume event stream is fast-forwarded (reconstructing its RNG
    /// state and task-id counter), the engine is built once on the capture
    /// epoch with no initial placement (SOS takes β and its basis from the
    /// snapshot, with no power iteration), and the captured state is
    /// restored into it. The result document is **byte-identical** to the
    /// uninterrupted run's, from any checkpoint.
    ///
    /// [`Session::shards`] resizes the resumed *executor* only — the
    /// recorded scenario keeps the original shard count, so byte-identity
    /// holds across shard counts (shard-invariance makes the snapshot a
    /// migration unit); the seed is the snapshot's. [`Session::producer`]
    /// selects the event path as usual; [`Session::record`] still produces
    /// the *complete* trace (the fast-forwarded prefix is re-recorded);
    /// [`Session::checkpoint`] keeps checkpointing the resumed run. The
    /// streaming callback only sees samples taken after the resume point —
    /// the restored prefix is already in the outcome's trajectory.
    /// [`Session::stream`] resumes a byte-stream replay instead of the
    /// scenario generator.
    pub fn from_snapshot(snapshot: Snapshot) -> Self {
        Session {
            origin: Origin::Snapshot(Box::new(snapshot)),
            feed: Feed::Generate,
            options: RunOptions::default(),
        }
    }

    /// Replaces the shard count. A scenario session may as well be given a
    /// scenario with `shards` set; stream and snapshot sessions cannot edit
    /// their embedded scenario, so this is how they pick one (a resumed
    /// session resizes only the executor). Shard count never changes the
    /// result — only wall-clock time. Accepts an `Option` so call sites can
    /// thread an optional override straight through.
    pub fn shards(mut self, shards: impl Into<Option<usize>>) -> Self {
        self.options.shards = shards.into();
        self
    }

    /// Selects how generated events reach the engine (sync or merge).
    /// Stream and merged feeds bring their own channel path:
    /// [`Session::run`] rejects any other producer on them.
    pub fn producer(mut self, producer: Producer) -> Self {
        self.options.producer = producer;
        self
    }

    /// Records the applied event stream to this trace file
    /// ([`lb_workloads::trace`]); the trace embeds the effective scenario
    /// and replays bit-identically via [`Session::from_stream`]. Recording
    /// never perturbs the run itself.
    pub fn record(mut self, path: impl Into<Option<PathBuf>>) -> Self {
        self.options.record = path.into();
        self
    }

    /// Writes a rotating engine snapshot ([`lb_core::snapshot`]) to `path`
    /// every `every` completed rounds. Each write is atomic (temp file →
    /// fsync → rename), so the file always holds the newest *complete*
    /// checkpoint — a crash mid-write leaves the previous one intact.
    /// Resume with [`Session::from_snapshot`]. Checkpointing never perturbs
    /// the run itself. Both halves must be present — `run` rejects an
    /// unpaired path or cadence.
    pub fn checkpoint(
        mut self,
        path: impl Into<Option<PathBuf>>,
        every: impl Into<Option<usize>>,
    ) -> Self {
        self.options.checkpoint = path.into();
        self.options.checkpoint_every = every.into();
        self
    }

    /// Feeds the run from a live byte-stream source instead of the
    /// scenario generator. On a snapshot session this resumes a byte-stream
    /// replay; it composes with [`lb_workloads::TraceSource`] checkpoints —
    /// a source resumed past the already-applied trace prefix simply yields
    /// empty batches for the fast-forwarded rounds, so the skipped records
    /// are never re-read (a source replaying from the top works too: the
    /// prefix is drained and discarded). The source's embedded scenario
    /// must equal the session's.
    pub fn stream(mut self, source: Box<dyn RoundSource>) -> Self {
        self.feed = Feed::Source(source);
        self
    }

    /// Feeds the run from an externally built [`MergeSession`] whose
    /// producers live outside the driver — e.g. the socket connections of
    /// [`crate::serve`], registered on the fly through a
    /// [`lb_core::ingest::merge::FeedRegistrar`]. The driver blocks at each
    /// round boundary on every open feed (the merge contract), applies the
    /// coalesced batches, and rolls the per-feed
    /// [`lb_core::ingest::ChannelMetrics`] into [`ScenarioOutcome::ingest`].
    pub fn merged(mut self, session: MergeSession) -> Self {
        self.feed = Feed::Merge(session);
        self
    }

    /// Runs the session, calling `on_sample` for every trajectory point
    /// recorded *during this execution* (round 0 unless resumed, every
    /// `sample_every` rounds, and the final round). For the same scenario
    /// and seed the result document is bit-identical across machines, shard
    /// counts, producer modes and resume points.
    ///
    /// # Errors
    ///
    /// [`BenchError::Usage`] for invalid specs, unknown families,
    /// contradictory options (producer mode on a stream or merged
    /// session, unpaired checkpoint options, out-of-range shard/feed
    /// counts);
    /// [`BenchError::Protocol`] for stream/merge ordering violations,
    /// malformed records and snapshots that do not match the run;
    /// [`BenchError::Io`] for file and stream I/O failures; and
    /// [`BenchError::Core`]/[`BenchError::Snapshot`]/[`BenchError::Run`]
    /// for engine and snapshot failures.
    pub fn run(self, on_sample: impl FnMut(&RoundSample)) -> Result<ScenarioOutcome, BenchError> {
        let Session {
            origin,
            feed,
            options,
        } = self;
        let checkpoint = checkpoint_plan(options.checkpoint.as_deref(), options.checkpoint_every)?;
        match options.producer {
            Producer::Scenario => {}
            Producer::Merge { feeds, .. } if feeds == 0 || feeds > MAX_MERGE_FEEDS => {
                return Err(BenchError::usage(format!(
                    "merge feeds must be in 1..={MAX_MERGE_FEEDS}, got {feeds}"
                )));
            }
            Producer::Merge { .. } if !matches!(feed, Feed::Generate) => {
                return Err(BenchError::usage(
                    "stream and merged sessions bring their own event path; producer modes \
                     apply to generated events only",
                ));
            }
            Producer::Merge { .. } => {}
        }
        let (scenario, resume) = match origin {
            Origin::Scenario(scenario) => {
                let mut scenario = *scenario;
                // A stream attached to a scenario session must agree with
                // it before the shard override, which is result-neutral and
                // deliberately exempt.
                if let Feed::Source(source) = &feed {
                    if source.scenario() != &scenario {
                        return Err(BenchError::protocol(
                            "the source embeds a different scenario than this session",
                        ));
                    }
                }
                if let Some(shards) = options.shards {
                    scenario.shards = shards;
                }
                scenario.validate().map_err(BenchError::Usage)?;
                (scenario, None)
            }
            Origin::Snapshot(snapshot) => {
                let (scenario, resume) = ResumePoint::decode(*snapshot, options.shards)?;
                if let Feed::Source(source) = &feed {
                    if source.scenario() != &scenario {
                        return Err(BenchError::protocol(
                            "snapshot does not match this replay: the source embeds a \
                             different scenario",
                        ));
                    }
                }
                (scenario, Some(resume))
            }
        };
        drive(Sequential {
            scenario,
            feed,
            options: &options,
            checkpoint,
            resume,
            on_sample,
        })
    }
}

/// Encodes one trajectory sample for the snapshot's driver payload. The
/// `f64` fields travel as IEEE-754 bit patterns so a resumed run re-renders
/// the restored prefix byte-identically.
fn sample_record(sample: &RoundSample) -> Json {
    Json::Arr(vec![
        Json::from(sample.round),
        Json::from(sample.nodes),
        Json::from(sample.max_min.to_bits()),
        Json::from(sample.max_avg.to_bits()),
        Json::from(sample.real_weight.to_bits()),
        Json::from(sample.dummy_load),
        Json::from(sample.arrived_weight),
        Json::from(sample.completed_weight),
    ])
}

/// The snapshot's opaque driver payload: the engine identity and the
/// trajectory accumulated up to the capture round.
pub(crate) fn encode_driver(engine_name: &str, trajectory: &[RoundSample]) -> Json {
    Json::obj([
        ("engine", Json::from(engine_name)),
        (
            "trajectory",
            Json::Arr(trajectory.iter().map(sample_record).collect()),
        ),
    ])
}

/// Decodes the driver payload's trajectory (inverse of [`encode_driver`]).
fn decode_trajectory(driver: &Json) -> Result<Vec<RoundSample>, String> {
    let entries = driver
        .get("trajectory")
        .and_then(Json::as_array)
        .ok_or("snapshot driver payload has no trajectory array")?;
    entries
        .iter()
        .enumerate()
        .map(|(idx, entry)| {
            let items = entry.as_array().filter(|a| a.len() == 8).ok_or_else(|| {
                format!("snapshot driver payload: trajectory entry {idx} is not an 8-field record")
            })?;
            let int = |slot: usize, what: &str| -> Result<u64, String> {
                items[slot].as_u64().ok_or_else(|| {
                    format!(
                        "snapshot driver payload: trajectory entry {idx} field {what} \
                         must be a non-negative exact integer"
                    )
                })
            };
            Ok(RoundSample {
                round: int(0, "round")? as usize,
                nodes: int(1, "nodes")? as usize,
                max_min: f64::from_bits(int(2, "max_min")?),
                max_avg: f64::from_bits(int(3, "max_avg")?),
                real_weight: f64::from_bits(int(4, "real_weight")?),
                dummy_load: int(5, "dummy_load")?,
                arrived_weight: int(6, "arrived_weight")?,
                completed_weight: int(7, "completed_weight")?,
            })
        })
        .collect()
}

/// A validated resume point decoded from a [`Snapshot`].
struct ResumePoint {
    /// Completed rounds at capture: the round the run continues from.
    round: usize,
    /// Engine name recorded at capture, validated against the rebuilt one.
    engine_name: String,
    /// The trajectory accumulated before the capture.
    trajectory: Vec<RoundSample>,
    /// The captured engine state.
    engine: snapshot::EngineState,
    /// Shard-count override for the resumed executor. Deliberately does
    /// **not** rewrite the scenario: shard count never changes the result,
    /// so the resumed document stays byte-identical to the uninterrupted
    /// one — a snapshot is the natural migration unit across shard counts.
    shards: Option<usize>,
}

impl ResumePoint {
    /// Decodes and cross-validates `snapshot`, returning the effective
    /// scenario it embeds alongside the resume point.
    fn decode(snapshot: Snapshot, shards: Option<usize>) -> Result<(Scenario, Self), BenchError> {
        let scenario = Scenario::from_json(&snapshot.scenario)
            .map_err(|err| BenchError::protocol(format!("snapshot scenario header: {err}")))?;
        scenario
            .validate()
            .map_err(|err| BenchError::protocol(format!("snapshot scenario header: {err}")))?;
        if let Some(shards) = shards {
            // Reuse the scenario's own shard validation for the override.
            let mut check = scenario.clone();
            check.shards = shards;
            check.validate().map_err(BenchError::Usage)?;
        }
        if snapshot.engine.round != snapshot.round {
            return Err(BenchError::protocol(format!(
                "corrupt snapshot: the run record says round {} but the engine record \
                 says round {}",
                snapshot.round, snapshot.engine.round
            )));
        }
        let round = usize::try_from(snapshot.round).map_err(|_| {
            BenchError::protocol(format!(
                "snapshot round {} overflows this platform",
                snapshot.round
            ))
        })?;
        if round > scenario.rounds {
            return Err(BenchError::protocol(format!(
                "snapshot was captured at round {round} but the scenario runs only {} round(s)",
                scenario.rounds
            )));
        }
        let engine_name = snapshot
            .driver
            .get("engine")
            .and_then(Json::as_str)
            .ok_or_else(|| BenchError::protocol("snapshot driver payload has no engine name"))?
            .to_string();
        let trajectory = decode_trajectory(&snapshot.driver).map_err(BenchError::Protocol)?;
        if trajectory.first().map(|s| s.round) != Some(0) {
            return Err(BenchError::protocol(
                "snapshot driver payload: trajectory does not start at round 0",
            ));
        }
        if trajectory.last().is_some_and(|s| s.round > round) {
            return Err(BenchError::protocol(format!(
                "snapshot driver payload: trajectory reaches round \
                 {} past the capture round {round}",
                // lint: allow(R03, emptiness handled by the branch above)
                trajectory.last().expect("non-empty").round
            )));
        }
        Ok((
            scenario,
            ResumePoint {
                round,
                engine_name,
                trajectory,
                engine: snapshot.engine,
                shards,
            },
        ))
    }
}

/// What drives a run's event stream (internal face of [`Session`]).
enum Feed {
    /// The scenario's own generator, inline or behind channels per
    /// [`Session::producer`].
    Generate,
    /// A live byte-stream source, parsed on the producer thread.
    Source(Box<dyn RoundSource>),
    /// An externally built k-way merge whose producers live outside the
    /// driver (e.g. socket connections, see [`crate::serve`]).
    Merge(MergeSession),
}

/// What a driver derives from a scenario before the first round, short of
/// the initial placement, which only a fresh run makes ([`place`]). Every
/// federated process rebuilds the identical `World` from the identical
/// scenario document: the protocol's only "configuration channel".
pub(crate) struct World {
    pub(crate) class: GraphClass,
    pub(crate) graph: Arc<Graph>,
    pub(crate) speeds: Speeds,
    /// Placed: `tokens` unit tokens, then `pad` tasks per unit of speed.
    tokens: u64,
    pad: u64,
    pub(crate) first_task_id: u64,
}

/// Derives the [`World`] of an effective (validated) scenario; too many
/// initial tasks for a `u64` is a usage error naming the field.
pub(crate) fn build_world(scenario: &Scenario) -> Result<World, BenchError> {
    let seed = scenario.seed;
    let class = family_class(&scenario.topology.family).map_err(BenchError::Usage)?;
    let n = class.node_count(scenario.topology.target_n);
    let overflow = |field: &str| BenchError::usage(format!("{field} overflows the task count"));
    let tokens = (scenario.initial.tokens_per_node.checked_mul(n as u64))
        .ok_or_else(|| overflow("initial.tokens_per_node"))?;
    let graph: Arc<Graph> = class
        .build(
            scenario.topology.target_n,
            seed.wrapping_add(GRAPH_SEED_OFFSET),
        )
        .map_err(|err| BenchError::run(format!("building {}: {err}", scenario.topology.family)))?
        .into();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(SPEEDS_SEED_OFFSET));
    let speeds = scenario.speeds.to_model().generate(n, &mut rng);

    // Every token is a unit task, so the heaviest initial task weighs 1.
    let weight = scenario.arrivals.max_weight().max(1);
    let pad = match scenario.initial.pad {
        PadSpec::Tokens(t) => Some(t),
        PadSpec::Degree => (graph.max_degree() as u64).checked_mul(weight),
    }
    .ok_or_else(|| overflow("arrivals.max_weight"))?;
    let first_task_id = (speeds.as_slice().iter())
        .try_fold(tokens, |count, &s| count.checked_add(s.checked_mul(pad)?))
        .ok_or_else(|| overflow("initial.pad"))?;
    Ok(World {
        class,
        graph,
        speeds,
        tokens,
        pad,
        first_task_id,
    })
}

/// A fresh run's initial load: the tokens, then the padding numbered after.
pub(crate) fn place(scenario: &Scenario, world: &World) -> InitialLoad {
    let mut rng = StdRng::seed_from_u64(scenario.seed.wrapping_add(INITIAL_SEED_OFFSET));
    let distribution = &scenario.initial.distribution;
    let tokens = distribution.generate(world.graph.node_count(), world.tokens, &mut rng);
    pad_for_min_load(&tokens, &world.speeds, world.pad)
}

/// Whether a trajectory point is taken after `done` completed rounds: every
/// `sample_every` rounds, and after the last.
pub(crate) fn samples_at(scenario: &Scenario, done: usize) -> bool {
    done.is_multiple_of(scenario.sample_every) || done == scenario.rounds
}

/// One trajectory point after `round` completed rounds, from every node's
/// load and real load, the speeds and the three counters. The sequential
/// driver reads them off its engine; a federated coordinator gathers them
/// from its ranks.
pub(crate) fn round_sample(
    round: usize,
    loads: &[f64],
    real_loads: &[f64],
    speeds: &Speeds,
    dummy_load: u64,
    arrived_weight: u64,
    completed_weight: u64,
) -> RoundSample {
    RoundSample {
        round,
        nodes: loads.len(),
        max_min: metrics::max_min_discrepancy(loads, speeds),
        max_avg: metrics::max_avg_discrepancy(loads, speeds),
        real_weight: real_loads.iter().sum(),
        dummy_load,
        arrived_weight,
        completed_weight,
    }
}

/// The sequential run behind [`Session::run`]: `scenario` is already
/// effective (overrides applied, validated); `feed` selects where the
/// per-round batches come from; `checkpoint` is the validated path and
/// cadence.
struct Sequential<'a, F> {
    scenario: Scenario,
    feed: Feed,
    options: &'a RunOptions,
    checkpoint: Option<(PathBuf, usize)>,
    resume: Option<ResumePoint>,
    on_sample: F,
}

impl<F: FnMut(&RoundSample)> Driver for Sequential<'_, F> {
    type Output = ScenarioOutcome;

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn run<A: Model, R: Algorithm>(
        self,
        world: &World,
        build: Build<A, R>,
    ) -> Result<ScenarioOutcome, BenchError> {
        execute(self, world, build)
    }
}

/// The shared driver loop of every non-federated run. Churn epochs are
/// built when their rounds arrive ([`ChurnCursor`]), so before round 0 the
/// only graph is the world's, or on resume the capture epoch's.
fn execute<A: Model, R: Algorithm>(
    run: Sequential<'_, impl FnMut(&RoundSample)>,
    world: &World,
    build: Build<A, R>,
) -> Result<ScenarioOutcome, BenchError> {
    let Sequential {
        scenario,
        feed,
        options,
        checkpoint,
        resume,
        mut on_sample,
    } = run;
    // Churn epochs are built as their rounds arrive; a channel producer
    // follows the node counts alone.
    let mut churn = ChurnCursor::new(world, &scenario.churn)?;
    let mut source = match feed {
        Feed::Source(stream_source) => {
            spawn_source_producer(stream_source, DEFAULT_CHANNEL_CAPACITY)
        }
        Feed::Merge(session) => EventSource::Merge {
            session,
            producers: Vec::new(),
        },
        Feed::Generate => {
            let stream = ScenarioEvents::new(&scenario, &world.speeds, world.first_task_id);
            match options.producer {
                Producer::Scenario => EventSource::Sync(stream),
                Producer::Merge { feeds, capacity } => spawn_merge_producers(
                    stream,
                    &world.speeds,
                    &churn.node_counts(),
                    scenario.rounds,
                    feeds,
                    capacity,
                ),
            }
        }
    };
    let mut writer = options
        .record
        .as_ref()
        .map(|path| TraceWriter::create(path, &scenario))
        .transpose()
        .map_err(BenchError::Io)?;
    let mut events = RoundEvents::default();
    // One executor for the whole run; it rebinds itself across churn. A
    // single shard means plain sequential stepping, no worker threads. A
    // resumed run may override the count — executor only, never the
    // recorded scenario, so the result document stays byte-identical.
    let exec_shards = resume
        .as_ref()
        .and_then(|point| point.shards)
        .unwrap_or(scenario.shards);
    let mut executor = (exec_shards > 1).then(|| ShardedExecutor::new(exec_shards));

    let mut record = |engine: &Imitation<A, R>, round: usize, trajectory: &mut Vec<RoundSample>| {
        let sample = round_sample(
            round,
            &engine.loads(),
            &engine.real_loads(),
            engine.speeds(),
            engine.dummy_load(),
            engine.arrived_weight(),
            engine.completed_weight(),
        );
        on_sample(&sample);
        trajectory.push(sample);
    };

    // The engine is built once, on the cursor's epoch. A fresh run builds it
    // on the world, holding the initial placement. A resume first drains
    // the pre-resume event stream (reconstructing its RNG state and task-id
    // counter, and re-recording it so `--record` yields the complete trace)
    // while churn follows each epoch's speeds and builds only the capture
    // epoch's topology; the engine starts empty and the snapshot restores it
    // (its process is built from the carried history: SOS estimates nothing).
    let initial = match &resume {
        None => place(&scenario, world),
        Some(point) => {
            for round in 0..point.round {
                if churn.pass(round)? {
                    source.set_topology(churn.speeds());
                }
                source.fill_round(round, &mut events)?;
                if let Some(writer) = writer.as_mut() {
                    writer
                        .record_round(round as u64, &events)
                        .map_err(BenchError::Io)?;
                }
            }
            churn.seek(point.round)?;
            InitialLoad::from_token_counts(vec![0; churn.speeds().len()])
        }
    };
    let carried = resume
        .as_ref()
        .and_then(|point| point.engine.twin.history.as_ref());
    let process = A::build(Arc::clone(churn.graph()), churn.speeds(), carried)?;
    let mut engine = build(process, &initial, churn.speeds().clone(), scenario.seed)?;
    drop(initial);

    let mut trajectory = Vec::new();
    let resume_round = match resume {
        None => {
            record(&engine, 0, &mut trajectory);
            0
        }
        Some(point) => {
            if engine.name() != point.engine_name {
                return Err(BenchError::protocol(format!(
                    "snapshot does not match this run: it captured engine {:?} but the \
                     scenario builds {:?}",
                    point.engine_name,
                    engine.name()
                )));
            }
            engine.restore(&point.engine)?;
            trajectory = point.trajectory;
            point.round
        }
    };

    for round in resume_round..scenario.rounds {
        while let Some(epoch) = churn.fire(round)? {
            replace_topology(
                &mut engine,
                epoch.graph,
                churn.speeds(),
                epoch.delta.as_ref(),
            )
            .map_err(|err| churn_error(round, err))?;
            source.set_topology(engine.speeds());
        }
        source.fill_round(round, &mut events)?;
        if let Some(writer) = writer.as_mut() {
            writer
                .record_round(round as u64, &events)
                .map_err(BenchError::Io)?;
        }
        if !events.is_empty() {
            engine
                .apply_events(&events)
                .map_err(|err| BenchError::run(format!("events at round {round}: {err}")))?;
        }
        match executor.as_mut() {
            Some(exec) => engine.step_sharded(exec),
            None => engine.step(),
        }
        let done = round + 1;
        if samples_at(&scenario, done) {
            record(&engine, done, &mut trajectory);
        }
        if let Some((path, every)) = &checkpoint {
            if done % every == 0 {
                let state = Snapshot {
                    scenario: scenario.to_json(),
                    driver: encode_driver(engine.name(), &trajectory),
                    round: done as u64,
                    engine: engine.capture(),
                };
                snapshot::write_atomic(path, &state)
                    .map_err(|err| BenchError::run(format!("checkpoint at round {done}: {err}")))?;
            }
        }
    }
    let ingest = source.finish()?;
    if let Some(writer) = writer {
        writer.finish().map_err(BenchError::Io)?;
    }

    Ok(ScenarioOutcome {
        engine: engine.name().to_string(),
        scenario,
        trajectory,
        dummy_created: engine.dummy_created(),
        ingest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_analysis::artifact::unique_name;
    use lb_workloads::{
        ArrivalSpec, ChurnEvent, InitialSpec, ServiceSpec, SpeedSpec, TokenDistribution,
        TopologySpec, TraceSource,
    };

    /// A temp path no concurrent test run shares.
    fn temp_path(stem: &str) -> PathBuf {
        std::env::temp_dir().join(unique_name(stem))
    }

    fn poisson_scenario() -> Scenario {
        Scenario {
            name: "driver_test".into(),
            seed: 5,
            rounds: 60,
            sample_every: 20,
            algorithm: AlgorithmSpec::Alg1,
            model: ModelSpec::Fos,
            topology: TopologySpec {
                family: "torus".into(),
                target_n: 36,
            },
            speeds: SpeedSpec::Uniform,
            initial: InitialSpec {
                distribution: TokenDistribution::SingleSource { source: 0 },
                tokens_per_node: 6,
                pad: PadSpec::Degree,
            },
            arrivals: ArrivalSpec::Poisson {
                rate_per_node: 0.5,
                max_weight: 1,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: Vec::new(),
            shards: 1,
            federation: 1,
        }
    }

    fn rewire(round: usize, seed: u64) -> ChurnEvent {
        ChurnEvent {
            round,
            kind: ChurnKind::Rewire { seed },
        }
    }

    fn delta(round: usize, add: Vec<(usize, usize)>, remove: Vec<(usize, usize)>) -> ChurnEvent {
        ChurnEvent {
            round,
            kind: ChurnKind::Delta { add, remove },
        }
    }

    #[test]
    fn unseeded_rewires_reuse_the_world_graph() {
        let mut scenario = poisson_scenario();
        scenario.topology.family = "hypercube".into();
        scenario.topology.target_n = 64;
        scenario.churn = (1..50).map(|r| rewire(r, r as u64)).collect();
        let world = build_world(&scenario).unwrap();

        // A resume seek builds nothing: the last rewire is the world graph.
        let mut cursor = ChurnCursor::new(&world, &scenario.churn).unwrap();
        let graph = cursor.seek(30).unwrap().expect("rewires were passed");
        assert!(Arc::ptr_eq(&graph, &world.graph));
        assert!(cursor.seek(30).unwrap().is_none(), "nothing new to build");

        // Firing diffs the held graph against itself: empty deltas, no copy.
        for round in 30..50 {
            let epoch = cursor.fire(round).unwrap().expect("a rewire fires");
            assert!(Arc::ptr_eq(&epoch.graph, &world.graph));
            assert!(epoch.delta.is_some_and(|d| d.is_empty()));
            assert!(cursor.fire(round).unwrap().is_none(), "one event per round");
        }
    }

    #[test]
    fn seek_lands_where_firing_every_epoch_does() {
        // A seeded family: the rewire at 3 builds a new expander, the two
        // deltas patch it, the resize rebuilds at 20 nodes and the last delta
        // patches that.
        let mut scenario = poisson_scenario();
        scenario.topology.family = "expander".into();
        scenario.topology.target_n = 24;
        let rewired = GraphClass::Expander.build(24, 9).unwrap();
        let (u, v) = rewired.edges()[0];
        let absent = (0..24)
            .flat_map(|a| (a + 1..24).map(move |b| (a, b)))
            .find(|&(a, b)| !rewired.has_edge(a, b))
            .unwrap();
        let resized = GraphClass::Expander.build(20, 4).unwrap();
        scenario.churn = vec![
            rewire(3, 9),
            delta(4, vec![absent], vec![(u, v)]),
            delta(6, vec![(u, v)], vec![absent]),
            ChurnEvent {
                round: 8,
                kind: ChurnKind::Resize {
                    target_n: 20,
                    seed: 4,
                },
            },
            delta(9, vec![], vec![resized.edges()[3]]),
        ];
        let world = build_world(&scenario).unwrap();
        let mut firing = ChurnCursor::new(&world, &scenario.churn).unwrap();
        for round in 0..12 {
            while firing.fire(round).unwrap().is_some() {}
            let mut seeking = ChurnCursor::new(&world, &scenario.churn).unwrap();
            let graph = seeking
                .seek(round + 1)
                .unwrap()
                .unwrap_or_else(|| Arc::clone(&world.graph));
            assert_eq!(*graph, **firing.graph(), "round {round}");
            assert_eq!(seeking.speeds(), firing.speeds(), "round {round}");
        }
        assert_eq!(firing.graph().node_count(), 20);
        assert_eq!(firing.graph().edge_count(), resized.edge_count() - 1);
    }

    #[test]
    fn invalid_deltas_fail_up_front_or_when_they_fire() {
        let mut scenario = poisson_scenario(); // a 36-node torus
        scenario.churn = vec![delta(5, vec![(0, 36)], vec![])];
        let world = build_world(&scenario).unwrap();
        let err = ChurnCursor::new(&world, &scenario.churn).err().unwrap();
        assert!(err.to_string().starts_with("churn at round 5:"), "{err}");

        // (0, 2) is not a torus edge; only the graph can tell.
        scenario.churn = vec![delta(5, vec![], vec![(0, 2)])];
        let mut cursor = ChurnCursor::new(&world, &scenario.churn).unwrap();
        assert!(cursor.fire(4).unwrap().is_none());
        let err = cursor.fire(5).err().unwrap();
        assert!(matches!(err, BenchError::Run(_)));
        assert!(err.to_string().starts_with("churn at round 5:"), "{err}");
    }

    #[test]
    fn first_task_id_counts_the_placement() {
        let mut scenario = poisson_scenario(); // a 36-node torus
        let distributions = [
            TokenDistribution::SingleSource { source: 3 },
            TokenDistribution::UniformRandom,
            TokenDistribution::AlmostBalanced,
            TokenDistribution::Geometric { ratio_percent: 60 },
        ];
        let speeds = [
            SpeedSpec::Uniform,
            SpeedSpec::UniformRange { s_max: 5 },
            SpeedSpec::PowersOfTwo { classes: 3 },
        ];
        for distribution in distributions {
            for pad in [PadSpec::Tokens(0), PadSpec::Tokens(3), PadSpec::Degree] {
                for speed in speeds {
                    for max_weight in [1, 3] {
                        for tokens_per_node in [0, 7] {
                            scenario.initial = InitialSpec {
                                distribution,
                                tokens_per_node,
                                pad,
                            };
                            scenario.speeds = speed;
                            scenario.arrivals = ArrivalSpec::Poisson {
                                rate_per_node: 0.5,
                                max_weight,
                            };
                            let world = build_world(&scenario).unwrap();
                            let initial = place(&scenario, &world);
                            let tag = format!(
                                "{distribution:?} {pad:?} {speed:?} {max_weight} {tokens_per_node}"
                            );
                            assert_eq!(initial.task_count() as u64, world.first_task_id, "{tag}");
                            // The ids run 0.. with no gap, so the first
                            // dynamic task is the next one.
                            let mut ids: Vec<u64> = (0..initial.node_count())
                                .flat_map(|i| initial.tasks_of(i).iter().map(|t| t.id().0))
                                .collect();
                            ids.sort_unstable();
                            assert!(ids.iter().copied().eq(0..world.first_task_id), "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_initial_load_past_u64_is_a_usage_error_naming_the_field() {
        // Each value overflows the task count; the error comes before any
        // task is placed.
        type Edit = fn(&mut Scenario);
        let overflowing: [(&str, Edit); 3] = [
            ("initial.tokens_per_node", |s| {
                s.initial.tokens_per_node = u64::MAX
            }),
            ("initial.pad", |s| s.initial.pad = PadSpec::Tokens(u64::MAX)),
            ("arrivals.max_weight", |s| {
                s.arrivals = ArrivalSpec::Poisson {
                    rate_per_node: 0.5,
                    max_weight: u64::MAX,
                }
            }),
        ];
        for (field, set) in overflowing {
            let mut scenario = poisson_scenario();
            set(&mut scenario);
            let err = build_world(&scenario).err().expect(field);
            assert!(matches!(err, BenchError::Usage(_)), "{field}: {err}");
            assert!(err.to_string().starts_with(field), "{field}: {err}");
            let err = Session::from_scenario(&scenario)
                .run(|_| {})
                .expect_err(field);
            assert!(err.to_string().starts_with(field), "{field}: {err}");
        }
    }

    #[test]
    fn trajectory_samples_first_and_last_rounds() {
        let outcome = Session::from_scenario(&poisson_scenario())
            .run(|_| {})
            .unwrap();
        assert_eq!(outcome.trajectory[0].round, 0);
        assert_eq!(outcome.last().round, 60);
        // 0, 20, 40, 60.
        assert_eq!(outcome.trajectory.len(), 4);
        assert_eq!(outcome.engine, "alg1(fos)");
        assert!(outcome.last().arrived_weight > 0);
        assert!(outcome.last().completed_weight > 0);
    }

    #[test]
    fn same_seed_bit_identical_different_seed_differs() {
        let mut scenario = poisson_scenario();
        let a = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        let b = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert_eq!(a.trajectory, b.trajectory);
        assert_eq!(a.to_json().render_pretty(), b.to_json().render_pretty());
        scenario.seed = 99;
        let c = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert_eq!(c.scenario.seed, 99);
        assert_ne!(a.trajectory, c.trajectory);
    }

    #[test]
    fn streaming_callback_sees_every_sample() {
        let mut streamed = Vec::new();
        let outcome = Session::from_scenario(&poisson_scenario())
            .run(|s| streamed.push(s.clone()))
            .unwrap();
        assert_eq!(streamed, outcome.trajectory);
    }

    #[test]
    fn churn_resize_changes_node_count_mid_run() {
        let mut scenario = poisson_scenario();
        scenario.churn = vec![ChurnEvent {
            round: 30,
            kind: ChurnKind::Resize {
                target_n: 16,
                seed: 3,
            },
        }];
        let outcome = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert_eq!(outcome.trajectory[1].nodes, 36, "before churn");
        assert_eq!(outcome.last().nodes, 16, "after churn");
    }

    #[test]
    fn shard_override_never_changes_the_trajectory() {
        // The driver-level face of the sharding contract: the same scenario
        // and seed produce identical trajectories for every shard count,
        // across all four engine combos (and churn), including via the
        // `--shards` override path.
        for (algorithm, model) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos),
            (AlgorithmSpec::Alg1, ModelSpec::Sos),
            (AlgorithmSpec::Alg2, ModelSpec::Fos),
            (AlgorithmSpec::Alg2, ModelSpec::Sos),
        ] {
            let mut scenario = poisson_scenario();
            scenario.algorithm = algorithm;
            scenario.model = model;
            scenario.churn = vec![ChurnEvent {
                round: 30,
                kind: ChurnKind::Rewire { seed: 9 },
            }];
            let sequential = Session::from_scenario(&scenario).run(|_| {}).unwrap();
            for shards in [2, 5] {
                let sharded = Session::from_scenario(&scenario)
                    .shards(shards)
                    .run(|_| {})
                    .unwrap();
                assert_eq!(
                    sequential.trajectory, sharded.trajectory,
                    "{algorithm:?}/{model:?} shards={shards}"
                );
                assert_eq!(sharded.scenario.shards, shards, "override recorded");
            }
        }
    }

    #[test]
    fn zero_shard_override_is_rejected() {
        let err = Session::from_scenario(&poisson_scenario())
            .shards(0)
            .run(|_| {})
            .unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("shards"), "{err}");
    }

    #[test]
    fn channel_producer_matches_sync_bit_for_bit() {
        // The ingestion contract at driver level: the same scenario and seed
        // produce byte-identical result JSON whether events are generated
        // inline or streamed through one bounded channel (`--producer
        // channel`, the one-feed merge) — including across churn, which the
        // producer follows through the churn's node counts.
        let mut scenario = poisson_scenario();
        scenario.churn = vec![
            ChurnEvent {
                round: 20,
                kind: ChurnKind::Rewire { seed: 9 },
            },
            ChurnEvent {
                round: 40,
                kind: ChurnKind::Resize {
                    target_n: 16,
                    seed: 3,
                },
            },
        ];
        let sync = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        for capacity in [1, 4] {
            let channel = Session::from_scenario(&scenario)
                .producer(Producer::Merge { feeds: 1, capacity })
                .run(|_| {})
                .unwrap();
            assert_eq!(
                sync.to_json().render_pretty(),
                channel.to_json().render_pretty(),
                "capacity {capacity}"
            );
            let stats = channel.ingest.expect("channel runs report ingest stats");
            assert_eq!(stats.get("producer").and_then(Json::as_str), Some("merge"));
            let reported = stats.get("feeds").and_then(Json::as_array).unwrap();
            assert_eq!(reported.len(), 1, "channel is the one-feed merge");
        }
    }

    #[test]
    fn merge_producer_matches_sync_bit_for_bit() {
        // The multi-producer contract at driver level: N feeds each sending
        // a contiguous slice of every batch, k-way merged back, produce
        // byte-identical result JSON — including across churn, which every
        // producer follows through the churn's node counts.
        let mut scenario = poisson_scenario();
        scenario.churn = vec![
            ChurnEvent {
                round: 20,
                kind: ChurnKind::Rewire { seed: 9 },
            },
            ChurnEvent {
                round: 40,
                kind: ChurnKind::Resize {
                    target_n: 16,
                    seed: 3,
                },
            },
        ];
        let sync = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert!(sync.ingest.is_none(), "sync runs carry no ingest report");
        for (feeds, capacity) in [(1usize, 2usize), (2, 2), (4, 2)] {
            let merged = Session::from_scenario(&scenario)
                .producer(Producer::Merge { feeds, capacity })
                .run(|_| {})
                .unwrap();
            assert_eq!(
                sync.to_json().render_pretty(),
                merged.to_json().render_pretty(),
                "feeds {feeds}, capacity {capacity}"
            );
            let stats = merged.ingest.expect("merged runs report ingest stats");
            assert_eq!(stats.get("producer").and_then(Json::as_str), Some("merge"));
            let reported = stats.get("feeds").and_then(Json::as_array).unwrap();
            assert_eq!(reported.len(), feeds);
            let events: u64 = reported
                .iter()
                .map(|f| f.get("events").and_then(Json::as_u64).unwrap())
                .sum();
            assert!(events > 0, "the feeds carried the stream");
        }
    }

    #[test]
    fn merge_rejects_out_of_range_feed_counts() {
        // The feed count is checked before the world is built: the unknown
        // family of the second scenario would fail later, with another
        // message.
        let mut unbuildable = poisson_scenario();
        unbuildable.topology.family = "smallworld".into();
        for scenario in [poisson_scenario(), unbuildable] {
            for feeds in [0usize, super::MAX_MERGE_FEEDS + 1] {
                let err = Session::from_scenario(&scenario)
                    .producer(Producer::Merge { feeds, capacity: 2 })
                    .run(|_| {})
                    .unwrap_err();
                assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
                assert!(err.to_string().contains("merge feeds"), "{err}");
            }
        }

        // Stream and merged sessions bring their own event path, so a
        // producer mode on them is a usage error, not silently ignored.
        let scenario = poisson_scenario();
        let path = temp_path("lb_dynamic_stream_producer.trace.jsonl");
        Session::from_scenario(&scenario)
            .record(path.clone())
            .run(|_| {})
            .unwrap();
        let one_feed = Producer::Merge {
            feeds: 1,
            capacity: DEFAULT_CHANNEL_CAPACITY,
        };
        let trace = || Box::new(TraceSource::open(&path).unwrap());
        for session in [
            Session::from_stream(trace()),
            Session::from_scenario(&scenario).stream(trace()),
            Session::from_scenario(&scenario).merged(MergeSession::new(Vec::new())),
        ] {
            let err = session.producer(one_feed).run(|_| {}).unwrap_err();
            assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
            assert!(err.to_string().contains("own event path"), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn byte_stream_replay_is_byte_identical() {
        use lb_workloads::ReadSource;

        let scenario = poisson_scenario();
        let path = temp_path("lb_dynamic_stream_replay.trace.jsonl");
        let recorded = Session::from_scenario(&scenario)
            .record(path.clone())
            .run(|_| {})
            .unwrap();
        let recorded_doc = recorded.to_json().render_pretty();

        // Framed reader over the raw bytes (the pipe/socket/stdin path).
        let bytes = std::fs::read(&path).unwrap();
        let source = ReadSource::new(std::io::Cursor::new(bytes)).unwrap();
        let streamed = Session::from_stream(Box::new(source)).run(|_| {}).unwrap();
        assert_eq!(recorded_doc, streamed.to_json().render_pretty());

        // File tail over the (already complete) trace file.
        let source = TraceSource::open(&path).unwrap();
        let tailed = Session::from_stream(Box::new(source)).run(|_| {}).unwrap();
        assert_eq!(recorded_doc, tailed.to_json().render_pretty());

        // Shard overrides replay bit-identically, like a trace replay.
        let source = TraceSource::open(&path).unwrap();
        let sharded = Session::from_stream(Box::new(source))
            .shards(3)
            .run(|_| {})
            .unwrap();
        assert_eq!(sharded.scenario.shards, 3);
        assert_eq!(recorded.trajectory, sharded.trajectory);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorded_traces_replay_byte_identically() {
        let mut scenario = poisson_scenario();
        scenario.churn = vec![ChurnEvent {
            round: 30,
            kind: ChurnKind::Rewire { seed: 5 },
        }];
        scenario.seed = 11;
        let path = temp_path("lb_dynamic_record_replay.trace.jsonl");
        let recorded = Session::from_scenario(&scenario)
            .record(path.clone())
            .run(|_| {})
            .unwrap();

        // Recording never perturbs the run.
        let plain = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert_eq!(
            plain.to_json().render_pretty(),
            recorded.to_json().render_pretty()
        );

        // Replay reproduces the run byte for byte, and a shard override only
        // changes the recorded shard count, never the trajectory.
        let trace = || Box::new(TraceSource::open(&path).unwrap());
        assert_eq!(
            trace().scenario().seed,
            11,
            "header carries the effective seed"
        );
        let replayed = Session::from_stream(trace()).run(|_| {}).unwrap();
        assert_eq!(
            recorded.to_json().render_pretty(),
            replayed.to_json().render_pretty()
        );
        let sharded = Session::from_stream(trace()).shards(3).run(|_| {}).unwrap();
        assert_eq!(sharded.scenario.shards, 3);
        assert_eq!(recorded.trajectory, sharded.trajectory);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_invalid_shard_overrides() {
        let scenario = poisson_scenario();
        let path = temp_path("lb_dynamic_replay_shards.trace.jsonl");
        Session::from_scenario(&scenario)
            .record(path.clone())
            .run(|_| {})
            .unwrap();
        let trace = TraceSource::open(&path).unwrap();
        let err = Session::from_stream(Box::new(trace))
            .shards(0)
            .run(|_| {})
            .unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("shards"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn alg2_sos_engine_runs() {
        let mut scenario = poisson_scenario();
        scenario.algorithm = AlgorithmSpec::Alg2;
        scenario.model = ModelSpec::Sos;
        let outcome = Session::from_scenario(&scenario).run(|_| {}).unwrap();
        assert!(
            outcome.engine.starts_with("alg2(sos"),
            "engine was {}",
            outcome.engine
        );
    }

    #[test]
    fn unknown_family_is_reported() {
        let mut scenario = poisson_scenario();
        scenario.topology.family = "smallworld".into();
        let err = Session::from_scenario(&scenario).run(|_| {}).unwrap_err();
        assert!(err.to_string().contains("smallworld"));
    }

    /// `poisson_scenario` with churn at round 30, for the given engine.
    fn churned_scenario(algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
        let mut scenario = poisson_scenario();
        scenario.algorithm = algorithm;
        scenario.model = model;
        scenario.churn = vec![ChurnEvent {
            round: 30,
            kind: ChurnKind::Rewire { seed: 9 },
        }];
        scenario
    }

    /// Runs `scenario` (60 rounds) with a rotating checkpoint every 25
    /// rounds and harvests two snapshots from the ONE run: the sample
    /// callback at round 40 copies the rotating file aside while it still
    /// holds the round-25 checkpoint (pre-churn), and after the run the
    /// rotating file holds the round-50 checkpoint (post-churn). Returns
    /// `(outcome, snapshot@25, snapshot@50)`.
    fn run_with_checkpoints(
        scenario: &Scenario,
        tag: &str,
    ) -> (ScenarioOutcome, Snapshot, Snapshot) {
        let dir = std::env::temp_dir();
        let rotating = dir.join(format!("lb_resume_{tag}.ckpt.jsonl"));
        let early = dir.join(format!("lb_resume_{tag}.ckpt25.jsonl"));
        let outcome = Session::from_scenario(scenario)
            .checkpoint(rotating.clone(), 25)
            .run(|sample| {
                if sample.round == 40 {
                    std::fs::copy(&rotating, &early).expect("copy rotating checkpoint");
                }
            })
            .unwrap();
        let snap25 = snapshot::load(&early).unwrap();
        let snap50 = snapshot::load(&rotating).unwrap();
        std::fs::remove_file(&rotating).ok();
        std::fs::remove_file(&early).ok();
        assert_eq!(
            snap25.round, 25,
            "the round-40 sample saw the round-25 file"
        );
        assert_eq!(snap50.round, 50, "the final rotating file holds round 50");
        (outcome, snap25, snap50)
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_for_all_engines() {
        // The tentpole contract: resuming from ANY checkpoint — before or
        // after churn, at any shard count — reproduces the uninterrupted
        // run's result document byte for byte, for all four engine combos.
        // The round-25 snapshot crosses the churn *after* the resume point
        // (live path); the round-50 snapshot crosses it *during* the
        // fast-forward (replace_topology path).
        for (algorithm, model, tag) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos, "a1fos"),
            (AlgorithmSpec::Alg1, ModelSpec::Sos, "a1sos"),
            (AlgorithmSpec::Alg2, ModelSpec::Fos, "a2fos"),
            (AlgorithmSpec::Alg2, ModelSpec::Sos, "a2sos"),
        ] {
            let scenario = churned_scenario(algorithm, model);
            let (outcome, snap25, snap50) = run_with_checkpoints(&scenario, tag);
            let reference = outcome.to_json().render_pretty();

            // Checkpointing never perturbs the run.
            let plain = Session::from_scenario(&scenario).run(|_| {}).unwrap();
            assert_eq!(
                plain.to_json().render_pretty(),
                reference,
                "{tag}: perturbed"
            );

            for (snap, label) in [(snap25, "round 25"), (snap50, "round 50")] {
                for shards in [None, Some(3)] {
                    // Round-trip through the wire format: resume exercises
                    // render + parse on a real captured state every time.
                    let snap = snapshot::parse(&snapshot::render(&snap)).unwrap();
                    let resumed = Session::from_snapshot(snap)
                        .shards(shards)
                        .run(|_| {})
                        .unwrap();
                    assert_eq!(
                        resumed.to_json().render_pretty(),
                        reference,
                        "{tag}: resume at {label}, shards {shards:?}"
                    );
                }
            }
        }
    }

    /// `poisson_scenario` with a rewire immediately followed by a resize at
    /// the next round — the back-to-back churn schedule.
    fn back_to_back_churn_scenario(algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
        let mut scenario = poisson_scenario();
        scenario.algorithm = algorithm;
        scenario.model = model;
        scenario.churn = vec![
            ChurnEvent {
                round: 30,
                kind: ChurnKind::Rewire { seed: 9 },
            },
            ChurnEvent {
                round: 31,
                kind: ChurnKind::Resize {
                    target_n: 16,
                    seed: 3,
                },
            },
        ];
        scenario
    }

    #[test]
    fn back_to_back_churn_is_byte_identical_for_all_engines() {
        // A rewire at round 30 immediately followed by a resize at round 31:
        // the delta-patched epoch lives for exactly one round before the
        // full-rebuild path replaces it. The round-25 snapshot crosses both
        // entries live; the round-50 snapshot crosses both during the
        // fast-forward, exercising the only-the-last-step rebuild rule with
        // adjacent steps. Shard overrides must never change the trajectory.
        for (algorithm, model, tag) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos, "btb_a1fos"),
            (AlgorithmSpec::Alg1, ModelSpec::Sos, "btb_a1sos"),
            (AlgorithmSpec::Alg2, ModelSpec::Fos, "btb_a2fos"),
            (AlgorithmSpec::Alg2, ModelSpec::Sos, "btb_a2sos"),
        ] {
            let scenario = back_to_back_churn_scenario(algorithm, model);
            let (outcome, snap25, snap50) = run_with_checkpoints(&scenario, tag);
            let reference = outcome.to_json().render_pretty();
            assert_eq!(outcome.last().nodes, 16, "{tag}: the resize landed");

            for shards in [2, 5] {
                let sharded = Session::from_scenario(&scenario)
                    .shards(shards)
                    .run(|_| {})
                    .unwrap();
                assert_eq!(
                    outcome.trajectory, sharded.trajectory,
                    "{tag}: shards={shards}"
                );
            }

            for (snap, label) in [(snap25, "round 25"), (snap50, "round 50")] {
                for shards in [None, Some(3)] {
                    let snap = snapshot::parse(&snapshot::render(&snap)).unwrap();
                    let resumed = Session::from_snapshot(snap)
                        .shards(shards)
                        .run(|_| {})
                        .unwrap();
                    assert_eq!(
                        resumed.to_json().render_pretty(),
                        reference,
                        "{tag}: resume at {label}, shards {shards:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_from_a_checkpoint_between_back_to_back_churns() {
        // Checkpoints are written at the between-rounds boundary, so a
        // cadence of 31 captures the state after the round-30 rewire but
        // before the round-31 resize: the fast-forward must re-apply the
        // rewire epoch (full-rebuild path) and then take the resize live.
        for (algorithm, model, tag) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos, "mid_a1fos"),
            (AlgorithmSpec::Alg1, ModelSpec::Sos, "mid_a1sos"),
            (AlgorithmSpec::Alg2, ModelSpec::Fos, "mid_a2fos"),
            (AlgorithmSpec::Alg2, ModelSpec::Sos, "mid_a2sos"),
        ] {
            let scenario = back_to_back_churn_scenario(algorithm, model);
            let rotating = std::env::temp_dir().join(format!("lb_resume_{tag}.ckpt.jsonl"));
            let outcome = Session::from_scenario(&scenario)
                .checkpoint(rotating.clone(), 31)
                .run(|_| {})
                .unwrap();
            let snap = snapshot::load(&rotating).unwrap();
            std::fs::remove_file(&rotating).ok();
            assert_eq!(snap.round, 31, "{tag}: captured between the churns");
            let reference = outcome.to_json().render_pretty();
            for shards in [None, Some(3)] {
                let snap = snapshot::parse(&snapshot::render(&snap)).unwrap();
                let resumed = Session::from_snapshot(snap)
                    .shards(shards)
                    .run(|_| {})
                    .unwrap();
                assert_eq!(
                    resumed.to_json().render_pretty(),
                    reference,
                    "{tag}: resume between churns, shards {shards:?}"
                );
            }
        }
    }

    #[test]
    fn delta_churn_is_byte_identical_across_shard_counts() {
        // The explicit delta form of churn, across all four engine combos:
        // shard overrides must never change the trajectory, and (torus
        // rebuilds being deterministic) a rewire is exactly an empty delta.
        for (algorithm, model) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos),
            (AlgorithmSpec::Alg1, ModelSpec::Sos),
            (AlgorithmSpec::Alg2, ModelSpec::Fos),
            (AlgorithmSpec::Alg2, ModelSpec::Sos),
        ] {
            let mut scenario = poisson_scenario();
            scenario.algorithm = algorithm;
            scenario.model = model;
            scenario.churn = vec![ChurnEvent {
                round: 30,
                kind: ChurnKind::Delta {
                    add: vec![(0, 14), (7, 29)],
                    remove: vec![(0, 1)],
                },
            }];
            let sequential = Session::from_scenario(&scenario).run(|_| {}).unwrap();
            for shards in [2, 5] {
                let sharded = Session::from_scenario(&scenario)
                    .shards(shards)
                    .run(|_| {})
                    .unwrap();
                assert_eq!(
                    sequential.trajectory, sharded.trajectory,
                    "{algorithm:?}/{model:?} delta churn shards={shards}"
                );
            }

            // Rewire ≡ empty delta: the torus family rebuild reproduces the
            // same edges, so both paths patch with an empty delta and must
            // land on the same trajectory (the scenario specs differ, so
            // compare trajectories rather than rendered documents).
            let mut rewire = poisson_scenario();
            rewire.algorithm = algorithm;
            rewire.model = model;
            rewire.churn = vec![ChurnEvent {
                round: 30,
                kind: ChurnKind::Rewire { seed: 9 },
            }];
            let mut empty_delta = poisson_scenario();
            empty_delta.algorithm = algorithm;
            empty_delta.model = model;
            empty_delta.churn = vec![ChurnEvent {
                round: 30,
                kind: ChurnKind::Delta {
                    add: Vec::new(),
                    remove: Vec::new(),
                },
            }];
            let a = Session::from_scenario(&rewire).run(|_| {}).unwrap();
            let b = Session::from_scenario(&empty_delta).run(|_| {}).unwrap();
            assert_eq!(
                a.trajectory, b.trajectory,
                "{algorithm:?}/{model:?}: rewire vs empty delta"
            );
            assert_eq!(a.dummy_created, b.dummy_created);
        }
    }

    #[test]
    fn delta_churn_survives_checkpoint_resume() {
        // Resume across a delta-churn entry: the fast-forward builds the
        // delta's epoch (the world graph with the delta applied) for the
        // full-rebuild path, and must land on the same bytes as the
        // uninterrupted run.
        for (algorithm, model, tag) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos, "delta_a1fos"),
            (AlgorithmSpec::Alg2, ModelSpec::Sos, "delta_a2sos"),
        ] {
            let mut scenario = poisson_scenario();
            scenario.algorithm = algorithm;
            scenario.model = model;
            scenario.churn = vec![ChurnEvent {
                round: 30,
                kind: ChurnKind::Delta {
                    add: vec![(0, 14), (7, 29)],
                    remove: vec![(0, 1)],
                },
            }];
            let (outcome, snap25, snap50) = run_with_checkpoints(&scenario, tag);
            let reference = outcome.to_json().render_pretty();
            for (snap, label) in [(snap25, "round 25"), (snap50, "round 50")] {
                for shards in [None, Some(3)] {
                    let snap = snapshot::parse(&snapshot::render(&snap)).unwrap();
                    let resumed = Session::from_snapshot(snap)
                        .shards(shards)
                        .run(|_| {})
                        .unwrap();
                    assert_eq!(
                        resumed.to_json().render_pretty(),
                        reference,
                        "{tag}: resume at {label}, shards {shards:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_streams_only_post_resume_samples() {
        let scenario = churned_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        let (outcome, snap25, _) = run_with_checkpoints(&scenario, "stream");
        let mut streamed = Vec::new();
        let resumed = Session::from_snapshot(snap25)
            .run(|s| streamed.push(s.clone()))
            .unwrap();
        // The restored prefix (rounds 0 and 20) is already in the
        // trajectory; the callback sees only rounds sampled after 25.
        assert_eq!(
            streamed.iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![40, 60]
        );
        assert_eq!(resumed.trajectory, outcome.trajectory);
    }

    #[test]
    fn resume_composes_with_channel_and_merge_producers() {
        let scenario = churned_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        let (outcome, snap25, snap50) = run_with_checkpoints(&scenario, "producers");
        for (snap, producer, label) in [
            (
                &snap25,
                Producer::Merge {
                    feeds: 1,
                    capacity: 2,
                },
                "channel@25",
            ),
            (
                &snap50,
                Producer::Merge {
                    feeds: 1,
                    capacity: 1,
                },
                "channel@50",
            ),
            (
                &snap25,
                Producer::Merge {
                    feeds: 3,
                    capacity: 2,
                },
                "merge@25",
            ),
        ] {
            let resumed = Session::from_snapshot(snap.clone())
                .producer(producer)
                .run(|_| {})
                .unwrap();
            // Async producers attach a timing-dependent ingest report, so
            // the comparison is on the deterministic trajectory.
            assert_eq!(resumed.trajectory, outcome.trajectory, "{label}");
            assert!(resumed.ingest.is_some(), "{label}");
        }
    }

    #[test]
    fn resume_records_the_complete_trace() {
        let scenario = churned_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        let dir = std::env::temp_dir();
        let full = dir.join("lb_resume_record_full.trace.jsonl");
        let resumed_path = dir.join("lb_resume_record_resumed.trace.jsonl");

        let (_, snap25, _) = run_with_checkpoints(&scenario, "record");
        Session::from_scenario(&scenario)
            .record(full.clone())
            .run(|_| {})
            .unwrap();
        Session::from_snapshot(snap25)
            .record(resumed_path.clone())
            .run(|_| {})
            .unwrap();

        // The fast-forwarded prefix is re-recorded: the resumed trace is the
        // complete trace, byte for byte.
        assert_eq!(
            std::fs::read(&full).unwrap(),
            std::fs::read(&resumed_path).unwrap()
        );
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&resumed_path).ok();
    }

    #[test]
    fn resume_rejects_contradictory_inputs() {
        let scenario = churned_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        let (_, snap25, snap50) = run_with_checkpoints(&scenario, "reject");

        // An out-of-range shard override is rejected up front.
        let err = Session::from_snapshot(snap25.clone())
            .shards(0)
            .run(|_| {})
            .unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("shards"), "{err}");

        // A snapshot whose embedded scenario builds a different engine is a
        // mismatch, caught before any state is restored.
        let mut flipped = scenario.clone();
        flipped.algorithm = AlgorithmSpec::Alg2;
        let bad = Snapshot {
            scenario: flipped.to_json(),
            ..snap25
        };
        let err = Session::from_snapshot(bad).run(|_| {}).unwrap_err();
        assert!(matches!(err, BenchError::Protocol(_)), "{err:?}");
        assert!(err.to_string().contains("does not match this run"), "{err}");

        // A capture round past the scenario's horizon is corrupt.
        let mut short = scenario.clone();
        short.rounds = 40;
        let bad = Snapshot {
            scenario: short.to_json(),
            ..snap50
        };
        let err = Session::from_snapshot(bad).run(|_| {}).unwrap_err();
        assert!(matches!(err, BenchError::Protocol(_)), "{err:?}");
        assert!(err.to_string().contains("runs only 40"), "{err}");
    }

    #[test]
    fn checkpoint_options_must_come_as_a_pair() {
        let scenario = poisson_scenario();
        let path = temp_path("lb_ckpt_pairing.jsonl");
        let cases = [
            (Some(path.clone()), None, "cadence"),
            (None, Some(5), "checkpoint path"),
            (Some(path), Some(0), "at least one round"),
        ];
        for (path, every, expect) in cases {
            let err = Session::from_scenario(&scenario)
                .checkpoint(path, every)
                .run(|_| {})
                .unwrap_err();
            assert!(matches!(err, BenchError::Usage(_)), "{err:?}");
            assert!(err.to_string().contains(expect), "{err}");
        }
    }

    #[test]
    fn resume_replay_composes_with_trace_checkpoints() {
        use lb_workloads::source::DEFAULT_POLL_INTERVAL;
        use std::time::Duration;

        let scenario = churned_scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
        let dir = std::env::temp_dir();
        let trace_path = dir.join("lb_resume_trace_ckpt.trace.jsonl");
        let rotating = dir.join("lb_resume_trace_ckpt.snap.jsonl");

        // One recorded, checkpointed run: the trace and the snapshot come
        // from the same execution, so they embed the same scenario.
        let reference = Session::from_scenario(&scenario)
            .record(trace_path.clone())
            .checkpoint(rotating.clone(), 25)
            .run(|_| {})
            .unwrap();
        let mut early: Option<Snapshot> = None;
        // Re-harvest the round-25 snapshot from a second identical run (the
        // first one's rotating file now holds round 50).
        Session::from_scenario(&scenario)
            .checkpoint(rotating.clone(), 25)
            .run(|sample| {
                if sample.round == 40 && early.is_none() {
                    early = Some(snapshot::load(&rotating).unwrap());
                }
            })
            .unwrap();
        let snap25 = early.expect("round-25 snapshot harvested");
        assert_eq!(snap25.round, 25);

        // Full replay from the top: the pre-resume prefix is drained and
        // discarded.
        let source = TraceSource::open(&trace_path).unwrap();
        let resumed = Session::from_snapshot(snap25.clone())
            .stream(Box::new(source))
            .run(|_| {})
            .unwrap();
        assert_eq!(resumed.trajectory, reference.trajectory);

        // Checkpoint-composed replay: walk the source up to the resume
        // round, take its checkpoint, reopen there — the already-applied
        // records are never re-read, and the drained prefix rounds come
        // back empty. Byte-identical, at a different shard count.
        let mut walker = TraceSource::open(&trace_path).unwrap();
        let carried = walker.scenario().clone();
        let mut batch = RoundEvents::default();
        let boundary = loop {
            let at = walker.checkpoint();
            match walker.next_round(&mut batch).unwrap() {
                Some(round) if (round as usize) < snap25.round as usize => continue,
                _ => break at,
            }
        };
        let source = TraceSource::resume(
            &trace_path,
            carried,
            boundary,
            Duration::from_millis(2_000),
            DEFAULT_POLL_INTERVAL,
        )
        .unwrap();
        let resumed = Session::from_snapshot(snap25)
            .stream(Box::new(source))
            .shards(2)
            .run(|_| {})
            .unwrap();
        assert_eq!(
            resumed.to_json().render_pretty(),
            reference.to_json().render_pretty()
        );

        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&rotating).ok();
    }
}
