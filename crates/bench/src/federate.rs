//! Federated driver: one scenario partitioned across N OS processes on one
//! machine, exchanging boundary loads, crossing flows and cross-partition
//! deliveries over TCP each round — **byte-identical** to the sequential
//! driver for every process count and per-process shard count.
//!
//! The process topology is a star. The **coordinator** owns the scenario: it
//! admits one [`Join`](lb_proto::Record::Join) per rank, broadcasts the
//! effective scenario in [`Start`](lb_proto::Record::Start), then acts as a
//! pure message router for the round protocol. It builds no engine and
//! places no initial load: it keeps only the world and the churn cursor,
//! whose topologies and speeds state splicing and sampling need. Each
//! **worker** derives the identical [`World`](crate::dynamic) from the
//! scenario document, builds the full-size engine on it holding the initial
//! placement, and steps only its partition through
//! [`lb_core::federate`], speaking the v2 records of [`lb_proto`] over one
//! line-delimited socket.
//!
//! Per round the coordinator relays three fixed barrier exchanges (loads,
//! flows, sends — always present, even when empty), mirrors the workers'
//! deterministic churn/sample/checkpoint schedule, and assembles global
//! state where needed:
//!
//! | phase          | worker → coordinator      | coordinator → workers    |
//! |----------------|---------------------------|--------------------------|
//! | start          | `Sample {rank}` (round 0) |                          |
//! | barrier        |                           | `Round {round}`          |
//! | churn (if due) | `State` (pre-churn)       | `Restore` (assembled)    |
//! | twin loads     | `Loads {rank}`            | `Loads` (concatenated)   |
//! | twin flows     | `Flows {rank}`            | `Flows` (concatenated)   |
//! | deliveries     | `Sends {rank}`            | `Deliver` (all batches)  |
//! | sample (if due)| `Sample {rank}`           |                          |
//! | ckpt (if due)  | `State`                   |                          |
//! | shutdown       | `Done {rank}`             | `Finish`                 |
//!
//! Everything not exchanged is derived: workers follow the churn through
//! the same [`ChurnCursor`](crate::dynamic) the sequential driver uses,
//! building each epoch when its round arrives, and derive the sample and
//! checkpoint cadences locally from the scenario, so the coordinator never
//! negotiates control flow mid-run.
//!
//! State assembly splices per-rank [`EngineState`]s along the partition
//! plan's node/edge ranges: owned vector entries replace the stale foreign
//! ones, counters (disjoint partials) are summed, the load watermark takes
//! the minimum, and globally agreed scalars (`wmax`, the rounding seed, β)
//! come from rank 0. The spliced state is exactly what the sequential
//! engine would capture, which is why a coordinator-written checkpoint
//! resumes under the plain sequential driver (`lb run --resume`). Workers
//! name their engine in each `State` snapshot's driver payload; a
//! checkpoint takes rank 0's name, and the result document takes the name
//! every [`Done`](lb_proto::Record::Done) record must agree on.
//!
//! Any socket failure — a killed worker, a timeout, a malformed record —
//! surfaces as [`BenchError::Protocol`] (stable exit code), never a hang:
//! every read carries a timeout and a lost peer is an immediate EOF.

use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Write as _};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::process::Child;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lb_analysis::Json;
use lb_core::discrete::{Algorithm, DiscreteBalancer, DynamicBalancer, Imitation, RoundEvents};
use lb_core::federate::FederateLink;
use lb_core::snapshot::{self, DiscreteState, EngineState, Snapshot};
use lb_core::{metrics, CoreError, FederatedExecutor, FederationPlan, Speeds, Task, TaskId};
use lb_graph::{EdgeId, Graph, NodeId};
use lb_proto::{Record, WireBatch, WireTask, PROTOCOL_V2};
use lb_workloads::{Scenario, ScenarioEvents};

use crate::dynamic::{
    build_world, churn_error, drive, encode_driver, place, replace_topology, Build, ChurnCursor,
    Driver, Model, RoundSample, ScenarioOutcome, World,
};
use crate::error::BenchError;

/// Backstop read timeout on every federation socket: a silent peer is a
/// protocol error, never a hang. Generous because a slow debug-build round
/// on a large scenario still has to fit.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(60);

/// How long the coordinator waits for all ranks to join before giving up.
const JOIN_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a worker keeps retrying its connect (the coordinator binds
/// before spawning, so this only covers externally launched workers).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Wire: one line-delimited record socket with typed failures.
// ---------------------------------------------------------------------------

/// One federation socket: line-delimited [`Record`]s in both directions,
/// every failure mapped to [`BenchError::Protocol`] naming the peer.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// Peer label for error messages ("coordinator", "federate rank 2").
    peer: String,
}

impl Wire {
    fn new(stream: TcpStream, peer: String) -> Result<Self, BenchError> {
        stream
            .set_read_timeout(Some(EXCHANGE_TIMEOUT))
            .map_err(|e| BenchError::protocol(format!("configuring the {peer} socket: {e}")))?;
        // The round barrier is a sequence of small request/response lines;
        // Nagle + delayed ACK would add ~40ms to every exchange.
        stream
            .set_nodelay(true)
            .map_err(|e| BenchError::protocol(format!("configuring the {peer} socket: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| BenchError::protocol(format!("cloning the {peer} socket: {e}")))?;
        Ok(Wire {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
            peer,
        })
    }

    fn send(&mut self, record: &Record) -> Result<(), BenchError> {
        let mut text = record.render();
        text.push('\n');
        self.writer
            .write_all(text.as_bytes())
            .map_err(|e| BenchError::protocol(format!("sending to the {}: {e}", self.peer)))
    }

    /// Receives one record. EOF, timeout and malformed lines are all
    /// protocol errors; a peer's [`Record::Abort`] is surfaced as its cause.
    fn recv(&mut self) -> Result<Record, BenchError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line).map_err(|e| {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                BenchError::protocol(format!(
                    "the {} sent nothing for {}s: federation barrier timed out",
                    self.peer,
                    EXCHANGE_TIMEOUT.as_secs()
                ))
            } else {
                BenchError::protocol(format!("reading from the {}: {e}", self.peer))
            }
        })?;
        if n == 0 {
            return Err(BenchError::protocol(format!(
                "the {} disconnected mid-run",
                self.peer
            )));
        }
        let record = Record::parse(self.line.trim_end_matches(['\r', '\n']))
            .map_err(|e| BenchError::protocol(format!("from the {}: {e}", self.peer)))?;
        if let Record::Abort { error } = record {
            return Err(BenchError::protocol(format!(
                "the {} aborted: {error}",
                self.peer
            )));
        }
        Ok(record)
    }

    /// The error for a record that does not fit the protocol state.
    fn unexpected(&self, wanted: &str, got: &Record) -> BenchError {
        BenchError::protocol(format!(
            "expected {wanted} from the {}, got a {} record",
            self.peer,
            got.kind()
        ))
    }
}

// ---------------------------------------------------------------------------
// Roles.
// ---------------------------------------------------------------------------

/// Kills and reaps a spawned worker when the coordinator unwinds, so a
/// failed run never leaks orphan processes.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

enum Role {
    Coordinator {
        listener: TcpListener,
        children: Vec<ChildGuard>,
    },
    Worker {
        wire: Box<Wire>,
        rank: usize,
        checkpoint_every: Option<usize>,
    },
}

/// Which side of a federated run a [`Session`](crate::dynamic::Session)
/// plays, created by [`FederationRole::coordinator`] or by [`join`]. Opaque:
/// the protocol state it carries (sockets, admitted peers) has no meaningful
/// public surface.
pub struct FederationRole(Role);

impl fmt::Debug for FederationRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Role::Coordinator { children, .. } => f
                .debug_struct("FederationRole::Coordinator")
                .field("spawned", &children.len())
                .finish(),
            Role::Worker { rank, .. } => f
                .debug_struct("FederationRole::Worker")
                .field("rank", rank)
                .finish(),
        }
    }
}

impl FederationRole {
    /// The coordinator side: owns `listener` (already bound) and the worker
    /// processes spawned for this run (killed and reaped if the run fails).
    /// Pass an empty `children` when the workers are launched externally
    /// (`--no-spawn`, or in-process worker threads).
    pub fn coordinator(listener: TcpListener, children: Vec<Child>) -> Self {
        FederationRole(Role::Coordinator {
            listener,
            children: children.into_iter().map(ChildGuard).collect(),
        })
    }
}

/// Connects to a coordinator at `addr`, claims `rank` of `parts`, and
/// returns the worker-side [`FederationRole`] plus the effective scenario
/// the coordinator broadcast (seed, shard and federation overrides already
/// applied). Run it with
/// `Session::from_scenario(&scenario).federated(role, scenario.federation)`.
///
/// # Errors
///
/// [`BenchError::Protocol`] when the coordinator is unreachable, rejects
/// the join, or answers out of protocol; the broadcast scenario is validated
/// before it is returned.
pub fn join(
    addr: &str,
    rank: usize,
    parts: usize,
) -> Result<(FederationRole, Scenario), BenchError> {
    let stream = connect_retry(addr)?;
    let mut wire = Wire::new(stream, "coordinator".to_string())?;
    wire.send(&Record::Join {
        version: PROTOCOL_V2,
        rank: rank as u64,
        parts: parts as u64,
    })?;
    match wire.recv()? {
        Record::Start {
            scenario,
            parts: declared,
            shards,
            checkpoint_every,
        } => {
            let scenario = Scenario::from_json(&scenario)
                .map_err(|e| BenchError::protocol(format!("start scenario: {e}")))?;
            scenario.validate().map_err(BenchError::Protocol)?;
            if declared != parts as u64 || scenario.federation != parts {
                return Err(BenchError::protocol(format!(
                    "coordinator runs {declared} part(s) but this worker was launched for {parts}"
                )));
            }
            if shards != scenario.shards as u64 {
                return Err(BenchError::protocol(format!(
                    "start record declares {shards} shard(s) but the scenario carries {}",
                    scenario.shards
                )));
            }
            let checkpoint_every = checkpoint_every
                .map(|every| {
                    usize::try_from(every).map_err(|_| {
                        BenchError::protocol(format!("checkpoint cadence {every} overflows"))
                    })
                })
                .transpose()?;
            Ok((
                FederationRole(Role::Worker {
                    wire: Box::new(wire),
                    rank,
                    checkpoint_every,
                }),
                scenario,
            ))
        }
        Record::Reject { error, .. } => Err(BenchError::protocol(format!(
            "coordinator rejected the join: {error}"
        ))),
        other => Err(wire.unexpected("a start record", &other)),
    }
}

fn connect_retry(addr: &str) -> Result<TcpStream, BenchError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(err) => {
                if Instant::now() >= deadline {
                    return Err(BenchError::protocol(format!(
                        "connecting to the coordinator at {addr}: {err}"
                    )));
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Joins `addr` as `rank` of `parts` and runs the worker session to
/// completion. Shared by the `federate-worker` subcommand and the hotpath's
/// in-process worker threads.
///
/// # Errors
///
/// Propagates [`join`] and session failures.
pub(crate) fn worker_entry(addr: &str, rank: usize, parts: usize) -> Result<(), BenchError> {
    let (role, scenario) = join(addr, rank, parts)?;
    crate::dynamic::Session::from_scenario(&scenario)
        .federated(role, parts)
        .run(|_| {})
        .map(|_| ())
}

// ---------------------------------------------------------------------------
// Entry from Session::run.
// ---------------------------------------------------------------------------

/// Runs a federated session in its role. `scenario` is already effective
/// (overrides applied, `federation` set, validated); `checkpoint` is the
/// validated path and cadence.
pub(crate) fn run_federated(
    scenario: Scenario,
    role: FederationRole,
    checkpoint: Option<(PathBuf, usize)>,
    on_sample: impl FnMut(&RoundSample),
) -> Result<ScenarioOutcome, BenchError> {
    match role.0 {
        Role::Coordinator { listener, children } => {
            run_coordinator(scenario, listener, children, checkpoint, on_sample)
        }
        Role::Worker {
            wire,
            rank,
            checkpoint_every,
        } => {
            if checkpoint.is_some() {
                return Err(BenchError::usage(
                    "checkpointing a federated run is coordinator-driven; the worker role \
                     takes its cadence from the start record",
                ));
            }
            run_worker(scenario, *wire, rank, checkpoint_every)
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

fn run_coordinator(
    scenario: Scenario,
    listener: TcpListener,
    children: Vec<ChildGuard>,
    checkpoint: Option<(PathBuf, usize)>,
    mut on_sample: impl FnMut(&RoundSample),
) -> Result<ScenarioOutcome, BenchError> {
    let parts = scenario.federation;

    let world = build_world(&scenario)?;
    let mut churn = ChurnCursor::new(&world, &scenario.churn)?;
    let mut wires = accept_workers(&listener, parts)?;
    let start = Record::Start {
        scenario: scenario.to_json(),
        parts: parts as u64,
        shards: scenario.shards as u64,
        checkpoint_every: checkpoint.as_ref().map(|&(_, every)| every as u64),
    };
    broadcast(&mut wires, &start)?;

    let mut trajectory = Vec::new();
    let sample0 = gather_sample(&mut wires, 0, churn.graph(), churn.speeds())?;
    on_sample(&sample0);
    trajectory.push(sample0);

    for round in 0..scenario.rounds {
        broadcast(
            &mut wires,
            &Record::Round {
                round: round as u64,
            },
        )?;
        if churn.due(round) {
            // Workers splice-restore the assembled pre-churn state, so every
            // rank re-partitions from identical global state.
            let (assembled, _) = gather_state(&mut wires, round, churn.graph())?;
            let text = snapshot::render(&Snapshot {
                scenario: scenario.to_json(),
                driver: Json::Null,
                round: round as u64,
                engine: assembled,
            });
            broadcast(
                &mut wires,
                &Record::Restore {
                    round: round as u64,
                    snapshot: text,
                },
            )?;
        }
        // The coordinator follows the churn's topologies and speeds alone:
        // state splicing and sampling need nothing else.
        while churn.fire(round)?.is_some() {}
        relay_loads(&mut wires)?;
        relay_flows(&mut wires)?;
        relay_sends(&mut wires)?;
        let done = round + 1;
        if done % scenario.sample_every == 0 || done == scenario.rounds {
            let sample = gather_sample(&mut wires, done, churn.graph(), churn.speeds())?;
            on_sample(&sample);
            trajectory.push(sample);
        }
        if let Some((path, every)) = &checkpoint {
            if done % every == 0 {
                let (assembled, engine) = gather_state(&mut wires, done, churn.graph())?;
                let state = Snapshot {
                    scenario: scenario.to_json(),
                    driver: encode_driver(&engine, &trajectory),
                    round: done as u64,
                    engine: assembled,
                };
                snapshot::write_atomic(path, &state)
                    .map_err(|err| BenchError::run(format!("checkpoint at round {done}: {err}")))?;
            }
        }
    }

    broadcast(&mut wires, &Record::Finish)?;
    // Every rank must report the engine rank 0 ran.
    let mut name = String::new();
    let mut dummy_created = 0u64;
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::Done {
                rank: r,
                dummy_created: d,
                engine,
            } if r == rank as u64 => {
                if rank == 0 {
                    name = engine;
                } else if engine != name {
                    return Err(BenchError::protocol(format!(
                        "federate rank {rank} ran engine {engine:?}, rank 0 ran {name:?}"
                    )));
                }
                dummy_created += d;
            }
            other => return Err(wire.unexpected("a done record", &other)),
        }
    }
    drop(children); // clean exit: reap the (already finished) workers

    Ok(ScenarioOutcome {
        scenario,
        engine: name,
        trajectory,
        dummy_created,
        ingest: None,
    })
}

/// Accepts and admits exactly one worker per rank, in any arrival order.
fn accept_workers(listener: &TcpListener, parts: usize) -> Result<Vec<Wire>, BenchError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| BenchError::protocol(format!("configuring the listener: {e}")))?;
    let deadline = Instant::now() + JOIN_TIMEOUT;
    let mut slots: Vec<Option<Wire>> = (0..parts).map(|_| None).collect();
    let mut admitted = 0usize;
    while admitted < parts {
        if Instant::now() >= deadline {
            return Err(BenchError::protocol(format!(
                "only {admitted} of {parts} federate(s) joined within {}s",
                JOIN_TIMEOUT.as_secs()
            )));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| BenchError::protocol(format!("configuring a federate: {e}")))?;
                let mut wire = Wire::new(stream, "joining federate".to_string())?;
                let record = wire.recv()?;
                let Record::Join {
                    version,
                    rank,
                    parts: declared,
                } = record
                else {
                    let err = wire.unexpected("a join record", &record);
                    reject(&mut wire, &err);
                    return Err(err);
                };
                let admit = || -> Result<usize, String> {
                    if version != PROTOCOL_V2 {
                        return Err(format!(
                            "federation speaks protocol v{PROTOCOL_V2}, the worker sent v{version}"
                        ));
                    }
                    if declared != parts as u64 {
                        return Err(format!(
                            "worker was launched for {declared} part(s), this run has {parts}"
                        ));
                    }
                    let rank =
                        usize::try_from(rank).map_err(|_| format!("rank {rank} overflows"))?;
                    if rank >= parts {
                        return Err(format!("rank {rank} is out of range for {parts} part(s)"));
                    }
                    Ok(rank)
                };
                match admit() {
                    Ok(rank) if slots[rank].is_none() => {
                        wire.peer = format!("federate rank {rank}");
                        slots[rank] = Some(wire);
                        admitted += 1;
                    }
                    Ok(rank) => {
                        let err = BenchError::protocol(format!("rank {rank} joined twice"));
                        reject(&mut wire, &err);
                        return Err(err);
                    }
                    Err(reason) => {
                        let err = BenchError::protocol(reason);
                        reject(&mut wire, &err);
                        return Err(err);
                    }
                }
            }
            Err(err) if err.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => {
                return Err(BenchError::protocol(format!("accepting federates: {err}")));
            }
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// Best-effort refusal before dropping a mis-joining connection.
fn reject(wire: &mut Wire, err: &BenchError) {
    let _ = wire.send(&Record::Reject {
        version: PROTOCOL_V2,
        error: err.to_string(),
    });
}

fn broadcast(wires: &mut [Wire], record: &Record) -> Result<(), BenchError> {
    for wire in wires.iter_mut() {
        wire.send(record)?;
    }
    Ok(())
}

/// Gathers the rank-tagged boundary loads and broadcasts the rank-order
/// concatenation every worker's [`FederateLink::exchange_loads`] awaits.
fn relay_loads(wires: &mut [Wire]) -> Result<(), BenchError> {
    let mut combined: Vec<(u64, u64)> = Vec::new();
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::Loads {
                rank: Some(r),
                entries,
            } if r == rank as u64 => combined.extend(entries),
            other => return Err(wire.unexpected("rank-tagged loads", &other)),
        }
    }
    broadcast(
        wires,
        &Record::Loads {
            rank: None,
            entries: combined,
        },
    )
}

/// Same relay for crossing-edge flows.
fn relay_flows(wires: &mut [Wire]) -> Result<(), BenchError> {
    let mut combined: Vec<(u64, u64, u64)> = Vec::new();
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::Flows {
                rank: Some(r),
                entries,
            } if r == rank as u64 => combined.extend(entries),
            other => return Err(wire.unexpected("rank-tagged flows", &other)),
        }
    }
    broadcast(
        wires,
        &Record::Flows {
            rank: None,
            entries: combined,
        },
    )
}

/// Gathers every rank's send batch and broadcasts the full delivery set.
fn relay_sends(wires: &mut [Wire]) -> Result<(), BenchError> {
    let mut batches: Vec<(u64, WireBatch)> = Vec::with_capacity(wires.len());
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::Sends { rank: r, batch } if r == rank as u64 => batches.push((r, batch)),
            other => return Err(wire.unexpected("a send batch", &other)),
        }
    }
    broadcast(wires, &Record::Deliver { batches })
}

/// Gathers the per-rank sample slices into the round's trajectory point:
/// load vectors concatenate in rank order (= node order), counters sum, and
/// the discrepancy metrics are evaluated exactly as the sequential sampler
/// does.
fn gather_sample(
    wires: &mut [Wire],
    done: usize,
    graph: &Graph,
    speeds: &Speeds,
) -> Result<RoundSample, BenchError> {
    let n = graph.node_count();
    let mut loads: Vec<f64> = Vec::with_capacity(n);
    let mut real: Vec<f64> = Vec::with_capacity(n);
    let mut dummy_load = 0u64;
    let mut arrived = 0u64;
    let mut completed = 0u64;
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::Sample {
                rank: r,
                round,
                loads: l,
                real: rl,
                dummy_load: d,
                arrived: a,
                completed: c,
            } if r == rank as u64 && round == done as u64 => {
                loads.extend(l.iter().copied().map(f64::from_bits));
                real.extend(rl.iter().copied().map(f64::from_bits));
                dummy_load += d;
                arrived += a;
                completed += c;
            }
            other => return Err(wire.unexpected("a sample record", &other)),
        }
    }
    if loads.len() != n || real.len() != n {
        return Err(BenchError::protocol(format!(
            "sample slices cover {} of {n} node(s) at round {done}",
            loads.len()
        )));
    }
    Ok(RoundSample {
        round: done,
        nodes: n,
        max_min: metrics::max_min_discrepancy(&loads, speeds),
        max_avg: metrics::max_avg_discrepancy(&loads, speeds),
        real_weight: real.iter().sum(),
        dummy_load,
        arrived_weight: arrived,
        completed_weight: completed,
    })
}

/// Gathers one [`Record::State`] per rank and splices them into the global
/// engine state along the current partition plan. Returns it with the
/// engine name rank 0's driver payload carries.
fn gather_state(
    wires: &mut [Wire],
    round: usize,
    graph: &Graph,
) -> Result<(EngineState, String), BenchError> {
    let parts = wires.len();
    let plan = FederationPlan::new(graph, 0, parts)?;
    let mut states = Vec::with_capacity(parts);
    let mut name = None;
    for (rank, wire) in wires.iter_mut().enumerate() {
        match wire.recv()? {
            Record::State {
                rank: r,
                round: rr,
                snapshot,
            } if r == rank as u64 && rr == round as u64 => {
                let snap = snapshot::parse(&snapshot).map_err(|e| {
                    BenchError::protocol(format!("state of federate rank {rank}: {e}"))
                })?;
                if rank == 0 {
                    name = snap
                        .driver
                        .get("engine")
                        .and_then(Json::as_str)
                        .map(String::from);
                }
                states.push(snap.engine);
            }
            other => return Err(wire.unexpected("a state record", &other)),
        }
    }
    let name =
        name.ok_or_else(|| BenchError::protocol("the state of federate rank 0 names no engine"))?;
    Ok((splice_states(states, &plan, graph)?, name))
}

/// Splices per-rank engine states into the one the sequential engine would
/// capture: owned node/edge entries replace the stale foreign ones, counters
/// (disjoint partials) sum, the load watermark folds by minimum, and the
/// globally agreed scalars come from rank 0's base.
fn splice_states(
    states: Vec<EngineState>,
    plan: &FederationPlan,
    graph: &Graph,
) -> Result<EngineState, BenchError> {
    let n = graph.node_count();
    let m = graph.edge_count();
    let mut parts = states.into_iter();
    let Some(mut base) = parts.next() else {
        return Err(BenchError::protocol("no federate states to splice"));
    };
    check_state_shape(&base, 0, n, m)?;
    for (p, part) in parts.enumerate() {
        let p = p + 1;
        check_state_shape(&part, p, n, m)?;
        if part.round != base.round || part.twin.round != base.twin.round {
            return Err(BenchError::protocol(format!(
                "federate rank {p} is at engine round {}, rank 0 at {}",
                part.round, base.round
            )));
        }
        let nr = plan.node_range_of(p);
        let er = plan.edge_range_of(p);
        base.twin.loads[nr.clone()].copy_from_slice(&part.twin.loads[nr.clone()]);
        base.twin.cumulative_flow[er.clone()]
            .copy_from_slice(&part.twin.cumulative_flow[er.clone()]);
        base.twin.min_load_seen = base.twin.min_load_seen.min(part.twin.min_load_seen);
        match (&mut base.twin.history, &part.twin.history) {
            (Some(bh), Some(ph)) => {
                bh.previous[er.clone()].copy_from_slice(&ph.previous[er.clone()]);
            }
            (None, None) => {}
            _ => {
                return Err(BenchError::protocol(format!(
                    "federate rank {p} disagrees with rank 0 on the continuous model"
                )))
            }
        }
        match (&mut base.discrete, &part.discrete) {
            (DiscreteState::Alg1(b), DiscreteState::Alg1(q)) => {
                b.queues[nr.clone()].clone_from_slice(&q.queues[nr.clone()]);
                b.dummy[nr.clone()].copy_from_slice(&q.dummy[nr.clone()]);
                b.discrete_flow[er.clone()].copy_from_slice(&q.discrete_flow[er.clone()]);
                b.dummy_created += q.dummy_created;
                b.items_sent += q.items_sent;
                b.arrived_weight += q.arrived_weight;
                b.completed_weight += q.completed_weight;
            }
            (DiscreteState::Alg2(b), DiscreteState::Alg2(q)) => {
                b.tokens[nr.clone()].copy_from_slice(&q.tokens[nr.clone()]);
                b.dummy[nr.clone()].copy_from_slice(&q.dummy[nr.clone()]);
                b.discrete_flow[er.clone()].copy_from_slice(&q.discrete_flow[er.clone()]);
                b.dummy_created += q.dummy_created;
                b.arrived_weight += q.arrived_weight;
                b.completed_weight += q.completed_weight;
            }
            _ => {
                return Err(BenchError::protocol(format!(
                    "federate rank {p} disagrees with rank 0 on the algorithm"
                )))
            }
        }
    }
    Ok(base)
}

/// Rejects a state whose vectors do not fit the coordinator's topology.
fn check_state_shape(
    state: &EngineState,
    rank: usize,
    n: usize,
    m: usize,
) -> Result<(), BenchError> {
    let (nodes, edges) = match &state.discrete {
        DiscreteState::Alg1(s) => (s.queues.len(), s.discrete_flow.len()),
        DiscreteState::Alg2(s) => (s.tokens.len(), s.discrete_flow.len()),
    };
    let twin_ok = state.twin.loads.len() == n
        && state.twin.cumulative_flow.len() == m
        && state
            .twin
            .history
            .as_ref()
            .is_none_or(|h| h.previous.len() == m);
    if !twin_ok || nodes != n || edges != m {
        return Err(BenchError::protocol(format!(
            "state of federate rank {rank} does not fit the topology \
             ({n} node(s), {m} edge(s))"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Worker.
// ---------------------------------------------------------------------------

/// The worker's socket as the engine sees it: a [`FederateLink`] whose three
/// exchanges each send one rank-tagged record and await the coordinator's
/// combined broadcast.
struct WorkerLink {
    wire: Wire,
    rank: usize,
    parts: usize,
}

impl WorkerLink {
    fn send(&mut self, record: &Record) -> Result<(), CoreError> {
        self.wire
            .send(record)
            .map_err(|e| CoreError::federation(e.to_string()))
    }

    fn recv(&mut self) -> Result<Record, CoreError> {
        self.wire
            .recv()
            .map_err(|e| CoreError::federation(e.to_string()))
    }
}

fn node_id(value: u64) -> Result<NodeId, CoreError> {
    usize::try_from(value).map_err(|_| CoreError::federation(format!("node id {value} overflows")))
}

fn edge_id(value: u64) -> Result<EdgeId, CoreError> {
    usize::try_from(value).map_err(|_| CoreError::federation(format!("edge id {value} overflows")))
}

impl FederateLink for WorkerLink {
    fn exchange_loads(&mut self, own: &[(NodeId, u64)]) -> Result<Vec<(NodeId, u64)>, CoreError> {
        let entries = own
            .iter()
            .map(|&(node, bits)| (node as u64, bits))
            .collect();
        self.send(&Record::Loads {
            rank: Some(self.rank as u64),
            entries,
        })?;
        match self.recv()? {
            Record::Loads {
                rank: None,
                entries,
            } => entries
                .into_iter()
                .map(|(node, bits)| Ok((node_id(node)?, bits)))
                .collect(),
            other => Err(CoreError::federation(format!(
                "expected the combined loads broadcast, got a {} record",
                other.kind()
            ))),
        }
    }

    fn exchange_flows(
        &mut self,
        own: &[(EdgeId, u64, u64)],
    ) -> Result<Vec<(EdgeId, u64, u64)>, CoreError> {
        let entries = own
            .iter()
            .map(|&(edge, forward, backward)| (edge as u64, forward, backward))
            .collect();
        self.send(&Record::Flows {
            rank: Some(self.rank as u64),
            entries,
        })?;
        match self.recv()? {
            Record::Flows {
                rank: None,
                entries,
            } => entries
                .into_iter()
                .map(|(edge, forward, backward)| Ok((edge_id(edge)?, forward, backward)))
                .collect(),
            other => Err(CoreError::federation(format!(
                "expected the combined flows broadcast, got a {} record",
                other.kind()
            ))),
        }
    }

    fn exchange_sends(
        &mut self,
        own: &lb_core::SendBatch,
    ) -> Result<Vec<lb_core::SendBatch>, CoreError> {
        self.send(&Record::Sends {
            rank: self.rank as u64,
            batch: wire_batch(own),
        })?;
        match self.recv()? {
            Record::Deliver { batches } => {
                if batches.len() != self.parts {
                    return Err(CoreError::federation(format!(
                        "delivery carries {} batch(es) for {} part(s)",
                        batches.len(),
                        self.parts
                    )));
                }
                batches
                    .into_iter()
                    .enumerate()
                    .map(|(i, (rank, batch))| {
                        if rank != i as u64 {
                            return Err(CoreError::federation(format!(
                                "delivery batch {i} is tagged rank {rank}"
                            )));
                        }
                        core_batch(batch)
                    })
                    .collect()
            }
            other => Err(CoreError::federation(format!(
                "expected the delivery broadcast, got a {} record",
                other.kind()
            ))),
        }
    }
}

/// [`lb_core::SendBatch`] → wire form (global ids widen losslessly).
fn wire_batch(batch: &lb_core::SendBatch) -> WireBatch {
    WireBatch {
        tasks: batch
            .tasks
            .iter()
            .map(|&(edge, node, task)| WireTask {
                edge: edge as u64,
                node: node as u64,
                id: task.id().0,
                weight: task.weight(),
                dummy: task.is_dummy(),
            })
            .collect(),
        dummy: batch
            .dummy
            .iter()
            .map(|&(n, amt)| (n as u64, amt))
            .collect(),
        tokens: batch
            .tokens
            .iter()
            .map(|&(n, real, dummy)| (n as u64, real, dummy))
            .collect(),
        deltas: batch.deltas.iter().map(|&(e, d)| (e as u64, d)).collect(),
    }
}

/// Wire form → [`lb_core::SendBatch`], validating what [`Task`]'s
/// constructors would otherwise panic on (the same admission rules the
/// snapshot parser applies).
fn core_batch(batch: WireBatch) -> Result<lb_core::SendBatch, CoreError> {
    let mut out = lb_core::SendBatch::default();
    for t in batch.tasks {
        let task = if t.dummy {
            if t.weight != 1 {
                return Err(CoreError::federation(format!(
                    "delivered dummy task {} must have unit weight, got {}",
                    t.id, t.weight
                )));
            }
            Task::dummy(TaskId(t.id))
        } else {
            if t.weight == 0 {
                return Err(CoreError::federation(format!(
                    "delivered task {} must have positive weight",
                    t.id
                )));
            }
            Task::new(TaskId(t.id), t.weight)
        };
        out.tasks.push((edge_id(t.edge)?, node_id(t.node)?, task));
    }
    for (node, amount) in batch.dummy {
        out.dummy.push((node_id(node)?, amount));
    }
    for (node, real, dummy) in batch.tokens {
        out.tokens.push((node_id(node)?, real, dummy));
    }
    for (edge, delta) in batch.deltas {
        out.deltas.push((edge_id(edge)?, delta));
    }
    Ok(out)
}

fn run_worker(
    scenario: Scenario,
    wire: Wire,
    rank: usize,
    checkpoint_every: Option<usize>,
) -> Result<ScenarioOutcome, BenchError> {
    let parts = scenario.federation;
    let mut link = WorkerLink { wire, rank, parts };
    let worker = Worker {
        scenario: &scenario,
        link: &mut link,
        checkpoint_every,
    };
    match drive(worker) {
        Ok(outcome) => Ok(outcome),
        Err(err) => {
            // Best effort: name the cause on the coordinator's side instead
            // of leaving it a bare EOF.
            let _ = link.wire.send(&Record::Abort {
                error: err.to_string(),
            });
            Err(err)
        }
    }
}

/// One worker's part of a federated run (see [`worker_loop`]).
struct Worker<'a> {
    scenario: &'a Scenario,
    link: &'a mut WorkerLink,
    checkpoint_every: Option<usize>,
}

impl Driver for Worker<'_> {
    fn scenario(&self) -> &Scenario {
        self.scenario
    }

    fn run<A: Model, R: Algorithm>(
        self,
        world: &World,
        build: Build<A, R>,
    ) -> Result<ScenarioOutcome, BenchError> {
        worker_loop(self, world, build)
    }
}

/// One worker's run: every rank builds the full-size engine on the world,
/// holding the initial placement, and steps its own partition.
fn worker_loop<A: Model, R: Algorithm>(
    worker: Worker<'_>,
    world: &World,
    build: Build<A, R>,
) -> Result<ScenarioOutcome, BenchError> {
    let Worker {
        scenario,
        link,
        checkpoint_every,
    } = worker;
    let process = A::build(Arc::clone(&world.graph), &world.speeds)?;
    let initial = place(scenario, world);
    let mut engine = build(process, &initial, world.speeds.clone(), scenario.seed)?;
    drop(initial);
    let rank = link.rank;
    let mut churn = ChurnCursor::new(world, &scenario.churn)?;
    let mut fed = FederatedExecutor::new(rank, link.parts, scenario.shards)?;
    let mut stream = ScenarioEvents::new(scenario, &world.speeds, world.first_task_id);
    let mut events = RoundEvents::default();
    // The round-0 sample, before the first barrier: the executor plans its
    // part on its first step, so the owned range is planned here.
    let owned = FederationPlan::new(engine.graph(), rank, link.parts)?.node_range();
    send_sample(link, &engine, owned, 0)?;

    for round in 0..scenario.rounds {
        match link.wire.recv()? {
            Record::Round { round: r } if r == round as u64 => {}
            other => return Err(link.wire.unexpected(&format!("round {round}"), &other)),
        }
        if churn.due(round) {
            sync_state(scenario, link, &mut engine, round)?;
        }
        while let Some(epoch) = churn.fire(round)? {
            replace_topology(
                &mut engine,
                epoch.graph,
                churn.speeds(),
                epoch.delta.as_ref(),
            )
            .map_err(|err| churn_error(round, err))?;
            stream.set_topology(engine.speeds());
        }
        stream.fill_round(round, &mut events);
        if !events.is_empty() {
            engine
                .apply_events_federated(&events, &mut fed)
                .map_err(|err| BenchError::run(format!("events at round {round}: {err}")))?;
        }
        engine
            .step_federated(&mut fed, link)
            .map_err(|err| BenchError::run(format!("federated round {round}: {err}")))?;
        let done = round + 1;
        if done % scenario.sample_every == 0 || done == scenario.rounds {
            send_sample(link, &engine, fed.plan().node_range(), done)?;
        }
        if checkpoint_every.is_some_and(|every| every > 0 && done % every == 0) {
            send_state(scenario, link, &engine, done)?;
        }
    }

    match link.wire.recv()? {
        Record::Finish => {}
        other => return Err(link.wire.unexpected("the finish record", &other)),
    }
    link.wire.send(&Record::Done {
        rank: rank as u64,
        dummy_created: engine.dummy_created(),
        engine: engine.name().to_string(),
    })?;
    Ok(ScenarioOutcome {
        scenario: scenario.clone(),
        engine: engine.name().to_string(),
        // The assembled document lives on the coordinator; a worker outcome
        // deliberately carries no trajectory.
        trajectory: Vec::new(),
        dummy_created: engine.dummy_created(),
        ingest: None,
    })
}

/// Publishes this rank's full state at `round`, its driver payload naming
/// the engine.
fn send_state<A: Model, R: Algorithm>(
    scenario: &Scenario,
    link: &mut WorkerLink,
    engine: &Imitation<A, R>,
    round: usize,
) -> Result<(), BenchError> {
    let text = snapshot::render(&Snapshot {
        scenario: scenario.to_json(),
        driver: Json::obj([("engine", Json::from(engine.name()))]),
        round: round as u64,
        engine: engine.capture(),
    });
    link.wire.send(&Record::State {
        rank: link.rank as u64,
        round: round as u64,
        snapshot: text,
    })
}

/// The pre-churn barrier: publish this rank's full state, receive the
/// assembled global state, and restore it so every rank re-partitions the
/// new topology from identical ground truth. Ranks other than 0 zero their
/// counter partials first — the assembled totals live on rank 0, keeping the
/// per-rank partials disjoint.
fn sync_state<A: Model, R: Algorithm>(
    scenario: &Scenario,
    link: &mut WorkerLink,
    engine: &mut Imitation<A, R>,
    round: usize,
) -> Result<(), BenchError> {
    send_state(scenario, link, engine, round)?;
    match link.wire.recv()? {
        Record::Restore {
            round: r,
            snapshot: text,
        } if r == round as u64 => {
            let snap = snapshot::parse(&text)
                .map_err(|e| BenchError::protocol(format!("assembled state: {e}")))?;
            let mut state = snap.engine;
            if link.rank != 0 {
                zero_counters(&mut state);
            }
            engine.restore(&state)?;
            Ok(())
        }
        other => Err(link.wire.unexpected("the assembled restore", &other)),
    }
}

/// Zeroes the counter partials of an assembled state before a non-zero rank
/// restores it (the totals are carried forward by rank 0 alone).
fn zero_counters(state: &mut EngineState) {
    match &mut state.discrete {
        DiscreteState::Alg1(s) => {
            s.dummy_created = 0;
            s.items_sent = 0;
            s.arrived_weight = 0;
            s.completed_weight = 0;
        }
        DiscreteState::Alg2(s) => {
            s.dummy_created = 0;
            s.arrived_weight = 0;
            s.completed_weight = 0;
        }
    }
}

/// Publishes this rank's sample slice: the load/real-load entries of its
/// nodes in `range` as IEEE-754 bits plus its counter partials.
fn send_sample<A: Model, R: Algorithm>(
    link: &mut WorkerLink,
    engine: &Imitation<A, R>,
    range: Range<NodeId>,
    done: usize,
) -> Result<(), BenchError> {
    let loads = engine.loads();
    let real = engine.real_loads();
    link.wire.send(&Record::Sample {
        rank: link.rank as u64,
        round: done as u64,
        loads: loads[range.clone()].iter().map(|x| x.to_bits()).collect(),
        real: real[range.clone()].iter().map(|x| x.to_bits()).collect(),
        dummy_load: engine.dummy_holdings()[range].iter().sum(),
        arrived: engine.arrived_weight(),
        completed: engine.completed_weight(),
    })
}
