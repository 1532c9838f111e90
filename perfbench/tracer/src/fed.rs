//! The federated traced loop: two parts of one engine on two threads,
//! joined by a benchmark-owned in-memory `FederateLink`. Every payload is
//! rendered to and parsed from its `lb-proto` wire record, as it would be
//! on the coordinator's socket, so the link's time splits into render,
//! barrier wait and parse.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use lb_bench::dynamic::{RoundSample, ScenarioOutcome};
use lb_core::discrete::RoundEvents;
use lb_core::federate::{FederateLink, FederationPlan};
use lb_core::{metrics, CoreError, FederatedExecutor, SendBatch, Task, TaskId};
use lb_graph::{EdgeId, NodeId};
use lb_proto::{Record, WireBatch, WireTask};
use lb_workloads::ScenarioEvents;

use crate::engine::Engine;
use crate::local::{build_process, checkpoint};
use crate::spans::Spans;
use crate::world::{self, World};
use crate::{Config, PassOutput};

/// An all-gather barrier: every part deposits its record, every part gets
/// all records in rank order.
struct Gather {
    state: Mutex<GatherState>,
    cv: Condvar,
}

struct GatherState {
    slots: Vec<Option<String>>,
    deposited: usize,
    taken: usize,
}

impl Gather {
    fn new(parts: usize) -> Self {
        Gather {
            state: Mutex::new(GatherState {
                slots: vec![None; parts],
                deposited: 0,
                taken: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn exchange(&self, rank: usize, own: String) -> Vec<String> {
        let mut st = self
            .state
            .lock()
            .expect("gather lock poisoned by a panicked part");
        let parts = st.slots.len();
        // A previous exchange may still be handing out its records.
        while st.deposited == parts {
            st = self
                .cv
                .wait(st)
                .expect("gather lock poisoned by a panicked part");
        }
        st.slots[rank] = Some(own);
        st.deposited += 1;
        if st.deposited == parts {
            self.cv.notify_all();
        }
        while st.slots.iter().any(Option::is_none) {
            st = self
                .cv
                .wait(st)
                .expect("gather lock poisoned by a panicked part");
        }
        let out = st.slots.iter().flatten().cloned().collect();
        st.taken += 1;
        if st.taken == parts {
            st.slots.iter_mut().for_each(|s| *s = None);
            st.deposited = 0;
            st.taken = 0;
            self.cv.notify_all();
        }
        out
    }
}

/// One exchange call as the link saw it.
pub struct Exchange {
    pub round: usize,
    pub render_ns: u64,
    pub wait_ns: u64,
    pub parse_ns: u64,
    pub wire_bytes: u64,
    pub payload_bytes: u64,
}

struct TracedLink {
    hub: Arc<[Gather; 3]>,
    rank: usize,
    round: usize,
    calls: Vec<Exchange>,
}

fn ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

fn wire_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::federation(e.to_string())
}

impl TracedLink {
    /// Renders `own`, trades it through gather cell `cell`, parses every
    /// part's record back with `decode`.
    fn trade<T>(
        &mut self,
        cell: usize,
        own: Record,
        payload_bytes: usize,
        mut decode: impl FnMut(Record) -> Result<T, CoreError>,
    ) -> Result<Vec<T>, CoreError> {
        let t0 = Instant::now();
        let line = own.render();
        let t1 = Instant::now();
        let wire_bytes = line.len() as u64;
        let lines = self.hub[cell].exchange(self.rank, line);
        let t2 = Instant::now();
        let parsed = lines
            .iter()
            .map(|l| Record::parse(l).map_err(wire_err).and_then(&mut decode))
            .collect::<Result<Vec<T>, CoreError>>()?;
        let t3 = Instant::now();
        self.calls.push(Exchange {
            round: self.round,
            render_ns: ns(t0, t1),
            wait_ns: ns(t1, t2),
            parse_ns: ns(t2, t3),
            wire_bytes,
            payload_bytes: payload_bytes as u64,
        });
        Ok(parsed)
    }
}

fn unexpected(what: &str, got: &Record) -> CoreError {
    CoreError::federation(format!("expected {what}, got a {} record", got.kind()))
}

impl FederateLink for TracedLink {
    fn exchange_loads(&mut self, own: &[(NodeId, u64)]) -> Result<Vec<(NodeId, u64)>, CoreError> {
        let record = Record::Loads {
            rank: Some(self.rank as u64),
            entries: own.iter().map(|&(n, b)| (n as u64, b)).collect(),
        };
        let all = self.trade(0, record, std::mem::size_of_val(own), |r| match r {
            Record::Loads { entries, .. } => Ok(entries),
            other => Err(unexpected("loads", &other)),
        })?;
        Ok(all
            .into_iter()
            .flatten()
            .map(|(n, b)| (n as NodeId, b))
            .collect())
    }

    fn exchange_flows(
        &mut self,
        own: &[(EdgeId, u64, u64)],
    ) -> Result<Vec<(EdgeId, u64, u64)>, CoreError> {
        let record = Record::Flows {
            rank: Some(self.rank as u64),
            entries: own.iter().map(|&(e, f, b)| (e as u64, f, b)).collect(),
        };
        let all = self.trade(1, record, std::mem::size_of_val(own), |r| match r {
            Record::Flows { entries, .. } => Ok(entries),
            other => Err(unexpected("flows", &other)),
        })?;
        Ok(all
            .into_iter()
            .flatten()
            .map(|(e, f, b)| (e as EdgeId, f, b))
            .collect())
    }

    fn exchange_sends(&mut self, own: &SendBatch) -> Result<Vec<SendBatch>, CoreError> {
        let payload = std::mem::size_of_val(own.tasks.as_slice())
            + std::mem::size_of_val(own.dummy.as_slice())
            + std::mem::size_of_val(own.tokens.as_slice())
            + std::mem::size_of_val(own.deltas.as_slice());
        let record = Record::Sends {
            rank: self.rank as u64,
            batch: wire_batch(own),
        };
        self.trade(2, record, payload, |r| match r {
            Record::Sends { batch, .. } => Ok(core_batch(batch)),
            other => Err(unexpected("sends", &other)),
        })
    }
}

fn wire_batch(batch: &SendBatch) -> WireBatch {
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
        dummy: batch.dummy.iter().map(|&(n, a)| (n as u64, a)).collect(),
        tokens: batch
            .tokens
            .iter()
            .map(|&(n, r, d)| (n as u64, r, d))
            .collect(),
        deltas: batch.deltas.iter().map(|&(e, d)| (e as u64, d)).collect(),
    }
}

fn core_batch(batch: WireBatch) -> SendBatch {
    SendBatch {
        tasks: batch
            .tasks
            .into_iter()
            .map(|t| {
                let task = if t.dummy {
                    Task::dummy(TaskId(t.id))
                } else {
                    Task::new(TaskId(t.id), t.weight)
                };
                (t.edge as EdgeId, t.node as NodeId, task)
            })
            .collect(),
        dummy: batch
            .dummy
            .into_iter()
            .map(|(n, a)| (n as NodeId, a))
            .collect(),
        tokens: batch
            .tokens
            .into_iter()
            .map(|(n, r, d)| (n as NodeId, r, d))
            .collect(),
        deltas: batch
            .deltas
            .into_iter()
            .map(|(e, d)| (e as EdgeId, d))
            .collect(),
    }
}

/// One part's share of a sample: its owned load slices and counter
/// partials.
struct Slice {
    round: usize,
    loads: Vec<f64>,
    real: Vec<f64>,
    dummy: u64,
    arrived: u64,
    completed: u64,
}

struct PartOutput {
    spans: Spans,
    calls: Vec<Exchange>,
    slices: Vec<Slice>,
    dummy_created: u64,
    items_sent: u64,
    events: u64,
    snapshot_bytes: Vec<u64>,
    engine: String,
    loop_ms: f64,
    loop_spans: usize,
}

fn slice(engine: &Engine, plan: &FederationPlan, round: usize) -> Slice {
    let range = plan.node_range();
    Slice {
        round,
        loads: engine.loads()[range.clone()].to_vec(),
        real: engine.real_loads()[range.clone()].to_vec(),
        dummy: engine.dummy_holdings()[range].iter().sum(),
        arrived: engine.arrived_weight(),
        completed: engine.completed_weight(),
    }
}

fn part(
    cfg: &Config,
    world: &World,
    hub: Arc<[Gather; 3]>,
    rank: usize,
    origin: Instant,
) -> Result<PartOutput, String> {
    let s = &cfg.scenario;
    let label = if rank == 0 { "part0" } else { "part1" };
    let mut spans = Spans::new(origin, label);
    let process = build_process(s, Arc::clone(&world.graph), &world.speeds, &mut spans)?;
    let mut engine = spans
        .time("discrete.build", 0, None, || {
            Engine::new(s.algorithm, process, &world.initial, &world.speeds, s.seed)
        })
        .map_err(|e| e.to_string())?;
    let mut fed = FederatedExecutor::new(rank, cfg.parts, s.shards).map_err(|e| e.to_string())?;
    let plan = FederationPlan::new(&world.graph, rank, cfg.parts).map_err(|e| e.to_string())?;
    let mut link = TracedLink {
        hub,
        rank,
        round: 0,
        calls: Vec::with_capacity(3 * s.rounds),
    };
    let mut stream = ScenarioEvents::new(s, &world.speeds, world.first_task_id);
    let mut events = RoundEvents::default();
    let mut slices = vec![spans.time("metrics.sample", 0, None, || slice(&engine, &plan, 0))];
    let mut snapshot_bytes = Vec::new();
    let mut counted = 0u64;
    let path = cfg.scratch.join(format!("trace.{label}.snap"));

    let loop_start = Instant::now();
    let spans_before = spans.spans.len();
    for round in 0..s.rounds {
        let r = spans.open("round", round, None);
        spans.time("workloads.fill_round", round, Some(r), || {
            stream.fill_round(round, &mut events)
        });
        counted += (events.arrivals.len() + events.completions.len()) as u64;
        if !events.is_empty() {
            spans
                .time("discrete.apply_events", round, Some(r), || {
                    engine.apply_events_federated(&events, &mut fed)
                })
                .map_err(|e| format!("events at round {round}: {e}"))?;
        }
        link.round = round;
        spans
            .time("federate.step", round, Some(r), || {
                engine.step_federated(&mut fed, &mut link)
            })
            .map_err(|e| format!("federated round {round}: {e}"))?;
        let done = round + 1;
        if done % s.sample_every == 0 || done == s.rounds {
            slices.push(spans.time("metrics.sample", done, Some(r), || {
                slice(&engine, &plan, done)
            }));
        }
        if cfg.checkpoint_every.is_some_and(|every| done % every == 0) {
            let driver = lb_analysis::Json::Null;
            snapshot_bytes.push(checkpoint(
                &mut engine,
                s,
                driver,
                done,
                &path,
                &mut spans,
                Some(r),
            )?);
        }
        spans.close(r);
    }
    let loop_ms = loop_start.elapsed().as_secs_f64() * 1e3;
    // Each exchange record costs about what a span does.
    let loop_spans = spans.spans.len() - spans_before + link.calls.len();
    Ok(PartOutput {
        spans,
        calls: link.calls,
        slices,
        dummy_created: engine.dummy_created(),
        items_sent: engine.items_sent().unwrap_or(0),
        // Every part sees the whole batch; count it once.
        events: if rank == 0 { counted } else { 0 },
        snapshot_bytes,
        engine: engine.name().to_string(),
        loop_ms,
        loop_spans,
    })
}

pub fn run(cfg: &Config, origin: Instant) -> Result<PassOutput, String> {
    let s = &cfg.scenario;
    if !s.churn.is_empty() {
        return Err("the federated traced loop runs churn-free scenarios".into());
    }
    if cfg.parts != 2 {
        return Err("the federated traced loop runs two parts".into());
    }
    let mut spans = Spans::new(origin, "main");
    let world = world::build(s, &mut spans)?;
    let hub = Arc::new([Gather::new(2), Gather::new(2), Gather::new(2)]);
    let parts: Vec<Result<PartOutput, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                let world = &world;
                scope.spawn(move || part(cfg, world, hub, rank, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a part thread panicked".into()))
            })
            .collect()
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>, String>>()?;

    let mut out = PassOutput::new(world.graph.node_count(), world.graph.edge_count());
    let speeds = &world.speeds;
    let mut trajectory = Vec::with_capacity(parts[0].slices.len());
    for (i, first) in parts[0].slices.iter().enumerate() {
        let mut loads = Vec::with_capacity(world.graph.node_count());
        let mut real = Vec::with_capacity(world.graph.node_count());
        let (mut dummy, mut arrived, mut completed) = (0, 0, 0);
        for p in &parts {
            let sl = &p.slices[i];
            loads.extend_from_slice(&sl.loads);
            real.extend_from_slice(&sl.real);
            dummy += sl.dummy;
            arrived += sl.arrived;
            completed += sl.completed;
        }
        trajectory.push(RoundSample {
            round: first.round,
            nodes: world.graph.node_count(),
            max_min: metrics::max_min_discrepancy(&loads, speeds),
            max_avg: metrics::max_avg_discrepancy(&loads, speeds),
            real_weight: real.iter().sum(),
            dummy_load: dummy,
            arrived_weight: arrived,
            completed_weight: completed,
        });
    }
    out.dummy_created = parts.iter().map(|p| p.dummy_created).sum();
    out.items_sent = parts.iter().map(|p| p.items_sent).sum();
    out.events = parts.iter().map(|p| p.events).sum();
    out.samples = trajectory.len() as u64;
    // The parts run in parallel: the slower one sets the loop time.
    out.loop_ms = parts.iter().map(|p| p.loop_ms).fold(0.0, f64::max);
    out.loop_spans = parts.iter().map(|p| p.loop_spans).max().unwrap_or(0);
    let engine = parts[0].engine.clone();
    for p in parts {
        out.snapshot_bytes.extend(p.snapshot_bytes);
        out.exchanges.extend(p.calls);
        spans.absorb(p.spans);
    }
    let outcome = ScenarioOutcome {
        scenario: s.clone(),
        engine,
        trajectory,
        dummy_created: out.dummy_created,
        ingest: None,
    };
    out.doc = spans.time("driver.render", s.rounds, None, || {
        outcome.to_json().render_pretty()
    });
    out.spans = spans;
    Ok(out)
}
