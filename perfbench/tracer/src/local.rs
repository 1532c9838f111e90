//! The in-process traced loop: the sequential or sharded executor, fed
//! inline (`ScenarioEvents::fill_round`) or through the ingest channel (a
//! producer thread behind `IngestSession`), with churn, sampling and
//! checkpoints at the scenario's cadence.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lb_bench::dynamic::{ScenarioOutcome, DEFAULT_CHANNEL_CAPACITY};
use lb_core::discrete::RoundEvents;
use lb_core::ingest::{self, IngestSession};
use lb_core::snapshot::{self, Snapshot};
use lb_core::{ShardedExecutor, Speeds};
use lb_workloads::{ModelSpec, Scenario, ScenarioEvents};

use crate::engine::{Engine, Process, Twin};
use crate::spans::Spans;
use crate::world::{self, sample_of};
use crate::{Config, PassOutput};

/// Where the engine thread gets each round's batch.
enum Source {
    Inline(ScenarioEvents),
    Channel {
        session: IngestSession,
        producer: std::thread::JoinHandle<Spans>,
    },
}

/// Builds the scenario's continuous process; SOS's build is the `β`
/// estimate, so it is the `continuous.beta` span.
pub fn build_process(
    s: &Scenario,
    graph: Arc<lb_graph::Graph>,
    speeds: &Speeds,
    spans: &mut Spans,
) -> Result<Process, String> {
    let name = match s.model {
        ModelSpec::Fos => "continuous.build",
        ModelSpec::Sos => "continuous.beta",
    };
    spans
        .time(name, 0, None, || Process::build(s.model, graph, speeds))
        .map_err(|e| e.to_string())
}

/// Captures, renders and publishes one checkpoint the way `lb run` does,
/// then reads it back and restores it into the engine (measurement only:
/// restoring the state just captured leaves the run unchanged).
pub fn checkpoint(
    engine: &mut Engine,
    s: &Scenario,
    driver: lb_analysis::Json,
    done: usize,
    path: &Path,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<u64, String> {
    let state = spans.time("snapshot.capture", done, parent, || engine.capture());
    let snap = Snapshot {
        scenario: s.to_json(),
        driver,
        round: done as u64,
        engine: state,
    };
    let text = spans.time("snapshot.render", done, parent, || snapshot::render(&snap));
    spans
        .time("snapshot.write", done, parent, || {
            lb_analysis::write_bytes_atomic(path, text.as_bytes())
        })
        .map_err(|e| format!("writing checkpoint: {e}"))?;
    let parsed = spans
        .time("snapshot.parse", done, parent, || {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            snapshot::parse(&text).map_err(|e| e.to_string())
        })
        .map_err(|e| format!("reading checkpoint back: {e}"))?;
    spans
        .time("snapshot.restore", done, parent, || {
            engine.restore(&parsed.engine)
        })
        .map_err(|e| format!("restoring checkpoint: {e}"))?;
    Ok(text.len() as u64)
}

fn spawn_producer(
    mut stream: ScenarioEvents,
    schedule: Vec<(usize, Speeds)>,
    rounds: usize,
    origin: Instant,
) -> (IngestSession, std::thread::JoinHandle<Spans>) {
    let (mut tx, rx) = ingest::bounded(DEFAULT_CHANNEL_CAPACITY);
    let handle = std::thread::spawn(move || {
        let mut spans = Spans::new(origin, "producer");
        let mut schedule = schedule.into_iter().peekable();
        let mut spare: Option<RoundEvents> = None;
        for round in 0..rounds {
            while let Some((_, speeds)) = schedule.next_if(|(r, _)| *r == round) {
                stream.set_topology(&speeds);
            }
            let mut batch = spare.take().unwrap_or_else(|| tx.buffer());
            spans.time("workloads.fill_round", round, None, || {
                stream.fill_round(round, &mut batch)
            });
            if batch.is_empty() {
                spare = Some(batch);
            } else if spans
                .time("ingest.send", round, None, || tx.send(round as u64, batch))
                .is_err()
            {
                break;
            }
        }
        spans
    });
    (IngestSession::new(rx), handle)
}

/// Sum of |Δ| between two discrete-flow ledgers: the items Algorithm 2 sent
/// in one round (each edge sends one way per round).
fn ledger_moves(now: &[i64], before: &[i64]) -> u64 {
    now.iter().zip(before).map(|(a, b)| a.abs_diff(*b)).sum()
}

pub fn run(cfg: &Config, origin: Instant) -> Result<PassOutput, String> {
    let s = &cfg.scenario;
    let mut spans = Spans::new(origin, "engine");
    let world = world::build(s, &mut spans)?;
    let schedule = world::churn_schedule(s, &world, &mut spans)?;
    let process = build_process(s, Arc::clone(&world.graph), &world.speeds, &mut spans)?;
    // With shards, the engine under test steps sharded and a sequential
    // reference engine runs in lockstep: it supplies the `discrete.step`
    // base of `shard.speedup` and must stay bit-identical.
    let mut reference = if cfg.shards > 1 {
        let p = process.clone();
        Some(
            Engine::new(s.algorithm, p, &world.initial, &world.speeds, s.seed)
                .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let mut engine = spans
        .time("discrete.build", 0, None, || {
            Engine::new(s.algorithm, process, &world.initial, &world.speeds, s.seed)
        })
        .map_err(|e| e.to_string())?;
    let mut exec = (cfg.shards > 1).then(|| ShardedExecutor::new(cfg.shards));
    let twin_of = |e: &Engine| {
        let (p, loads) = e.twin();
        Twin::new(p, loads)
    };
    let mut twin = twin_of(&engine);

    let stream = ScenarioEvents::new(s, &world.speeds, world.first_task_id);
    let mut source = if cfg.channel {
        let speeds = schedule
            .iter()
            .map(|st| (st.round, st.speeds.clone()))
            .collect();
        let (session, producer) = spawn_producer(stream, speeds, s.rounds, origin);
        Source::Channel { session, producer }
    } else {
        Source::Inline(stream)
    };

    let ckpt_path = cfg.scratch.join("trace.snap");
    let mut out = PassOutput::new(world.graph.node_count(), world.graph.edge_count());
    let mut ledger = if engine.items_sent().is_none() {
        Some(vec![0i64; world.graph.edge_count()])
    } else {
        None
    };
    let mut events = RoundEvents::default();
    let mut trajectory = vec![spans.time("metrics.sample", 0, None, || sample_of(&engine, 0))];
    let mut churn = schedule.into_iter().peekable();

    let loop_start = Instant::now();
    let spans_before = spans.spans.len();
    for round in 0..s.rounds {
        let r = spans.open("round", round, None);
        while let Some(step) = churn.next_if(|st| st.round == round) {
            let process = match &step.delta {
                Some(d) => spans.time("continuous.patch", round, Some(r), || {
                    engine.patched(Arc::clone(&step.graph), d)
                }),
                None => spans.time("continuous.rebuild", round, Some(r), || {
                    Process::build(s.model, Arc::clone(&step.graph), &step.speeds)
                }),
            }
            .map_err(|e| format!("churn at round {round}: {e}"))?;
            if let Some(reference) = reference.as_mut() {
                spans
                    .time("reference.replace_topology", round, Some(r), || {
                        reference.replace_topology(process.clone())
                    })
                    .map_err(|e| e.to_string())?;
            }
            spans
                .time("discrete.replace_topology", round, Some(r), || {
                    engine.replace_topology(process)
                })
                .map_err(|e| format!("churn at round {round}: {e}"))?;
            twin = spans.time("twin.rebuild", round, Some(r), || twin_of(&engine));
            if let Source::Inline(stream) = &mut source {
                stream.set_topology(engine.speeds());
            }
            if let Some(ledger) = ledger.as_mut() {
                *ledger = vec![0; step.graph.edge_count()];
            }
        }
        match &mut source {
            Source::Inline(stream) => spans.time("workloads.fill_round", round, Some(r), || {
                stream.fill_round(round, &mut events)
            }),
            Source::Channel { session, .. } => spans
                .time("ingest.wait", round, Some(r), || {
                    session.fill_round(round as u64, &mut events)
                })
                .map_err(|e| format!("ingest at round {round}: {e}"))?,
        }
        out.events += (events.arrivals.len() + events.completions.len()) as u64;
        if !events.is_empty() {
            spans
                .time("discrete.apply_events", round, Some(r), || {
                    engine.apply_events(&events)
                })
                .map_err(|e| format!("events at round {round}: {e}"))?;
            if let Some(reference) = reference.as_mut() {
                spans
                    .time("reference.apply_events", round, Some(r), || {
                        reference.apply_events(&events)
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        spans.time("continuous.step", round, Some(r), || twin.step());
        match (exec.as_mut(), reference.as_mut()) {
            (Some(exec), Some(reference)) => {
                spans.time("shard.step", round, Some(r), || engine.step_sharded(exec));
                spans.time("discrete.step", round, Some(r), || reference.step());
            }
            _ => spans.time("discrete.step", round, Some(r), || engine.step()),
        }
        if let Some(before) = ledger.as_mut() {
            let now = spans.time("discrete.ledger_read", round, Some(r), || {
                engine.discrete_flow()
            });
            out.items_sent += ledger_moves(&now, before);
            *before = now;
        }
        let done = round + 1;
        if done % s.sample_every == 0 || done == s.rounds {
            let sample = spans.time("metrics.sample", done, Some(r), || sample_of(&engine, done));
            if let Some(reference) = reference.as_ref() {
                let check = spans.time("reference.sample", done, Some(r), || {
                    sample_of(reference, done)
                });
                if check != sample {
                    return Err(format!(
                        "sharded and sequential engines diverged at round {done}"
                    ));
                }
            }
            trajectory.push(sample);
        }
        if cfg.checkpoint_every.is_some_and(|every| done % every == 0) {
            let driver = world::driver_payload(engine.name(), &trajectory);
            let bytes = checkpoint(
                &mut engine,
                s,
                driver,
                done,
                &ckpt_path,
                &mut spans,
                Some(r),
            )?;
            out.snapshot_bytes.push(bytes);
        }
        spans.close(r);
    }
    out.loop_ms = loop_start.elapsed().as_secs_f64() * 1e3;
    out.loop_spans = spans.spans.len() - spans_before;

    if let Source::Channel { session, producer } = source {
        out.ingest = Some(session.metrics());
        drop(session);
        let producer_spans = producer
            .join()
            .map_err(|_| "the ingest producer thread panicked".to_string())?;
        spans.absorb(producer_spans);
    }
    if let Some(reference) = reference.as_ref() {
        if reference.dummy_created() != engine.dummy_created() {
            return Err("sharded and sequential engines drew different dummy load".into());
        }
    }
    out.items_sent += engine.items_sent().unwrap_or(0);
    out.dummy_created = engine.dummy_created();
    out.samples = trajectory.len() as u64;
    let outcome = ScenarioOutcome {
        scenario: s.clone(),
        engine: engine.name().to_string(),
        trajectory,
        dummy_created: engine.dummy_created(),
        ingest: None,
    };
    out.doc = spans.time("driver.render", s.rounds, None, || {
        outcome.to_json().render_pretty()
    });
    out.spans = spans;
    Ok(out)
}
