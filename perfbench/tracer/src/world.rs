//! The world a scenario derives before round 0, re-derived from public calls
//! (`GraphClass::build`, the speed and token models, `pad_for_min_load`) the
//! way `lb_bench::dynamic` derives it. The traced run proves the derivation
//! matches by reproducing the untraced result document byte for byte.

use std::sync::Arc;

use lb_analysis::Json;
use lb_bench::dynamic::{family_class, RoundSample};
use lb_bench::harness::GraphClass;
use lb_core::{metrics, InitialLoad, Speeds};
use lb_graph::{Graph, GraphDelta};
use lb_workloads::{pad_for_min_load, ChurnKind, PadSpec, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::Engine;
use crate::spans::Spans;

/// Sub-seed offsets of `lb_bench::dynamic`'s world derivation.
const GRAPH_SEED_OFFSET: u64 = 0x6EA9;
const SPEEDS_SEED_OFFSET: u64 = 0x0059_EED5;
const INITIAL_SEED_OFFSET: u64 = 0x1417;

pub struct World {
    pub class: GraphClass,
    pub graph: Arc<Graph>,
    pub speeds: Speeds,
    pub initial: InitialLoad,
    pub first_task_id: u64,
}

/// Builds the world; the graph build is the `graph.build` span.
pub fn build(s: &Scenario, spans: &mut Spans) -> Result<World, String> {
    let class = family_class(&s.topology.family)?;
    let graph: Arc<Graph> = spans
        .time("graph.build", 0, None, || {
            class.build(s.topology.target_n, s.seed.wrapping_add(GRAPH_SEED_OFFSET))
        })
        .map_err(|e| format!("building {}: {e}", s.topology.family))?
        .into();
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(s.seed.wrapping_add(SPEEDS_SEED_OFFSET));
    let speeds = s.speeds.to_model().generate(n, &mut rng);
    let mut rng = StdRng::seed_from_u64(s.seed.wrapping_add(INITIAL_SEED_OFFSET));
    let total = s.initial.tokens_per_node * n as u64;
    let unpadded = s.initial.distribution.generate(n, total, &mut rng);
    let pad = match s.initial.pad {
        PadSpec::Tokens(t) => t,
        PadSpec::Degree => {
            graph.max_degree() as u64 * unpadded.max_weight().max(s.arrivals.max_weight())
        }
    };
    let initial = pad_for_min_load(&unpadded, &speeds, pad);
    let first_task_id = initial.task_count() as u64;
    Ok(World {
        class,
        graph,
        speeds,
        initial,
        first_task_id,
    })
}

/// One precomputed churn event: the topology after it, the carried speeds,
/// and the edge delta from the previous epoch for same-size changes.
pub struct ChurnStep {
    pub round: usize,
    pub graph: Arc<Graph>,
    pub speeds: Speeds,
    pub delta: Option<GraphDelta>,
}

/// Precomputes every churn event up front, as `lb run` does. The whole
/// precompute is the `graph.churn_precompute` span; each event's edge
/// difference (`delta_to`, or `GraphDelta::new` plus `apply_delta`) is a
/// `graph.delta` span.
pub fn churn_schedule(
    s: &Scenario,
    world: &World,
    spans: &mut Spans,
) -> Result<Vec<ChurnStep>, String> {
    let all = spans.open("graph.churn_precompute", 0, None);
    let mut out = Vec::with_capacity(s.churn.len());
    let mut speeds = world.speeds.clone();
    let mut current = Arc::clone(&world.graph);
    for event in &s.churn {
        let fail = |e: lb_graph::GraphError| format!("churn at round {}: {e}", event.round);
        let (graph, delta): (Arc<Graph>, Option<GraphDelta>) = match &event.kind {
            ChurnKind::Rewire { seed } => {
                let graph: Arc<Graph> =
                    world.class.build(speeds.len(), *seed).map_err(fail)?.into();
                let delta = spans
                    .time("graph.delta", event.round, Some(all), || {
                        current.delta_to(&graph)
                    })
                    .map_err(fail)?;
                (graph, Some(delta))
            }
            ChurnKind::Resize { target_n, seed } => (
                world.class.build(*target_n, *seed).map_err(fail)?.into(),
                None,
            ),
            ChurnKind::Delta { add, remove } => {
                let (graph, delta) = spans
                    .time("graph.delta", event.round, Some(all), || {
                        let delta = GraphDelta::new(
                            current.node_count(),
                            add.iter().copied(),
                            remove.iter().copied(),
                        )?;
                        Ok((current.apply_delta(&delta)?, delta))
                    })
                    .map_err(fail)?;
                (Arc::new(graph), Some(delta))
            }
        };
        let mut values = speeds.as_slice().to_vec();
        values.resize(graph.node_count(), 1);
        speeds = Speeds::new(values)?;
        current = Arc::clone(&graph);
        out.push(ChurnStep {
            round: event.round,
            graph,
            speeds: speeds.clone(),
            delta,
        });
    }
    spans.close(all);
    Ok(out)
}

/// One trajectory point, computed exactly as `lb run` computes it.
pub fn sample_of(engine: &Engine, round: usize) -> RoundSample {
    let loads = engine.loads();
    let speeds = engine.speeds();
    RoundSample {
        round,
        nodes: engine.node_count(),
        max_min: metrics::max_min_discrepancy(&loads, speeds),
        max_avg: metrics::max_avg_discrepancy(&loads, speeds),
        real_weight: engine.real_loads().iter().sum(),
        dummy_load: engine.dummy_load(),
        arrived_weight: engine.arrived_weight(),
        completed_weight: engine.completed_weight(),
    }
}

/// The snapshot's `driver` payload (engine name plus the trajectory so far,
/// floats as bit patterns), in the layout `lb run` writes.
pub fn driver_payload(engine: &str, trajectory: &[RoundSample]) -> Json {
    let record = |s: &RoundSample| {
        Json::Arr(vec![
            Json::from(s.round),
            Json::from(s.nodes),
            Json::from(s.max_min.to_bits()),
            Json::from(s.max_avg.to_bits()),
            Json::from(s.real_weight.to_bits()),
            Json::from(s.dummy_load),
            Json::from(s.arrived_weight),
            Json::from(s.completed_weight),
        ])
    };
    Json::obj([
        ("engine", Json::from(engine)),
        (
            "trajectory",
            Json::Arr(trajectory.iter().map(record).collect()),
        ),
    ])
}
