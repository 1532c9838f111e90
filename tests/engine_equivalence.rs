//! Equivalence of the optimised engine with the seed semantics.
//!
//! The buffer-reuse kernel (`compute_flows_into`), the `TaskQueue` storage
//! (ring buffer / binary heaps) and the scratch-buffer round loop replaced
//! the seed implementation's allocate-per-round engine. These property tests
//! pin the refactor down: for the same inputs and seeds, the optimised
//! [`FlowImitation`] / [`RandomizedImitation`] must produce **bit-identical**
//! load vectors, cumulative continuous flows and dummy counts as a direct
//! reimplementation of the seed semantics (`Vec<Task>` storage, O(k)
//! reference picking, allocating kernel wrapper), across all four continuous
//! processes and all three task pickers — plus conservation-of-load
//! invariants.

use lb_bench::hotpath::SeedAlg1 as ReferenceAlg1;
use lb_core::continuous::{
    ContinuousProcess, ContinuousRunner, DimensionExchange, EdgeFlow, Fos, RandomMatching, Sos,
};
use lb_core::discrete::{DiscreteBalancer, FlowImitation, RandomizedImitation, TaskPicker};
use lb_core::{InitialLoad, Speeds, Task};
use lb_graph::{generators, AlphaScheme, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which continuous process the twin runs (constructed twice with identical
/// parameters/seeds so reference and optimised engines see the same twin).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Model {
    Fos,
    Sos,
    DimensionExchange,
    RandomMatching(u64),
}

struct BoxedProcess(Box<dyn ContinuousProcess>);

impl ContinuousProcess for BoxedProcess {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn graph(&self) -> &Graph {
        self.0.graph()
    }
    fn shared_graph(&self) -> Arc<Graph> {
        self.0.shared_graph()
    }
    fn speeds(&self) -> &[f64] {
        self.0.speeds()
    }
    fn compute_flows_into(
        &mut self,
        t: usize,
        x: &[f64],
        out: &mut [lb_core::continuous::EdgeFlow],
    ) {
        self.0.compute_flows_into(t, x, out)
    }
}

fn build_model(model: Model, graph: &Arc<Graph>, speeds: &Speeds) -> BoxedProcess {
    BoxedProcess(match model {
        Model::Fos => {
            Box::new(Fos::new(Arc::clone(graph), speeds, AlphaScheme::MaxDegreePlusOne).unwrap())
        }
        Model::Sos => Box::new(
            Sos::new(
                Arc::clone(graph),
                speeds,
                AlphaScheme::MaxDegreePlusOne,
                1.6,
            )
            .unwrap(),
        ),
        Model::DimensionExchange => {
            Box::new(DimensionExchange::with_greedy_coloring(Arc::clone(graph), speeds).unwrap())
        }
        Model::RandomMatching(seed) => {
            Box::new(RandomMatching::new(Arc::clone(graph), speeds, seed).unwrap())
        }
    })
}

/// Seed-semantics Algorithm 2: allocating twin, cloned flow snapshot, fresh
/// delivery buffers, and the same per-`(seed, round, edge)` rounding sub-RNG
/// derivation as the optimised engine (`edge_rounding_rng`), so both sides
/// make identical rounding decisions.
struct ReferenceAlg2<A: ContinuousProcess> {
    process: A,
    twin_loads: Vec<f64>,
    cumulative_flow: Vec<f64>,
    tokens: Vec<u64>,
    dummy: Vec<u64>,
    discrete_flow: Vec<i64>,
    seed: u64,
    round: usize,
    dummy_created: u64,
}

impl<A: ContinuousProcess> ReferenceAlg2<A> {
    fn new(process: A, initial: &InitialLoad, seed: u64) -> Self {
        let m = process.graph().edge_count();
        let n = process.graph().node_count();
        ReferenceAlg2 {
            twin_loads: initial.load_vector_f64(),
            cumulative_flow: vec![0.0; m],
            tokens: initial.load_vector(),
            dummy: vec![0; n],
            discrete_flow: vec![0; m],
            seed,
            round: 0,
            dummy_created: 0,
            process,
        }
    }

    fn step(&mut self) {
        let mut flows = vec![EdgeFlow::default(); self.process.graph().edge_count()];
        self.process
            .compute_flows_into(self.round, &self.twin_loads, &mut flows);
        let edges: Vec<(usize, usize)> = self.process.graph().edges().to_vec();
        for (e, &(u, v)) in edges.iter().enumerate() {
            let net = flows[e].net();
            self.twin_loads[u] -= net;
            self.twin_loads[v] += net;
            self.cumulative_flow[e] += net;
        }
        let continuous_flow = self.cumulative_flow.clone();
        let n = self.process.graph().node_count();
        let mut real_deliveries = vec![0u64; n];
        let mut dummy_deliveries = vec![0u64; n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let deficit = continuous_flow[e] - self.discrete_flow[e] as f64;
            if deficit == 0.0 {
                continue;
            }
            let (sender, receiver, magnitude, sign) = if deficit > 0.0 {
                (u, v, deficit, 1i64)
            } else {
                (v, u, -deficit, -1i64)
            };
            let floor = magnitude.floor();
            let fraction = magnitude - floor;
            let round_up = fraction > 0.0
                && lb_core::discrete::edge_rounding_rng(self.seed, self.round, e)
                    .gen_bool(fraction.min(1.0));
            let send = floor as u64 + u64::from(round_up);
            if send == 0 {
                continue;
            }
            let real = send.min(self.tokens[sender]);
            self.tokens[sender] -= real;
            let dummy = send - real;
            let from_held = dummy.min(self.dummy[sender]);
            self.dummy[sender] -= from_held;
            self.dummy_created += dummy - from_held;
            real_deliveries[receiver] += real;
            dummy_deliveries[receiver] += dummy;
            self.discrete_flow[e] += sign * send as i64;
        }
        for i in 0..n {
            self.tokens[i] += real_deliveries[i];
            self.dummy[i] += dummy_deliveries[i];
        }
        self.round += 1;
    }

    fn loads(&self) -> Vec<f64> {
        self.tokens
            .iter()
            .zip(&self.dummy)
            .map(|(&t, &d)| (t + d) as f64)
            .collect()
    }
}

const MODELS: [Model; 4] = [
    Model::Fos,
    Model::Sos,
    Model::DimensionExchange,
    Model::RandomMatching(0xFEED),
];

const PICKERS: [TaskPicker; 3] = [
    TaskPicker::Fifo,
    TaskPicker::LargestFirst,
    TaskPicker::SmallestFirst,
];

fn small_graph(case: u64) -> Arc<Graph> {
    let g = match case % 4 {
        0 => generators::hypercube(4).unwrap(),
        1 => generators::torus(4, 4).unwrap(),
        2 => generators::cycle(11).unwrap(),
        _ => {
            let mut rng = StdRng::seed_from_u64(case);
            generators::random_regular(14, 3, &mut rng).unwrap()
        }
    };
    Arc::new(g)
}

/// Weighted initial load (unit weights for `unit_only`), deterministic per
/// seed.
fn workload(n: usize, seed: u64, unit_only: bool) -> InitialLoad {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks: Vec<Vec<Task>> = Vec::with_capacity(n);
    let mut id = 0u64;
    for _ in 0..n {
        let count = rng.gen_range(0..18u32);
        let mut node_tasks = Vec::new();
        for _ in 0..count {
            let weight = if unit_only {
                1
            } else {
                rng.gen_range(1..=3u64)
            };
            node_tasks.push(Task::new(lb_core::TaskId(id), weight));
            id += 1;
        }
        tasks.push(node_tasks);
    }
    InitialLoad::from_tasks(tasks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Algorithm 1, every model × every picker: the optimised engine's load
    /// vector, twin cumulative flows, real loads and dummy count are
    /// bit-identical to the seed-semantics reference at every round.
    #[test]
    fn alg1_matches_seed_semantics(case in 0u64..1000) {
        let graph = small_graph(case);
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let initial = workload(n, case.wrapping_mul(31).wrapping_add(7), false);
        for model in MODELS {
            for picker in PICKERS {
                let optimized_process = build_model(model, &graph, &speeds);
                let reference_process = build_model(model, &graph, &speeds);
                let mut optimized =
                    FlowImitation::new(optimized_process, &initial, speeds.clone(), picker)
                        .unwrap();
                let mut reference = ReferenceAlg1::new(reference_process, &initial, picker);
                for round in 0..30 {
                    optimized.step();
                    reference.step();
                    prop_assert_eq!(
                        optimized.loads(),
                        reference.loads(),
                        "loads diverged: {:?} {:?} round {}",
                        model,
                        picker,
                        round
                    );
                    prop_assert_eq!(
                        optimized.real_loads(),
                        reference.real_loads(),
                        "real loads diverged: {:?} {:?} round {}",
                        model,
                        picker,
                        round
                    );
                    prop_assert_eq!(
                        optimized.continuous().cumulative_flows(),
                        reference.cumulative_flows(),
                        "cumulative flows diverged: {:?} {:?} round {}",
                        model,
                        picker,
                        round
                    );
                    prop_assert_eq!(optimized.dummy_created(), reference.dummy_created());
                    prop_assert_eq!(
                        optimized.items_sent(),
                        reference.items_sent(),
                        "items sent diverged: {:?} {:?} round {}",
                        model,
                        picker,
                        round
                    );
                }
            }
        }
    }

    /// Algorithm 2 (unit tokens), every model: identical trajectories for
    /// identical RNG seeds.
    #[test]
    fn alg2_matches_seed_semantics(case in 0u64..1000) {
        let graph = small_graph(case.wrapping_add(2));
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let initial = workload(n, case.wrapping_mul(17).wrapping_add(3), true);
        let rng_seed = case.wrapping_mul(101);
        for model in MODELS {
            let optimized_process = build_model(model, &graph, &speeds);
            let reference_process = build_model(model, &graph, &speeds);
            let mut optimized =
                RandomizedImitation::new(optimized_process, &initial, speeds.clone(), rng_seed)
                    .unwrap();
            let mut reference = ReferenceAlg2::new(reference_process, &initial, rng_seed);
            for round in 0..30 {
                optimized.step();
                reference.step();
                prop_assert_eq!(
                    optimized.loads(),
                    reference.loads(),
                    "loads diverged: {:?} round {}",
                    model,
                    round
                );
                prop_assert_eq!(optimized.dummy_created(), reference.dummy_created);
            }
        }
    }

    /// Conservation invariants of the optimised engine: real workload weight
    /// is exactly conserved, total load equals real plus held dummy load,
    /// and held dummy load never exceeds what the infinite source created.
    #[test]
    fn conservation_of_load_invariants(case in 0u64..1000) {
        let graph = small_graph(case.wrapping_add(1));
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let initial = workload(n, case.wrapping_mul(13).wrapping_add(5), false);
        let total_real = initial.total_weight() as f64;
        for model in MODELS {
            for picker in PICKERS {
                let process = build_model(model, &graph, &speeds);
                let mut alg1 =
                    FlowImitation::new(process, &initial, speeds.clone(), picker).unwrap();
                for _ in 0..25 {
                    alg1.step();
                    let real: f64 = alg1.real_loads().iter().sum();
                    prop_assert!((real - total_real).abs() < 1e-9);
                    let total: f64 = alg1.loads().iter().sum();
                    prop_assert!((total - real - alg1.dummy_load() as f64).abs() < 1e-9);
                    prop_assert!(alg1.dummy_load() <= alg1.dummy_created());
                }
            }
        }
    }

    /// `ContinuousRunner::step` matches a manual simulation that calls
    /// `compute_flows_into` on a second copy of the process and applies
    /// each edge's net flow itself, flow by flow and load by load.
    #[test]
    fn runner_matches_manual_flow_application(case in 0u64..1000) {
        let graph = small_graph(case.wrapping_add(3));
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let initial = workload(n, case.wrapping_mul(7).wrapping_add(11), false);
        for model in MODELS {
            let mut manual_process = build_model(model, &graph, &speeds);
            let kernel_process = build_model(model, &graph, &speeds);
            let mut runner = ContinuousRunner::new(kernel_process, initial.load_vector_f64());
            let mut x = initial.load_vector_f64();
            let mut flows = vec![EdgeFlow::default(); graph.edge_count()];
            for t in 0..20 {
                manual_process.compute_flows_into(t, &x, &mut flows);
                for (e, &(u, v)) in graph.edges().iter().enumerate() {
                    let net = flows[e].net();
                    x[u] -= net;
                    x[v] += net;
                }
                let kernel_flows = runner.step();
                prop_assert_eq!(&flows[..], kernel_flows);
                prop_assert_eq!(&x[..], runner.loads());
            }
        }
    }
}
