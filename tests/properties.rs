//! Property-based tests (proptest) for the core invariants of the
//! flow-imitation framework:
//!
//! * load conservation of the continuous and discrete processes,
//! * Observation 4: per-edge flow deviation stays below `w_max`,
//! * additivity and the terminating property of FOS (Lemma 1),
//! * the Theorem 3 discrepancy bound under the sufficient-load condition,
//! * diffusion-matrix stochasticity for arbitrary speed assignments.

use lb_analysis::artifact::unique_name;
use lb_core::continuous::{ContinuousProcess, ContinuousRunner, Fos};
use lb_core::discrete::{DiscreteBalancer, FlowImitation, RandomizedImitation, TaskPicker};
use lb_core::{metrics, InitialLoad, Speeds, Task, TaskId, TaskQueue};
use lb_graph::{generators, AlphaScheme, DiffusionMatrix, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small connected graph from a mix of families.
fn small_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (3u32..=5).prop_map(|d| generators::hypercube(d).expect("hypercube builds")),
        (3usize..=6, 3usize..=6)
            .prop_map(|(r, c)| generators::torus(r.max(2), c.max(2)).expect("torus builds")),
        (6usize..=20).prop_map(|n| generators::cycle(n).expect("cycle builds")),
        (4usize..=10).prop_map(|n| generators::complete(n).expect("complete builds")),
        (2usize..=4, 3usize..=6)
            .prop_map(|(k, c)| generators::ring_of_cliques(c, k.max(2)).expect("ring builds")),
        (10usize..=40, any::<u64>()).prop_map(|(n, seed)| {
            let n = if n % 2 == 1 { n + 1 } else { n };
            let mut rng = StdRng::seed_from_u64(seed);
            generators::random_regular(n, 3, &mut rng).expect("regular graph builds")
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The diffusion matrix is row-stochastic for every graph and speed
    /// assignment.
    #[test]
    fn diffusion_matrix_is_stochastic(graph in small_graph(), seed in any::<u64>()) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let speeds: Vec<f64> = (0..n).map(|_| {
            use rand::Rng;
            rng.gen_range(1..=4) as f64
        }).collect();
        let p = DiffusionMatrix::new(&graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        prop_assert!(p.is_stochastic(&graph, 1e-9));
    }

    /// Continuous FOS conserves total load and never produces negative load.
    #[test]
    fn continuous_fos_conserves_load(
        graph in small_graph(),
        seed in any::<u64>(),
    ) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let initial: Vec<f64> = (0..n).map(|_| {
            use rand::Rng;
            rng.gen_range(0..100) as f64
        }).collect();
        let total: f64 = initial.iter().sum();
        let speeds = Speeds::uniform(n);
        let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut runner = ContinuousRunner::new(fos, initial);
        runner.run(60);
        prop_assert!((runner.loads().iter().sum::<f64>() - total).abs() < 1e-6);
        prop_assert!(runner.no_negative_load(1e-9));
    }

    /// FOS is additive (Definition 3): flows of x' + x'' are the sums of the
    /// individual flows, for arbitrary splits.
    #[test]
    fn fos_is_additive(
        graph in small_graph(),
        seed in any::<u64>(),
    ) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let x1: Vec<f64> = (0..n).map(|_| rng.gen_range(0..50) as f64).collect();
        let x2: Vec<f64> = (0..n).map(|_| rng.gen_range(0..50) as f64).collect();
        let sum: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let speeds = Speeds::uniform(n);
        let mk = |x: Vec<f64>| {
            let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
            ContinuousRunner::new(fos, x)
        };
        let (mut a, mut b, mut c) = (mk(x1), mk(x2), mk(sum));
        for _ in 0..15 {
            let fa = a.step();
            let fb = b.step();
            let fc = c.step();
            for e in 0..graph.edge_count() {
                prop_assert!((fc[e].net() - fa[e].net() - fb[e].net()).abs() < 1e-7);
            }
        }
    }

    /// FOS is terminating (Definition 2): started balanced, no net flow ever
    /// crosses any edge.
    #[test]
    fn fos_is_terminating(graph in small_graph(), level in 1u64..20) {
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let balanced = vec![level as f64; n];
        let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut runner = ContinuousRunner::new(fos, balanced);
        for _ in 0..10 {
            let flows = runner.step();
            for f in flows {
                prop_assert!(f.net().abs() < 1e-9);
            }
        }
    }

    /// Observation 4: Algorithm 1 keeps every per-edge cumulative deviation
    /// below w_max (= 1 for tokens), for arbitrary graphs and loads.
    #[test]
    fn alg1_flow_deviation_below_wmax(
        graph in small_graph(),
        seed in any::<u64>(),
    ) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..60)).collect();
        let initial = InitialLoad::from_token_counts(counts);
        let speeds = Speeds::uniform(n);
        let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();
        for _ in 0..40 {
            alg1.step();
            prop_assert!(alg1.max_flow_deviation() < 1.0 + 1e-9);
        }
    }

    /// Conservation of real workload for both flow-imitation algorithms, with
    /// arbitrary initial token placements and speeds.
    #[test]
    fn flow_imitation_conserves_real_load(
        graph in small_graph(),
        seed in any::<u64>(),
    ) {
        let n = graph.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let counts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..40)).collect();
        let speed_values: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=3)).collect();
        let initial = InitialLoad::from_token_counts(counts);
        let total = initial.total_weight() as f64;
        let speeds = Speeds::new(speed_values).unwrap();

        let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(40);
        prop_assert!((alg1.real_loads().iter().sum::<f64>() - total).abs() < 1e-9);

        let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        let mut alg2 = RandomizedImitation::new(fos, &initial, speeds, seed).unwrap();
        alg2.run(40);
        prop_assert!((alg2.real_loads().iter().sum::<f64>() - total).abs() < 1e-9);
    }

    /// `TaskQueue` under churn: with tasks inserted mid-run (as dynamic
    /// arrivals do), every pop still matches the reference semantics of
    /// `TaskPicker::pick_reference` — including tie-breaking — and the
    /// incremental weight total never drifts, for all three policies.
    #[test]
    fn task_queue_pops_match_reference_under_churn(seed in any::<u64>()) {
        for policy in [
            TaskPicker::Fifo,
            TaskPicker::LargestFirst,
            TaskPicker::SmallestFirst,
        ] {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = TaskQueue::new(policy);
            let mut reference: Vec<Task> = Vec::new();
            let mut next_id = 0u64;
            for step in 0..300 {
                if rng.gen_bool(0.55) {
                    // Mid-run insert: a freshly arriving task with a random
                    // weight (tie-heavy on purpose: only 4 distinct values).
                    let t = Task::new(TaskId(next_id), rng.gen_range(1..=4));
                    next_id += 1;
                    queue.push(t);
                    reference.push(t);
                } else {
                    let expected = policy
                        .pick_reference(&reference)
                        .map(|i| reference.remove(i));
                    prop_assert_eq!(queue.pop(), expected, "policy {:?} step {}", policy, step);
                }
                prop_assert_eq!(
                    queue.total_weight(),
                    reference.iter().map(|t| t.weight()).sum::<u64>()
                );
                prop_assert_eq!(queue.len(), reference.len());
            }
            // Drain: the suffix order must also agree.
            while let Some(popped) = queue.pop() {
                let expected = policy
                    .pick_reference(&reference)
                    .map(|i| reference.remove(i));
                prop_assert_eq!(Some(popped), expected, "drain under policy {:?}", policy);
            }
            prop_assert!(reference.is_empty());
        }
    }

    /// Theorem 3 bound, property-style: with the d·w_max padding, after
    /// enough rounds the max-min discrepancy is at most 2·d + 2 (tokens) on
    /// every sampled graph, and no dummy tokens are created.
    #[test]
    fn alg1_theorem3_bound_random_instances(
        graph in small_graph(),
        extra in 1u64..200,
    ) {
        let n = graph.node_count();
        let d = graph.max_degree() as u64;
        let speeds = Speeds::uniform(n);
        let mut counts = vec![d; n];
        counts[0] += extra;
        let initial = InitialLoad::from_token_counts(counts);
        let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
        // Run generously past the continuous balancing time for these sizes.
        let rounds = 400 + 20 * graph.node_count();
        let mut alg1 = FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap();
        alg1.run(rounds);
        prop_assert_eq!(alg1.dummy_created(), 0);
        if alg1.continuous().is_balanced(1.0) {
            let bound = 2.0 * d as f64 + 2.0;
            let max_min = metrics::max_min_discrepancy(&alg1.loads(), &speeds);
            prop_assert!(max_min <= bound + 1e-9, "{} > {}", max_min, bound);
        }
    }
}

/// The continuous twin inside Algorithm 1 really is the same process as a
/// stand-alone continuous runner (spot check, not a proptest: exact equality
/// of trajectories).
#[test]
fn twin_matches_standalone_continuous_run() {
    let graph = generators::hypercube(4).unwrap();
    let n = graph.node_count();
    let speeds = Speeds::uniform(n);
    let mut counts = vec![4u64; n];
    counts[0] += 100;
    let initial = InitialLoad::from_token_counts(counts);

    let fos = Fos::new(graph.clone(), &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
    let mut standalone = ContinuousRunner::new(fos, initial.load_vector_f64());
    let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne).unwrap();
    let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo).unwrap();

    for _ in 0..50 {
        standalone.step();
        alg1.step();
        for (a, b) in standalone.loads().iter().zip(alg1.continuous().loads()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
    assert_eq!(standalone.process().name(), "fos");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot round-trip at the driver level: checkpoint a dynamic run at
    /// EVERY round (cadence 1; the rotating file is copied aside between
    /// rounds), then capture → restore → run-to-end must reproduce the full
    /// result document — trajectory included — from every checkpoint round,
    /// at shard counts 1, 2 and 7, for any seed and engine combo.
    #[test]
    fn resume_from_every_checkpoint_round_is_trajectory_identical(
        seed in any::<u64>(),
        alg2 in any::<bool>(),
        sos in any::<bool>(),
    ) {
        use lb_bench::dynamic::Session;
        use lb_core::snapshot::{self, Snapshot};
        use lb_workloads::{
            AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec,
            Scenario, ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec,
        };

        let rounds = 10usize;
        let scenario = Scenario {
            name: "resume_property".into(),
            seed,
            rounds,
            sample_every: 1,
            algorithm: if alg2 { AlgorithmSpec::Alg2 } else { AlgorithmSpec::Alg1 },
            model: if sos { ModelSpec::Sos } else { ModelSpec::Fos },
            topology: TopologySpec { family: "torus".into(), target_n: 16 },
            speeds: SpeedSpec::Uniform,
            initial: InitialSpec {
                distribution: TokenDistribution::SingleSource { source: 0 },
                tokens_per_node: 4,
                pad: PadSpec::Degree,
            },
            arrivals: ArrivalSpec::Poisson { rate_per_node: 0.5, max_weight: 1 },
            completions: ServiceSpec::Uniform { weight_per_speed: 1 },
            churn: vec![ChurnEvent { round: 5, kind: ChurnKind::Rewire { seed: 3 } }],
            shards: 1,
            federation: 1,
        };

        let rotating = std::env::temp_dir().join(format!(
            "{}.jsonl",
            unique_name(&format!("lb_property_resume_{seed:x}_{alg2}_{sos}"))
        ));
        // The sample callback for round r fires before the checkpoint write
        // at r, so the rotating file it sees holds round r-1: copying it at
        // rounds 2..=R, plus the final file (round R), yields a snapshot of
        // every round 1..=R from one single run.
        let mut copies: Vec<Snapshot> = Vec::new();
        let reference = Session::from_scenario(&scenario)
            .checkpoint(rotating.clone(), 1)
            .run(|sample| {
                if sample.round >= 2 {
                    copies.push(snapshot::load(&rotating).expect("rotating checkpoint"));
                }
            })
            .unwrap();
        copies.push(snapshot::load(&rotating).expect("final checkpoint"));
        std::fs::remove_file(&rotating).ok();
        let doc = reference.to_json().render_pretty();

        let captured: Vec<u64> = copies.iter().map(|s| s.round).collect();
        prop_assert_eq!(captured, (1..=rounds as u64).collect::<Vec<_>>());
        for snap in copies {
            let round = snap.round;
            for shards in [1usize, 2, 7] {
                let resumed = Session::from_snapshot(snap.clone())
                    .shards(shards)
                    .run(|_| {})
                    .unwrap();
                prop_assert_eq!(
                    resumed.to_json().render_pretty(),
                    doc.clone(),
                    "resume at round {} with {} shard(s)",
                    round,
                    shards
                );
            }
        }
    }

    /// Shard-count invariance: for any graph, workload and seed, running the
    /// engine with 1, 2 or 7 shards produces exactly the same loads as the
    /// sequential engine at every round — sharding trades wall-clock time
    /// only, never results.
    #[test]
    fn shard_count_never_changes_the_trajectory(graph in small_graph(), seed in any::<u64>()) {
        use lb_core::ShardedExecutor;
        let graph = std::sync::Arc::new(graph);
        let n = graph.node_count();
        let speeds = Speeds::uniform(n);
        let mut counts = vec![3u64; n];
        counts[seed as usize % n] += 8 * n as u64;
        let initial = InitialLoad::from_token_counts(counts);

        let mk_alg1 = || {
            let fos = Fos::new(
                std::sync::Arc::clone(&graph),
                &speeds,
                AlphaScheme::MaxDegreePlusOne,
            )
            .unwrap();
            FlowImitation::new(fos, &initial, speeds.clone(), TaskPicker::Fifo).unwrap()
        };
        let mk_alg2 = || {
            let fos = Fos::new(
                std::sync::Arc::clone(&graph),
                &speeds,
                AlphaScheme::MaxDegreePlusOne,
            )
            .unwrap();
            RandomizedImitation::new(fos, &initial, speeds.clone(), seed).unwrap()
        };

        let mut seq1 = mk_alg1();
        let mut seq2 = mk_alg2();
        let mut sharded1: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&s| (mk_alg1(), ShardedExecutor::new(s)))
            .collect();
        let mut sharded2: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&s| (mk_alg2(), ShardedExecutor::new(s)))
            .collect();
        for round in 0..40 {
            seq1.step();
            seq2.step();
            for (engine, exec) in &mut sharded1 {
                engine.step_sharded(exec);
                prop_assert_eq!(
                    seq1.loads(),
                    engine.loads(),
                    "alg1 shards={} round {}",
                    exec.shard_count(),
                    round
                );
            }
            for (engine, exec) in &mut sharded2 {
                engine.step_sharded(exec);
                prop_assert_eq!(
                    seq2.loads(),
                    engine.loads(),
                    "alg2 shards={} round {}",
                    exec.shard_count(),
                    round
                );
            }
        }
    }
}
