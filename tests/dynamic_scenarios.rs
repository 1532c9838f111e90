//! End-to-end determinism of the dynamic scenario subsystem: the same
//! scenario JSON and seed must produce **bit-identical** trajectories and
//! result documents — the reproducibility contract of `lb run` (acceptance
//! criterion of the dynamic-workload PR).

use lb_bench::dynamic::{Producer, RoundSample, Session};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec,
};

fn example_path() -> String {
    format!(
        "{}/../../examples/scenario_poisson.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn load_example() -> Scenario {
    let text = std::fs::read_to_string(example_path()).expect("example scenario file exists");
    Scenario::parse(&text).expect("example scenario parses")
}

#[test]
fn example_scenario_round_trips_through_json() {
    let scenario = load_example();
    let rendered = scenario.render_pretty();
    let reparsed = Scenario::parse(&rendered).expect("re-parses");
    assert_eq!(reparsed, scenario);
}

#[test]
fn example_scenario_is_bit_identical_across_runs() {
    // `lb run examples/scenario_poisson.json --seed 42` twice: the rendered
    // result documents must agree byte for byte.
    let mut scenario = load_example();
    scenario.seed = 42;
    let a = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    let b = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    assert_eq!(
        a.to_json().render_pretty(),
        b.to_json().render_pretty(),
        "result JSON must be bit-identical for a fixed seed"
    );
    // And it is a real dynamic run: work arrived and completed.
    assert!(a.last().arrived_weight > 0);
    assert!(a.last().completed_weight > 0);
    assert_eq!(a.last().round, scenario.rounds);
}

#[test]
fn trajectories_differ_across_seeds() {
    let mut scenario = load_example();
    scenario.seed = 1;
    let a = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    scenario.seed = 2;
    let b = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    assert_ne!(a.trajectory, b.trajectory);
}

fn churny_scenario(algorithm: AlgorithmSpec) -> Scenario {
    Scenario {
        name: "churny".into(),
        seed: 11,
        rounds: 120,
        sample_every: 15,
        algorithm,
        model: ModelSpec::Fos,
        topology: TopologySpec {
            family: "expander".into(),
            target_n: 64,
        },
        speeds: SpeedSpec::Uniform,
        initial: InitialSpec {
            distribution: TokenDistribution::UniformRandom,
            tokens_per_node: 6,
            pad: PadSpec::Degree,
        },
        arrivals: ArrivalSpec::Bursty {
            period: 25,
            burst: 40,
            max_weight: 1,
        },
        completions: ServiceSpec::Uniform {
            weight_per_speed: 1,
        },
        churn: vec![
            ChurnEvent {
                round: 40,
                kind: ChurnKind::Rewire { seed: 3 },
            },
            ChurnEvent {
                round: 80,
                kind: ChurnKind::Resize {
                    target_n: 48,
                    seed: 4,
                },
            },
        ],
        shards: 1,
        federation: 1,
    }
}

#[test]
fn churn_scenarios_are_deterministic_for_both_algorithms() {
    for algorithm in [AlgorithmSpec::Alg1, AlgorithmSpec::Alg2] {
        let scenario = churny_scenario(algorithm);
        let a = Session::from_scenario(&scenario)
            .run(|_| Ok(()))
            .expect("runs");
        let b = Session::from_scenario(&scenario)
            .run(|_| Ok(()))
            .expect("runs");
        assert_eq!(a.trajectory, b.trajectory, "{algorithm:?}");
        // The resize took effect.
        assert_eq!(a.last().nodes, 48, "{algorithm:?}");
    }
}

#[test]
fn streamed_samples_match_the_recorded_trajectory() {
    let mut scenario = load_example();
    scenario.seed = 42;
    let mut streamed: Vec<RoundSample> = Vec::new();
    let outcome = Session::from_scenario(&scenario)
        .run(|s| {
            streamed.push(s.clone());
            Ok(())
        })
        .expect("runs");
    assert_eq!(streamed, outcome.trajectory);
    // Samples: round 0, every 24 rounds, and the final round.
    assert_eq!(streamed[0].round, 0);
    assert_eq!(streamed.last().unwrap().round, scenario.rounds);
}

#[test]
fn sustained_load_keeps_discrepancy_in_the_od_regime() {
    // The headline property the dynamic workload class demonstrates: with
    // arrivals balanced by service capacity, the discrepancy does not drift
    // upward over time even though the workload never drains.
    let mut scenario = load_example();
    scenario.seed = 42;
    let outcome = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    let d = 8.0; // hypercube(256) has degree 8
    for sample in &outcome.trajectory {
        if sample.round >= scenario.rounds / 2 {
            assert!(
                sample.max_min <= 8.0 * d,
                "round {}: max_min {} left the O(d) regime",
                sample.round,
                sample.max_min
            );
        }
    }
}

/// The first pair `(u, v)`, `u < v`, with neither endpoint in `skip` that
/// `graph` lacks.
fn absent_edge(graph: &lb_graph::Graph, skip: &[usize]) -> (usize, usize) {
    let n = graph.node_count();
    (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .find(|&(u, v)| !graph.has_edge(u, v) && !skip.contains(&u) && !skip.contains(&v))
        .expect("the graph is not complete")
}

/// rewire → delta → delta → rewire → resize → delta on `family`. Each
/// delta is valid on the graph it patches: the test builds the same
/// family graphs the driver does (a rewire builds `class.build(n, seed)`).
fn epoch_cycle_scenario(family: &str, algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
    use lb_bench::dynamic::family_class;
    use lb_graph::GraphDelta;

    let class = family_class(family).expect("known family");
    let rewired = class.build(32, 21).expect("builds");
    let first = (rewired.edges()[0], absent_edge(&rewired, &[]));
    let patched = rewired
        .apply_delta(&GraphDelta::new(32, [first.1], [first.0]).expect("valid"))
        .expect("applies");
    let second = (
        patched.edges()[patched.edge_count() - 1],
        absent_edge(&patched, &[first.1 .0]),
    );
    let resized = class.build(16, 23).expect("builds");
    let last = (resized.edges()[2], absent_edge(&resized, &[]));
    let delta = |round, (remove, add): ((usize, usize), (usize, usize))| ChurnEvent {
        round,
        kind: ChurnKind::Delta {
            add: vec![add],
            remove: vec![remove],
        },
    };
    Scenario {
        name: format!("epoch_cycle_{family}"),
        seed: 17,
        rounds: 14,
        sample_every: 2,
        algorithm,
        model,
        topology: TopologySpec {
            family: family.into(),
            target_n: 32,
        },
        speeds: SpeedSpec::PowersOfTwo { classes: 3 },
        initial: InitialSpec {
            distribution: TokenDistribution::UniformRandom,
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
        churn: vec![
            ChurnEvent {
                round: 3,
                kind: ChurnKind::Rewire { seed: 21 },
            },
            delta(5, first),
            delta(6, second),
            ChurnEvent {
                round: 8,
                kind: ChurnKind::Rewire { seed: 22 },
            },
            ChurnEvent {
                round: 10,
                kind: ChurnKind::Resize {
                    target_n: 16,
                    seed: 23,
                },
            },
            delta(12, last),
        ],
        shards: 1,
        federation: 1,
    }
}

/// Checkpoints `scenario` at every round and resumes each snapshot at 1
/// and 3 shards: every resumed document must equal the uninterrupted run.
fn assert_resumes_at_every_round(tag: &str, scenario: &Scenario) {
    let sync = Producer::Scenario;
    assert_resumes_at_every_round_under(tag, scenario, &[(1, sync), (3, sync)]);
}

/// Checkpoints `scenario` at every round and resumes each snapshot at each
/// `(shards, producer)`: every resumed document must equal the
/// uninterrupted run's, and so must the engine state every resumed run ends
/// on. A result document shows too little of the twin to tell a SOS β that
/// is off in its last bits, so each resumed run also checkpoints at its
/// final round and that file must equal the uninterrupted run's final
/// checkpoint byte for byte.
fn assert_resumes_at_every_round_under(
    tag: &str,
    scenario: &Scenario,
    resumes: &[(usize, Producer)],
) {
    use lb_analysis::artifact::unique_name;
    use lb_core::snapshot;

    let temp = |what: &str| {
        let name = unique_name(&format!("lb_every_round_{}_{what}", scenario.name));
        std::env::temp_dir().join(format!("{name}.jsonl"))
    };
    let rotating = temp("run");
    // Checkpointing every round and copying the rotating file aside at each
    // sample (which precedes that round's write) yields a snapshot of every
    // round from one run.
    let mut scenario_every_round = scenario.clone();
    scenario_every_round.sample_every = 1;
    let mut captures: Vec<String> = Vec::new();
    Session::from_scenario(&scenario_every_round)
        .checkpoint(rotating.clone(), 1)
        .run(|sample| {
            if sample.round >= 2 {
                captures.push(std::fs::read_to_string(&rotating).expect("rotating checkpoint"));
            }
            Ok(())
        })
        .expect("runs");
    let final_state = std::fs::read_to_string(&rotating).expect("final checkpoint");
    captures.push(final_state.clone());
    std::fs::remove_file(&rotating).ok();
    let reference = Session::from_scenario(&scenario_every_round)
        .run(|_| Ok(()))
        .expect("runs")
        .to_json()
        .render_pretty();
    assert_eq!(captures.len(), scenario.rounds, "{tag}");
    for text in captures {
        let snap = snapshot::parse(&text).expect("parses");
        let round = snap.round;
        for &(shards, producer) in resumes {
            let resumed_path = temp("resumed");
            let resumed = Session::from_snapshot(snap.clone())
                .shards(shards)
                .producer(producer)
                .checkpoint(resumed_path.clone(), scenario.rounds)
                .run(|_| Ok(()))
                .unwrap_or_else(|err| panic!("{tag}: resume at {round}: {err}"));
            let what =
                format!("{tag}: resume at round {round} with {shards} shard(s), {producer:?}");
            assert_eq!(resumed.to_json().render_pretty(), reference, "{what}");
            // A capture at the last round is itself the final state, and
            // its resume has no round left to checkpoint.
            if round < scenario.rounds as u64 {
                let state = std::fs::read_to_string(&resumed_path).expect("final checkpoint");
                std::fs::remove_file(&resumed_path).ok();
                assert!(state == final_state, "{what}: final states differ");
            }
        }
    }
}

#[test]
fn resume_at_every_round_crosses_every_churn_epoch() {
    // Resume seeks the epoch of its capture round: it builds the last
    // rewire or resize at or before it, then applies the deltas after that
    // one. A seed-independent family (hypercube) reuses the graph it holds;
    // a seeded one (expander) builds.
    for family in ["hypercube", "expander"] {
        for (algorithm, model) in [
            (AlgorithmSpec::Alg1, ModelSpec::Fos),
            (AlgorithmSpec::Alg2, ModelSpec::Sos),
        ] {
            let tag = format!("{family}/{algorithm:?}/{model:?}");
            let scenario = epoch_cycle_scenario(family, algorithm, model);
            assert_eq!(
                Session::from_scenario(&scenario)
                    .run(|_| Ok(()))
                    .expect("runs")
                    .last()
                    .nodes,
                16,
                "{tag}: the resize took effect"
            );
            assert_resumes_at_every_round(&tag, &scenario);
        }
    }
}

/// On the n = 32 hypercube with powers-of-two speeds: a delta and the
/// rewire that reverts it, a resize to half the size and back (the carried
/// speeds are the world's first half, then unit speeds), and again a delta
/// and its reverting rewire.
fn resize_back_scenario(algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
    use lb_bench::dynamic::family_class;

    let cube = family_class("hypercube")
        .expect("known family")
        .build(32, 0)
        .expect("builds");
    let swap = || ChurnKind::Delta {
        add: vec![absent_edge(&cube, &[])],
        remove: vec![cube.edges()[0]],
    };
    let event = |round, kind| ChurnEvent { round, kind };
    let resize = |target_n, seed| ChurnKind::Resize { target_n, seed };
    Scenario {
        name: "resize_back_hypercube".into(),
        seed: 29,
        rounds: 16,
        sample_every: 2,
        algorithm,
        model,
        topology: TopologySpec {
            family: "hypercube".into(),
            target_n: 32,
        },
        speeds: SpeedSpec::PowersOfTwo { classes: 3 },
        initial: InitialSpec {
            distribution: TokenDistribution::UniformRandom,
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
        churn: vec![
            event(2, swap()),
            event(4, ChurnKind::Rewire { seed: 31 }),
            event(6, resize(16, 32)),
            event(8, resize(32, 33)),
            event(11, swap()),
            event(13, ChurnKind::Rewire { seed: 34 }),
        ],
        shards: 1,
        federation: 1,
    }
}

#[test]
fn resume_after_a_resize_back_restores_the_carried_speeds() {
    // After the resize back, the node count equals the world's but the
    // speeds do not: a resume must run on the carried speeds, not on the
    // world's the engine was built with.
    for algorithm in [AlgorithmSpec::Alg1, AlgorithmSpec::Alg2] {
        for model in [ModelSpec::Fos, ModelSpec::Sos] {
            let tag = format!("resize back/{algorithm:?}/{model:?}");
            assert_resumes_at_every_round(&tag, &resize_back_scenario(algorithm, model));
        }
    }
}

/// SOS on the expander (a seeded family) with powers-of-two speeds:
/// rewire, delta, resize to half the size and back, rewire, delta. Every
/// event builds a graph the world is not, so every resume past round 2
/// builds its engine on a capture epoch that was never the world.
fn never_the_world_scenario(algorithm: AlgorithmSpec) -> Scenario {
    use lb_bench::dynamic::family_class;

    let class = family_class("expander").expect("known family");
    let swap = |graph: &lb_graph::Graph| ChurnKind::Delta {
        add: vec![absent_edge(graph, &[])],
        remove: vec![graph.edges()[0]],
    };
    let event = |round, kind| ChurnEvent { round, kind };
    let resize = |target_n, seed| ChurnKind::Resize { target_n, seed };
    Scenario {
        name: "never_the_world_expander".into(),
        seed: 37,
        rounds: 16,
        sample_every: 2,
        algorithm,
        model: ModelSpec::Sos,
        topology: TopologySpec {
            family: "expander".into(),
            target_n: 32,
        },
        speeds: SpeedSpec::PowersOfTwo { classes: 3 },
        initial: InitialSpec {
            distribution: TokenDistribution::UniformRandom,
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
        churn: vec![
            event(2, ChurnKind::Rewire { seed: 41 }),
            event(4, swap(&class.build(32, 41).expect("builds"))),
            event(6, resize(16, 42)),
            event(8, resize(32, 43)),
            event(11, ChurnKind::Rewire { seed: 44 }),
            event(13, swap(&class.build(32, 44).expect("builds"))),
        ],
        shards: 1,
        federation: 1,
    }
}

#[test]
fn resume_builds_the_engine_on_a_capture_epoch_that_is_never_the_world() {
    // A resume builds its engine once, on the capture epoch's topology and
    // carried speeds with empty holdings, and restores the snapshot into it.
    let merge = Producer::Merge { feeds: 2 };
    let sync = Producer::Scenario;
    for algorithm in [AlgorithmSpec::Alg1, AlgorithmSpec::Alg2] {
        let tag = format!("never the world/{algorithm:?}");
        let scenario = never_the_world_scenario(algorithm);
        assert_resumes_at_every_round_under(&tag, &scenario, &[(1, sync), (4, sync), (1, merge)]);
    }
}
