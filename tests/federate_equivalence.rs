//! Federation equivalence, driven through the real `lb` binary: a scenario
//! partitioned across 1, 2 and 4 OS processes by `lb federate` must emit
//! result JSON **byte-identical** to the sequential `lb run` of the same
//! scenario — for all four engine combos, with churn (rewire + resize) and
//! Poisson arrivals in flight, and composing with per-process `--shards`
//! and coordinator-driven checkpoints (`lb run --resume` accepts them).
//! Fault injection: a SIGKILLed worker must fail the coordinator with the
//! typed protocol exit code, never a hang.
//!
//! CI runs this suite under the `federate` job's `timeout-minutes`, so a
//! hang here fails loudly twice over.

use lb_analysis::artifact::unique_name;
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The churn + arrivals scenario every combo runs: a rewire and a
/// downsizing resize, both crossing partition boundaries, with sustained
/// Poisson arrivals and uniform completions.
fn scenario(algorithm: AlgorithmSpec, model: ModelSpec, federation: usize) -> Scenario {
    Scenario {
        name: "federate_equivalence".into(),
        seed: 23,
        rounds: 80,
        sample_every: 20,
        algorithm,
        model,
        topology: TopologySpec {
            family: "torus".into(),
            target_n: 64,
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
        churn: vec![
            ChurnEvent {
                round: 25,
                kind: ChurnKind::Rewire { seed: 9 },
            },
            ChurnEvent {
                round: 40,
                kind: ChurnKind::Delta {
                    add: vec![(0, 18), (5, 27)],
                    remove: vec![(0, 1)],
                },
            },
            ChurnEvent {
                round: 55,
                kind: ChurnKind::Resize {
                    target_n: 36,
                    seed: 11,
                },
            },
        ],
        shards: 1,
        federation,
    }
}

fn lb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lb"))
}

fn temp(tag: &str, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "{}_{name}",
        unique_name(&format!("lb_federate_equivalence_{tag}"))
    ))
}

fn write_scenario(tag: &str, scenario: &Scenario) -> PathBuf {
    let path = temp(tag, "scenario.json");
    std::fs::write(&path, scenario.render_pretty()).unwrap();
    path
}

/// Runs `lb run` to completion and returns the result JSON bytes.
fn sequential_run(tag: &str, scenario_path: &Path, extra: &[&str]) -> Vec<u8> {
    let out = temp(tag, "sequential.json");
    let output = lb()
        .args(["run", scenario_path.to_str().unwrap(), "--quiet"])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .output()
        .expect("spawn lb run");
    assert!(
        output.status.success(),
        "{tag}: sequential run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    bytes
}

/// Runs `lb federate` to completion and returns the result JSON bytes.
fn federated_run(tag: &str, scenario_path: &Path, extra: &[&str]) -> Vec<u8> {
    let out = temp(tag, "federated.json");
    let output = lb()
        .args(["federate", scenario_path.to_str().unwrap(), "--quiet"])
        .args(extra)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .output()
        .expect("spawn lb federate");
    assert!(
        output.status.success(),
        "{tag}: federated run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&out).unwrap();
    std::fs::remove_file(&out).ok();
    bytes
}

/// All four engine combos, partitioned across 1, 2 and 4 processes: the
/// federated result document is byte-identical to the sequential one.
#[test]
fn federated_runs_are_byte_identical_for_all_engines() {
    for (algorithm, model, combo) in [
        (AlgorithmSpec::Alg1, ModelSpec::Fos, "a1fos"),
        (AlgorithmSpec::Alg1, ModelSpec::Sos, "a1sos"),
        (AlgorithmSpec::Alg2, ModelSpec::Fos, "a2fos"),
        (AlgorithmSpec::Alg2, ModelSpec::Sos, "a2sos"),
    ] {
        for parts in [1usize, 2, 4] {
            let tag = format!("{combo}_p{parts}");
            let scenario = scenario(algorithm, model, parts);
            let scenario_path = write_scenario(&tag, &scenario);
            let sequential = sequential_run(&tag, &scenario_path, &[]);
            let federated = federated_run(&tag, &scenario_path, &[]);
            assert_eq!(
                federated, sequential,
                "{tag}: federated result diverged from the sequential run"
            );
            std::fs::remove_file(&scenario_path).ok();
        }
    }
}

/// Per-process intra-partition sharding composes with federation: a
/// 2-process run whose workers each step with 2 shards matches the
/// sequential 2-shard run byte for byte.
#[test]
fn per_process_shards_compose_with_federation() {
    let tag = "shards2";
    let scenario = scenario(AlgorithmSpec::Alg1, ModelSpec::Sos, 2);
    let scenario_path = write_scenario(tag, &scenario);
    let sequential = sequential_run(tag, &scenario_path, &["--shards", "2"]);
    let federated = federated_run(tag, &scenario_path, &["--shards", "2"]);
    assert_eq!(
        federated, sequential,
        "{tag}: sharded federated result diverged from the sequential run"
    );
    std::fs::remove_file(&scenario_path).ok();
}

/// A coordinator-written checkpoint is exactly what the sequential engine
/// would capture: resuming it under plain `lb run --resume` completes to a
/// result document byte-identical to the uninterrupted sequential run. The
/// engine name in the checkpoint comes from the workers' state records, so
/// two cadences resume from either side of the round-55 resize: every 30
/// rounds the newest checkpoint is round 60's, every 45 rounds round 45's.
/// The sequential run checkpoints at the same cadence, and its newest
/// checkpoint must equal the coordinator's byte for byte: unlike the
/// result document, a checkpoint shows SOS's β, its basis and the twin's
/// bits.
#[test]
fn coordinator_checkpoint_resumes_under_the_sequential_driver() {
    let scenario = scenario(AlgorithmSpec::Alg2, ModelSpec::Sos, 2);
    for every in ["30", "45"] {
        let tag = format!("ckpt{every}");
        let scenario_path = write_scenario(&tag, &scenario);
        let sequential_ckpt = temp(&tag, "sequential.jsonl");
        let sequential = sequential_run(
            &tag,
            &scenario_path,
            &[
                "--checkpoint",
                sequential_ckpt.to_str().unwrap(),
                "--checkpoint-every",
                every,
            ],
        );
        let ckpt = temp(&tag, "rotating.jsonl");
        federated_run(
            &tag,
            &scenario_path,
            &[
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--checkpoint-every",
                every,
            ],
        );
        assert!(
            std::fs::read(&ckpt).unwrap() == std::fs::read(&sequential_ckpt).unwrap(),
            "{tag}: the coordinator's newest checkpoint differs from the sequential run's"
        );

        let resumed_out = temp(&tag, "resumed.json");
        let output = lb()
            .args(["run", "--quiet", "--resume"])
            .arg(&ckpt)
            .arg("--out")
            .arg(&resumed_out)
            .stdout(Stdio::null())
            .output()
            .expect("spawn lb run --resume");
        assert!(
            output.status.success(),
            "{tag}: resume from the federated checkpoint failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read(&resumed_out).unwrap(),
            sequential,
            "{tag}: resumed result diverged from the sequential run"
        );
        std::fs::remove_file(&scenario_path).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&sequential_ckpt).ok();
        std::fs::remove_file(&resumed_out).ok();
    }
}

/// Reads the coordinator's `--listen-info` artefact, polling until the bind
/// is published.
fn await_listen_addr(info: &Path, deadline: Instant) -> String {
    loop {
        if let Ok(text) = std::fs::read_to_string(info) {
            // One-line JSON: {"addr": "127.0.0.1:PORT"}.
            if let Some(start) = text.find("\"addr\"") {
                let rest = &text[start + 6..];
                if let Some(open) = rest.find('"') {
                    if let Some(close) = rest[open + 1..].find('"') {
                        return rest[open + 1..open + 1 + close].to_string();
                    }
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "coordinator never published its listen address"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// SIGKILLing one worker mid-run fails the coordinator with the typed
/// protocol exit code (3) and a located message — never a hang, never a
/// partial result document.
#[test]
fn killed_worker_fails_the_coordinator_with_a_typed_error() {
    let tag = "kill";
    // Enough rounds that the kill lands mid-run even on a fast machine.
    let mut scenario = scenario(AlgorithmSpec::Alg1, ModelSpec::Fos, 2);
    scenario.rounds = 50_000;
    scenario.sample_every = 50_000;
    scenario.churn.clear();
    let scenario_path = write_scenario(tag, &scenario);
    let info = temp(tag, "listen.json");
    let stderr_path = temp(tag, "coordinator.stderr");
    std::fs::remove_file(&info).ok();

    let mut coordinator = lb()
        .args([
            "federate",
            scenario_path.to_str().unwrap(),
            "--quiet",
            "--no-spawn",
            "--listen-info",
        ])
        .arg(&info)
        .stdout(Stdio::null())
        .stderr(Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
        .spawn()
        .expect("spawn lb federate --no-spawn");
    let addr = await_listen_addr(&info, Instant::now() + Duration::from_secs(30));

    let mut workers: Vec<_> = (0..2)
        .map(|rank| {
            lb().args([
                "federate-worker",
                "--connect",
                &addr,
                "--rank",
                &rank.to_string(),
                "--parts",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lb federate-worker")
        })
        .collect();

    // Let the federation form and run some rounds, then kill rank 1.
    std::thread::sleep(Duration::from_millis(500));
    workers[1].kill().expect("SIGKILL worker rank 1");
    let _ = workers[1].wait();

    // The coordinator must exit — with the protocol code — well before the
    // test harness would time out. Poll rather than block so a hang fails
    // with a message instead of wedging the suite.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = coordinator.try_wait().expect("poll coordinator") {
            break status;
        }
        if Instant::now() >= deadline {
            coordinator.kill().ok();
            panic!("{tag}: coordinator hung after the worker was killed");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(
        status.code(),
        Some(3),
        "{tag}: expected the protocol exit code, stderr: {}",
        std::fs::read_to_string(&stderr_path).unwrap_or_default()
    );
    let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
    assert!(
        stderr.contains("federate rank 1"),
        "{tag}: coordinator error does not name the lost worker: {stderr}"
    );

    for worker in &mut workers {
        worker.kill().ok();
        let _ = worker.wait();
    }
    std::fs::remove_file(&scenario_path).ok();
    std::fs::remove_file(&info).ok();
    std::fs::remove_file(&stderr_path).ok();
}

/// Malformed invocations fail with the usage exit code before any socket
/// work happens.
#[test]
fn usage_errors_exit_with_code_2() {
    let tag = "usage";
    let scenario = scenario(AlgorithmSpec::Alg1, ModelSpec::Fos, 2);
    let scenario_path = write_scenario(tag, &scenario);
    for args in [
        vec!["federate"],
        vec!["federate", scenario_path.to_str().unwrap(), "--parts", "0"],
        vec!["federate", scenario_path.to_str().unwrap(), "--parts", "65"],
        vec![
            "federate",
            scenario_path.to_str().unwrap(),
            "--checkpoint",
            "x.jsonl",
        ],
        vec!["federate-worker"],
        vec![
            "federate-worker",
            "--connect",
            "127.0.0.1:1",
            "--rank",
            "2",
            "--parts",
            "2",
        ],
    ] {
        let output = lb()
            .args(&args)
            .stdout(Stdio::null())
            .output()
            .expect("spawn lb");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: expected the usage exit code, stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    std::fs::remove_file(&scenario_path).ok();
}
