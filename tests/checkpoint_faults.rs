//! Kill-and-resume fault injection for the checkpoint path, driven through
//! the real `lb` binary: a checkpointed run is SIGKILLed mid-flight at a
//! randomized round, the rotating snapshot left on disk must be a complete
//! document (atomic rename: never a torn file), and `lb run --resume` from
//! it — at a *different* shard count — must emit result JSON byte-identical
//! to the uninterrupted run's and end on the same engine state (its final
//! checkpoint matches byte for byte). All four engine combos, with churn and
//! arrivals. Corrupt, truncated and version-flipped snapshots must fail the
//! resume with a typed, located error on stderr, never silent divergence.
//!
//! CI runs this suite under the `checkpoint` job's `timeout-minutes`, so a
//! hang here fails loudly twice over.

use lb_analysis::artifact::unique_name;
use lb_core::snapshot;
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The churn + arrivals scenario all combos run: long enough (300 rounds,
/// with a per-round checkpoint fsync) that a mid-run kill lands reliably.
fn scenario(algorithm: AlgorithmSpec, model: ModelSpec) -> Scenario {
    Scenario {
        name: "checkpoint_faults".into(),
        seed: 23,
        rounds: 300,
        sample_every: 50,
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
        churn: vec![ChurnEvent {
            round: 40,
            kind: ChurnKind::Rewire { seed: 9 },
        }],
        shards: 1,
        federation: 1,
    }
}

fn lb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lb"))
}

fn temp(tag: &str, name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "{}_{name}",
        unique_name(&format!("lb_checkpoint_faults_{tag}"))
    ))
}

fn write_scenario(tag: &str, scenario: &Scenario) -> PathBuf {
    let path = temp(tag, "scenario.json");
    std::fs::write(&path, scenario.render_pretty()).unwrap();
    path
}

/// The `lb run` flags that checkpoint a run once, at its final round.
fn final_checkpoint_args(scenario: &Scenario, path: &Path) -> Vec<String> {
    vec![
        "--checkpoint".into(),
        path.display().to_string(),
        "--checkpoint-every".into(),
        scenario.rounds.to_string(),
    ]
}

/// Runs `lb run` to completion and returns the result JSON bytes from
/// `--out` and the bytes of its final checkpoint.
fn reference_run(tag: &str, scenario: &Scenario, scenario_path: &Path) -> (Vec<u8>, Vec<u8>) {
    let out = temp(tag, "reference.json");
    let ckpt = temp(tag, "reference.ckpt.jsonl");
    let status = lb()
        .args(["run", scenario_path.to_str().unwrap(), "--quiet", "--out"])
        .arg(&out)
        .args(final_checkpoint_args(scenario, &ckpt))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn lb run");
    assert!(status.success(), "{tag}: reference run failed");
    let bytes = (std::fs::read(&out).unwrap(), std::fs::read(&ckpt).unwrap());
    std::fs::remove_file(&out).ok();
    std::fs::remove_file(&ckpt).ok();
    bytes
}

/// A low-rent randomized kill round: varies per test execution, printed on
/// failure so a bad round reproduces.
fn kill_round(salt: u64) -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .subsec_nanos() as u64;
    10 + (nanos.wrapping_mul(2654435761).wrapping_add(salt) % 120)
}

#[test]
fn sigkill_and_resume_is_byte_identical_for_all_engines() {
    for (algorithm, model, tag) in [
        (AlgorithmSpec::Alg1, ModelSpec::Fos, "a1fos"),
        (AlgorithmSpec::Alg1, ModelSpec::Sos, "a1sos"),
        (AlgorithmSpec::Alg2, ModelSpec::Fos, "a2fos"),
        (AlgorithmSpec::Alg2, ModelSpec::Sos, "a2sos"),
    ] {
        let scenario = scenario(algorithm, model);
        let scenario_path = write_scenario(tag, &scenario);
        let (reference, reference_state) = reference_run(tag, &scenario, &scenario_path);
        let ckpt = temp(tag, "rotating.jsonl");
        let kill_at = kill_round(tag.len() as u64);

        // Checkpoint every round and SIGKILL once the rotating file reaches
        // the kill round. Concurrent loads of the rotating file are part of
        // the contract: the atomic rename means a reader never sees a torn
        // document, even with the writer mid-publish.
        let mut child = lb()
            .args([
                "run",
                scenario_path.to_str().unwrap(),
                "--quiet",
                "--checkpoint-every",
                "1",
                "--checkpoint",
            ])
            .arg(&ckpt)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn checkpointed lb run");
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut exited_first = false;
        loop {
            if let Ok(snap) = snapshot::load(&ckpt) {
                if snap.round >= kill_at {
                    break;
                }
            }
            if child.try_wait().expect("poll child").is_some() {
                exited_first = true;
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{tag}: no checkpoint reached round {kill_at} in time"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        if !exited_first {
            child.kill().expect("SIGKILL the run");
        }
        let _ = child.wait();

        // Whatever instant the kill landed at, the snapshot on disk is a
        // complete, parseable document.
        let snap = snapshot::load(&ckpt)
            .unwrap_or_else(|err| panic!("{tag}: post-kill snapshot unreadable: {err}"));
        assert!(snap.round >= 1, "{tag}: at least one checkpoint published");

        // Resume at a DIFFERENT shard count; the result document and the
        // final engine state must be byte-identical to the uninterrupted
        // reference's.
        let resumed_out = temp(tag, "resumed.json");
        let resumed_ckpt = temp(tag, "resumed.ckpt.jsonl");
        let output = lb()
            .args(["run", "--quiet", "--shards", "3", "--resume"])
            .arg(&ckpt)
            .args(["--out"])
            .arg(&resumed_out)
            .args(final_checkpoint_args(&scenario, &resumed_ckpt))
            .stdout(Stdio::null())
            .output()
            .expect("spawn lb run --resume");
        assert!(
            output.status.success(),
            "{tag}: resume from round {} (kill target {kill_at}) failed: {}",
            snap.round,
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read(&resumed_out).unwrap(),
            reference,
            "{tag}: resumed result diverged (killed near round {kill_at})"
        );
        // A run that finished before the kill resumed from its last round,
        // which is itself the final state: no round was left to checkpoint.
        let final_state = if snap.round == scenario.rounds as u64 {
            &ckpt
        } else {
            &resumed_ckpt
        };
        assert!(
            std::fs::read(final_state).unwrap() == reference_state,
            "{tag}: resumed final state diverged (killed near round {kill_at})"
        );

        std::fs::remove_file(&scenario_path).ok();
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&resumed_out).ok();
        std::fs::remove_file(&resumed_ckpt).ok();
    }
}

/// Resume with a damaged snapshot: every shape fails with the typed,
/// located error on stderr and a non-zero exit — never a silent partial
/// resume.
#[test]
fn damaged_snapshots_fail_resume_with_typed_errors() {
    let tag = "damage";
    let scenario = scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    let scenario_path = write_scenario(tag, &scenario);
    let ckpt = temp(tag, "good.jsonl");
    let status = lb()
        .args([
            "run",
            scenario_path.to_str().unwrap(),
            "--quiet",
            "--checkpoint-every",
            "100",
            "--checkpoint",
        ])
        .arg(&ckpt)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn lb run");
    assert!(status.success());
    let good = std::fs::read_to_string(&ckpt).unwrap();

    let resume_err = |name: &str, contents: &str, code: i32| -> String {
        let path = temp(tag, name);
        std::fs::write(&path, contents).unwrap();
        let output = lb()
            .args(["run", "--quiet", "--resume"])
            .arg(&path)
            .stdout(Stdio::null())
            .output()
            .expect("spawn lb run --resume");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            output.status.code(),
            Some(code),
            "{name}: damaged snapshots fail with the class's exit code"
        );
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    // Truncated: the end record is gone.
    let lines: Vec<&str> = good.lines().collect();
    let unsealed: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    let err = resume_err("truncated.jsonl", &unsealed, 1);
    assert!(err.contains("truncated snapshot"), "{err}");
    assert!(err.contains("without the end record"), "{err}");

    // Torn mid-line write.
    let err = resume_err("torn.jsonl", &good[..good.len() - 9], 1);
    assert!(err.contains("torn line"), "{err}");

    // Flipped version.
    let current = format!("\"version\":{}", snapshot::SNAPSHOT_VERSION);
    let flipped = good.replacen(&current, "\"version\":7", 1);
    assert_ne!(flipped, good);
    let err = resume_err("version.jsonl", &flipped, 1);
    assert!(err.contains("unsupported snapshot version 7"), "{err}");

    // Stale/mismatched: the snapshot's engine is not what its (edited)
    // scenario builds. Unlike the malformed-document shapes above (exit 1),
    // a well-formed snapshot for the *wrong* run is a protocol violation —
    // the same class as a serve handshake embedding the wrong scenario —
    // so it maps to exit code 3.
    let mismatched = good.replacen("\"algorithm\":\"alg1\"", "\"algorithm\":\"alg2\"", 1);
    assert_ne!(mismatched, good);
    let err = resume_err("mismatch.jsonl", &mismatched, 3);
    assert!(err.contains("does not match this run"), "{err}");

    std::fs::remove_file(&scenario_path).ok();
    std::fs::remove_file(&ckpt).ok();
}

/// A result document that cannot reach stdout is an I/O failure: exit 4
/// with a typed error, never a panic. `/dev/full` fails every write with
/// "no space left on device".
#[test]
fn a_full_stdout_exits_4_without_panicking() {
    let full = Path::new("/dev/full");
    if !full.exists() {
        eprintln!("skipped: no /dev/full on this platform");
        return;
    }
    let tag = "full_stdout";
    let mut scenario = scenario(AlgorithmSpec::Alg1, ModelSpec::Fos);
    scenario.rounds = 60;
    let scenario_path = write_scenario(tag, &scenario);
    let trace = temp(tag, "trace.jsonl");
    let (scenario_arg, trace_arg) = (scenario_path.to_str().unwrap(), trace.to_str().unwrap());
    // The run records the trace that the replay then reads.
    for argv in [
        ["run", scenario_arg, "--quiet", "--record", trace_arg],
        ["replay", trace_arg, "--quiet", "--shards", "2"],
    ] {
        let name = argv[0];
        let output = lb()
            .args(argv)
            .stdout(std::fs::File::create(full).unwrap())
            .output()
            .expect("spawn lb");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(4), "{name}: {stderr}");
        assert!(stderr.contains("error: writing stdout"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    std::fs::remove_file(&scenario_path).ok();
    std::fs::remove_file(&trace).ok();
}
