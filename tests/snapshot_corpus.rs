//! Fuzz-style corpus for the snapshot reader: a canonical writer-produced
//! snapshot (captured from a real checkpointed run, so it tracks the format
//! instead of bit-rotting against it) is mutated into every documented
//! failure shape — truncation, a flipped version, edited end-record totals,
//! non-exact integers, unknown fields, a mid-line torn write, an SOS β or
//! β basis that does not fit — and each mutation must map to its
//! *specific* (located, where it is a parse error)
//! [`lb_core::snapshot::SnapshotError`] variant, never a panic and never a
//! silently-wrong resume.

use lb_analysis::artifact::unique_name;
use lb_bench::dynamic::Session;
use lb_bench::error::BenchError;
use lb_core::snapshot::{self, ProcessHistory, Snapshot, SnapshotError, SNAPSHOT_VERSION};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, Scenario, ServiceSpec, SpeedSpec,
    TokenDistribution, TopologySpec,
};

/// The scenario behind the canonical snapshot: alg1 + SOS so the rendered
/// form carries every record kind — header, run, twin, history, alg1, one
/// queue line per node, end.
fn scenario() -> Scenario {
    Scenario {
        name: "snapshot_corpus".into(),
        seed: 11,
        rounds: 20,
        sample_every: 10,
        algorithm: AlgorithmSpec::Alg1,
        model: ModelSpec::Sos,
        topology: TopologySpec {
            family: "torus".into(),
            target_n: 16,
        },
        speeds: SpeedSpec::Uniform,
        initial: InitialSpec {
            distribution: TokenDistribution::SingleSource { source: 0 },
            tokens_per_node: 4,
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

/// The canonical snapshot text, produced by the real checkpoint path (the
/// rotating file after a run with cadence 10 holds the round-20 capture).
fn canonical() -> String {
    let path = std::env::temp_dir().join(format!(
        "{}.jsonl",
        unique_name("lb_snapshot_corpus_canonical")
    ));
    Session::from_scenario(&scenario())
        .checkpoint(path.clone(), 10)
        .run(|_| Ok(()))
        .expect("checkpointed run");
    let text = std::fs::read_to_string(&path).expect("snapshot text");
    std::fs::remove_file(&path).ok();
    text
}

fn parse_err(text: &str) -> SnapshotError {
    snapshot::parse(text).expect_err("the mutated snapshot must not parse")
}

/// Replaces line `lineno` (1-based) with `replacement`; `None` drops it.
fn edit_line(text: &str, lineno: usize, replacement: Option<&str>) -> String {
    let mut out = String::new();
    for (idx, line) in text.lines().enumerate() {
        if idx + 1 == lineno {
            if let Some(replacement) = replacement {
                out.push_str(replacement);
                out.push('\n');
            }
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn the_canonical_snapshot_parses_cleanly() {
    let text = canonical();
    let parsed = snapshot::parse(&text).expect("clean baseline");
    assert_eq!(parsed.round, 20);
    // 16 nodes, alg1: one queue line per node, plus run/twin/history/alg1.
    assert!(text.lines().count() > 16);
    // The reader round-trips what the writer produced, byte for byte.
    assert_eq!(snapshot::render(&parsed), text);
}

#[test]
fn a_truncated_snapshot_is_a_located_truncation_error() {
    let text = canonical();
    let lines: Vec<&str> = text.lines().collect();
    // Drop the end record: the reader must refuse to resume from a prefix.
    let unsealed: String = lines[..lines.len() - 1]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    match parse_err(&unsealed) {
        SnapshotError::Truncated { line, reason } => {
            assert_eq!(line, lines.len() - 1, "located at the last surviving line");
            assert!(reason.contains("without the end record"), "{reason}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    // An empty file is the degenerate truncation.
    match parse_err("") {
        SnapshotError::Truncated { line: 1, reason } => {
            assert!(reason.contains("empty"), "{reason}")
        }
        other => panic!("expected Truncated at line 1, got {other:?}"),
    }
}

#[test]
fn a_mid_line_torn_write_is_a_located_truncation_error() {
    let text = canonical();
    // Cut inside the final line: no trailing newline survives.
    let cut = text.len() - 7;
    let torn = &text[..cut];
    assert!(!torn.ends_with('\n'));
    match parse_err(torn) {
        SnapshotError::Truncated { line, reason } => {
            assert_eq!(line, text.lines().count(), "located at the torn line");
            assert!(reason.contains("torn line"), "{reason}");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn a_flipped_version_is_a_version_error() {
    let text = canonical();
    let old = format!("\"version\":{SNAPSHOT_VERSION}");
    // A v1 snapshot (no β basis) and one from the future.
    for version in [1, SNAPSHOT_VERSION + 1] {
        let new = format!("\"version\":{version}");
        let flipped = text.replacen(&old, &new, 1);
        assert_ne!(flipped, text, "the header carries the version literally");
        match parse_err(&flipped) {
            SnapshotError::Version { line: 1, found } => {
                assert_eq!(found, version);
            }
            other => panic!("expected Version at line 1, got {other:?}"),
        }
        // And the Display form tells the operator both versions.
        let message = parse_err(&flipped).to_string();
        assert!(
            message.contains("unsupported snapshot version"),
            "{message}"
        );
    }
}

#[test]
fn an_sos_beta_or_basis_that_does_not_fit_fails_the_resume_as_a_mismatch() {
    let parsed = snapshot::parse(&canonical()).expect("clean baseline");
    let history = parsed.engine.twin.history.as_ref().expect("SOS history");
    let n = parsed.engine.twin.loads.len();
    assert_eq!(history.basis.len(), n, "a cold estimate carries its basis");
    let resume = |edit: &dyn Fn(&mut ProcessHistory)| {
        let mut snap = parsed.clone();
        edit(snap.engine.twin.history.as_mut().unwrap());
        // The edited snapshot still renders and parses: only the resume can
        // tell that it does not fit.
        let snap = snapshot::parse(&snapshot::render(&snap)).expect("well-formed");
        Session::from_snapshot(snap).run(|_| Ok(()))
    };
    for beta in [0.0, -1.0, 2.5, f64::NAN, f64::INFINITY] {
        match resume(&|sos| sos.beta = beta) {
            Err(BenchError::Snapshot(SnapshotError::Mismatch { reason })) => {
                assert!(reason.contains("outside (0, 2]"), "{reason}")
            }
            other => panic!("β = {beta}: expected Mismatch, got {other:?}"),
        }
    }
    for len in [1, n - 1, n + 1] {
        match resume(&|sos| sos.basis = vec![0.25; len]) {
            Err(BenchError::Snapshot(SnapshotError::Mismatch { reason })) => {
                assert!(reason.contains("basis"), "{reason}")
            }
            other => panic!("basis of {len}: expected Mismatch, got {other:?}"),
        }
    }
    // No basis at all is valid: the next real delta would estimate cold.
    assert!(resume(&|sos| sos.basis.clear()).is_ok());
}

#[test]
fn edited_end_totals_are_a_located_corrupt_error() {
    let text = canonical();
    let line_count = text.lines().count();
    let end = text.lines().last().unwrap();
    assert!(end.contains("\"kind\":\"end\""));
    // Inflate the declared record count: the trailer no longer matches what
    // the snapshot carries.
    let edited = edit_line(
        &text,
        line_count,
        Some("{\"kind\":\"end\",\"records\":999,\"tasks\":0}"),
    );
    match parse_err(&edited) {
        SnapshotError::Corrupt { line, reason } => {
            assert_eq!(line, line_count, "located at the end record");
            assert!(reason.contains("declares 999"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn non_exact_integers_are_a_located_corrupt_error() {
    let text = canonical();
    // The twin record is line 3 (header, run, twin): float its round tag.
    let twin_line = text.lines().nth(2).unwrap();
    assert!(twin_line.contains("\"kind\":\"twin\""));
    let floated = edit_line(
        &text,
        3,
        Some(&twin_line.replacen("\"round\":", "\"round\":0.5,\"was\":", 1)),
    );
    match parse_err(&floated) {
        SnapshotError::Corrupt { line: 3, reason } => {
            assert!(reason.contains("exact integer"), "{reason}");
        }
        other => panic!("expected Corrupt at line 3, got {other:?}"),
    }
}

#[test]
fn exponent_forms_and_unknown_fields_are_located_corrupt_errors() {
    // One exactness contract for snapshots and traces: an integral value in
    // exponent form is not an exact integer, and a field the record does
    // not define is not silently ignored.
    let text = canonical();
    let twin_line = text.lines().nth(2).unwrap();
    let round = twin_line
        .split("\"round\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap();
    for (edited, fragment) in [
        (
            twin_line.replacen(
                &format!("\"round\":{round},"),
                &format!("\"round\":{round}.0e0,"),
                1,
            ),
            "non-exact integer",
        ),
        (
            twin_line.replacen("\"kind\":\"twin\",", "\"kind\":\"twin\",\"bogus\":7,", 1),
            "unknown twin field \"bogus\"",
        ),
    ] {
        assert_ne!(edited, twin_line);
        match parse_err(&edit_line(&text, 3, Some(&edited))) {
            SnapshotError::Corrupt { line: 3, reason } => {
                assert!(reason.contains(fragment), "{reason}");
            }
            other => panic!("expected Corrupt at line 3, got {other:?}"),
        }
    }
}

#[test]
fn structural_violations_are_located_corrupt_errors() {
    let text = canonical();
    let line_count = text.lines().count();

    // Content after the end record.
    let mut appended = text.clone();
    appended.push_str("{\"kind\":\"queue\",\"node\":0,\"next_seq\":0,\"entries\":[]}\n");
    match parse_err(&appended) {
        SnapshotError::Corrupt { line, reason } => {
            assert_eq!(line, line_count + 1);
            assert!(reason.contains("after the end record"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // An unknown record kind names itself.
    let unknown = edit_line(&text, 2, Some("{\"kind\":\"checkpoint\"}"));
    match parse_err(&unknown) {
        SnapshotError::Corrupt { line: 2, reason } => {
            assert!(reason.contains("checkpoint"), "{reason}");
        }
        other => panic!("expected Corrupt at line 2, got {other:?}"),
    }

    // Unparsable JSON mid-file is located, not a panic.
    let garbled = edit_line(&text, 4, Some("{\"kind\":\"alg1\","));
    assert!(matches!(
        parse_err(&garbled),
        SnapshotError::Corrupt { line: 4, .. }
    ));
}

#[test]
fn load_maps_missing_files_to_io_errors() {
    let missing = std::env::temp_dir().join("lb_snapshot_corpus_no_such_file.jsonl");
    match snapshot::load(&missing).expect_err("missing file") {
        SnapshotError::Io { path, message } => {
            assert!(path.contains("lb_snapshot_corpus_no_such_file"), "{path}");
            assert!(!message.is_empty());
        }
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn atomic_writes_survive_overwrites_and_round_trip() {
    let text = canonical();
    let parsed: Snapshot = snapshot::parse(&text).unwrap();
    let path = std::env::temp_dir().join(format!(
        "{}.jsonl",
        unique_name("lb_snapshot_corpus_atomic")
    ));
    // Two writes (the rotating-checkpoint pattern): the reader always sees a
    // complete document, and the temp sibling never survives.
    snapshot::write_atomic(&path, &parsed).unwrap();
    snapshot::write_atomic(&path, &parsed).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let dir = path.parent().unwrap();
    let strays: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains("lb_snapshot_corpus_atomic") && name.contains(".tmp."))
        .collect();
    assert!(strays.is_empty(), "stray temp files: {strays:?}");
    std::fs::remove_file(&path).ok();
}
