//! Versioned, crash-safe serialization of the full engine state.
//!
//! A snapshot captures everything a dynamic run needs to resume
//! bit-identically from a between-rounds boundary — the one quiescent point
//! the ingest contract already defines: discrete per-node loads, every
//! [`TaskQueue`](crate::TaskQueue)'s contents *in pop order* with their
//! tie-breaking sequence
//! numbers, the continuous twin's state (loads, cumulative flows, SOS
//! history), the imitation ledger, the Algorithm 2 rounding-RNG derivation
//! inputs, the round counter, and opaque driver payloads (the effective
//! scenario header and accumulated trajectory, owned by the driver layer).
//!
//! # Format
//!
//! One record per line, written and read by the workspace's one record codec
//! ([`lb_analysis::codec`]): every record leads with its `"kind"`, integers
//! are exact, `f64` state is encoded as IEEE-754 **bit patterns** so restore
//! is bit-identical (never a decimal round-trip), and an unknown or
//! repeated field is an error. Only the two opaque driver payloads are
//! [`lb_analysis::Json`] values:
//!
//! ```text
//! {"kind":"header","version":2,"scenario":{…}}            // opaque driver payload
//! {"kind":"run","round":R,"driver":{…}}                   // opaque driver payload
//! {"kind":"twin","round":T,"min_load_seen":B,"loads":[…],"cumulative_flow":[…]}
//! {"kind":"history","beta":B,"has_previous":true,"basis":[…],"previous":[[F,B],…]}  // SOS only
//! {"kind":"alg1","round":R,"wmax":W,…,"dummy":[…],"discrete_flow":[…]}  // or "alg2"
//! {"kind":"queue","node":0,"next_seq":S,"entries":[[seq,id,weight,dummy],…]}
//! …                                                       // one queue line per node (alg1)
//! {"kind":"end","records":N,"tasks":T}                    // truncation guard
//! ```
//!
//! The end record carries the record and stored-task totals; a reader
//! rejects a snapshot without a matching end record, so a truncated or torn
//! file fails loudly ([`SnapshotError::Truncated`]) instead of silently
//! resuming from a prefix — the same discipline the trace format applies.
//!
//! # Crash safety
//!
//! [`write_atomic`] (and the byte-level helper [`write_bytes_atomic`])
//! publishes a snapshot via temp file → fsync → rename, so a crash mid-write
//! never leaves a torn file under the target path: readers see either the
//! previous complete snapshot or the new one. It streams the records into
//! the staging file, and [`load`] reads the file line by line, so neither
//! holds the whole document in memory.

use crate::continuous::EdgeFlow;
use crate::task::Task;
use crate::TaskId;
use lb_analysis::artifact::write_atomic_with;
use lb_analysis::codec::{self, RecordWriter, Scan};
use lb_analysis::{read_fields, u64_exact, write_fields, Json};
use std::fmt;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;

pub use lb_analysis::artifact::write_bytes_atomic;

/// The snapshot format version this module writes and the only one it reads.
/// Version 2 added the SOS `history` record's `basis`.
pub const SNAPSHOT_VERSION: u64 = 2;

/// Typed snapshot failures: corrupt, truncated, stale and version-mismatched
/// snapshots each surface as their own variant, never a panic or a
/// silently-wrong resume.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error message.
        message: String,
    },
    /// Structurally invalid content, located at a 1-based line.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The header declares a format version this build does not read.
    Version {
        /// 1-based line number of the header.
        line: usize,
        /// The declared version.
        found: u64,
    },
    /// The file ends before the end record (interrupted write, partial
    /// copy, or a mid-line torn write).
    Truncated {
        /// 1-based line number where the stream gave out.
        line: usize,
        /// What exactly is missing.
        reason: String,
    },
    /// The snapshot is internally consistent but does not belong to the run
    /// being resumed (wrong algorithm, wrong node count, stale seed, …).
    Mismatch {
        /// Why the snapshot cannot drive this engine.
        reason: String,
    },
}

impl SnapshotError {
    /// Convenience constructor for [`SnapshotError::Mismatch`].
    pub fn mismatch(reason: impl Into<String>) -> Self {
        SnapshotError::Mismatch {
            reason: reason.into(),
        }
    }

    fn corrupt(line: usize, reason: impl Into<String>) -> Self {
        SnapshotError::Corrupt {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, message } => write!(f, "snapshot {path}: {message}"),
            SnapshotError::Corrupt { line, reason } => {
                write!(f, "corrupt snapshot: line {line}: {reason}")
            }
            SnapshotError::Version { line, found } => write!(
                f,
                "corrupt snapshot: line {line}: unsupported snapshot version {found} \
                 (this build reads version {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { line, reason } => {
                write!(f, "truncated snapshot: line {line}: {reason}")
            }
            SnapshotError::Mismatch { reason } => {
                write!(f, "snapshot does not match this run: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Process-internal history captured alongside the twin (SOS's relaxation
/// state); memoryless kernels (FOS) have none.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessHistory {
    /// The relaxation parameter β. A resume takes it from here: after a
    /// churn delta it comes from a warm-started estimate, so it need not
    /// bit-match a cold estimate on the same topology.
    pub beta: f64,
    /// The unit vector β's estimate converged to, the warm start of the
    /// next one (empty, or one entry per node).
    pub basis: Vec<f64>,
    /// The previous round's committed flows (`y(t−1)`).
    pub previous: Vec<EdgeFlow>,
    /// Whether `previous` is valid yet (false before the first round of an
    /// epoch).
    pub has_previous: bool,
}

/// The continuous twin's state: load vector, cumulative per-edge flows, and
/// the running minimum-load watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinState {
    /// Completed twin rounds in the current topology epoch.
    pub round: u64,
    /// The load vector `x^A(t)`.
    pub loads: Vec<f64>,
    /// Cumulative net flow per canonical edge.
    pub cumulative_flow: Vec<f64>,
    /// Smallest node load observed at any round boundary so far.
    pub min_load_seen: f64,
    /// Process history (SOS), or `None` for memoryless kernels.
    pub history: Option<ProcessHistory>,
}

/// One node's task queue: its next-seq counter and `(seq, task)` entries in
/// pop order (see [`TaskQueue::snapshot`](crate::TaskQueue::snapshot)).
#[derive(Debug, Clone, PartialEq)]
pub struct QueueState {
    /// The queue's monotone push counter.
    pub next_seq: u64,
    /// `(seq, task)` pairs in pop order.
    pub entries: Vec<(u64, Task)>,
}

/// Algorithm 1 (deterministic flow imitation) state.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg1State {
    /// Per-node task queues, in pop order with tie-breaking seqs.
    pub queues: Vec<QueueState>,
    /// Per-node dummy holdings.
    pub dummy: Vec<u64>,
    /// Cumulative net discrete flow per canonical edge.
    pub discrete_flow: Vec<i64>,
    /// The maximum task weight seen so far (mutated by arrivals).
    pub wmax: u64,
    /// Total dummy load created from the infinite source.
    pub dummy_created: u64,
    /// Total items moved over edges.
    pub items_sent: u64,
    /// Total weight injected by arrival events.
    pub arrived_weight: u64,
    /// Total weight drained by completion events.
    pub completed_weight: u64,
}

/// Algorithm 2 (randomized flow imitation) state. The rounding RNG is not
/// serialized: every decision derives a fresh sub-RNG from
/// `(seed, round, edge)`, so the seed and round counter reconstruct it.
#[derive(Debug, Clone, PartialEq)]
pub struct Alg2State {
    /// Per-node real token counts.
    pub tokens: Vec<u64>,
    /// Per-node dummy holdings.
    pub dummy: Vec<u64>,
    /// Cumulative net discrete flow per canonical edge.
    pub discrete_flow: Vec<i64>,
    /// The master rounding seed (validated against the resumed engine).
    pub seed: u64,
    /// Total dummy load created from the infinite source.
    pub dummy_created: u64,
    /// Total weight injected by arrival events.
    pub arrived_weight: u64,
    /// Total weight drained by completion events.
    pub completed_weight: u64,
}

/// Which discretizer the snapshot belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscreteState {
    /// Algorithm 1 state.
    Alg1(Alg1State),
    /// Algorithm 2 state.
    Alg2(Alg2State),
}

/// The full engine state at a between-rounds boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Completed engine rounds (never resets, unlike the twin's counter).
    pub round: u64,
    /// The continuous twin.
    pub twin: TwinState,
    /// The discretizer's state.
    pub discrete: DiscreteState,
}

/// A complete parsed snapshot: the engine state plus the driver layer's
/// opaque payloads, round-tripped verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The effective scenario header (owned and interpreted by the driver).
    pub scenario: Json,
    /// Driver payload (accumulated trajectory, engine identity, …).
    pub driver: Json,
    /// Completed rounds at capture time — the round the resumed run
    /// continues from.
    pub round: u64,
    /// The captured engine.
    pub engine: EngineState,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Streams `snapshot`'s records into `out`.
fn write_records<W: Write>(out: &mut RecordWriter<W>, snapshot: &Snapshot) -> io::Result<()> {
    let (version, engine, twin) = (SNAPSHOT_VERSION, &snapshot.engine, &snapshot.engine.twin);
    let (mut records, mut tasks) = (2, 0);
    out.open("header")?;
    out.field("version", &version)?;
    write_fields!(out: snapshot => scenario);
    out.close_line()?;
    out.open("run")?;
    write_fields!(out: snapshot => round, driver);
    out.close_line()?;
    out.open("twin")?;
    write_fields!(out: twin => round, min_load_seen, loads, cumulative_flow);
    out.close_line()?;
    if let Some(history) = &twin.history {
        out.open("history")?;
        write_fields!(out: history => beta, has_previous, basis);
        let previous = history.previous.iter();
        out.list("previous", previous.map(|f| (f.forward, f.backward)))?;
        out.close_line()?;
        records += 1;
    }
    match &engine.discrete {
        DiscreteState::Alg1(alg1) => {
            out.open("alg1")?;
            write_fields!(out: engine => round);
            write_fields!(out: alg1 => wmax, dummy_created, items_sent, arrived_weight,
                completed_weight, dummy, discrete_flow);
            out.close_line()?;
            for (node, queue) in alg1.queues.iter().enumerate() {
                out.open("queue")?;
                out.field("node", &node)?;
                write_fields!(out: queue => next_seq);
                let entries = queue.entries.iter();
                out.list(
                    "entries",
                    entries.map(|&(seq, task)| (seq, task.id().0, task.weight(), task.is_dummy())),
                )?;
                out.close_line()?;
                tasks += u64_exact(queue.entries.len());
            }
            records += 1 + alg1.queues.len();
        }
        DiscreteState::Alg2(alg2) => {
            out.open("alg2")?;
            write_fields!(out: engine => round);
            write_fields!(out: alg2 => seed, dummy_created, arrived_weight, completed_weight,
                tokens, dummy, discrete_flow);
            out.close_line()?;
            records += 1;
        }
    }
    out.open("end")?;
    write_fields!(out: records, tasks);
    out.close_line()
}

/// Renders `snapshot` into the line-delimited text form.
pub fn render(snapshot: &Snapshot) -> String {
    codec::render_with(|out| write_records(out, snapshot))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The reader's state between lines: what the records so far carried.
#[derive(Default)]
struct Reader {
    scenario: Option<Json>,
    run: Option<(u64, Json)>,
    twin: Option<TwinState>,
    /// The engine record's round and state; queue records fill Algorithm
    /// 1's queues.
    engine: Option<(u64, DiscreteState)>,
    records: usize,
    tasks: u64,
    sealed: bool,
    /// The last non-blank line, where a whole-snapshot error is located.
    last_line: usize,
}

/// The header record's version and scenario.
fn header(scan: &mut Scan<'_>) -> Result<(u64, Json), String> {
    read_fields!(scan.fields("header") { version: u64, scenario: Json });
    Ok((version, scenario))
}

impl Reader {
    /// Reads one line (1-based `line`) with its terminator; a line without
    /// one is a torn write.
    fn terminated_line(&mut self, line: usize, text: &str) -> Result<(), SnapshotError> {
        let text = text
            .strip_suffix('\n')
            .ok_or_else(|| SnapshotError::Truncated {
                line,
                reason: "torn line (the file ends mid-record, without a newline)".into(),
            })?;
        let text = text.strip_suffix('\r').unwrap_or(text);
        if text.trim().is_empty() {
            return Ok(());
        }
        self.last_line = line;
        if self.sealed {
            return Err(SnapshotError::corrupt(line, "content after the end record"));
        }
        let corrupt = |reason| SnapshotError::corrupt(line, reason);
        let (mut scan, kind) = Scan::record(text).map_err(corrupt)?;
        if self.scenario.is_some() {
            return self.record(&kind, &mut scan).map_err(corrupt);
        }
        if kind != "header" {
            return Err(corrupt("expected the snapshot header record".into()));
        }
        match header(&mut scan).map_err(corrupt)? {
            (SNAPSHOT_VERSION, scenario) => self.scenario = Some(scenario),
            (found, _) => return Err(SnapshotError::Version { line, found }),
        }
        Ok(())
    }

    /// Reads one body record of the given kind.
    fn record(&mut self, kind: &str, scan: &mut Scan<'_>) -> Result<(), String> {
        match kind {
            "run" if self.run.is_none() => {
                read_fields!(scan.fields("run") { round: u64, driver: Json });
                self.run = Some((round, driver));
            }
            "twin" if self.twin.is_none() => {
                read_fields!(scan.fields("twin") {
                    round: u64,
                    min_load_seen: f64,
                    loads: Vec<f64>,
                    cumulative_flow: Vec<f64>,
                });
                let history = None;
                self.twin = Some(TwinState {
                    round,
                    loads,
                    cumulative_flow,
                    min_load_seen,
                    history,
                });
            }
            "history" => {
                let twin = self
                    .twin
                    .as_mut()
                    .ok_or("history record before the twin record")?;
                if twin.history.is_some() {
                    return Err("duplicate history record".into());
                }
                read_fields!(scan.fields("history") {
                    beta: f64,
                    has_previous: bool,
                    basis: Vec<f64>,
                    previous: Vec<(f64, f64)>,
                });
                let previous = previous.into_iter().map(|(f, b)| EdgeFlow::new(f, b));
                twin.history = Some(ProcessHistory {
                    beta,
                    basis,
                    previous: previous.collect(),
                    has_previous,
                });
            }
            "alg1" | "alg2" if self.engine.is_some() => {
                return Err("duplicate engine record".into())
            }
            "alg1" => {
                read_fields!(scan.fields("alg1") {
                    round: u64,
                    wmax: u64,
                    dummy_created: u64,
                    items_sent: u64,
                    arrived_weight: u64,
                    completed_weight: u64,
                    dummy: Vec<u64>,
                    discrete_flow: Vec<i64>,
                });
                let queues = Vec::with_capacity(dummy.len());
                let state = Alg1State {
                    queues,
                    dummy,
                    discrete_flow,
                    wmax,
                    dummy_created,
                    items_sent,
                    arrived_weight,
                    completed_weight,
                };
                self.engine = Some((round, DiscreteState::Alg1(state)));
            }
            "queue" => {
                let Some((_, DiscreteState::Alg1(alg1))) = &mut self.engine else {
                    return Err("queue record before the alg1 record".into());
                };
                read_fields!(scan.fields("queue") {
                    node: usize,
                    next_seq: u64,
                    entries: Vec<(u64, u64, u64, bool)>,
                });
                if node != alg1.queues.len() {
                    return Err(format!(
                        "queue records must cover nodes in order: got node {node}, expected {}",
                        alg1.queues.len()
                    ));
                }
                let entries = entries
                    .into_iter()
                    .map(|(seq, id, weight, dummy)| match (dummy, weight) {
                        (true, 1) => Ok((seq, Task::dummy(TaskId(id)))),
                        (true, _) => Err("dummy tasks must have unit weight"),
                        (false, 0) => Err("task weight must be positive"),
                        (false, _) => Ok((seq, Task::new(TaskId(id), weight))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                self.tasks += u64_exact(entries.len());
                alg1.queues.push(QueueState { next_seq, entries });
            }
            "alg2" => {
                read_fields!(scan.fields("alg2") {
                    round: u64,
                    seed: u64,
                    dummy_created: u64,
                    arrived_weight: u64,
                    completed_weight: u64,
                    tokens: Vec<u64>,
                    dummy: Vec<u64>,
                    discrete_flow: Vec<i64>,
                });
                let state = Alg2State {
                    tokens,
                    dummy,
                    discrete_flow,
                    seed,
                    dummy_created,
                    arrived_weight,
                    completed_weight,
                };
                self.engine = Some((round, DiscreteState::Alg2(state)));
            }
            "end" => {
                read_fields!(scan.fields("end") { records: u64, tasks: u64 });
                if records != u64_exact(self.records) || tasks != self.tasks {
                    return Err(format!(
                        "end record declares {records} record(s) / {tasks} task(s) but the \
                         snapshot carries {} / {}",
                        self.records, self.tasks
                    ));
                }
                self.sealed = true;
                return Ok(()); // the end record itself is not counted
            }
            "run" | "twin" => return Err(format!("duplicate {kind} record")),
            "header" => return Err("unexpected header record".into()),
            other => return Err(format!("unknown record kind {other:?}")),
        }
        self.records += 1;
        Ok(())
    }

    /// The snapshot the lines carried, once they are all read.
    fn finish(self) -> Result<Snapshot, SnapshotError> {
        let line = self.last_line;
        if !self.sealed {
            return Err(SnapshotError::Truncated {
                line: line.max(1),
                reason: if self.scenario.is_none() {
                    "empty snapshot".into()
                } else {
                    "snapshot ends without the end record".into()
                },
            });
        }
        let corrupt = |reason: &str| SnapshotError::corrupt(line, reason);
        let (scenario, (round, driver)) = match (self.scenario, self.run) {
            (Some(scenario), Some(run)) => (scenario, run),
            _ => return Err(corrupt("snapshot has no run record")),
        };
        let twin = self
            .twin
            .ok_or_else(|| corrupt("snapshot has no twin record"))?;
        let (engine_round, discrete) = self
            .engine
            .ok_or_else(|| corrupt("snapshot has no engine record"))?;
        if let DiscreteState::Alg1(alg1) = &discrete {
            if alg1.queues.len() != alg1.dummy.len() {
                return Err(corrupt(&format!(
                    "snapshot carries {} queue record(s) for {} node(s)",
                    alg1.queues.len(),
                    alg1.dummy.len()
                )));
            }
        }
        Ok(Snapshot {
            scenario,
            driver,
            round,
            engine: EngineState {
                round: engine_round,
                twin,
                discrete,
            },
        })
    }
}

/// Parses a snapshot from its line-delimited text form, validating the
/// version, the record sequence and the end record's totals.
///
/// # Errors
///
/// Every malformed input maps to a specific [`SnapshotError`]: bad records
/// are located by line, a flipped version is [`SnapshotError::Version`], a
/// missing end record or a mid-line torn write is
/// [`SnapshotError::Truncated`].
pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
    let mut reader = Reader::default();
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        reader.terminated_line(idx + 1, line)?;
    }
    reader.finish()
}

/// Reads and parses the snapshot file at `path`, one line at a time.
///
/// # Errors
///
/// I/O failures surface as [`SnapshotError::Io`]; malformed content as the
/// located variants of [`SnapshotError`].
pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
    let path = path.as_ref();
    let io_error = |e: io::Error| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut file = BufReader::new(fs::File::open(path).map_err(io_error)?);
    let mut reader = Reader::default();
    let mut line = String::new();
    for lineno in 1.. {
        line.clear();
        if file.read_line(&mut line).map_err(io_error)? == 0 {
            break;
        }
        reader.terminated_line(lineno, &line)?;
    }
    reader.finish()
}

/// Streams `snapshot` into a staging file and atomically publishes it at
/// `path` (see [`write_atomic_with`]); the document is never held whole in
/// memory.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] naming the path on failure.
pub fn write_atomic(path: impl AsRef<Path>, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    write_atomic_with(path, |out| {
        write_records(&mut RecordWriter::new(out), snapshot)
    })
    .map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            scenario: Json::obj([("name", Json::from("s")), ("seed", Json::from(7u64))]),
            driver: Json::obj([("engine", Json::from("alg1(fos)"))]),
            round: 12,
            engine: EngineState {
                round: 12,
                twin: TwinState {
                    round: 5,
                    loads: vec![1.5, -0.0, f64::MIN_POSITIVE],
                    cumulative_flow: vec![0.1 + 0.2], // not exactly 0.3: bit test
                    min_load_seen: -3.25,
                    history: Some(ProcessHistory {
                        beta: 1.804217,
                        basis: vec![0.6, -0.8, 0.0],
                        previous: vec![EdgeFlow::new(0.25, 1.75)],
                        has_previous: true,
                    }),
                },
                discrete: DiscreteState::Alg1(Alg1State {
                    queues: vec![
                        QueueState {
                            next_seq: 9,
                            entries: vec![
                                (3, Task::new(TaskId(100), 2)),
                                (7, Task::dummy(TaskId(4))),
                            ],
                        },
                        QueueState {
                            next_seq: 0,
                            entries: Vec::new(),
                        },
                        QueueState {
                            next_seq: 2,
                            entries: vec![(1, Task::new(TaskId((1 << 60) + 3), 1))],
                        },
                    ],
                    dummy: vec![0, 2, 1],
                    discrete_flow: vec![-4, 0, 17],
                    wmax: 2,
                    dummy_created: 3,
                    items_sent: 40,
                    arrived_weight: 12,
                    completed_weight: 9,
                }),
            },
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let snapshot = sample();
        let text = render(&snapshot);
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, snapshot);
        // f64 state survives as bits, not decimal text.
        let twin = &parsed.engine.twin;
        assert_eq!(twin.loads[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(twin.cumulative_flow[0].to_bits(), (0.1 + 0.2f64).to_bits());
        // Re-rendering is byte-identical.
        assert_eq!(render(&parsed), text);
    }

    fn alg2_sample() -> Snapshot {
        let mut snapshot = sample();
        snapshot.engine.twin.history = None;
        snapshot.engine.discrete = DiscreteState::Alg2(Alg2State {
            tokens: vec![5, 0, 2],
            dummy: vec![1, 0, 0],
            discrete_flow: vec![2, -2, 0],
            seed: (1 << 60) + 9,
            dummy_created: 1,
            arrived_weight: 4,
            completed_weight: 2,
        });
        snapshot
    }

    #[test]
    fn alg2_round_trips() {
        let snapshot = alg2_sample();
        let text = render(&snapshot);
        assert_eq!(parse(&text).expect("parses"), snapshot);
    }

    /// The v2 bytes, pinned literally: any writer of the format must
    /// reproduce them exactly.
    #[test]
    fn pins_the_v2_bytes() {
        let twin = concat!(
            r#"{"kind":"twin","round":5,"min_load_seen":13837872805049270272,"#,
            r#""loads":[4609434218613702656,9223372036854775808,4503599627370496],"#,
            r#""cumulative_flow":[4599075939470750516]}"#,
        );
        let alg1 = [
            r#"{"kind":"header","version":2,"scenario":{"name":"s","seed":7}}"#,
            r#"{"kind":"run","round":12,"driver":{"engine":"alg1(fos)"}}"#,
            twin,
            concat!(
                r#"{"kind":"history","beta":4610804290181542426,"has_previous":true,"#,
                r#""basis":[4603579539098121011,13828753015803845018,0],"#,
                r#""previous":[[4598175219545276416,4610560118520545280]]}"#,
            ),
            concat!(
                r#"{"kind":"alg1","round":12,"wmax":2,"dummy_created":3,"items_sent":40,"#,
                r#""arrived_weight":12,"completed_weight":9,"dummy":[0,2,1],"#,
                r#""discrete_flow":[-4,0,17]}"#,
            ),
            r#"{"kind":"queue","node":0,"next_seq":9,"entries":[[3,100,2,false],[7,4,1,true]]}"#,
            r#"{"kind":"queue","node":1,"next_seq":0,"entries":[]}"#,
            r#"{"kind":"queue","node":2,"next_seq":2,"entries":[[1,1152921504606846979,1,false]]}"#,
            r#"{"kind":"end","records":7,"tasks":3}"#,
        ];
        let alg2 = [
            alg1[0],
            alg1[1],
            twin,
            concat!(
                r#"{"kind":"alg2","round":12,"seed":1152921504606846985,"dummy_created":1,"#,
                r#""arrived_weight":4,"completed_weight":2,"tokens":[5,0,2],"dummy":[1,0,0],"#,
                r#""discrete_flow":[2,-2,0]}"#,
            ),
            r#"{"kind":"end","records":3,"tasks":0}"#,
        ];
        for (snapshot, lines) in [(sample(), &alg1[..]), (alg2_sample(), &alg2[..])] {
            let text: String = lines.iter().map(|line| format!("{line}\n")).collect();
            assert_eq!(render(&snapshot), text);
            assert_eq!(parse(&text).expect("parses"), snapshot);
        }
    }

    #[test]
    fn truncation_and_torn_writes_fail_loudly() {
        let text = render(&sample());
        // Drop the end record.
        let without_end: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        match parse(&without_end) {
            Err(SnapshotError::Truncated { reason, .. }) => {
                assert!(reason.contains("end record"), "{reason}")
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Mid-line torn write: cut the file in the middle of a record.
        let cut = text.rfind("\"kind\":\"queue\"").unwrap() + 8;
        let torn = &text[..cut];
        match parse(torn) {
            Err(SnapshotError::Truncated { reason, .. }) => {
                assert!(reason.contains("torn"), "{reason}")
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn flipped_version_is_a_version_error() {
        // A v1 header: the format before the SOS history carried its basis.
        let text = render(&sample()).replace("\"version\":2", "\"version\":1");
        match parse(&text) {
            Err(SnapshotError::Version { found: 1, line: 1 }) => {}
            other => panic!("expected Version, got {other:?}"),
        }
    }

    #[test]
    fn edited_totals_are_corrupt() {
        let text = render(&sample()).replace("\"tasks\":3", "\"tasks\":4");
        match parse(&text) {
            Err(SnapshotError::Corrupt { reason, .. }) => {
                assert!(reason.contains("declares"), "{reason}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn atomic_write_round_trips_and_cleans_up() {
        let path = std::env::temp_dir().join(format!(
            "{}.snap.jsonl",
            lb_analysis::artifact::unique_name("lb_snapshot_unit")
        ));
        let snapshot = sample();
        write_atomic(&path, &snapshot).expect("writes");
        // Overwrite with a second snapshot: rename replaces atomically.
        let mut second = snapshot.clone();
        second.round = 13;
        write_atomic(&path, &second).expect("overwrites");
        assert_eq!(load(&path).expect("loads"), second);
        // No temp file lingers.
        let dir = path.parent().unwrap();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("lb_snapshot_unit"))
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_names_the_failure() {
        let err = SnapshotError::Version { line: 1, found: 9 };
        assert!(err.to_string().contains("version 9"));
        let err = SnapshotError::corrupt(4, "bad");
        assert!(err.to_string().contains("line 4"));
        let err = SnapshotError::mismatch("wrong engine");
        assert!(err.to_string().contains("wrong engine"));
    }
}
