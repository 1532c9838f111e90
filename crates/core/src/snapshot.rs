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
//! One JSON document per line (via [`lb_analysis::Json`]; integers are
//! exact, `f64` state is encoded as IEEE-754 **bit patterns** so restore is
//! bit-identical, never a decimal round-trip):
//!
//! ```text
//! {"kind":"header","version":1,"scenario":{…}}            // opaque driver payload
//! {"kind":"run","round":R,"driver":{…}}                   // opaque driver payload
//! {"kind":"twin","round":T,"min_load_seen":B,"loads":[…],"cumulative_flow":[…]}
//! {"kind":"history","beta":B,"has_previous":true,"previous":[[F,B],…]}  // SOS only
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
//! previous complete snapshot or the new one.

use crate::continuous::EdgeFlow;
use crate::task::Task;
use crate::TaskId;
use lb_analysis::{u64_exact, usize_exact, Json};
use std::fmt;
use std::fs;
use std::path::Path;

pub use lb_analysis::artifact::write_bytes_atomic;

/// The snapshot format version this module writes and the only one it reads.
pub const SNAPSHOT_VERSION: u64 = 1;

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
    /// The relaxation parameter β, for bit-exact validation against the
    /// process rebuilt at resume time.
    pub beta: f64,
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

/// `f64` state travels as its IEEE-754 bit pattern: exact for every value
/// including negative zero, subnormals and infinities.
fn bits(x: f64) -> Json {
    Json::from(x.to_bits())
}

fn bits_arr(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| bits(x)).collect())
}

fn i64_arr(xs: &[i64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

fn u64_arr(xs: &[u64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

/// Renders `snapshot` into the line-delimited text form.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut records = 0usize;
    let mut tasks = 0u64;
    let header = Json::obj([
        ("kind", Json::from("header")),
        ("version", Json::from(SNAPSHOT_VERSION)),
        ("scenario", snapshot.scenario.clone()),
    ]);
    out.push_str(&header.render());
    out.push('\n');
    let mut push = |record: Json, out: &mut String| {
        out.push_str(&record.render());
        out.push('\n');
        records += 1;
    };
    push(
        Json::obj([
            ("kind", Json::from("run")),
            ("round", Json::from(snapshot.round)),
            ("driver", snapshot.driver.clone()),
        ]),
        &mut out,
    );
    let twin = &snapshot.engine.twin;
    push(
        Json::obj([
            ("kind", Json::from("twin")),
            ("round", Json::from(twin.round)),
            ("min_load_seen", bits(twin.min_load_seen)),
            ("loads", bits_arr(&twin.loads)),
            ("cumulative_flow", bits_arr(&twin.cumulative_flow)),
        ]),
        &mut out,
    );
    if let Some(history) = &twin.history {
        let previous = history
            .previous
            .iter()
            .map(|flow| Json::Arr(vec![bits(flow.forward), bits(flow.backward)]))
            .collect();
        push(
            Json::obj([
                ("kind", Json::from("history")),
                ("beta", bits(history.beta)),
                ("has_previous", Json::from(history.has_previous)),
                ("previous", Json::Arr(previous)),
            ]),
            &mut out,
        );
    }
    match &snapshot.engine.discrete {
        DiscreteState::Alg1(alg1) => {
            push(
                Json::obj([
                    ("kind", Json::from("alg1")),
                    ("round", Json::from(snapshot.engine.round)),
                    ("wmax", Json::from(alg1.wmax)),
                    ("dummy_created", Json::from(alg1.dummy_created)),
                    ("items_sent", Json::from(alg1.items_sent)),
                    ("arrived_weight", Json::from(alg1.arrived_weight)),
                    ("completed_weight", Json::from(alg1.completed_weight)),
                    ("dummy", u64_arr(&alg1.dummy)),
                    ("discrete_flow", i64_arr(&alg1.discrete_flow)),
                ]),
                &mut out,
            );
            for (node, queue) in alg1.queues.iter().enumerate() {
                tasks += u64_exact(queue.entries.len());
                let entries = queue
                    .entries
                    .iter()
                    .map(|&(seq, task)| {
                        Json::Arr(vec![
                            Json::from(seq),
                            Json::from(task.id().0),
                            Json::from(task.weight()),
                            Json::from(task.is_dummy()),
                        ])
                    })
                    .collect();
                push(
                    Json::obj([
                        ("kind", Json::from("queue")),
                        ("node", Json::from(node)),
                        ("next_seq", Json::from(queue.next_seq)),
                        ("entries", Json::Arr(entries)),
                    ]),
                    &mut out,
                );
            }
        }
        DiscreteState::Alg2(alg2) => {
            push(
                Json::obj([
                    ("kind", Json::from("alg2")),
                    ("round", Json::from(snapshot.engine.round)),
                    ("seed", Json::from(alg2.seed)),
                    ("dummy_created", Json::from(alg2.dummy_created)),
                    ("arrived_weight", Json::from(alg2.arrived_weight)),
                    ("completed_weight", Json::from(alg2.completed_weight)),
                    ("tokens", u64_arr(&alg2.tokens)),
                    ("dummy", u64_arr(&alg2.dummy)),
                    ("discrete_flow", i64_arr(&alg2.discrete_flow)),
                ]),
                &mut out,
            );
        }
    }
    let end = Json::obj([
        ("kind", Json::from("end")),
        ("records", Json::from(records)),
        ("tasks", Json::from(tasks)),
    ]);
    out.push_str(&end.render());
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Exact u64: `Json::Int` in range or an integral non-negative `Num`.
fn get_u64(record: &Json, field: &str, line: usize) -> Result<u64, SnapshotError> {
    record
        .get(field)
        .ok_or_else(|| SnapshotError::corrupt(line, format!("missing field {field:?}")))?
        .as_u64()
        .ok_or_else(|| {
            SnapshotError::corrupt(
                line,
                format!("field {field:?} must be a non-negative exact integer"),
            )
        })
}

fn item_u64(item: &Json, what: &str, line: usize) -> Result<u64, SnapshotError> {
    item.as_u64().ok_or_else(|| {
        SnapshotError::corrupt(line, format!("{what} must be a non-negative exact integer"))
    })
}

/// Exact i64 (the discrete-flow ledger is signed).
fn item_i64(item: &Json, what: &str, line: usize) -> Result<i64, SnapshotError> {
    let exact = match item {
        Json::Int(v) => i64::try_from(*v).ok(),
        // lint: allow(R02, both casts proven exact by the fract/magnitude guard)
        Json::Num(x) if x.fract() == 0.0 && x.abs() <= (1u64 << 53) as f64 => Some(*x as i64),
        _ => None,
    };
    exact.ok_or_else(|| SnapshotError::corrupt(line, format!("{what} must be an exact integer")))
}

fn item_f64_bits(item: &Json, what: &str, line: usize) -> Result<f64, SnapshotError> {
    Ok(f64::from_bits(item_u64(item, what, line)?))
}

fn get_f64_bits(record: &Json, field: &str, line: usize) -> Result<f64, SnapshotError> {
    Ok(f64::from_bits(get_u64(record, field, line)?))
}

fn get_array<'a>(record: &'a Json, field: &str, line: usize) -> Result<&'a [Json], SnapshotError> {
    record
        .get(field)
        .ok_or_else(|| SnapshotError::corrupt(line, format!("missing field {field:?}")))?
        .as_array()
        .ok_or_else(|| SnapshotError::corrupt(line, format!("field {field:?} must be an array")))
}

fn get_bits_arr(record: &Json, field: &str, line: usize) -> Result<Vec<f64>, SnapshotError> {
    get_array(record, field, line)?
        .iter()
        .map(|item| item_f64_bits(item, &format!("{field} entry"), line))
        .collect()
}

fn get_u64_arr(record: &Json, field: &str, line: usize) -> Result<Vec<u64>, SnapshotError> {
    get_array(record, field, line)?
        .iter()
        .map(|item| item_u64(item, &format!("{field} entry"), line))
        .collect()
}

fn get_i64_arr(record: &Json, field: &str, line: usize) -> Result<Vec<i64>, SnapshotError> {
    get_array(record, field, line)?
        .iter()
        .map(|item| item_i64(item, &format!("{field} entry"), line))
        .collect()
}

fn get_bool(record: &Json, field: &str, line: usize) -> Result<bool, SnapshotError> {
    match record.get(field) {
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(SnapshotError::corrupt(
            line,
            format!("field {field:?} must be a boolean"),
        )),
        None => Err(SnapshotError::corrupt(
            line,
            format!("missing field {field:?}"),
        )),
    }
}

fn kind_of(record: &Json) -> Option<&str> {
    record.get("kind").and_then(Json::as_str)
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
    if text.is_empty() {
        return Err(SnapshotError::Truncated {
            line: 1,
            reason: "empty snapshot".into(),
        });
    }
    let line_count = text.lines().count();
    if !text.ends_with('\n') {
        return Err(SnapshotError::Truncated {
            line: line_count,
            reason: "torn line (the file ends mid-record, without a newline)".into(),
        });
    }
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(idx, line)| (idx + 1, line))
        .filter(|(_, line)| !line.trim().is_empty());

    // Header.
    let (line, header) = lines.next().ok_or(SnapshotError::Truncated {
        line: 1,
        reason: "empty snapshot".into(),
    })?;
    let header = Json::parse(header).map_err(|e| SnapshotError::corrupt(line, e))?;
    if kind_of(&header) != Some("header") {
        return Err(SnapshotError::corrupt(
            line,
            "expected the snapshot header record",
        ));
    }
    match get_u64(&header, "version", line)? {
        SNAPSHOT_VERSION => {}
        found => return Err(SnapshotError::Version { line, found }),
    }
    let scenario = header
        .get("scenario")
        .ok_or_else(|| SnapshotError::corrupt(line, "header has no scenario"))?
        .clone();

    // Body: run → twin → [history] → alg1 + queues | alg2 → end.
    let mut run: Option<(u64, Json)> = None;
    let mut twin: Option<TwinState> = None;
    let mut alg1: Option<(u64, Alg1State)> = None;
    let mut alg2: Option<(u64, Alg2State)> = None;
    let mut records = 0usize;
    let mut tasks = 0u64;
    let mut sealed = false;
    let mut last_line = line;
    for (line, text) in lines {
        last_line = line;
        if sealed {
            return Err(SnapshotError::corrupt(line, "content after the end record"));
        }
        let record = Json::parse(text).map_err(|e| SnapshotError::corrupt(line, e))?;
        match kind_of(&record) {
            Some("run") => {
                if run.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate run record"));
                }
                let round = get_u64(&record, "round", line)?;
                let driver = record
                    .get("driver")
                    .ok_or_else(|| SnapshotError::corrupt(line, "run record has no driver"))?
                    .clone();
                run = Some((round, driver));
            }
            Some("twin") => {
                if twin.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate twin record"));
                }
                twin = Some(TwinState {
                    round: get_u64(&record, "round", line)?,
                    min_load_seen: get_f64_bits(&record, "min_load_seen", line)?,
                    loads: get_bits_arr(&record, "loads", line)?,
                    cumulative_flow: get_bits_arr(&record, "cumulative_flow", line)?,
                    history: None,
                });
            }
            Some("history") => {
                let twin = twin.as_mut().ok_or_else(|| {
                    SnapshotError::corrupt(line, "history record before the twin record")
                })?;
                if twin.history.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate history record"));
                }
                let previous = get_array(&record, "previous", line)?
                    .iter()
                    .map(|pair| {
                        let items = pair.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                            SnapshotError::corrupt(
                                line,
                                "each previous entry must be a [forward, backward] pair",
                            )
                        })?;
                        Ok(EdgeFlow::new(
                            item_f64_bits(&items[0], "previous forward", line)?,
                            item_f64_bits(&items[1], "previous backward", line)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()?;
                twin.history = Some(ProcessHistory {
                    beta: get_f64_bits(&record, "beta", line)?,
                    has_previous: get_bool(&record, "has_previous", line)?,
                    previous,
                });
            }
            Some("alg1") => {
                if alg1.is_some() || alg2.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate engine record"));
                }
                alg1 = Some((
                    get_u64(&record, "round", line)?,
                    Alg1State {
                        queues: Vec::new(),
                        dummy: get_u64_arr(&record, "dummy", line)?,
                        discrete_flow: get_i64_arr(&record, "discrete_flow", line)?,
                        wmax: get_u64(&record, "wmax", line)?,
                        dummy_created: get_u64(&record, "dummy_created", line)?,
                        items_sent: get_u64(&record, "items_sent", line)?,
                        arrived_weight: get_u64(&record, "arrived_weight", line)?,
                        completed_weight: get_u64(&record, "completed_weight", line)?,
                    },
                ));
            }
            Some("queue") => {
                let (_, alg1) = alg1.as_mut().ok_or_else(|| {
                    SnapshotError::corrupt(line, "queue record before the alg1 record")
                })?;
                let node = get_u64(&record, "node", line)
                    .map(usize_exact)?
                    .ok_or_else(|| {
                        SnapshotError::corrupt(line, "queue node index exceeds this platform")
                    })?;
                if node != alg1.queues.len() {
                    return Err(SnapshotError::corrupt(
                        line,
                        format!(
                            "queue records must cover nodes in order: got node {node}, \
                             expected {}",
                            alg1.queues.len()
                        ),
                    ));
                }
                let entries = get_array(&record, "entries", line)?
                    .iter()
                    .map(|entry| {
                        let items = entry.as_array().filter(|a| a.len() == 4).ok_or_else(|| {
                            SnapshotError::corrupt(
                                line,
                                "each queue entry must be a [seq, id, weight, dummy] quadruple",
                            )
                        })?;
                        let seq = item_u64(&items[0], "queue entry seq", line)?;
                        let id = item_u64(&items[1], "queue entry id", line)?;
                        let weight = item_u64(&items[2], "queue entry weight", line)?;
                        let dummy = match &items[3] {
                            Json::Bool(b) => *b,
                            _ => {
                                return Err(SnapshotError::corrupt(
                                    line,
                                    "queue entry dummy flag must be a boolean",
                                ))
                            }
                        };
                        let task = if dummy {
                            if weight != 1 {
                                return Err(SnapshotError::corrupt(
                                    line,
                                    "dummy tasks must have unit weight",
                                ));
                            }
                            Task::dummy(TaskId(id))
                        } else {
                            if weight == 0 {
                                return Err(SnapshotError::corrupt(
                                    line,
                                    "task weight must be positive",
                                ));
                            }
                            Task::new(TaskId(id), weight)
                        };
                        Ok((seq, task))
                    })
                    .collect::<Result<Vec<_>, SnapshotError>>()?;
                tasks += u64_exact(entries.len());
                alg1.queues.push(QueueState {
                    next_seq: get_u64(&record, "next_seq", line)?,
                    entries,
                });
            }
            Some("alg2") => {
                if alg1.is_some() || alg2.is_some() {
                    return Err(SnapshotError::corrupt(line, "duplicate engine record"));
                }
                alg2 = Some((
                    get_u64(&record, "round", line)?,
                    Alg2State {
                        tokens: get_u64_arr(&record, "tokens", line)?,
                        dummy: get_u64_arr(&record, "dummy", line)?,
                        discrete_flow: get_i64_arr(&record, "discrete_flow", line)?,
                        seed: get_u64(&record, "seed", line)?,
                        dummy_created: get_u64(&record, "dummy_created", line)?,
                        arrived_weight: get_u64(&record, "arrived_weight", line)?,
                        completed_weight: get_u64(&record, "completed_weight", line)?,
                    },
                ));
            }
            Some("end") => {
                let declared_records = get_u64(&record, "records", line)?;
                let declared_tasks = get_u64(&record, "tasks", line)?;
                if declared_records != u64_exact(records) || declared_tasks != tasks {
                    return Err(SnapshotError::corrupt(
                        line,
                        format!(
                            "end record declares {declared_records} record(s) / \
                             {declared_tasks} task(s) but the snapshot carries \
                             {records} / {tasks}"
                        ),
                    ));
                }
                sealed = true;
                continue; // the end record itself is not counted
            }
            Some("header") => {
                return Err(SnapshotError::corrupt(line, "unexpected header record"));
            }
            Some(other) => {
                return Err(SnapshotError::corrupt(
                    line,
                    format!("unknown record kind {other:?}"),
                ));
            }
            None => return Err(SnapshotError::corrupt(line, "record has no kind")),
        }
        records += 1;
    }
    if !sealed {
        return Err(SnapshotError::Truncated {
            line: last_line,
            reason: "snapshot ends without the end record".into(),
        });
    }
    let (round, driver) =
        run.ok_or_else(|| SnapshotError::corrupt(last_line, "snapshot has no run record"))?;
    let twin =
        twin.ok_or_else(|| SnapshotError::corrupt(last_line, "snapshot has no twin record"))?;
    let (engine_round, discrete) = match (alg1, alg2) {
        (Some((round, state)), None) => (round, DiscreteState::Alg1(state)),
        (None, Some((round, state))) => (round, DiscreteState::Alg2(state)),
        _ => {
            return Err(SnapshotError::corrupt(
                last_line,
                "snapshot has no engine record",
            ))
        }
    };
    if let DiscreteState::Alg1(alg1) = &discrete {
        if alg1.queues.len() != alg1.dummy.len() {
            return Err(SnapshotError::corrupt(
                last_line,
                format!(
                    "snapshot carries {} queue record(s) for {} node(s)",
                    alg1.queues.len(),
                    alg1.dummy.len()
                ),
            ));
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

/// Reads and parses the snapshot file at `path`.
///
/// # Errors
///
/// I/O failures surface as [`SnapshotError::Io`]; malformed content as the
/// located variants of [`SnapshotError`].
pub fn load(path: impl AsRef<Path>) -> Result<Snapshot, SnapshotError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse(&text)
}

/// Renders `snapshot` and atomically writes it to `path` (see
/// [`write_bytes_atomic`]).
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] naming the path on failure.
pub fn write_atomic(path: impl AsRef<Path>, snapshot: &Snapshot) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    write_bytes_atomic(path, render(snapshot).as_bytes()).map_err(|e| SnapshotError::Io {
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

    #[test]
    fn alg2_round_trips() {
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
        let text = render(&snapshot);
        assert_eq!(parse(&text).expect("parses"), snapshot);
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
        let text = render(&sample()).replace("\"version\":1", "\"version\":2");
        match parse(&text) {
            Err(SnapshotError::Version { found: 2, line: 1 }) => {}
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
