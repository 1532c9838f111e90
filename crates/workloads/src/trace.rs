//! Trace record/replay: a line-delimited JSON format capturing a scenario
//! run's event stream, so any run can be recorded once and replayed
//! bit-identically — on another machine, at another shard count, or through
//! the async ingestion channel instead of the synchronous generator.
//!
//! # Format
//!
//! One JSON document per line ([`lb_analysis::Json`]; seeds, task ids and
//! weights are written as exact integers, never rounded through `f64`):
//!
//! ```text
//! {"kind":"header","version":1,"scenario":{…}}          // effective spec
//! {"kind":"round","round":3,"completions":[[node,weight],…],
//!                            "arrivals":[[node,id,weight],…]}
//! {"kind":"round","round":4, …}                          // strictly increasing
//! {"kind":"end","rounds":2,"events":17}                  // truncation guard
//! ```
//!
//! * The **header** embeds the *effective* scenario — seed and shard
//!   overrides already applied — so a trace is self-contained: replay
//!   rebuilds the graph, speeds and initial load from the embedded spec and
//!   takes the per-round events from the round records instead of the
//!   scenario's generator. Topology churn stays in the spec (it is part of
//!   the scenario, not the event stream).
//! * **Round records** appear in strictly increasing round order; rounds
//!   with no events are simply absent. Completions precede arrivals within
//!   a record, matching the order `apply_events` consumes them in.
//! * The **end record** carries the round-record and event totals; a reader
//!   rejects a trace without a matching end record, so a truncated file
//!   (interrupted recording, partial copy) fails loudly instead of silently
//!   replaying a prefix.

use lb_analysis::artifact::{create_staging, publish_staged};
use lb_analysis::{u64_exact, Json};
use lb_core::discrete::RoundEvents;
use lb_core::{Task, TaskId};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::scenario::Scenario;

/// The trace format version this module writes and the only one it reads.
pub const TRACE_VERSION: u64 = 1;

/// Streams a run's event batches into the line-delimited trace format.
///
/// Create with [`TraceWriter::create`] (file) or [`TraceWriter::new`] (any
/// writer); feed every applied batch to
/// [`record_round`](TraceWriter::record_round) and seal the trace with
/// [`finish`](TraceWriter::finish) — an unfinished trace is rejected by the
/// reader.
pub struct TraceWriter {
    out: Box<dyn Write>,
    last_round: Option<u64>,
    rounds: u64,
    events: u64,
    /// `(staging path, target path)` for file-backed writers: the trace is
    /// streamed into a temp sibling and published under the target by
    /// rename in [`finish`](TraceWriter::finish), so a crashed recording
    /// never leaves a torn trace at the target path.
    publish: Option<(PathBuf, PathBuf)>,
}

impl TraceWriter {
    /// Starts a trace on an arbitrary writer, emitting the header line for
    /// `scenario` (the *effective* spec: overrides already applied).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as a string.
    pub fn new(out: impl Write + 'static, scenario: &Scenario) -> Result<Self, String> {
        let mut writer = TraceWriter {
            out: Box::new(out),
            last_round: None,
            rounds: 0,
            events: 0,
            publish: None,
        };
        let header = Json::obj([
            ("kind", Json::from("header")),
            ("version", Json::from(TRACE_VERSION)),
            ("scenario", scenario.to_json()),
        ]);
        writer.write_line(&header)?;
        Ok(writer)
    }

    /// Starts a trace file destined for `path`. The trace is streamed into
    /// a fresh staging sibling ([`create_staging`]) and atomically
    /// published under `path` — fsync, rename, directory fsync — by
    /// [`finish`](TraceWriter::finish): a crash or error mid-recording
    /// leaves whatever was at `path` before untouched, never a torn trace.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on creation or write failure.
    pub fn create(path: impl AsRef<Path>, scenario: &Scenario) -> Result<Self, String> {
        let path = path.as_ref();
        let (tmp, file) =
            create_staging(path).map_err(|e| format!("creating trace {}: {e}", path.display()))?;
        let mut writer = Self::new(io::BufWriter::new(file), scenario)?;
        writer.publish = Some((tmp, path.to_path_buf()));
        Ok(writer)
    }

    /// Records one round's applied batch. Empty batches are skipped (they
    /// carry no information: replay treats absent rounds as event-free).
    ///
    /// # Errors
    ///
    /// Returns a message if `round` does not exceed the previously recorded
    /// round, or on write failure.
    pub fn record_round(&mut self, round: u64, events: &RoundEvents) -> Result<(), String> {
        if events.is_empty() {
            return Ok(());
        }
        if let Some(last) = self.last_round {
            if round <= last {
                return Err(format!(
                    "trace rounds must be strictly increasing: {round} after {last}"
                ));
            }
        }
        let completions = events
            .completions
            .iter()
            .map(|&(node, weight)| Json::Arr(vec![Json::from(node), Json::from(weight)]))
            .collect();
        let arrivals = events
            .arrivals
            .iter()
            .map(|&(node, task)| {
                Json::Arr(vec![
                    Json::from(node),
                    Json::from(task.id().0),
                    Json::from(task.weight()),
                ])
            })
            .collect();
        let record = Json::obj([
            ("kind", Json::from("round")),
            ("round", Json::from(round)),
            ("completions", Json::Arr(completions)),
            ("arrivals", Json::Arr(arrivals)),
        ]);
        self.write_line(&record)?;
        self.last_round = Some(round);
        self.rounds += 1;
        self.events += u64_exact(events.arrivals.len() + events.completions.len());
        Ok(())
    }

    /// Seals the trace with the end record and flushes the writer. For
    /// file-backed writers ([`TraceWriter::create`]) this is also the
    /// publication point: the staged bytes are fsynced, renamed over the
    /// target path, and the rename itself is persisted with a directory
    /// fsync.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error as a string.
    pub fn finish(mut self) -> Result<(), String> {
        let end = Json::obj([
            ("kind", Json::from("end")),
            ("rounds", Json::from(self.rounds)),
            ("events", Json::from(self.events)),
        ]);
        self.write_line(&end)?;
        self.out
            .flush()
            .map_err(|e| format!("flushing trace: {e}"))?;
        let Some((tmp, target)) = self.publish.take() else {
            return Ok(());
        };
        drop(self); // closes the staged file (the pending publish is taken)
        publish_staged(&tmp, &target)
            .map_err(|e| format!("publishing trace {}: {e}", target.display()))
    }

    fn write_line(&mut self, record: &Json) -> Result<(), String> {
        writeln!(self.out, "{}", record.render()).map_err(|e| format!("writing trace: {e}"))
    }
}

impl Drop for TraceWriter {
    /// An abandoned (unfinished) file-backed writer never publishes: the
    /// staged temp file is removed and the target path is left untouched —
    /// the same outcome a crash mid-recording produces, minus the stray
    /// temp.
    fn drop(&mut self) {
        if let Some((tmp, _)) = self.publish.take() {
            let _ = fs::remove_file(tmp);
        }
    }
}

/// One round's recorded events, decoded back into a [`RoundEvents`] shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRound {
    /// The round the batch applies before.
    pub round: u64,
    /// `(node, task id, weight)` triples, in recorded (application) order.
    pub arrivals: Vec<(usize, u64, u64)>,
    /// `(node, completion budget)` pairs, in recorded order.
    pub completions: Vec<(usize, u64)>,
}

impl TraceRound {
    /// Fills `out` (cleared first) with this record's batch.
    pub fn fill(&self, out: &mut RoundEvents) {
        out.clear();
        out.completions.extend_from_slice(&self.completions);
        out.arrivals.extend(
            self.arrivals
                .iter()
                .map(|&(node, id, weight)| (node, Task::new(TaskId(id), weight))),
        );
    }
}

/// A fully parsed trace: the effective scenario plus every recorded round.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The effective scenario recorded in the header (seed and shard
    /// overrides already applied at record time).
    pub scenario: Scenario,
    /// Round records, strictly increasing in `round`.
    pub rounds: Vec<TraceRound>,
}

impl Trace {
    /// Reads and parses the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for I/O and format errors.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = fs::read_to_string(path)
            .map_err(|e| format!("reading trace {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a trace from its line-delimited text form, validating the
    /// header version, the embedded scenario, round ordering and bounds,
    /// and the end record's totals.
    ///
    /// # Errors
    ///
    /// Returns a message locating the first malformed line, and rejects
    /// traces without a matching end record (truncation).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty());

        let (header_idx, header_line) = lines.next().ok_or("empty trace")?;
        let header_lineno = header_idx + 1;
        let scenario =
            parse_header_line(header_line).map_err(|e| format!("line {header_lineno}: {e}"))?;

        let mut rounds: Vec<TraceRound> = Vec::new();
        let mut events_total = 0u64;
        let mut sealed = false;
        for (idx, line) in lines {
            let lineno = idx + 1;
            if sealed {
                return Err(format!("line {lineno}: content after the end record"));
            }
            let record = Json::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
            match record.get("kind").and_then(Json::as_str) {
                Some("round") => {
                    let parsed = parse_round(&record).map_err(|e| format!("line {lineno}: {e}"))?;
                    if let Some(last) = rounds.last() {
                        if parsed.round <= last.round {
                            return Err(format!(
                                "line {lineno}: round {} after round {} (must be strictly \
                                 increasing)",
                                parsed.round, last.round
                            ));
                        }
                    }
                    if parsed.round >= u64_exact(scenario.rounds) {
                        return Err(format!(
                            "line {lineno}: round {} is beyond the scenario ({} rounds)",
                            parsed.round, scenario.rounds
                        ));
                    }
                    events_total += u64_exact(parsed.arrivals.len() + parsed.completions.len());
                    rounds.push(parsed);
                }
                Some("end") => {
                    let declared_rounds = record
                        .get("rounds")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {lineno}: end record has no rounds total"))?;
                    let declared_events = record
                        .get("events")
                        .and_then(Json::as_u64)
                        .ok_or(format!("line {lineno}: end record has no events total"))?;
                    if declared_rounds != u64_exact(rounds.len()) || declared_events != events_total
                    {
                        return Err(format!(
                            "line {lineno}: end record declares {declared_rounds} round(s) / \
                             {declared_events} event(s) but the trace carries {} / \
                             {events_total}",
                            rounds.len()
                        ));
                    }
                    sealed = true;
                }
                Some(other) => return Err(format!("line {lineno}: unknown record kind {other:?}")),
                None => return Err(format!("line {lineno}: record has no kind")),
            }
        }
        if !sealed {
            return Err("trace has no end record (truncated?)".into());
        }
        Ok(Trace { scenario, rounds })
    }

    /// Total recorded events across all rounds.
    pub fn event_count(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| u64_exact(r.arrivals.len() + r.completions.len()))
            .sum()
    }
}

/// Parses and validates one `{"kind":"header",…}` line, returning the
/// embedded effective scenario. Shared between the whole-file parser
/// ([`Trace::parse`]) and the streaming sources ([`crate::source`]).
pub(crate) fn parse_header_line(line: &str) -> Result<Scenario, String> {
    let header = Json::parse(line)?;
    if header.get("kind").and_then(Json::as_str) != Some("header") {
        return Err("expected the trace header record".into());
    }
    match header.get("version").and_then(Json::as_u64) {
        Some(TRACE_VERSION) => {}
        Some(v) => return Err(format!("unsupported trace version {v}")),
        None => return Err("missing trace version".into()),
    }
    let scenario_json = header.get("scenario").ok_or("header has no scenario")?;
    let scenario = Scenario::from_json(scenario_json)?;
    scenario.validate()?;
    Ok(scenario)
}

/// Decodes one `{"kind":"round",…}` record.
fn parse_round(record: &Json) -> Result<TraceRound, String> {
    let round = record
        .get("round")
        .and_then(Json::as_u64)
        .ok_or("round record has no round index")?;
    let completions = record
        .get("completions")
        .and_then(Json::as_array)
        .ok_or("round record has no completions array")?
        .iter()
        .map(|pair| {
            let items = pair.as_array().filter(|a| a.len() == 2);
            let node = items.and_then(|a| a[0].as_usize());
            let weight = items.and_then(|a| a[1].as_u64());
            match (node, weight) {
                (Some(node), Some(weight)) => Ok((node, weight)),
                _ => Err(format!("malformed completion {}", pair.render())),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    let arrivals = record
        .get("arrivals")
        .and_then(Json::as_array)
        .ok_or("round record has no arrivals array")?
        .iter()
        .map(|triple| {
            let items = triple.as_array().filter(|a| a.len() == 3);
            let node = items.and_then(|a| a[0].as_usize());
            let id = items.and_then(|a| a[1].as_u64());
            let weight = items.and_then(|a| a[2].as_u64()).filter(|&w| w > 0);
            match (node, id, weight) {
                (Some(node), Some(id), Some(weight)) => Ok((node, id, weight)),
                _ => Err(format!("malformed arrival {}", triple.render())),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TraceRound {
        round,
        arrivals,
        completions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::TokenDistribution;
    use crate::scenario::{
        AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, ServiceSpec, SpeedSpec,
        TopologySpec,
    };

    fn scenario() -> Scenario {
        Scenario {
            name: "trace_test".into(),
            seed: (1 << 53) + 7, // above f64-exact range: exercises Json::Int
            rounds: 50,
            sample_every: 10,
            algorithm: AlgorithmSpec::Alg1,
            model: ModelSpec::Fos,
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
                max_weight: 2,
            },
            completions: ServiceSpec::Uniform {
                weight_per_speed: 1,
            },
            churn: Vec::new(),
            shards: 1,
            federation: 1,
        }
    }

    /// A `Write` sink the test can still read after the boxed writer took
    /// ownership of its clone.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn into_string(self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn sample_batch(base_id: u64) -> RoundEvents {
        let mut events = RoundEvents::default();
        events.completions.push((0, 3));
        events.completions.push((5, 1));
        events.arrivals.push((2, Task::new(TaskId(base_id), 2)));
        events.arrivals.push((7, Task::new(TaskId(base_id + 1), 1)));
        events
    }

    fn write_sample_trace() -> String {
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario()).unwrap();
        writer.record_round(0, &sample_batch(100)).unwrap();
        writer.record_round(1, &RoundEvents::default()).unwrap(); // skipped
        writer.record_round(7, &sample_batch(102)).unwrap();
        writer.finish().unwrap();
        buf.into_string()
    }

    #[test]
    fn round_trips_losslessly() {
        let text = write_sample_trace();
        let trace = Trace::parse(&text).expect("parses");
        assert_eq!(trace.scenario, scenario(), "embedded scenario survives");
        assert_eq!(trace.rounds.len(), 2, "empty batch was skipped");
        assert_eq!(trace.rounds[0].round, 0);
        assert_eq!(trace.rounds[1].round, 7);
        assert_eq!(trace.event_count(), 8);

        // Decoding reproduces the recorded batch exactly.
        let mut out = RoundEvents::default();
        trace.rounds[0].fill(&mut out);
        let expect = sample_batch(100);
        assert_eq!(out.completions, expect.completions);
        assert_eq!(out.arrivals, expect.arrivals);

        // And a re-recorded decoded trace is byte-identical.
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &trace.scenario).unwrap();
        for round in &trace.rounds {
            round.fill(&mut out);
            writer.record_round(round.round, &out).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(buf.into_string(), text);
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let text = write_sample_trace();
        let without_end = text
            .lines()
            .take(text.lines().count() - 1)
            .collect::<Vec<_>>()
            .join("\n");
        let err = Trace::parse(&without_end).expect_err("no end record");
        assert!(err.contains("end record"), "{err}");

        // A tampered end record (dropped round) is caught by the totals.
        let dropped_round = text
            .lines()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, l)| l)
            .collect::<Vec<_>>()
            .join("\n");
        let err = Trace::parse(&dropped_round).expect_err("totals mismatch");
        assert!(err.contains("declares"), "{err}");
    }

    #[test]
    fn malformed_records_are_located() {
        let text = write_sample_trace();
        let err = Trace::parse(&text.replace("\"round\",\"round\":7", "\"round\",\"round\":0"))
            .expect_err("non-increasing rounds rejected");
        assert!(err.contains("strictly increasing"), "{err}");

        let err = Trace::parse(&text.replace("\"round\":7", "\"round\":50"))
            .expect_err("out-of-range round rejected");
        assert!(err.contains("beyond the scenario"), "{err}");

        let err = Trace::parse("").expect_err("empty trace rejected");
        assert!(err.contains("empty"), "{err}");

        let err = Trace::parse("{\"kind\":\"round\"}").expect_err("header must come first");
        assert!(err.contains("header"), "{err}");

        let versioned = text.replace("\"version\":1", "\"version\":2");
        let err = Trace::parse(&versioned).expect_err("future versions rejected");
        assert!(err.contains("version 2"), "{err}");
    }

    #[test]
    fn writer_rejects_non_increasing_rounds() {
        let mut writer = TraceWriter::new(io::sink(), &scenario()).unwrap();
        writer.record_round(5, &sample_batch(0)).unwrap();
        let err = writer
            .record_round(5, &sample_batch(2))
            .expect_err("repeat round rejected");
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn exact_integers_survive_the_trace() {
        // Task ids and the scenario seed above 2^53 must round-trip exactly
        // through the line format (Json::Int, not f64).
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario()).unwrap();
        let mut events = RoundEvents::default();
        let big_id = (1u64 << 60) + 3;
        events.arrivals.push((1, Task::new(TaskId(big_id), 1)));
        writer.record_round(0, &events).unwrap();
        writer.finish().unwrap();
        let trace = Trace::parse(&buf.into_string()).unwrap();
        assert_eq!(trace.scenario.seed, (1 << 53) + 7);
        assert_eq!(trace.rounds[0].arrivals[0].1, (1u64 << 60) + 3);
    }
}
