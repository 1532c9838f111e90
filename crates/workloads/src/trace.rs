//! Trace record/replay: a line-delimited JSON format capturing a scenario
//! run's event stream, so any run can be recorded once and replayed
//! bit-identically — on another machine, at another shard count, or through
//! the async ingestion channel instead of the synchronous generator.
//!
//! # Format
//!
//! One record per line, through the workspace's one record codec
//! ([`lb_analysis::codec`]; seeds, task ids and weights are written as exact
//! integers, never rounded through `f64`):
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
//!
//! # Reading
//!
//! [`TraceWriter`] records; the streaming [`ReadSource`](crate::ReadSource)
//! is the only reader (a trace file, a pipe, a socket or a growing file
//! alike), so a replay never holds the whole trace in memory. It validates
//! as it goes: a truncated or malformed record is found when the stream
//! reaches it, not before the first round, and the replay fails then with
//! no result document; a client streaming the trace to a socket server
//! drops its connection there without the `end` record, which the server
//! handles like an aborted client. Every `round` and `end` record must lead
//! with its `"kind"` field and carry no unknown fields; the writer's output
//! always does.

use lb_analysis::artifact::{create_staging, publish_staged};
use lb_analysis::codec::{RecordWriter, Scan};
use lb_analysis::{read_fields, u64_exact, write_fields, Json};
use lb_core::discrete::RoundEvents;
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
    out: RecordWriter<Box<dyn Write>>,
    last_round: Option<u64>,
    rounds: u64,
    events: u64,
    /// `(staging path, target path)` for file-backed writers: the trace is
    /// streamed into a temp sibling and published under the target by
    /// rename in [`finish`](TraceWriter::finish), so a crashed recording
    /// never leaves a torn trace at the target path. `None` also for a
    /// device or FIFO target, which is written to directly.
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
            out: RecordWriter::new(Box::new(out)),
            last_round: None,
            rounds: 0,
            events: 0,
            publish: None,
        };
        writer.write_record(|out| {
            let (version, scenario) = (TRACE_VERSION, scenario.to_json());
            out.open("header")?;
            write_fields!(out: version, scenario);
            out.close_line()
        })?;
        Ok(writer)
    }

    /// Starts a trace file destined for `path`. The trace is streamed into
    /// a fresh staging sibling ([`create_staging`]) and atomically
    /// published under `path` — fsync, rename, directory fsync — by
    /// [`finish`](TraceWriter::finish): a crash or error mid-recording
    /// leaves whatever was at `path` before untouched, never a torn trace.
    /// A device or FIFO at `path` is written to directly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on creation or write failure.
    pub fn create(path: impl AsRef<Path>, scenario: &Scenario) -> Result<Self, String> {
        let path = path.as_ref();
        let (tmp, file) =
            create_staging(path).map_err(|e| format!("creating trace {}: {e}", path.display()))?;
        let mut writer = Self::new(io::BufWriter::new(file), scenario)?;
        writer.publish = tmp.map(|tmp| (tmp, path.to_path_buf()));
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
        self.write_record(|out| {
            let completions = &events.completions;
            let arrivals = events.arrivals.iter();
            out.open("round")?;
            write_fields!(out: round, completions);
            out.list(
                "arrivals",
                arrivals.map(|&(node, task)| (node, task.id().0, task.weight())),
            )?;
            out.close_line()
        })?;
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
        let (rounds, events) = (self.rounds, self.events);
        self.write_record(|out| {
            out.open("end")?;
            write_fields!(out: rounds, events);
            out.close_line()
        })?;
        self.out
            .get_mut()
            .flush()
            .map_err(|e| format!("flushing trace: {e}"))?;
        let Some((tmp, target)) = self.publish.take() else {
            return Ok(());
        };
        drop(self); // closes the staged file (the pending publish is taken)
        publish_staged(&tmp, &target)
            .map_err(|e| format!("publishing trace {}: {e}", target.display()))
    }

    fn write_record(
        &mut self,
        write: impl FnOnce(&mut RecordWriter<Box<dyn Write>>) -> io::Result<()>,
    ) -> Result<(), String> {
        write(&mut self.out).map_err(|e| format!("writing trace: {e}"))
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

/// Parses and validates one `{"kind":"header",…}` line, returning the
/// embedded effective scenario (the one header parser of
/// [`crate::source`]).
pub(crate) fn parse_header_line(line: &str) -> Result<Scenario, String> {
    let (mut scan, kind) = Scan::record(line)?;
    if kind != "header" {
        return Err("expected the trace header record".into());
    }
    read_fields!(scan.fields("header") { version: u64, scenario: Json });
    if version != TRACE_VERSION {
        return Err(format!("unsupported trace version {version}"));
    }
    let scenario = Scenario::from_json(&scenario)?;
    scenario.validate()?;
    Ok(scenario)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::distributions::TokenDistribution;
    use crate::scenario::{
        AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, ServiceSpec, SpeedSpec,
        TopologySpec,
    };
    use crate::source::{ReadSource, RoundSource};
    use lb_core::{Task, TaskId};

    pub(crate) fn scenario() -> Scenario {
        Scenario {
            name: "trace_test".into(),
            seed: (1 << 53) + 7, // above f64-exact range: exercises exact integers
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
    pub(crate) struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        pub(crate) fn into_string(self) -> String {
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

    pub(crate) fn sample_batch(base_id: u64) -> RoundEvents {
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

    /// Reads `text` through the streaming reader: the embedded scenario and
    /// every round record, or the first error.
    fn read_all(text: &str) -> Result<(Scenario, Vec<(u64, RoundEvents)>), String> {
        let mut source = ReadSource::new(io::Cursor::new(text.as_bytes().to_vec()))?;
        let mut rounds = Vec::new();
        let mut out = RoundEvents::default();
        while let Some(round) = source.next_round(&mut out)? {
            rounds.push((round, out.clone()));
        }
        Ok((source.scenario().clone(), rounds))
    }

    #[test]
    fn round_trips_losslessly() {
        let text = write_sample_trace();
        let (embedded, rounds) = read_all(&text).expect("reads");
        assert_eq!(embedded, scenario(), "embedded scenario survives");
        let tags: Vec<u64> = rounds.iter().map(|(round, _)| *round).collect();
        assert_eq!(tags, vec![0, 7], "empty batch was skipped");

        // Decoding reproduces the recorded batch exactly.
        let expect = sample_batch(100);
        assert_eq!(rounds[0].1.completions, expect.completions);
        assert_eq!(rounds[0].1.arrivals, expect.arrivals);

        // And re-recording the decoded stream is byte-identical.
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &embedded).unwrap();
        for (round, events) in &rounds {
            writer.record_round(*round, events).unwrap();
        }
        writer.finish().unwrap();
        assert_eq!(buf.into_string(), text);
    }

    #[test]
    fn malformed_records_are_located() {
        let text = write_sample_trace();
        let err = read_all(&text.replace("\"round\",\"round\":7", "\"round\",\"round\":0"))
            .expect_err("non-increasing rounds rejected");
        assert!(err.contains("strictly increasing"), "{err}");

        let err = read_all(&text.replace("\"round\":7", "\"round\":50"))
            .expect_err("out-of-range round rejected");
        assert!(err.contains("beyond the scenario"), "{err}");

        let err = read_all("").expect_err("empty trace rejected");
        assert!(err.contains("ended before the header"), "{err}");

        let err = read_all("{\"kind\":\"round\"}\n").expect_err("header must come first");
        assert!(err.contains("header"), "{err}");

        let versioned = text.replace("\"version\":1", "\"version\":2");
        let err = read_all(&versioned).expect_err("future versions rejected");
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
        // through the line format, never through f64.
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario()).unwrap();
        let mut events = RoundEvents::default();
        let big_id = (1u64 << 60) + 3;
        events.arrivals.push((1, Task::new(TaskId(big_id), 1)));
        writer.record_round(0, &events).unwrap();
        writer.finish().unwrap();
        let (embedded, rounds) = read_all(&buf.into_string()).unwrap();
        assert_eq!(embedded.seed, (1 << 53) + 7);
        assert_eq!(rounds[0].1.arrivals[0].1.id(), TaskId((1u64 << 60) + 3));
    }
}
