//! The trace reader: parses the line-delimited trace format
//! ([`crate::trace`]) **incrementally** from any byte stream into recycled
//! [`RoundEvents`] buffers, so a producer thread can feed an engine through
//! the async ingestion channel without allocating in steady state. It is the
//! only reader of the format: pipes, sockets, stdin, finished trace files
//! and growing ones all go through the same header loop and the same
//! `next_round` loop.
//!
//! # Layout
//!
//! * [`RoundSource`] — the producer-side contract: the header's embedded
//!   scenario plus a blocking `next_round` that fills a caller-owned batch.
//! * [`ReadSource`] — frames, parses and validates records from any
//!   [`io::Read`]. End of input before the `end` record is a typed
//!   truncation error. Its [`Checkpoint`] (ordering and totals so far) lets
//!   a headerless continuation stream pick up validation where an earlier
//!   connection stopped.
//! * [`TraceSource`] — `ReadSource` over a [`FileTail`], which follows a
//!   growing trace file: at end of file it polls for appended bytes and
//!   reports a stall only after `idle_timeout` without growth (a stalled
//!   writer is indistinguishable from a truncated trace, so the timeout is
//!   the truncation guard). A zero timeout reads a finished file. Its
//!   errors name the file, and a stall reads "without an end record" where
//!   end of input reads "without the end record".
//!
//! # The record parser
//!
//! The header line embeds arbitrary scenario JSON, which the record codec
//! ([`lb_analysis::codec`]) hands to [`lb_analysis::Json`]'s grammar. Every
//! later line goes through the codec's single-pass [`Scan`], which writes
//! arrivals and completions straight into the caller's [`RoundEvents`]
//! buffers and allocates only on the error path. It accepts the format the
//! writer emits plus insignificant whitespace and any field order — with
//! one extra requirement, natural for dispatch-while-streaming: every
//! record must **lead with its `"kind"` field**, and unknown fields are
//! rejected. Integer fields are exact: fraction or exponent forms,
//! negatives and out-of-range values are parse errors, never silent
//! roundings (`tests/trace_corpus.rs` pins the error taxonomy). Snapshots
//! and wire records are read by the same codec under the same contract.

use lb_analysis::codec::Scan;
use lb_analysis::{read_fields, u64_exact};
use lb_core::discrete::RoundEvents;
use lb_core::{Task, TaskId};
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use crate::scenario::Scenario;
use crate::trace::parse_header_line;

/// Default [`TraceSource`] idle timeout: how long the tail may see no file
/// growth before the trace is declared stalled/truncated.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Default [`TraceSource`] poll interval between end-of-file checks.
pub const DEFAULT_POLL_INTERVAL: Duration = Duration::from_millis(10);

/// A producer-side stream of round-tagged event batches, ready to be pumped
/// into the ingestion channel by a driver thread.
pub trait RoundSource: Send {
    /// The effective scenario embedded in the stream's header.
    fn scenario(&self) -> &Scenario;

    /// Fills `out` (cleared first) with the next round record's batch and
    /// returns its round tag, blocking until one is available. `Ok(None)`
    /// means the stream ended cleanly (the `end` record was seen and its
    /// totals matched).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed records, ordering violations,
    /// truncation (end of input without the `end` record) and I/O failures.
    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String>;
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// Accumulates raw bytes and yields complete newline-terminated lines.
/// Consumed bytes are compacted away on the next [`feed`](FrameDecoder::feed),
/// so the buffer stops growing once it fits the longest line plus one read
/// chunk — steady-state framing allocates nothing.
#[derive(Default)]
struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-consumed lines.
    start: usize,
    /// Next index to search for a newline from (avoids rescanning).
    scan: usize,
}

impl FrameDecoder {
    fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.copy_within(self.start.., 0);
            self.buf.truncate(self.buf.len() - self.start);
            self.scan -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete line, without its terminator (a trailing `\r` is
    /// stripped), or `None` until more bytes arrive.
    fn take_line(&mut self) -> Option<&[u8]> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let mut end = self.scan + pos;
                let start = self.start;
                self.start = end + 1;
                self.scan = end + 1;
                if end > start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                Some(&self.buf[start..end])
            }
            None => {
                self.scan = self.buf.len();
                None
            }
        }
    }

    /// Number of buffered bytes not yet consumed as complete lines.
    fn pending_len(&self) -> usize {
        self.buf.len() - self.start
    }
}

// ---------------------------------------------------------------------------
// The single-pass record parser
// ---------------------------------------------------------------------------

/// One decoded stream record beyond the header.
enum StreamRecord {
    /// A `round` record; the batch was written into the caller's buffers.
    Round(u64),
    /// The sealing `end` record with its declared totals.
    End {
        /// Declared round-record total.
        rounds: u64,
        /// Declared event total.
        events: u64,
    },
}

/// Parses one stream record line, filling `out` (cleared first) for round
/// records. Allocation-free on the success path.
fn parse_stream_record(line: &str, out: &mut RoundEvents) -> Result<StreamRecord, String> {
    out.clear();
    let (mut scan, kind) = Scan::record(line)?;
    match &*kind {
        "header" => Err("unexpected header record mid-stream".into()),
        "round" => {
            let mut round = None;
            let (mut have_completions, mut have_arrivals) = (false, false);
            scan.fields("round-record", |scan, key| {
                let seen = match key {
                    "round" => return scan.set(&mut round, key),
                    "completions" => &mut have_completions,
                    "arrivals" => &mut have_arrivals,
                    _ => return Ok(false),
                };
                if std::mem::replace(seen, true) {
                    return Err(format!("duplicate field {key:?}"));
                }
                scan.items(|scan| {
                    if key == "completions" {
                        out.completions.push(scan.read()?);
                    } else {
                        let (node, id, weight) = scan.read()?;
                        if weight == 0 {
                            return Err("arrival weight must be positive".into());
                        }
                        out.arrivals.push((node, Task::new(TaskId(id), weight)));
                    }
                    Ok(())
                })?;
                Ok(true)
            })?;
            match (round, have_completions, have_arrivals) {
                (Some(round), true, true) => Ok(StreamRecord::Round(round)),
                (None, _, _) => Err("round record is missing field \"round\"".into()),
                (_, false, _) => Err("round record is missing field \"completions\"".into()),
                (_, _, false) => Err("round record is missing field \"arrivals\"".into()),
            }
        }
        "end" => {
            read_fields!(scan.fields("end-record") { rounds: u64, events: u64 });
            Ok(StreamRecord::End { rounds, events })
        }
        other => Err(format!("unknown record kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Stream validation
// ---------------------------------------------------------------------------

/// Per-stream validation state: round ordering, bounds, running totals and
/// the end-record seal.
struct StreamState {
    scenario_rounds: u64,
    last_round: Option<u64>,
    rounds_seen: u64,
    events_seen: u64,
    sealed: bool,
}

impl StreamState {
    fn admit_round(&mut self, round: u64, events: u64) -> Result<(), String> {
        if let Some(last) = self.last_round {
            if round <= last {
                return Err(format!(
                    "round {round} after round {last} (must be strictly increasing)"
                ));
            }
        }
        if round >= self.scenario_rounds {
            return Err(format!(
                "round {round} is beyond the scenario ({} rounds)",
                self.scenario_rounds
            ));
        }
        self.last_round = Some(round);
        self.rounds_seen += 1;
        self.events_seen += events;
        Ok(())
    }

    fn admit_end(&mut self, rounds: u64, events: u64) -> Result<(), String> {
        if rounds != self.rounds_seen || events != self.events_seen {
            return Err(format!(
                "end record declares {rounds} round(s) / {events} event(s) but the \
                 stream carried {} / {}",
                self.rounds_seen, self.events_seen
            ));
        }
        self.sealed = true;
        Ok(())
    }
}

/// What one framed line contributed to the stream.
enum LineStep {
    /// A round record; `out` holds its batch.
    Round(u64),
    /// The sealing end record.
    End,
    /// A blank line.
    Skip,
}

/// Validates and dispatches one framed line.
fn process_line(
    state: &mut StreamState,
    lineno: u64,
    line: &[u8],
    out: &mut RoundEvents,
) -> Result<LineStep, String> {
    if line.iter().all(u8::is_ascii_whitespace) {
        return Ok(LineStep::Skip);
    }
    if state.sealed {
        return Err(format!("line {lineno}: content after the end record"));
    }
    let text = std::str::from_utf8(line).map_err(|_| format!("line {lineno}: invalid UTF-8"))?;
    match parse_stream_record(text, out).map_err(|e| format!("line {lineno}: {e}"))? {
        StreamRecord::Round(round) => {
            let events = u64_exact(out.arrivals.len() + out.completions.len());
            state
                .admit_round(round, events)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            Ok(LineStep::Round(round))
        }
        StreamRecord::End { rounds, events } => {
            state
                .admit_end(rounds, events)
                .map_err(|e| format!("line {lineno}: {e}"))?;
            Ok(LineStep::End)
        }
    }
}

// ---------------------------------------------------------------------------
// ReadSource: framed records over any io::Read
// ---------------------------------------------------------------------------

/// A [`ReadSource`]'s validation state at a consumed-line boundary (see
/// [`ReadSource::checkpoint`]), from which [`ReadSource::headerless`]
/// continues on another stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Lines consumed so far (the header is line 1).
    pub lineno: u64,
    /// Round tag of the last admitted round record.
    pub last_round: Option<u64>,
    /// Round records admitted so far.
    pub rounds_seen: u64,
    /// Events admitted so far.
    pub events_seen: u64,
}

/// The framing half of a [`ReadSource`]: the reader, its line decoder and
/// the line count.
struct Framer<R> {
    reader: R,
    decoder: FrameDecoder,
    /// The file being read, named in every error; `None` for anonymous
    /// streams.
    path: Option<PathBuf>,
    lineno: u64,
}

impl<R: Read> Framer<R> {
    fn new(reader: R, path: Option<PathBuf>) -> Self {
        Framer {
            reader,
            decoder: FrameDecoder::default(),
            path,
            lineno: 0,
        }
    }

    /// Reads one chunk into the decoder. Input that ends, or stalls (the
    /// reader reports [`io::ErrorKind::TimedOut`]), before the header line
    /// (`header`) or before the end record is a truncation error.
    fn fill(&mut self, header: bool) -> Result<(), String> {
        let mut buf = [0u8; 8192];
        let subject = || match &self.path {
            Some(path) => format!("trace {}", path.display()),
            None => "event stream".to_string(),
        };
        let stalled = loop {
            match self.reader.read(&mut buf) {
                Ok(0) => break false,
                Ok(n) => {
                    self.decoder.feed(&buf[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::TimedOut => break true,
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    return Err(format!("{}: {e}", subject()))
                }
                Err(e) => return Err(format!("reading {}: {e}", subject())),
            }
        };
        let subject = subject();
        let torn = self.decoder.pending_len() > 0;
        Err(match (header, stalled, torn) {
            (true, false, _) => format!("{subject} ended before the header record"),
            (true, true, _) => format!("{subject}: stalled before the header record (truncated?)"),
            (false, false, true) => format!(
                "{subject} ended mid-record at line {} (torn line; truncated?)",
                self.lineno + 1
            ),
            (false, false, false) => format!("{subject} ended without the end record (truncated?)"),
            (false, true, true) => format!(
                "{subject}: stalled mid-record without an end record (torn tail; truncated?)"
            ),
            (false, true, false) => {
                format!("{subject}: stalled without an end record (truncated?)")
            }
        })
    }
}

/// Prefixes a located record error with the file it came from, if any.
fn in_file(path: &Option<PathBuf>, message: String) -> String {
    match path {
        Some(path) => format!("{}: {message}", path.display()),
        None => message,
    }
}

/// The trace reader: frames and parses line-delimited records from any
/// [`io::Read`] — a pipe, a socket, stdin, a file, or a growing file
/// ([`TraceSource`]). Construction blocks until the header line arrives;
/// end of input before the `end` record is a truncation error, and a reader
/// that reports [`io::ErrorKind::TimedOut`] is a stalled one.
pub struct ReadSource<R: Read> {
    framer: Framer<R>,
    scenario: Scenario,
    state: StreamState,
}

impl<R: Read + Send> ReadSource<R> {
    /// Wraps `reader`, reading and validating the header record (blocking
    /// until its line is complete).
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, a malformed or missing header,
    /// and streams that end before the header line.
    pub fn new(reader: R) -> Result<Self, String> {
        Self::start(Framer::new(reader, None))
    }

    fn start(mut framer: Framer<R>) -> Result<Self, String> {
        let scenario = loop {
            if let Some(line) = framer.decoder.take_line() {
                framer.lineno += 1;
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                let lineno = framer.lineno;
                let located = |e| in_file(&framer.path, format!("line {lineno}: {e}"));
                let text =
                    std::str::from_utf8(line).map_err(|_| located("invalid UTF-8".into()))?;
                break parse_header_line(text).map_err(located)?;
            }
            framer.fill(true)?;
        };
        // A fresh stream: the framer keeps its line count and buffered bytes.
        let checkpoint = Checkpoint {
            lineno: framer.lineno,
            ..Checkpoint::default()
        };
        Self::resumed(framer, scenario, checkpoint)
    }

    /// Wraps a stream whose header was **already consumed** — e.g. during a
    /// socket handshake that authenticated the header before attaching the
    /// connection — continuing validation from `checkpoint`. The carried
    /// `scenario` must be the one the consumed header embedded; round
    /// ordering resumes after `checkpoint.last_round` and the running totals
    /// resume from `checkpoint.rounds_seen`/`events_seen`, so a fresh
    /// post-handshake stream (totals zero, `last_round` pinned) validates
    /// its own `end` record while still rejecting replays of already-applied
    /// rounds.
    ///
    /// # Errors
    ///
    /// Returns a message when the carried scenario is invalid.
    pub fn headerless(
        reader: R,
        scenario: Scenario,
        checkpoint: Checkpoint,
    ) -> Result<Self, String> {
        Self::resumed(Framer::new(reader, None), scenario, checkpoint)
    }

    fn resumed(
        framer: Framer<R>,
        scenario: Scenario,
        checkpoint: Checkpoint,
    ) -> Result<Self, String> {
        scenario.validate()?;
        let state = StreamState {
            scenario_rounds: u64_exact(scenario.rounds),
            last_round: checkpoint.last_round,
            rounds_seen: checkpoint.rounds_seen,
            events_seen: checkpoint.events_seen,
            sealed: false,
        };
        Ok(ReadSource {
            framer: Framer {
                lineno: checkpoint.lineno,
                ..framer
            },
            scenario,
            state,
        })
    }

    /// The validation state after the last consumed line.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            lineno: self.framer.lineno,
            last_round: self.state.last_round,
            rounds_seen: self.state.rounds_seen,
            events_seen: self.state.events_seen,
        }
    }
}

impl<R: Read + Send> RoundSource for ReadSource<R> {
    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn next_round(&mut self, out: &mut RoundEvents) -> Result<Option<u64>, String> {
        let framer = &mut self.framer;
        loop {
            while let Some(line) = framer.decoder.take_line() {
                framer.lineno += 1;
                match process_line(&mut self.state, framer.lineno, line, out)
                    .map_err(|e| in_file(&framer.path, e))?
                {
                    LineStep::Skip => continue,
                    LineStep::Round(round) => return Ok(Some(round)),
                    LineStep::End => return Ok(None),
                }
            }
            if self.state.sealed {
                return Ok(None);
            }
            framer.fill(false)?;
        }
    }
}

// ---------------------------------------------------------------------------
// TraceSource: ReadSource over a growing file
// ---------------------------------------------------------------------------

/// A [`Read`] over a trace file that may still be growing. At end of file
/// it polls every `poll_interval` for appended bytes and fails with
/// [`io::ErrorKind::TimedOut`] after `idle_timeout` without growth; a zero
/// timeout makes end of file final. A file that shrinks below the bytes
/// already read fails with [`io::ErrorKind::InvalidData`].
pub struct FileTail {
    file: fs::File,
    /// File offset of the next byte to read.
    pos: u64,
    idle_timeout: Duration,
    poll_interval: Duration,
}

impl Read for FileTail {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut waited = Duration::ZERO;
        loop {
            if self.file.metadata()?.len() < self.pos {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "shrank below the read position (truncated)",
                ));
            }
            let n = self.file.read(buf)?;
            if n > 0 || self.idle_timeout.is_zero() {
                self.pos += u64_exact(n);
                return Ok(n);
            }
            if waited >= self.idle_timeout {
                return Err(io::ErrorKind::TimedOut.into());
            }
            thread::sleep(self.poll_interval);
            waited += self.poll_interval;
        }
    }
}

/// A file-tail trace reader: follows a trace file as it grows, parsing each
/// appended round record. End of file means *wait* (the writer may still be
/// running); only `idle_timeout` without growth — or a file that shrinks, or
/// ends in a torn line — is an error. The `end` record is the only clean
/// exit, so a truncated trace can never silently replay as a prefix. Every
/// error names the file.
pub type TraceSource = ReadSource<FileTail>;

impl ReadSource<FileTail> {
    /// Opens `path` with the default timeouts ([`DEFAULT_IDLE_TIMEOUT`],
    /// [`DEFAULT_POLL_INTERVAL`]), blocking until the header line arrives.
    ///
    /// # Errors
    ///
    /// Returns a message for I/O failures, a malformed header, or a header
    /// that does not arrive within the idle timeout.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        Self::open_with(path, DEFAULT_IDLE_TIMEOUT, DEFAULT_POLL_INTERVAL)
    }

    /// Opens `path` with explicit timeouts; see [`TraceSource::open`]. A
    /// zero `idle_timeout` reads the file as it is now, without waiting.
    ///
    /// # Errors
    ///
    /// As for [`TraceSource::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        idle_timeout: Duration,
        poll_interval: Duration,
    ) -> Result<Self, String> {
        let path = path.as_ref();
        let file =
            fs::File::open(path).map_err(|e| format!("opening trace {}: {e}", path.display()))?;
        let tail = FileTail {
            file,
            pos: 0,
            idle_timeout,
            poll_interval,
        };
        Self::start(Framer::new(tail, Some(path.to_path_buf())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::{sample_batch as batch, scenario, SharedBuf};
    use crate::trace::TraceWriter;
    use lb_analysis::artifact::unique_name;
    use std::io::Write;

    fn temp_trace(tag: &str) -> PathBuf {
        std::env::temp_dir().join(unique_name(&format!("lb_source_{tag}.trace.jsonl")))
    }

    fn sample_trace() -> String {
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario()).unwrap();
        writer.record_round(0, &batch(100)).unwrap();
        writer.record_round(7, &batch(102)).unwrap();
        writer.record_round(12, &batch(104)).unwrap();
        writer.finish().unwrap();
        buf.into_string()
    }

    /// A reader that trickles its bytes a few at a time, exercising the
    /// framing across arbitrary chunk boundaries.
    struct Trickle {
        bytes: Vec<u8>,
        pos: usize,
        step: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.bytes.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn read_source_round_trips_the_writer_format() {
        let text = sample_trace();
        for step in [1, 3, 8192] {
            let mut source = ReadSource::new(Trickle {
                bytes: text.clone().into_bytes(),
                pos: 0,
                step,
            })
            .expect("header parses");
            assert_eq!(source.scenario(), &scenario());
            let mut out = RoundEvents::default();
            let mut rounds = Vec::new();
            while let Some(round) = source.next_round(&mut out).expect("rounds parse") {
                rounds.push(round);
                let expect = batch(100 + rounds.len() as u64 * 2 - 2);
                assert_eq!(out.completions, expect.completions, "step {step}");
                assert_eq!(out.arrivals, expect.arrivals, "step {step}");
            }
            assert_eq!(rounds, vec![0, 7, 12], "step {step}");
            // Post-seal calls stay at the clean end.
            assert_eq!(source.next_round(&mut out).unwrap(), None);
        }
    }

    #[test]
    fn read_source_rejects_truncation() {
        let text = sample_trace();
        // Without the end record.
        let cut: String = text.lines().take(3).collect::<Vec<_>>().join("\n") + "\n";
        let mut source = ReadSource::new(io::Cursor::new(cut.into_bytes())).unwrap();
        let mut out = RoundEvents::default();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated stream ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("without the end record"), "{err}");

        // Torn mid-line.
        let torn = &text[..text.len() - 20];
        let mut source = ReadSource::new(io::Cursor::new(torn.as_bytes().to_vec())).unwrap();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("torn stream ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("torn line"), "{err}");
    }

    #[test]
    fn read_source_resumes_a_headerless_stream() {
        let text = sample_trace();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        let first_round = lines.next().unwrap();

        // A first connection delivers the header and one round, then dies.
        let opening = format!("{header}\n{first_round}\n");
        let mut source = ReadSource::new(io::Cursor::new(opening.into_bytes())).unwrap();
        let mut out = RoundEvents::default();
        assert_eq!(source.next_round(&mut out).unwrap(), Some(0));
        let err = source.next_round(&mut out).unwrap_err();
        assert!(err.contains("without the end record"), "{err}");
        let parked = source.checkpoint();
        assert_eq!(parked.last_round, Some(0));
        let scenario = source.scenario().clone();
        drop(source);

        // The continuation stream carries only post-resume rounds plus its
        // own end record; counters restart at zero so those totals validate,
        // while `last_round` still rejects replays.
        let buf = SharedBuf::default();
        let mut writer = TraceWriter::new(buf.clone(), &scenario).unwrap();
        writer.record_round(7, &batch(102)).unwrap();
        writer.record_round(12, &batch(104)).unwrap();
        writer.finish().unwrap();
        let continuation: String = buf
            .into_string()
            .lines()
            .skip(1) // the handshake consumed the header
            .map(|l| format!("{l}\n"))
            .collect();
        let resume_at = Checkpoint {
            last_round: parked.last_round,
            rounds_seen: 0,
            events_seen: 0,
            lineno: 0,
        };
        let mut resumed = ReadSource::headerless(
            io::Cursor::new(continuation.clone().into_bytes()),
            scenario.clone(),
            resume_at,
        )
        .unwrap();
        assert_eq!(resumed.next_round(&mut out).unwrap(), Some(7));
        assert_eq!(resumed.next_round(&mut out).unwrap(), Some(12));
        assert_eq!(resumed.next_round(&mut out).unwrap(), None, "sealed");

        // Replaying an already-applied round is still an ordering error.
        let mut replayer = ReadSource::headerless(
            io::Cursor::new(continuation.into_bytes()),
            scenario,
            Checkpoint {
                last_round: Some(7),
                rounds_seen: 0,
                events_seen: 0,
                lineno: 0,
            },
        )
        .unwrap();
        let err = replayer.next_round(&mut out).unwrap_err();
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn trace_source_follows_a_growing_file() {
        let text = sample_trace();
        let path = temp_trace("tail");
        std::fs::write(&path, "").unwrap();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let writer_path = path.clone();
        let writer = thread::spawn(move || {
            let mut file = fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            for line in lines {
                writeln!(file, "{line}").unwrap();
                file.flush().unwrap();
                thread::sleep(Duration::from_millis(2));
            }
        });
        let mut source =
            TraceSource::open_with(&path, Duration::from_secs(20), Duration::from_millis(1))
                .expect("header arrives");
        assert_eq!(source.scenario(), &scenario());
        let mut out = RoundEvents::default();
        let mut rounds = Vec::new();
        while let Some(round) = source.next_round(&mut out).expect("tail parses") {
            rounds.push(round);
        }
        assert_eq!(rounds, vec![0, 7, 12]);
        writer.join().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_source_times_out_on_a_stalled_tail() {
        let text = sample_trace();
        let path = temp_trace("stall");
        // Drop the end record AND tear the last line.
        let torn = &text[..text.len() - 25];
        std::fs::write(&path, torn).unwrap();
        let mut source =
            TraceSource::open_with(&path, Duration::from_millis(30), Duration::from_millis(5))
                .unwrap();
        let mut out = RoundEvents::default();
        let err = loop {
            match source.next_round(&mut out) {
                Ok(Some(_)) => {}
                Ok(None) => panic!("stalled tail ended cleanly"),
                Err(e) => break e,
            }
        };
        assert!(err.contains("truncated?"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
