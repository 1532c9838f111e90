//! The unified `lb` command-line interface.
//!
//! One binary fronts every experiment and tool in the harness. `lb help`
//! prints the synopsis of every command and option (the `USAGE` text); each
//! command accepts exactly the flags of its one `const` `Flags` list, and
//! a unit test keeps the two in agreement.
//!
//! `LB_BENCH_SHARDS` is the environment fallback for `--shards` on every
//! command that takes it: `run`, `replay`, `serve`, `federate` and
//! `hotpath`.
//!
//! Argument parsing is strict: unknown subcommands, unknown options and
//! malformed values exit with status 2 and the usage message — a typo like
//! `--shard 4` fails loudly instead of silently running sequentially.
//!
//! Failures exit with the typed codes of
//! [`BenchError`]: 2 for usage errors, 3 for
//! protocol/handshake violations, 4 for I/O failures, 1 for everything
//! else.

use crate::dynamic::{
    checkpoint_plan, Producer, RoundSample, ScenarioOutcome, Session, MAX_MERGE_FEEDS,
};
use crate::error::BenchError;
use crate::serve::{push_trace, serve, PushOptions, ServeOptions};
use lb_analysis::Json;
use lb_core::snapshot::write_bytes_atomic;
use lb_workloads::source::{DEFAULT_IDLE_TIMEOUT, DEFAULT_POLL_INTERVAL};
use lb_workloads::{ReadSource, RoundSource, Scenario, TraceSource};
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Usage text printed by `lb help` and on argument errors.
const USAGE: &str = "\
lb — load-balancing experiment harness (PODC'12 flow imitation)

USAGE:
    lb <COMMAND> [OPTIONS]

COMMANDS:
    run <scenario.json>   Run a dynamic-workload scenario (see ROADMAP.md
                          'Scenario spec'); prints the deterministic result
                          JSON to stdout and streams samples to stderr.
        --seed N          Override the scenario's seed.
        --shards N        Override the scenario's shard count (intra-instance
                          parallelism; results are bit-identical for every N).
                          Env fallback: LB_BENCH_SHARDS.
        --producer MODE   How events reach the engine: 'scenario' (inline,
                          the default), 'merge:N' (async ingestion — N
                          producer threads stream slices of every batch
                          through bounded SPSC channels, k-way merged back
                          into round order) or 'channel' (the same as
                          'merge:1'). Results are bit-identical in every
                          mode.
        --record PATH     Record the applied event stream as a replayable
                          line-delimited JSON trace (see ROADMAP.md 'Async
                          ingestion'). Recording never perturbs the run.
        --checkpoint PATH Write a rotating full-state snapshot to PATH
                          (atomic temp+fsync+rename; the newest complete
                          checkpoint always survives a crash) every
                          --checkpoint-every rounds. Resume with
                          'lb run --resume PATH'. Checkpointing never
                          perturbs the run.
        --checkpoint-every N
                          Checkpoint cadence in rounds; required alongside
                          --checkpoint.
        --resume SNAPSHOT Resume from a checkpoint instead of a scenario
                          file: the snapshot embeds the scenario and pins
                          the seed (--seed is rejected, as is a scenario
                          positional). The resumed run's result JSON is
                          byte-identical to the uninterrupted run's — at
                          any --shards override and in every --producer
                          mode; --record still writes the complete trace.
        --ingest-stats PATH
                          Write the ingestion report (per-feed batch/event
                          totals, blocked sends/nanos, high-water depth) as
                          JSON to PATH. Kept out of the result document
                          because the counters are timing-dependent.
        --out PATH        Also write the result JSON to PATH.
        --quiet           Suppress the per-sample stream on stderr.
    replay <trace.jsonl | ->
                          Replay a recorded trace through the async ingestion
                          channel; emits result JSON byte-identical to the
                          recorded run's (the trace pins the seed). '-' reads
                          a framed trace stream from stdin (pipe a
                          'lb serve-trace' into it for end-to-end testing).
        --follow          Tail the trace file as it grows instead of stopping
                          at its current end; only the 'end' record ends the
                          run cleanly (see --idle-timeout-ms).
        --idle-timeout-ms N
                          With --follow: how long the tail may see no growth
                          before the trace is declared stalled/truncated; 0
                          stops at the file's current end [default: 10000].
        --shards N        Override the recorded shard count (results are
                          bit-identical for every N). Env: LB_BENCH_SHARDS.
        --ingest-stats PATH
                          Write the ingestion report as JSON to PATH.
        --out PATH        Also write the result JSON to PATH.
        --quiet           Suppress the per-sample stream on stderr.
    serve <scenario.json> Run the scenario as a socket service: accept
                          trace-streaming producer connections, authenticate
                          each handshake against the effective scenario, and
                          feed the engine from their merged streams. Result
                          JSON is byte-identical to the sync run when the
                          clients together carry the matching trace. See
                          ROADMAP.md 'Socket service'.
        --listen ADDR     TCP host:port (port 0 picks a free port) or
                          unix:/path [default: 127.0.0.1:0].
        --clients N       Handshakes to await before the engine starts
                          [default: 1]. Later connections still join live.
        --reconnect-timeout-ms N
                          How long a dropped connection's feed waits for a
                          reconnect before the run degrades without it
                          [default: 5000].
        --listen-info PATH
                          Write the bound address as one-line JSON once
                          listening (for scripts racing the bind).
        --seed N          Override the scenario's seed (clients must carry
                          a trace recorded at the effective seed).
        --shards N        Override the shard count (exempt from handshake
                          authentication; results are bit-identical).
                          Env: LB_BENCH_SHARDS.
        --record PATH     Record the merged applied event stream.
        --ingest-stats PATH
                          Write the per-connection ingestion report.
        --out PATH        Also write the result JSON to PATH.
        --quiet           Suppress the per-sample stream on stderr.
    serve-trace <trace.jsonl>
                          Drip a recorded trace's lines to stdout (or --out),
                          flushing per line — a test traffic source for
                          'lb replay -' pipes and 'lb replay --follow' tails.
                          Lines are served verbatim, without validation, so
                          fault cases can be staged deliberately. With
                          --connect, stream the trace's rounds to a running
                          'lb serve' instead (handshake + framed records).
        --out PATH        Append-serve into PATH (created/truncated first)
                          instead of stdout.
        --delay-ms N      Sleep N milliseconds between lines (never after
                          the last one) [default: 0].
        --connect ADDR    Push to the 'lb serve' at ADDR (TCP or unix:/path)
                          instead of dripping lines.
        --feed NAME       Feed name for --connect [default: feed0]. One live
                          connection per name; reconnecting under the same
                          name resumes after the server's last admitted
                          round.
        --stride N:I      With --connect: carry only round records with
                          index % N == I [default: 1:0]. Clients 0..N
                          together carry the whole trace without sharing a
                          round — the partition that keeps the served run
                          byte-identical.
        --abort-after-records N
                          With --connect: drop the connection (no end
                          record) after N round records — a deterministic
                          stand-in for a crashed client.
    federate <scenario.json>
                          Run the scenario partitioned across N OS processes
                          on this machine: this coordinator spawns one
                          'federate-worker' per rank, relays the per-round
                          boundary exchanges over the line-delimited wire
                          protocol, and assembles the result JSON —
                          byte-identical to 'lb run' of the same scenario,
                          for every partition and shard count. See
                          ROADMAP.md 'Federation'.
        --parts N         Override the scenario's 'federation' partition
                          count (1..=64).
        --shards N        Per-process intra-partition shard count override
                          (results are bit-identical for every N). Env
                          fallback: LB_BENCH_SHARDS.
        --seed N          Override the scenario's seed.
        --checkpoint PATH Coordinator-driven rotating snapshot of the
                          assembled global state every --checkpoint-every
                          rounds; resume it with the sequential
                          'lb run --resume PATH'.
        --checkpoint-every N
                          Checkpoint cadence in rounds; required alongside
                          --checkpoint.
        --listen ADDR     TCP host:port the workers connect to (port 0
                          picks a free port) [default: 127.0.0.1:0].
        --listen-info PATH
                          Write the bound address as one-line JSON once
                          listening (for externally launched workers).
        --no-spawn        Do not spawn workers; wait for N external
                          'lb federate-worker' processes to join instead.
        --out PATH        Also write the result JSON to PATH.
        --quiet           Suppress the per-sample stream on stderr.
    federate-worker --connect ADDR --rank R --parts N
                          One federated partition process: joins the
                          coordinator at ADDR as rank R of N, receives the
                          effective scenario over the wire, and steps its
                          own node range. Normally spawned by
                          'lb federate'; run it manually against
                          'lb federate --no-spawn' for custom process
                          supervision.
    table1, table2, theorem3, theorem8, trajectory, heterogeneous,
    dummy_ablation, fos_vs_sos, dynamic_arrivals
                          Regenerate one experiment artefact.
        --quick           Reduced sizes/repeats (the CI configuration).
    hotpath [--quick]     Hot-path benchmark; writes BENCH_hotpath.json.
        --shards N        Shard count for the sharded large-instance entry
                          [default: min(cores, 8), at least 2; env
                          LB_BENCH_SHARDS]. Explicit values are used verbatim.
    bench-check           Compare BENCH_hotpath.json against the committed
                          baseline; non-zero exit on regression.
        --baseline PATH   Baseline file [default: BENCH_baseline.json].
        --current PATH    Current file [default: BENCH_hotpath.json].
        --max-regression PCT
                          Allowed throughput drop in percent [default:
                          25, or env LB_BENCH_MAX_REGRESSION].
    lint [PATHS...]       Static analysis enforcing the repo contracts at
                          the source level: nondeterminism (R01), truncating
                          casts (R02), panics in library code (R03),
                          non-atomic artefact writes (R04), allocation in
                          'zero-alloc'-annotated hot paths (R05). Walks the
                          workspace (scoped by lint.toml) or just PATHS when
                          given. Suppress a finding with
                          '// lint: allow(RXX, reason)' on the same or
                          previous line; a suppression without a reason is
                          itself a finding. Exits 0 when clean, 1 with
                          findings. See ROADMAP.md 'Static analysis'.
        --format FMT      'human' (default) or 'json' (one machine-readable
                          report document on stdout).
        --root PATH       Workspace root holding lint.toml [default: .].
    help                  Print this message.

Unknown commands, unknown options and malformed values exit with status 2;
stream/handshake protocol violations exit 3; file and socket I/O failures
exit 4; other runtime failures exit 1.
";

/// Entry point for the `lb` binary: dispatches `std::env::args`, returning
/// the process exit code.
pub fn main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args)
}

/// Why a command failed. A usage error prints its message and the usage
/// text and exits 2. A runtime failure prints its message and exits with
/// its class's code ([`BenchError::exit_code`]), so a runtime
/// [`BenchError::Usage`] — an invalid scenario file, say — exits 2 without
/// the usage text.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Fail(BenchError),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

impl From<BenchError> for CliError {
    fn from(err: BenchError) -> Self {
        CliError::Fail(err)
    }
}

/// The options one subcommand accepts: the flags that take a value, the
/// boolean flags, and how many positionals. Each command has one such list,
/// and its USAGE section documents exactly these flags.
struct Flags {
    values: &'static [&'static str],
    bools: &'static [&'static str],
    positionals: usize,
}

const RUN_FLAGS: Flags = Flags {
    values: &[
        "--seed",
        "--shards",
        "--out",
        "--record",
        "--producer",
        "--ingest-stats",
        "--checkpoint",
        "--checkpoint-every",
        "--resume",
    ],
    bools: &["--quiet"],
    positionals: 1,
};

const REPLAY_FLAGS: Flags = Flags {
    values: &["--shards", "--out", "--ingest-stats", "--idle-timeout-ms"],
    bools: &["--quiet", "--follow"],
    positionals: 1,
};

const SERVE_FLAGS: Flags = Flags {
    values: &[
        "--listen",
        "--clients",
        "--reconnect-timeout-ms",
        "--listen-info",
        "--seed",
        "--shards",
        "--record",
        "--ingest-stats",
        "--out",
    ],
    bools: &["--quiet"],
    positionals: 1,
};

const SERVE_TRACE_FLAGS: Flags = Flags {
    values: &[
        "--out",
        "--delay-ms",
        "--connect",
        "--feed",
        "--stride",
        "--abort-after-records",
    ],
    bools: &[],
    positionals: 1,
};

const FEDERATE_FLAGS: Flags = Flags {
    values: &[
        "--parts",
        "--shards",
        "--seed",
        "--checkpoint",
        "--checkpoint-every",
        "--listen",
        "--listen-info",
        "--out",
    ],
    bools: &["--quiet", "--no-spawn"],
    positionals: 1,
};

const FEDERATE_WORKER_FLAGS: Flags = Flags {
    values: &["--connect", "--rank", "--parts"],
    bools: &[],
    positionals: 0,
};

const EXPERIMENT_FLAGS: Flags = Flags {
    values: &[],
    bools: &["--quick"],
    positionals: 0,
};

const HOTPATH_FLAGS: Flags = Flags {
    values: &["--shards"],
    bools: &["--quick"],
    positionals: 0,
};

const BENCH_CHECK_FLAGS: Flags = Flags {
    values: &["--baseline", "--current", "--max-regression"],
    bools: &[],
    positionals: 0,
};

const LINT_FLAGS: Flags = Flags {
    values: &["--format", "--root"],
    bools: &[],
    positionals: usize::MAX,
};

impl Flags {
    /// Parses `args` strictly: unknown options, missing option values and
    /// surplus positionals are errors, so a typo fails with a usage message
    /// instead of being silently ignored.
    fn parse<'a>(&self, args: &'a [String]) -> Result<Parsed<'a>, String> {
        let mut parsed = Parsed {
            values: Vec::new(),
            flags: Vec::new(),
            positionals: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(&flag) = self.values.iter().find(|&&f| f == arg) {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                parsed.values.push((flag, value));
            } else if let Some(&flag) = self.bools.iter().find(|&&f| f == arg) {
                if !parsed.flags.contains(&flag) {
                    parsed.flags.push(flag);
                }
            } else if arg.starts_with('-') && arg.len() > 1 {
                return Err(format!("unknown option {arg:?}"));
            } else if parsed.positionals.len() == self.positionals {
                return Err(format!("unexpected argument {arg:?}"));
            } else {
                parsed.positionals.push(arg);
            }
        }
        Ok(parsed)
    }
}

/// The arguments of one command line, parsed against its [`Flags`].
struct Parsed<'a> {
    values: Vec<(&'static str, &'a str)>,
    flags: Vec<&'static str>,
    positionals: Vec<&'a str>,
}

impl<'a> Parsed<'a> {
    /// The last value given for `flag`, if any.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// Whether the boolean `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }

    /// The last value given for `flag`, parsed; a malformed value is an
    /// error naming the flag.
    fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    }

    /// The positional argument, or `missing` as the error.
    fn input(&self, missing: &str) -> Result<&'a str, String> {
        self.positionals
            .first()
            .copied()
            .ok_or_else(|| missing.to_string())
    }
}

/// Dispatches one parsed command line (without the program name). Returns
/// the process exit code: 0 on success, 1 on runtime failure or a failed
/// check, 2 on usage errors, and the typed codes of [`BenchError`].
pub fn dispatch(args: &[String]) -> i32 {
    // The error report is best effort: with stderr itself failing there is
    // nowhere left to say so, and the exit code still tells.
    let Some(command) = args.first() else {
        let _ = note(USAGE);
        return 2;
    };
    match run_command(command, &args[1..]) {
        Ok(passed) => i32::from(!passed),
        Err(CliError::Usage(message)) => {
            let _ = note(&format!("error: {message}\n\n{USAGE}"));
            2
        }
        Err(CliError::Fail(err)) => {
            let _ = note(&format!("error: {err}\n"));
            err.exit_code()
        }
    }
}

/// Writes `text` to `stream` and flushes it. A failing stream (a full
/// disk, a closed pipe) is an I/O failure, exit 4, never a panic.
fn write_to(mut stream: impl Write, name: &str, text: &str) -> Result<(), BenchError> {
    stream
        .write_all(text.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| BenchError::io(format!("writing {name}: {e}")))
}

/// Writes a command's output to stdout.
pub(crate) fn out(text: &str) -> Result<(), BenchError> {
    write_to(std::io::stdout().lock(), "stdout", text)
}

/// Writes progress lines and notes to stderr.
pub(crate) fn note(text: &str) -> Result<(), BenchError> {
    write_to(std::io::stderr().lock(), "stderr", text)
}

/// A subcommand's entry point: the arguments after its name.
type Command = fn(&[String]) -> Result<(), CliError>;

/// Runs one subcommand. `Ok(false)` is a check that ran and did not pass —
/// a `bench-check` regression or `lint` findings — which exits 1 with no
/// error line.
fn run_command(command: &str, rest: &[String]) -> Result<bool, CliError> {
    let cmd: Command = match command {
        "run" => cmd_run,
        "replay" => cmd_replay,
        "serve" => cmd_serve,
        "serve-trace" | "serve_trace" => cmd_serve_trace,
        "federate" => cmd_federate,
        "federate-worker" | "federate_worker" => cmd_federate_worker,
        "hotpath" => cmd_hotpath,
        "bench-check" => return cmd_bench_check(rest),
        "lint" => return cmd_lint(rest),
        "help" | "--help" | "-h" => {
            out(USAGE)?;
            return Ok(true);
        }
        name => {
            let run =
                experiment_by_name(name).ok_or_else(|| format!("unknown command {name:?}"))?;
            run(EXPERIMENT_FLAGS.parse(rest)?.has("--quick")).emit()?;
            return Ok(true);
        }
    };
    cmd(rest).map(|()| true)
}

/// The experiment registry: canonical names (and their hyphenated aliases)
/// to `run(quick)` entry points.
fn experiment_by_name(name: &str) -> Option<fn(bool) -> crate::experiments::ExperimentReport> {
    use crate::experiments as e;
    Some(match name.replace('-', "_").as_str() {
        "table1" => e::table1::run,
        "table2" => e::table2::run,
        "theorem3" => e::theorem3::run,
        "theorem8" => e::theorem8::run,
        "trajectory" => e::trajectory::run,
        "heterogeneous" => e::heterogeneous::run,
        "dummy_ablation" => e::dummy_ablation::run,
        "fos_vs_sos" => e::fos_vs_sos::run,
        "dynamic_arrivals" => e::dynamic_arrivals::run,
        _ => return None,
    })
}

/// Resolves the shard count from an explicit `--shards` value, falling back
/// to the `LB_BENCH_SHARDS` environment variable; `None` when neither is
/// set. Values are range-checked here so every consumer fails fast with a
/// clear message instead of silently adjusting or aborting in
/// `thread::spawn`.
fn shards_option(explicit: Option<&str>) -> Result<Option<usize>, String> {
    let parse = |source: &str, v: &str| -> Result<usize, String> {
        let shards: usize = v.parse().map_err(|e| format!("{source}: {e}"))?;
        if shards == 0 || shards > lb_workloads::MAX_SHARDS {
            return Err(format!(
                "{source}: shard count must be in 1..={}, got {shards}",
                lb_workloads::MAX_SHARDS
            ));
        }
        Ok(shards)
    };
    if let Some(v) = explicit {
        return parse("--shards", v).map(Some);
    }
    match std::env::var("LB_BENCH_SHARDS") {
        Ok(v) => parse("LB_BENCH_SHARDS", &v).map(Some),
        Err(_) => Ok(None),
    }
}

/// The flags the run family (`run`, `replay`, `serve`, `federate`) shares,
/// parsed and validated once, before any I/O. A flag missing from the
/// command's [`Flags`] is never set.
struct RunArgs<'a> {
    parsed: Parsed<'a>,
    seed: Option<u64>,
    shards: Option<usize>,
    checkpoint: Option<(PathBuf, usize)>,
    record: Option<PathBuf>,
    quiet: bool,
}

impl<'a> RunArgs<'a> {
    fn new(parsed: Parsed<'a>) -> Result<Self, String> {
        let seed = parsed.parse("--seed")?;
        let shards = shards_option(parsed.value("--shards"))?;
        let every = parsed.parse("--checkpoint-every")?;
        let checkpoint = checkpoint_plan(parsed.value("--checkpoint").map(Path::new), every)
            .map_err(|err| err.to_string())?;
        Ok(RunArgs {
            seed,
            shards,
            checkpoint,
            record: parsed.value("--record").map(PathBuf::from),
            quiet: parsed.has("--quiet"),
            parsed,
        })
    }

    /// Reads the scenario file at `path` and applies `--seed` and
    /// `--shards` to it: an unreadable file is an I/O failure, an invalid
    /// one a usage error.
    fn scenario(&self, path: &str) -> Result<Scenario, BenchError> {
        let text =
            fs::read_to_string(path).map_err(|e| BenchError::io(format!("reading {path}: {e}")))?;
        let mut scenario =
            Scenario::parse(&text).map_err(|e| BenchError::usage(format!("{path}: {e}")))?;
        scenario.seed = self.seed.unwrap_or(scenario.seed);
        scenario.shards = self.shards.unwrap_or(scenario.shards);
        Ok(scenario)
    }

    /// The per-sample stream on stderr, silenced by `--quiet`. Its first
    /// failed write stops the run with that error.
    fn on_sample(&self) -> impl FnMut(&RoundSample) -> Result<(), BenchError> + '_ {
        move |sample| {
            if self.quiet {
                return Ok(());
            }
            note(&format!(
                "round {:>6}: n = {}, max_min = {:.2}, max_avg = {:.2}, real = {}, \
                 dummy = {}, arrived = {}, completed = {}\n",
                sample.round,
                sample.nodes,
                sample.max_min,
                sample.max_avg,
                sample.real_weight,
                sample.dummy_load,
                sample.arrived_weight,
                sample.completed_weight,
            ))
        }
    }

    /// Publishes a finished run: notes the recorded trace, writes the
    /// `--ingest-stats` report, and emits the deterministic result document
    /// to stdout and `--out`. The file writes are atomic (temp + fsync +
    /// rename), so a crash mid-emit never leaves a torn artefact. A failing
    /// stdout or stderr is an I/O failure like any other.
    fn finish(&self, outcome: &ScenarioOutcome) -> Result<(), BenchError> {
        if let Some(trace) = &self.record {
            note(&format!("(event trace recorded to {})\n", trace.display()))?;
        }
        if let Some(path) = self.parsed.value("--ingest-stats") {
            // Sync runs produce an empty report, so the artefact shape is
            // uniform across producer modes.
            let stats = outcome.ingest.clone().unwrap_or_else(|| {
                Json::obj([
                    ("producer", Json::from("scenario")),
                    ("feeds", Json::Arr(Vec::new())),
                ])
            });
            write_bytes_atomic(Path::new(path), stats.render_pretty().as_bytes())
                .map_err(|e| BenchError::io(format!("writing {path}: {e}")))?;
            note(&format!("(ingest stats written to {path})\n"))?;
        }
        let rendered = outcome.to_json().render_pretty();
        if let Some(path) = self.parsed.value("--out") {
            write_bytes_atomic(Path::new(path), rendered.as_bytes())
                .map_err(|e| BenchError::io(format!("writing {path}: {e}")))?;
            note(&format!("(result written to {path})\n"))?;
        }
        out(&rendered)?;
        out("\n")
    }
}

/// Parses a `--producer` mode: `scenario`, `channel` (the one-feed merge),
/// or `merge:<feeds>`.
fn producer_option(value: Option<&str>) -> Result<Producer, String> {
    match value {
        None | Some("scenario") => Ok(Producer::Scenario),
        Some("channel") => Ok(Producer::Merge { feeds: 1 }),
        Some(mode) => {
            if let Some(feeds) = mode.strip_prefix("merge:") {
                let feeds: usize = feeds
                    .parse()
                    .map_err(|e| format!("--producer merge: {e}"))?;
                if feeds == 0 || feeds > MAX_MERGE_FEEDS {
                    return Err(format!(
                        "--producer merge: feed count must be in 1..={MAX_MERGE_FEEDS}, \
                         got {feeds}"
                    ));
                }
                Ok(Producer::Merge { feeds })
            } else {
                Err(format!(
                    "--producer: unknown mode {mode:?} (want scenario|channel|merge:<feeds>)"
                ))
            }
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let parsed = RUN_FLAGS.parse(args)?;
    // --resume replays the snapshot's embedded scenario with its pinned
    // seed: a scenario positional or a --seed override would contradict
    // the snapshot, so both are rejected before any I/O happens.
    let scenario = parsed.positionals.first().copied();
    let (input, resume) = match (parsed.value("--resume"), scenario) {
        (Some(_), Some(_)) => {
            Err("--resume uses the snapshot's embedded scenario; drop the scenario file argument")
        }
        (Some(_), None) if parsed.value("--seed").is_some() => {
            Err("--resume cannot override the seed: the snapshot pins it")
        }
        (Some(snapshot), None) => Ok((snapshot, true)),
        (None, Some(scenario)) => Ok((scenario, false)),
        (None, None) => {
            Err("run requires a scenario file (lb run <scenario.json>) or --resume <snapshot>")
        }
    }?;
    let run = RunArgs::new(parsed)?;
    let producer = producer_option(run.parsed.value("--producer"))?;
    let session = if resume {
        let snapshot =
            lb_core::snapshot::load(input).map_err(|e| BenchError::run(format!("{input}: {e}")))?;
        // The snapshot's scenario cannot be edited: --shards resizes the
        // resumed executor instead.
        Session::from_snapshot(snapshot).shards(run.shards)
    } else {
        Session::from_scenario(&run.scenario(input)?)
    };
    let (checkpoint, every) = run.checkpoint.clone().unzip();
    let outcome = session
        .producer(producer)
        .record(run.record.clone())
        .checkpoint(checkpoint, every)
        .run(run.on_sample())?;
    Ok(run.finish(&outcome)?)
}

/// Runs a scenario partitioned across N OS processes (see
/// [`crate::federate`]): binds the coordinator socket, spawns (or awaits)
/// one `federate-worker` per rank, and drives the round-synchronized
/// exchange protocol to a result document byte-identical to `lb run`'s.
fn cmd_federate(args: &[String]) -> Result<(), CliError> {
    let parsed = FEDERATE_FLAGS.parse(args)?;
    let path = parsed.input("federate requires a scenario file (lb federate <scenario.json>)")?;
    let parts = parsed.parse("--parts")?;
    let run = RunArgs::new(parsed)?;
    let listen = run.parsed.value("--listen").unwrap_or("127.0.0.1:0");

    let mut scenario = run.scenario(path)?;
    scenario.federation = parts.unwrap_or(scenario.federation);
    // An out-of-range partition count is a usage error before any bind.
    scenario.validate().map_err(BenchError::Usage)?;
    let parts = scenario.federation;
    let listener = std::net::TcpListener::bind(listen)
        .map_err(|e| BenchError::io(format!("binding {listen}: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| BenchError::io(format!("reading the bound address: {e}")))?
        .to_string();
    if let Some(info_path) = run.parsed.value("--listen-info") {
        let info = Json::obj([("addr", Json::from(addr.as_str()))]);
        write_bytes_atomic(
            Path::new(info_path),
            format!("{}\n", info.render()).as_bytes(),
        )
        .map_err(|e| BenchError::io(format!("writing {info_path}: {e}")))?;
    }
    let mut children = Vec::new();
    if !run.parsed.has("--no-spawn") {
        let exe = std::env::current_exe()
            .map_err(|e| BenchError::run(format!("locating the lb binary: {e}")))?;
        for rank in 0..parts {
            let child = std::process::Command::new(&exe)
                .args([
                    "federate-worker",
                    "--connect",
                    &addr,
                    "--rank",
                    &rank.to_string(),
                    "--parts",
                    &parts.to_string(),
                ])
                .spawn()
                .map_err(|e| {
                    BenchError::run(format!("spawning federate-worker rank {rank}: {e}"))
                })?;
            children.push(child);
        }
    }
    let outcome = crate::federate::coordinate(
        scenario,
        listener,
        children,
        run.checkpoint.clone(),
        run.on_sample(),
    )?;
    Ok(run.finish(&outcome)?)
}

/// One federated partition process: joins the coordinator, receives the
/// effective scenario over the wire, and runs its node range to completion.
/// Normally spawned by `cmd_federate`; exposed for `--no-spawn` topologies.
fn cmd_federate_worker(args: &[String]) -> Result<(), CliError> {
    let parsed = FEDERATE_WORKER_FLAGS.parse(args)?;
    let addr = parsed
        .value("--connect")
        .ok_or("federate-worker requires --connect ADDR")?;
    let count = |flag: &str| -> Result<usize, String> {
        parsed
            .parse(flag)?
            .ok_or_else(|| format!("federate-worker requires {flag} N"))
    };
    let (rank, parts) = (count("--rank")?, count("--parts")?);
    if parts == 0 || parts > lb_workloads::MAX_FEDERATION {
        return Err(format!(
            "--parts: the partition count must be in 1..={}, got {parts}",
            lb_workloads::MAX_FEDERATION
        )
        .into());
    }
    if rank >= parts {
        return Err(format!("--rank: rank {rank} is out of range for {parts} parts").into());
    }
    Ok(crate::federate::work(addr, rank, parts)?)
}

fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    let parsed = REPLAY_FLAGS.parse(args)?;
    let path = parsed.input("replay requires a trace file (lb replay <trace.jsonl | ->)")?;
    let run = RunArgs::new(parsed)?;
    let follow = run.parsed.has("--follow");
    if !follow && run.parsed.value("--idle-timeout-ms").is_some() {
        return Err("--idle-timeout-ms only applies with --follow".into());
    }
    let idle_timeout = match run.parsed.parse("--idle-timeout-ms")? {
        Some(ms) => Duration::from_millis(ms),
        None if follow => DEFAULT_IDLE_TIMEOUT,
        // Without --follow the file is read as it is: end of file is final.
        None => Duration::ZERO,
    };
    if follow && path == "-" {
        return Err("--follow tails a file; it cannot follow stdin ('-')".into());
    }

    // Records are parsed incrementally as they arrive, from stdin (e.g.
    // `lb serve-trace | lb replay -`) or from the trace file.
    let source: Box<dyn RoundSource> = if path == "-" {
        Box::new(ReadSource::new(std::io::stdin()).map_err(BenchError::from_source)?)
    } else {
        Box::new(
            TraceSource::open_with(path, idle_timeout, DEFAULT_POLL_INTERVAL)
                .map_err(BenchError::from_source)?,
        )
    };
    // The trace's scenario cannot be edited: --shards resizes the executor.
    let outcome = Session::from_stream(source)
        .shards(run.shards)
        .run(run.on_sample())?;
    Ok(run.finish(&outcome)?)
}

/// Runs a scenario as a socket service (see [`crate::serve`]): accepts
/// authenticated trace-streaming connections and feeds the engine from
/// their merged streams.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let parsed = SERVE_FLAGS.parse(args)?;
    let path = parsed.input("serve requires a scenario file (lb serve <scenario.json>)")?;
    let run = RunArgs::new(parsed)?;
    let clients = match run.parsed.parse("--clients")? {
        Some(0) => return Err("--clients must be at least 1".into()),
        clients => clients.unwrap_or(1),
    };
    let reconnect_timeout: u64 = run.parsed.parse("--reconnect-timeout-ms")?.unwrap_or(5_000);
    let options = ServeOptions {
        listen: run
            .parsed
            .value("--listen")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        clients,
        reconnect_timeout: Duration::from_millis(reconnect_timeout),
        record: run.record.clone(),
        listen_info: run.parsed.value("--listen-info").map(PathBuf::from),
    };
    let outcome = serve(&run.scenario(path)?, &options, run.on_sample())?;
    Ok(run.finish(&outcome)?)
}

fn cmd_hotpath(args: &[String]) -> Result<(), CliError> {
    let parsed = HOTPATH_FLAGS.parse(args)?;
    let shards = shards_option(parsed.value("--shards"))?;
    Ok(crate::hotpath::run(parsed.has("--quick"), shards)?)
}

/// Parses a `--stride N:I` partition spec.
fn stride_option(value: Option<&str>) -> Result<(usize, usize), String> {
    let Some(value) = value else {
        return Ok((1, 0));
    };
    let (n, i) = value
        .split_once(':')
        .ok_or_else(|| format!("--stride: want N:I, got {value:?}"))?;
    let n: usize = n.parse().map_err(|e| format!("--stride: {e}"))?;
    let i: usize = i.parse().map_err(|e| format!("--stride: {e}"))?;
    if n == 0 || i >= n {
        return Err(format!("--stride: need I < N with N >= 1, got {n}:{i}"));
    }
    Ok((n, i))
}

/// Drips a recorded trace's lines to stdout or a file, flushing per line —
/// the test traffic source behind the `merge-ingestion` CI job's pipe and
/// file-tail runs. Lines are served verbatim (no validation) so fault cases
/// can be staged deliberately. With `--connect`, streams the trace's round
/// records to a running `lb serve` instead ([`push_trace`]).
fn cmd_serve_trace(args: &[String]) -> Result<(), CliError> {
    let parsed = SERVE_TRACE_FLAGS.parse(args)?;
    let path = parsed.input("serve-trace requires a trace file (lb serve-trace <trace.jsonl>)")?;
    let delay = Duration::from_millis(parsed.parse("--delay-ms")?.unwrap_or(0));
    let Some(addr) = parsed.value("--connect") else {
        for flag in ["--feed", "--stride", "--abort-after-records"] {
            if parsed.value(flag).is_some() {
                return Err(format!("{flag} only applies with --connect").into());
            }
        }
        return Ok(serve_trace_lines(path, parsed.value("--out"), delay)?);
    };
    if parsed.value("--out").is_some() {
        return Err("--out only applies without --connect (lines mode)".into());
    }
    let options = PushOptions {
        feed: parsed.value("--feed").unwrap_or("feed0").to_string(),
        stride: stride_option(parsed.value("--stride"))?,
        delay: (!delay.is_zero()).then_some(delay),
        abort_after: parsed.parse("--abort-after-records")?,
    };

    let source = TraceSource::open_with(path, Duration::ZERO, DEFAULT_POLL_INTERVAL)
        .map_err(BenchError::from_source)?;
    let report = push_trace(addr, source, &options)?;
    if let Some(round) = report.resumed_after {
        note(&format!(
            "(resumed feed {:?} after round {round})\n",
            options.feed
        ))?;
    }
    note(&format!(
        "(pushed {} round record(s) as feed {:?}{})\n",
        report.rounds_sent,
        options.feed,
        if report.aborted {
            ", then aborted without the end record"
        } else {
            ""
        }
    ))?;
    Ok(())
}

/// The original serve-trace mode: drip the file's lines verbatim.
fn serve_trace_lines(path: &str, out: Option<&str>, delay: Duration) -> Result<(), BenchError> {
    // Stream line by line: serving a multi-gigabyte trace must not stage
    // the whole file in memory first.
    let file = fs::File::open(path).map_err(|e| BenchError::io(format!("reading {path}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    let mut out: Box<dyn Write> = match out {
        Some(target) => Box::new(
            // lint: allow(R04, serve-trace drips lines incrementally by design)
            fs::File::create(target)
                .map_err(|e| BenchError::io(format!("creating {target}: {e}")))?,
        ),
        None => Box::new(std::io::stdout()),
    };
    let mut served = 0usize;
    for line in std::io::BufRead::lines(reader) {
        let line = line.map_err(|e| BenchError::io(format!("reading {path}: {e}")))?;
        // Pace *between* lines: a consumer of the final line (usually the
        // end record) must not wait out one more delay before the stream
        // closes.
        if served > 0 && !delay.is_zero() {
            std::thread::sleep(delay);
        }
        writeln!(out, "{line}").map_err(|e| BenchError::io(format!("serving trace: {e}")))?;
        out.flush()
            .map_err(|e| BenchError::io(format!("serving trace: {e}")))?;
        served += 1;
    }
    note(&format!("(served {served} line(s))\n"))
}

/// Recursively collects every gated throughput leaf of a baseline document
/// as `(dotted path, value)` pairs. A leaf is gated when its key ends in
/// `_per_sec` — configuration numbers (`nodes`, `max_regression_percent`,
/// …) never do — and `config` subtrees (benchmark parameters recorded next
/// to a metric) are skipped wholesale.
fn gated_metrics(doc: &Json, prefix: &str, out: &mut Vec<(String, f64)>) {
    if let Json::Obj(pairs) = doc {
        for (key, value) in pairs {
            if key == "config" {
                continue;
            }
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            match value {
                Json::Obj(_) => gated_metrics(value, &path, out),
                _ if key.ends_with("_per_sec") => {
                    if let Some(v) = value.as_f64() {
                        out.push((path, v));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Looks up a dotted metric path in a measured document. The main-entry
/// `rounds_per_sec` may live under `optimized` in `BENCH_hotpath.json` (the
/// full report shape) or at the top level (the trimmed baseline shape);
/// every other path matches literally.
fn metric_at(doc: &Json, path: &str) -> Option<f64> {
    if path == "rounds_per_sec" {
        return doc
            .get("optimized")
            .and_then(|o| o.get("rounds_per_sec"))
            .or_else(|| doc.get("rounds_per_sec"))
            .and_then(Json::as_f64);
    }
    let mut node = doc;
    for seg in path.split('.') {
        node = node.get(seg)?;
    }
    node.as_f64()
}

/// Short display label for a gated metric path (the historical entry names
/// where one exists; the dotted path otherwise).
fn gate_label(path: &str) -> &str {
    match path {
        "rounds_per_sec" => "hotpath",
        "large.sharded.rounds_per_sec" => "sharded",
        "ingest.channel.events_per_sec" => "ingest",
        "ingest.merge.events_per_sec" => "merge",
        "snapshot.capture_write.mb_per_sec" => "snapshot-write",
        "snapshot.read_restore.mb_per_sec" => "snapshot-read",
        "federate.rounds_per_sec" => "federate",
        "churn.rounds_per_sec" => "churn",
        other => other,
    }
}

/// Display unit for a gated metric path, from the leaf-name convention.
fn gate_unit(path: &str) -> &'static str {
    if path.ends_with("events_per_sec") {
        "events/sec"
    } else if path.ends_with("mb_per_sec") {
        "MB/sec"
    } else {
        "rounds/sec"
    }
}

/// The perf-regression gate: compares the current hot-path throughput
/// against the committed baseline; `Ok(false)` is a drop beyond the
/// allowance. Every failure past argument parsing is a runtime error.
fn cmd_bench_check(args: &[String]) -> Result<bool, CliError> {
    let parsed = BENCH_CHECK_FLAGS.parse(args)?;
    Ok(bench_check(&parsed)?)
}

fn bench_check(parsed: &Parsed<'_>) -> Result<bool, BenchError> {
    let baseline_path = parsed.value("--baseline").unwrap_or("BENCH_baseline.json");
    let current_path = parsed.value("--current").unwrap_or("BENCH_hotpath.json");
    let max_regression: f64 = match parsed.parse("--max-regression").map_err(BenchError::run)? {
        Some(pct) => pct,
        None => match std::env::var("LB_BENCH_MAX_REGRESSION") {
            Ok(v) => v
                .parse()
                .map_err(|e| BenchError::run(format!("LB_BENCH_MAX_REGRESSION: {e}")))?,
            Err(_) => 25.0,
        },
    };
    if !(0.0..100.0).contains(&max_regression) {
        return Err(BenchError::run(format!(
            "--max-regression must be in [0, 100), got {max_regression}"
        )));
    }

    let read = |path: &str| -> Result<Json, BenchError> {
        let text = fs::read_to_string(path)
            .map_err(|e| BenchError::run(format!("reading {path}: {e}")))?;
        Json::parse(&text).map_err(|e| BenchError::run(format!("{path}: {e}")))
    };
    let baseline_doc = read(baseline_path)?;
    let current_doc = read(current_path)?;
    let mut gated = Vec::new();
    gated_metrics(&baseline_doc, "", &mut gated);
    if !gated.iter().any(|(path, _)| path == "rounds_per_sec") {
        return Err(BenchError::run(format!(
            "{baseline_path}: no rounds_per_sec field"
        )));
    }

    let gate = |label: &str, unit: &str, baseline: f64, current: f64| -> Result<bool, BenchError> {
        let floor = baseline * (1.0 - max_regression / 100.0);
        let change = (current / baseline - 1.0) * 100.0;
        out(&format!(
            "bench-check [{label}]: baseline {baseline:.1} {unit}, current \
             {current:.1} {unit} ({change:+.1}%), allowed regression \
             {max_regression}% (floor {floor:.1})\n"
        ))?;
        if current < floor {
            out(&format!(
                "bench-check [{label}]: FAIL — {unit} regressed more than \
                 {max_regression}% below the committed baseline\n"
            ))?;
            Ok(false)
        } else {
            out(&format!("bench-check [{label}]: OK\n"))?;
            Ok(true)
        }
    };

    // Every `_per_sec` leaf the committed baseline carries is gated
    // (re-baseline deliberately to change the set). A gated key that the
    // measured file no longer reports — a renamed or dropped entry — is a
    // hard failure, not a silent pass: the gate would otherwise go dark
    // exactly when the benchmark it guards disappears.
    let mut ok = true;
    for (path, baseline) in &gated {
        let label = gate_label(path);
        if *baseline <= 0.0 {
            if path == "rounds_per_sec" {
                return Err(BenchError::run(format!(
                    "{baseline_path}: rounds_per_sec must be positive"
                )));
            }
            out(&format!(
                "bench-check [{label}]: non-positive baseline entry, skipped\n"
            ))?;
            continue;
        }
        let current = metric_at(&current_doc, path).ok_or_else(|| {
            BenchError::run(format!(
                "{current_path}: missing gated metric {path} (present in \
                 {baseline_path}; re-baseline if the entry was renamed or retired)"
            ))
        })?;
        ok &= gate(label, gate_unit(path), *baseline, current)?;
    }
    Ok(ok)
}

/// `lb lint [--format human|json] [--root PATH] [PATHS…]`: the repo-native
/// static analysis pass (see [`lb_lint`]); `Ok(false)` means findings.
/// Exit codes: 0 clean, 1 findings, 2 usage (including a malformed
/// `lint.toml`), 4 I/O failure.
fn cmd_lint(args: &[String]) -> Result<bool, CliError> {
    let parsed = LINT_FLAGS.parse(args)?;
    let format = parsed.value("--format").unwrap_or("human");
    if format != "human" && format != "json" {
        return Err(format!("--format must be 'human' or 'json', got {format:?}").into());
    }
    let root = PathBuf::from(parsed.value("--root").unwrap_or("."));
    let to_bench_error = |e: lb_lint::LintError| match e {
        lb_lint::LintError::Io { .. } => BenchError::io(e.to_string()),
        lb_lint::LintError::Config { .. } | lb_lint::LintError::BadPath { .. } => {
            BenchError::usage(e.to_string())
        }
    };
    let linter = lb_lint::Linter::load(&root).map_err(to_bench_error)?;
    let findings = if parsed.positionals.is_empty() {
        linter.lint_workspace()
    } else {
        let paths: Vec<PathBuf> = parsed.positionals.iter().map(PathBuf::from).collect();
        linter.lint_paths(&paths)
    }
    .map_err(to_bench_error)?;
    match format {
        "json" => out(&format!("{}\n", lb_lint::report_json(&findings).render()))?,
        _ => {
            for finding in &findings {
                out(&format!("{}\n", finding.human()))?;
            }
            let label = if findings.len() == 1 {
                "finding"
            } else {
                "findings"
            };
            note(&format!("lint: {} {label}\n", findings.len()))?;
        }
    }
    Ok(findings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_commands_and_empty_args_are_usage_errors() {
        assert_eq!(dispatch(&args(&["no_such_command"])), 2);
        assert_eq!(dispatch(&[]), 2);
        assert_eq!(dispatch(&args(&["help"])), 0);
    }

    #[test]
    fn unknown_options_are_usage_errors() {
        // The motivating bug: `--shard` (typo for `--shards`) used to be
        // silently ignored, running sequentially. Every subcommand must
        // reject unknown options with exit code 2.
        assert_eq!(dispatch(&args(&["run", "s.json", "--shard", "4"])), 2);
        assert_eq!(dispatch(&args(&["run", "s.json", "--sharded"])), 2);
        assert_eq!(dispatch(&args(&["replay", "t.jsonl", "--sed", "1"])), 2);
        assert_eq!(dispatch(&args(&["hotpath", "--fast"])), 2);
        assert_eq!(dispatch(&args(&["table1", "--quik"])), 2);
        assert_eq!(dispatch(&args(&["bench-check", "--basline", "x"])), 2);
        assert_eq!(dispatch(&args(&["serve", "s.json", "--sed", "1"])), 2);
        assert_eq!(
            dispatch(&args(&["serve-trace", "t.jsonl", "--dly", "1"])),
            2
        );
        assert_eq!(dispatch(&args(&["federate", "s.json", "--prts", "2"])), 2);
        assert_eq!(dispatch(&args(&["federate-worker", "--rnk", "0"])), 2);
        assert_eq!(dispatch(&args(&["lint", "--fmt", "json"])), 2);
        // Surplus positionals are rejected too.
        assert_eq!(dispatch(&args(&["run", "a.json", "b.json"])), 2);
        assert_eq!(dispatch(&args(&["table1", "extra"])), 2);
        // Value options require a value.
        assert_eq!(dispatch(&args(&["run", "s.json", "--seed"])), 2);
    }

    #[test]
    fn experiment_registry_knows_every_experiment() {
        for name in [
            "table1",
            "table2",
            "theorem3",
            "theorem8",
            "trajectory",
            "heterogeneous",
            "dummy_ablation",
            "dummy-ablation",
            "fos_vs_sos",
            "fos-vs-sos",
            "dynamic_arrivals",
        ] {
            assert!(experiment_by_name(name).is_some(), "{name} missing");
        }
        assert!(experiment_by_name("run").is_none());
        assert!(experiment_by_name("replay").is_none());
        assert!(experiment_by_name("hotpath").is_none());
    }

    #[test]
    fn run_and_replay_require_their_input_file() {
        // A missing positional is a usage error (2); an unreadable file is
        // an I/O error (4).
        assert_eq!(dispatch(&args(&["run"])), 2);
        assert_eq!(dispatch(&args(&["run", "/no/such/file.json"])), 4);
        assert_eq!(dispatch(&args(&["replay"])), 2);
        assert_eq!(dispatch(&args(&["replay", "/no/such/trace.jsonl"])), 4);
    }

    #[test]
    fn bad_option_values_are_usage_errors() {
        assert_eq!(dispatch(&args(&["run", "s.json", "--seed", "abc"])), 2);
        assert_eq!(dispatch(&args(&["run", "s.json", "--shards", "0"])), 2);
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--producer", "satellite"])),
            2
        );
        assert_eq!(dispatch(&args(&["replay", "t.jsonl", "--shards", "x"])), 2);
    }

    #[test]
    fn producer_option_parses_merge_specs() {
        assert_eq!(producer_option(None).unwrap(), Producer::Scenario);
        assert_eq!(
            producer_option(Some("scenario")).unwrap(),
            Producer::Scenario
        );
        assert_eq!(
            producer_option(Some("channel")).unwrap(),
            Producer::Merge { feeds: 1 },
            "channel is the one-feed merge"
        );
        assert_eq!(
            producer_option(Some("merge:3")).unwrap(),
            Producer::Merge { feeds: 3 }
        );
        assert!(producer_option(Some("merge:0")).is_err());
        assert!(producer_option(Some("merge:65")).is_err());
        assert!(producer_option(Some("merge:lots")).is_err());
        assert!(producer_option(Some("merge")).is_err());
        // And through the dispatch layer they are usage errors.
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--producer", "merge:0"])),
            2
        );
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--producer", "merge:x"])),
            2
        );
    }

    #[test]
    fn replay_stream_flags_are_validated() {
        // --idle-timeout-ms without --follow, --follow on stdin, and a bad
        // timeout value are all usage errors before any I/O happens.
        assert_eq!(
            dispatch(&args(&["replay", "t.jsonl", "--idle-timeout-ms", "50"])),
            2
        );
        assert_eq!(dispatch(&args(&["replay", "-", "--follow"])), 2);
        assert_eq!(
            dispatch(&args(&[
                "replay",
                "t.jsonl",
                "--follow",
                "--idle-timeout-ms",
                "soon"
            ])),
            2
        );
        // Unknown options stay rejected on the grown surface.
        assert_eq!(dispatch(&args(&["replay", "t.jsonl", "--tail"])), 2);
    }

    #[test]
    fn serve_trace_requires_its_input() {
        assert_eq!(dispatch(&args(&["serve-trace"])), 2);
        assert_eq!(dispatch(&args(&["serve-trace", "/no/such.jsonl"])), 4);
        assert_eq!(dispatch(&args(&["serve-trace", "a", "b"])), 2);
        assert_eq!(
            dispatch(&args(&["serve-trace", "t.jsonl", "--delay-ms", "soon"])),
            2
        );
    }

    #[test]
    fn serve_trace_drips_lines_verbatim() {
        let dir = std::env::temp_dir().join("lb_serve_trace_test");
        fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let out = dir.join("served.jsonl");
        fs::write(&trace, "{\"kind\":\"header\"}\nnot json at all\n").unwrap();
        let code = dispatch(&args(&[
            "serve-trace",
            trace.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]));
        assert_eq!(code, 0);
        assert_eq!(
            fs::read_to_string(&out).unwrap(),
            "{\"kind\":\"header\"}\nnot json at all\n",
            "lines are served verbatim, without validation"
        );
    }

    #[test]
    fn shards_option_rejects_out_of_range_values() {
        assert_eq!(
            shards_option(Some("4")).unwrap(),
            Some(4),
            "in-range value honoured verbatim"
        );
        assert!(shards_option(Some("0")).is_err());
        assert!(shards_option(Some("1000000")).is_err());
        assert!(shards_option(Some("many")).is_err());
        assert_eq!(
            shards_option(Some("1")).unwrap(),
            Some(1),
            "1 is valid: it measures the sequential path through the executor"
        );
    }

    #[test]
    fn parse_args_handles_values_flags_and_positionals() {
        const SEED_OUT: Flags = Flags {
            values: &["--seed", "--out"],
            bools: &["--quiet"],
            positionals: 1,
        };
        let a = args(&["--seed", "42", "scenario.json", "--quiet"]);
        let parsed = SEED_OUT.parse(&a).unwrap();
        assert_eq!(parsed.value("--seed"), Some("42"));
        assert_eq!(parsed.parse::<u64>("--seed"), Ok(Some(42)));
        assert_eq!(parsed.value("--out"), None);
        assert_eq!(parsed.parse::<u64>("--out"), Ok(None));
        assert!(parsed.has("--quiet"));
        assert!(!parsed.has("--loud"));
        assert_eq!(parsed.positionals, vec!["scenario.json"]);

        // Positionals are found regardless of position relative to options.
        let a = args(&["--out", "r.json", "--quiet", "s.json", "--seed", "1"]);
        let parsed = SEED_OUT.parse(&a).unwrap();
        assert_eq!(parsed.positionals, vec!["s.json"]);
        assert_eq!(
            parsed.parse::<u64>("--out"),
            Err("--out: invalid digit found in string".to_string()),
            "a malformed value names its flag"
        );

        // Repeated value options: the last one wins.
        let a = args(&["--seed", "1", "--seed", "2"]);
        let parsed = SEED_OUT.parse(&a).unwrap();
        assert_eq!(parsed.value("--seed"), Some("2"));

        // Error cases: unknown option, missing value, surplus positional.
        assert!(SEED_OUT.parse(&args(&["--nope"])).is_err());
        assert!(SEED_OUT.parse(&args(&["--seed"])).is_err());
        assert!(SEED_OUT.parse(&args(&["a", "b"])).is_err());
    }

    /// Every command's flag list, keyed by the name its USAGE section
    /// starts with.
    const COMMAND_FLAGS: &[(&str, &Flags)] = &[
        ("run", &RUN_FLAGS),
        ("replay", &REPLAY_FLAGS),
        ("serve", &SERVE_FLAGS),
        ("serve-trace", &SERVE_TRACE_FLAGS),
        ("federate", &FEDERATE_FLAGS),
        ("federate-worker", &FEDERATE_WORKER_FLAGS),
        ("table1", &EXPERIMENT_FLAGS),
        ("hotpath", &HOTPATH_FLAGS),
        ("bench-check", &BENCH_CHECK_FLAGS),
        ("lint", &LINT_FLAGS),
        (
            "help",
            &Flags {
                values: &[],
                bools: &[],
                positionals: 0,
            },
        ),
    ];

    #[test]
    fn usage_documents_exactly_the_accepted_flags() {
        // USAGE's COMMANDS block: a 4-space-indented line opens a command
        // section (a header ending in ',' continues on the next one); the
        // section documents the `--flag` tokens on its header and the
        // first token of each 8-space-indented line. Prose mentions deeper
        // in the descriptions do not count.
        let commands = USAGE
            .split_once("COMMANDS:\n")
            .unwrap()
            .1
            .split("\n\n")
            .next()
            .unwrap();
        let mut sections: Vec<(String, Vec<String>)> = Vec::new();
        let mut continued = false;
        for line in commands.lines() {
            let (documented, header) = if let Some(option) = line.strip_prefix("        ") {
                if option.starts_with(' ') {
                    continue;
                }
                (option.split_whitespace().take(1).collect::<Vec<_>>(), false)
            } else {
                let header = line.strip_prefix("    ").unwrap();
                (header.split_whitespace().collect(), true)
            };
            if header && !continued {
                let name = documented[0].trim_end_matches(',');
                sections.push((name.to_string(), Vec::new()));
            }
            if header {
                continued = line.ends_with(',');
            }
            let flags = &mut sections.last_mut().unwrap().1;
            for token in documented {
                let token = token.trim_matches(|c| c == '[' || c == ']');
                if token.starts_with("--") {
                    flags.push(token.to_string());
                }
            }
        }
        let names: Vec<&str> = sections.iter().map(|(name, _)| name.as_str()).collect();
        let known: Vec<&str> = COMMAND_FLAGS.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            names, known,
            "USAGE sections and flag lists name the same commands"
        );
        for ((name, documented), (_, accepted)) in sections.iter().zip(COMMAND_FLAGS) {
            let mut documented = documented.clone();
            documented.sort();
            let mut accepted: Vec<String> = accepted
                .values
                .iter()
                .chain(accepted.bools)
                .map(|f| f.to_string())
                .collect();
            accepted.sort();
            assert_eq!(
                documented, accepted,
                "{name}: USAGE and the flag list differ"
            );
        }
    }

    #[test]
    fn contradictions_are_usage_errors_with_their_messages() {
        // Each contradiction is a CliError::Usage value (printed with the
        // usage text, exit 2), rejected before any file is touched.
        let cases: &[(Command, &[&str], &str)] = &[
            (
                cmd_run,
                &["s.json", "--resume", "c.jsonl"],
                "--resume uses the snapshot's embedded scenario; drop the scenario file argument",
            ),
            (
                cmd_run,
                &["--resume", "c.jsonl", "--seed", "9"],
                "--resume cannot override the seed: the snapshot pins it",
            ),
            (
                cmd_run,
                &["--quiet"],
                "run requires a scenario file (lb run <scenario.json>) or --resume <snapshot>",
            ),
            (
                cmd_replay,
                &["t.jsonl", "--idle-timeout-ms", "50"],
                "--idle-timeout-ms only applies with --follow",
            ),
            (
                cmd_replay,
                &["-", "--follow"],
                "--follow tails a file; it cannot follow stdin ('-')",
            ),
            (
                cmd_serve_trace,
                &["t.jsonl", "--connect", "127.0.0.1:1", "--out", "o.jsonl"],
                "--out only applies without --connect (lines mode)",
            ),
            (
                cmd_serve_trace,
                &["t.jsonl", "--feed", "f"],
                "--feed only applies with --connect",
            ),
            (
                cmd_serve,
                &["s.json", "--clients", "0"],
                "--clients must be at least 1",
            ),
            (
                cmd_federate_worker,
                &["--connect", "127.0.0.1:1", "--rank", "2", "--parts", "2"],
                "--rank: rank 2 is out of range for 2 parts",
            ),
        ];
        for (cmd, argv, expected) in cases {
            match cmd(&args(argv)) {
                Err(CliError::Usage(message)) => assert_eq!(message, *expected, "{argv:?}"),
                other => panic!("{argv:?}: expected a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn run_rejects_a_seed_override_on_no_file_before_reading() {
        // Usage validation happens before any I/O: a bad --seed fails with 2
        // even though the scenario file does not exist.
        assert_eq!(
            dispatch(&args(&["run", "/no/such.json", "--seed", "NaN"])),
            2
        );
    }

    #[test]
    fn run_checkpoint_flags_are_validated() {
        // The checkpoint path and cadence come as a pair; a zero or
        // malformed cadence is rejected before any I/O happens.
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--checkpoint", "c.jsonl"])),
            2
        );
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--checkpoint-every", "5"])),
            2
        );
        assert_eq!(
            dispatch(&args(&[
                "run",
                "s.json",
                "--checkpoint",
                "c.jsonl",
                "--checkpoint-every",
                "0"
            ])),
            2
        );
        assert_eq!(
            dispatch(&args(&[
                "run",
                "s.json",
                "--checkpoint",
                "c.jsonl",
                "--checkpoint-every",
                "soon"
            ])),
            2
        );
    }

    #[test]
    fn run_resume_flags_are_validated() {
        // --resume carries its own scenario: a scenario positional or a
        // --seed override contradicts the snapshot and is a usage error.
        assert_eq!(
            dispatch(&args(&["run", "s.json", "--resume", "c.jsonl"])),
            2
        );
        assert_eq!(
            dispatch(&args(&["run", "--resume", "c.jsonl", "--seed", "9"])),
            2
        );
        // A missing snapshot file is a runtime error, not a usage error.
        assert_eq!(
            dispatch(&args(&["run", "--resume", "/no/such/snapshot.jsonl"])),
            1
        );
    }

    #[test]
    fn invalid_churn_exits_1_and_publishes_nothing() {
        // A delta node out of range is found before round 0; a removed
        // edge that is missing or an added edge that exists is found when
        // round 5 arrives, and so is a resize the generator rejects (a
        // 2^50-node hypercube, whose speeds a channel producer must not
        // try to allocate first). Each: exit 1, no document, no trace.
        let dir = std::env::temp_dir().join(lb_analysis::artifact::unique_name("lb_bad_churn"));
        fs::create_dir_all(&dir).unwrap();
        for (tag, churn) in [
            (
                "range",
                r#""kind": "delta", "add": [[0, 16]], "remove": []"#,
            ),
            (
                "missing",
                r#""kind": "delta", "add": [], "remove": [[0, 3]]"#,
            ),
            (
                "existing",
                r#""kind": "delta", "add": [[0, 1]], "remove": []"#,
            ),
            (
                "huge",
                r#""kind": "resize", "target_n": 1125899906842624, "seed": 1"#,
            ),
        ] {
            let scenario = dir.join(format!("{tag}.json"));
            let out = dir.join(format!("{tag}.out.json"));
            let trace = dir.join(format!("{tag}.trace.jsonl"));
            fs::write(
                &scenario,
                format!(
                    r#"{{"name": "bad_churn", "seed": 3, "rounds": 10, "sample_every": 5,
                    "algorithm": "alg1", "model": "fos",
                    "topology": {{"family": "hypercube", "target_n": 16}},
                    "initial": {{"distribution": {{"model": "uniform_random"}},
                                 "tokens_per_node": 4, "pad": "degree"}},
                    "churn": [{{"round": 5, {churn}}}]}}"#
                ),
            )
            .unwrap();
            for producer in ["scenario", "channel"] {
                let code = dispatch(&args(&[
                    "run",
                    scenario.to_str().unwrap(),
                    "--quiet",
                    "--producer",
                    producer,
                    "--out",
                    out.to_str().unwrap(),
                    "--record",
                    trace.to_str().unwrap(),
                ]));
                assert_eq!(code, 1, "{tag} {producer}");
                assert!(!out.exists(), "{tag} {producer}: no result document");
                assert!(!trace.exists(), "{tag} {producer}: no trace");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_check_gates_on_regression() {
        let dir = std::env::temp_dir().join("lb_bench_check_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        fs::write(&baseline, r#"{"rounds_per_sec": 100.0}"#).unwrap();

        // Within the allowance (25% by default): passes.
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 80.0}}"#).unwrap();
        let base_args = |extra: &[&str]| {
            let mut v = args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ]);
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        assert_eq!(dispatch(&base_args(&[])), 0);

        // A >25% drop fails.
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 60.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args(&[])), 1);

        // …unless the allowance is widened.
        assert_eq!(dispatch(&base_args(&["--max-regression", "50"])), 0);

        // Bad threshold and missing files are runtime errors.
        assert_eq!(dispatch(&base_args(&["--max-regression", "150"])), 1);
        fs::remove_file(&current).unwrap();
        assert_eq!(dispatch(&base_args(&[])), 1);
    }

    #[test]
    fn bench_check_gates_the_sharded_entry() {
        let dir = std::env::temp_dir().join("lb_bench_check_sharded_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        let base_args = || {
            args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ])
        };

        // Baseline with a sharded entry: the current file must carry one too
        // and stay above the floor.
        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0, "large": {"sharded": {"rounds_per_sec": 50.0}}}"#,
        )
        .unwrap();
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "large": {"sharded": {"rounds_per_sec": 45.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "within the allowance");

        // A >25% sharded drop fails even when the main entry is healthy.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "large": {"sharded": {"rounds_per_sec": 30.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "sharded regression fails");

        // A current file without a sharded entry is an error when the
        // baseline carries one…
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 100.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 1, "missing sharded entry");

        // …but a baseline without one simply skips the sharded gate.
        fs::write(&baseline, r#"{"rounds_per_sec": 100.0}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 0, "no baseline entry, skipped");
    }

    #[test]
    fn bench_check_gates_the_ingest_entry() {
        let dir = std::env::temp_dir().join("lb_bench_check_ingest_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        let base_args = || {
            args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ])
        };

        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0,
               "ingest": {"channel": {"events_per_sec": 1000000.0}}}"#,
        )
        .unwrap();

        // Above the floor: passes.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "ingest": {"channel": {"events_per_sec": 900000.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "within the allowance");

        // A >25% ingestion drop fails even when the hot path is healthy.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "ingest": {"channel": {"events_per_sec": 500000.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "ingest regression fails");

        // Gated baselines demand the entry in the current file.
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 100.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 1, "missing ingest entry");

        // No baseline entry: the ingest gate is skipped.
        fs::write(&baseline, r#"{"rounds_per_sec": 100.0}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 0, "no baseline entry, skipped");
    }

    #[test]
    fn bench_check_gates_the_merge_entry() {
        let dir = std::env::temp_dir().join("lb_bench_check_merge_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        let base_args = || {
            args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ])
        };

        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0,
               "ingest": {"merge": {"events_per_sec": 1000000.0}}}"#,
        )
        .unwrap();

        // Above the floor: passes.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "ingest": {"merge": {"events_per_sec": 900000.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "within the allowance");

        // A >25% merge-stage drop fails even when the hot path is healthy.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "ingest": {"merge": {"events_per_sec": 500000.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "merge regression fails");

        // Gated baselines demand the entry in the current file.
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 100.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 1, "missing merge entry");

        // No baseline entry: the merge gate is skipped.
        fs::write(&baseline, r#"{"rounds_per_sec": 100.0}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 0, "no baseline entry, skipped");
    }

    #[test]
    fn bench_check_gates_the_snapshot_entries() {
        let dir = std::env::temp_dir().join("lb_bench_check_snapshot_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        let base_args = || {
            args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ])
        };

        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0,
               "snapshot": {"capture_write": {"mb_per_sec": 100.0},
                            "read_restore": {"mb_per_sec": 200.0}}}"#,
        )
        .unwrap();

        // Above both floors: passes.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "snapshot": {"capture_write": {"mb_per_sec": 90.0},
                            "read_restore": {"mb_per_sec": 180.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "within the allowance");

        // A >25% capture-write drop fails even with a healthy restore side.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "snapshot": {"capture_write": {"mb_per_sec": 50.0},
                            "read_restore": {"mb_per_sec": 200.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "capture-write regression fails");

        // And vice versa for read+restore.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "snapshot": {"capture_write": {"mb_per_sec": 100.0},
                            "read_restore": {"mb_per_sec": 100.0}}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "read-restore regression fails");

        // Gated baselines demand the entry in the current file.
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 100.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 1, "missing snapshot entry");

        // No baseline entry: both snapshot gates are skipped.
        fs::write(&baseline, r#"{"rounds_per_sec": 100.0}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 0, "no baseline entry, skipped");
    }

    #[test]
    fn bench_check_fails_when_a_gated_key_is_missing() {
        let dir = std::env::temp_dir().join("lb_bench_check_missing_key_test");
        fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let current = dir.join("current.json");
        let base_args = || {
            args(&[
                "bench-check",
                "--baseline",
                baseline.to_str().unwrap(),
                "--current",
                current.to_str().unwrap(),
            ])
        };

        // The baseline gates a churn entry the measured file does not carry —
        // e.g. the benchmark was renamed. That must be a hard failure, not a
        // silent pass of the remaining gates.
        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0, "churn": {"rounds_per_sec": 100.0}}"#,
        )
        .unwrap();
        fs::write(&current, r#"{"optimized": {"rounds_per_sec": 100.0}}"#).unwrap();
        assert_eq!(dispatch(&base_args()), 1, "missing churn entry fails");

        // With the entry present and healthy, the gate passes…
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "churn": {"rounds_per_sec": 95.0}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "churn entry within allowance");

        // …and still fails on an actual regression.
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "churn": {"rounds_per_sec": 40.0}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 1, "churn regression fails");

        // Numeric benchmark parameters recorded under `config` subtrees are
        // never gated, even with a `_per_sec`-shaped name.
        fs::write(
            &baseline,
            r#"{"rounds_per_sec": 100.0,
               "churn": {"rounds_per_sec": 100.0,
                         "config": {"patch_edges_per_sec": 1.0}}}"#,
        )
        .unwrap();
        fs::write(
            &current,
            r#"{"optimized": {"rounds_per_sec": 100.0},
               "churn": {"rounds_per_sec": 100.0}}"#,
        )
        .unwrap();
        assert_eq!(dispatch(&base_args()), 0, "config subtrees are not gated");
    }
}
