//! Socket service front-end: `lb serve` accepts trace-streaming
//! connections and feeds them into one live engine as merge feeds.
//!
//! The server ([`serve`]) binds a TCP address (or a `unix:/path` socket on
//! unix), builds a [`MergeSession`] with a live
//! [`FeedRegistrar`], and runs the
//! scenario through [`Session::merged`] once [`ServeOptions::clients`]
//! producers have completed their handshake. Each connection frames the
//! trace wire format of [`lb_workloads::trace`] through a
//! [`ReadSource`] into its own bounded ingest channel, so many concurrent
//! producers feed one deterministic engine with the byte-identity contract
//! intact.
//!
//! ## Wire protocol (version [`SERVE_PROTOCOL_VERSION`])
//!
//! Line-delimited JSON, one record per line, client speaks first:
//!
//! | step | direction | record |
//! |---|---|---|
//! | 1 | client → server | `{"kind":"hello","version":1,"feed":"<name>"}` |
//! | 2 | client → server | the trace header line (`{"kind":"header",…}`) |
//! | 3 | server → client | `{"kind":"welcome","version":1,"feed":…,"last_round":null\|N}` or `{"kind":"reject","version":1,"error":…}` |
//! | 4 | client → server | round records, then the sealing `end` record |
//!
//! The handshake **authenticates** the incoming header against the running
//! scenario: the protocol version, the trace version and the effective
//! scenario (ignoring `shards`, which never changes the result) must all
//! match, otherwise the server replies with a typed rejection and drops the
//! connection — the engine is never touched. A rejected or crashed client
//! therefore cannot perturb the other feeds.
//!
//! ## Reconnect and degradation
//!
//! A dropped connection **parks** its feed: the feed's ingest channel stays
//! open, so the engine blocks at the next round boundary (the merge
//! contract) while the client has [`ServeOptions::reconnect_timeout`] to
//! come back. A reconnecting client handshakes again under the same feed
//! name; the welcome carries `last_round` — the last round the server
//! admitted — and the client resumes streaming strictly after it, so the
//! run continues **byte-identical** to an uninterrupted one. When the
//! timeout expires the parked producer is dropped and the run degrades
//! exactly like any closed feed: the remaining rounds are event-free for
//! that feed and the run still completes.
//!
//! ## Determinism
//!
//! Feeds are admitted into the merge in handshake order, which is
//! nondeterministic under concurrent connects. Same-round batches coalesce
//! in admission order, so byte-identity across server runs requires that no
//! two feeds carry batches for the same round — exactly what the
//! round-interleaved `--stride N:I` partition of [`push_trace`] guarantees
//! (client `I` carries every `N`-th round record). Each connection's
//! [`ChannelMetrics`](lb_core::ingest::ChannelMetrics) roll up into
//! [`ScenarioOutcome::ingest`](crate::dynamic::ScenarioOutcome) as one merge
//! feed per connection, in admission order.

use crate::dynamic::{RoundSample, ScenarioOutcome, Session, DEFAULT_CHANNEL_CAPACITY};
use crate::error::BenchError;
use lb_analysis::Json;
use lb_core::discrete::RoundEvents;
use lb_core::ingest::merge::{FeedRegistrar, MergeSession};
use lb_core::ingest::{self, EventProducer};
use lb_proto::{ProtoError, Record};
use lb_workloads::{Checkpoint, ReadSource, RoundSource, Scenario, TraceWriter, TRACE_VERSION};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The handshake protocol version this module speaks and the only one it
/// accepts. The record types themselves live in [`lb_proto`]; this is the
/// ingest-handshake subset ([`lb_proto::PROTOCOL_V1`]).
pub const SERVE_PROTOCOL_VERSION: u64 = lb_proto::PROTOCOL_V1;

/// How often the accept loop polls for new connections, shutdown and
/// expired parked feeds.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Configuration of a [`serve`] run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to listen on: a TCP `host:port` (port 0 picks a free port;
    /// see [`ServeOptions::listen_info`]) or `unix:/path` on unix.
    pub listen: String,
    /// Completed handshakes to await before the engine starts (the CLI's
    /// `--clients`). Later connections still join as live feeds; this only
    /// gates the deterministic start.
    pub clients: usize,
    /// How long a dropped connection's feed stays parked awaiting a
    /// reconnect before the run degrades without it.
    pub reconnect_timeout: Duration,
    /// Record the applied (merged) event stream to this trace file.
    pub record: Option<PathBuf>,
    /// Write a one-line JSON `{"addr":…}` describing the bound address —
    /// the actual port when `listen` asked for port 0 — once the listener
    /// is up, so scripts can connect without racing the bind.
    pub listen_info: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".into(),
            clients: 1,
            reconnect_timeout: Duration::from_secs(5),
            record: None,
            listen_info: None,
        }
    }
}

/// Options of one [`push_trace`] client connection.
#[derive(Debug, Clone)]
pub struct PushOptions {
    /// Feed name the connection claims; one live connection per name.
    pub feed: String,
    /// `(n, i)`: carry only the round records whose index satisfies
    /// `index % n == i`. Clients `0..n` together carry the whole trace and
    /// never share a round, which is what makes the served run
    /// byte-identical for any admission order (see the module docs).
    pub stride: (usize, usize),
    /// Sleep this long **between** records (never after the last one), to
    /// pace a live feed.
    pub delay: Option<Duration>,
    /// Drop the connection (no `end` record) after sending this many round
    /// records — a deterministic stand-in for a crashed client in tests and
    /// CI.
    pub abort_after: Option<usize>,
}

impl PushOptions {
    /// A client pushing the whole trace as feed `name`.
    pub fn feed(name: impl Into<String>) -> Self {
        PushOptions {
            feed: name.into(),
            stride: (1, 0),
            delay: None,
            abort_after: None,
        }
    }
}

/// What one [`push_trace`] connection did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushReport {
    /// The `last_round` the welcome carried: `Some` when the server resumed
    /// this feed past an earlier connection's progress.
    pub resumed_after: Option<u64>,
    /// Round records actually sent (after stride and resume filtering).
    pub rounds_sent: u64,
    /// True when [`PushOptions::abort_after`] cut the stream (no `end`
    /// record was sent).
    pub aborted: bool,
}

// ---------------------------------------------------------------------------
// Address abstraction: TCP everywhere, unix:/path sockets on unix
// ---------------------------------------------------------------------------

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// One accepted or dialed connection; `Read`/`Write` pass through to the
/// socket, `try_clone` splits it into read and write halves.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Listener {
    fn bind(addr: &str) -> Result<Self, BenchError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(path);
                return UnixListener::bind(path)
                    .map(Listener::Unix)
                    .map_err(|e| BenchError::io(format!("binding {addr}: {e}")));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(BenchError::usage(format!(
                    "unix socket address {addr:?} is not supported on this platform"
                )));
            }
        }
        TcpListener::bind(addr)
            .map(Listener::Tcp)
            .map_err(|e| BenchError::io(format!("binding {addr}: {e}")))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (conn, _) = l.accept()?;
                conn.set_nonblocking(false)?;
                Ok(Conn::Tcp(conn))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (conn, _) = l.accept()?;
                conn.set_nonblocking(false)?;
                Ok(Conn::Unix(conn))
            }
        }
    }

    /// The address clients should dial: the actual TCP socket address
    /// (resolving a requested port 0), or the `unix:` form as requested.
    fn client_addr(&self, requested: &str) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| requested.to_string()),
            #[cfg(unix)]
            Listener::Unix(_) => requested.to_string(),
        }
    }
}

impl Conn {
    fn connect(addr: &str) -> Result<Self, BenchError> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                return UnixStream::connect(path)
                    .map(Conn::Unix)
                    .map_err(|e| BenchError::io(format!("connecting {addr}: {e}")));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(BenchError::usage(format!(
                    "unix socket address {addr:?} is not supported on this platform"
                )));
            }
        }
        TcpStream::connect(addr)
            .map(Conn::Tcp)
            .map_err(|e| BenchError::io(format!("connecting {addr}: {e}")))
    }

    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Reads handshake lines off a connection while retaining whatever the
/// client sent beyond them, so the stream can be handed to [`ReadSource`]
/// without losing the over-read bytes.
struct LineScanner {
    inner: Conn,
    buf: Vec<u8>,
    pos: usize,
}

impl LineScanner {
    fn new(inner: Conn) -> Self {
        LineScanner {
            inner,
            buf: Vec::new(),
            pos: 0,
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        loop {
            if let Some(idx) = self.buf[self.pos..].iter().position(|&b| b == b'\n') {
                let line = &self.buf[self.pos..self.pos + idx];
                let text = std::str::from_utf8(line)
                    .map_err(|_| "handshake line is not valid UTF-8".to_string())?
                    .trim()
                    .to_string();
                self.pos += idx + 1;
                return Ok(text);
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Err("connection closed during the handshake".into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("reading handshake: {e}")),
            }
        }
    }

    /// Splits into the over-read tail and the raw connection.
    fn into_parts(self) -> (Vec<u8>, Conn) {
        (self.buf[self.pos..].to_vec(), self.inner)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// The lifecycle of one feed name on the server.
enum SlotState {
    /// A connection is streaming this feed right now.
    Active,
    /// The connection dropped mid-stream: the producer is kept alive — the
    /// engine blocks on the open feed — until a reconnect claims it or the
    /// deadline passes and the reaper drops it (degradation).
    Parked {
        producer: EventProducer,
        deadline: Instant,
    },
    /// The feed delivered its `end` record (or its reconnect window
    /// expired); further connections under this name are rejected.
    Finished,
}

struct FeedSlot {
    state: SlotState,
    /// Last round the server admitted from this feed; the welcome carries
    /// it so a reconnecting client resumes strictly after it.
    last_round: Option<u64>,
}

struct ServeCtx {
    scenario: Scenario,
    registrar: FeedRegistrar,
    slots: Mutex<HashMap<String, FeedSlot>>,
    /// Completed first-time handshakes, gating engine start.
    ready: Mutex<usize>,
    ready_cv: Condvar,
    reconnect_timeout: Duration,
    shutdown: AtomicBool,
}

/// Runs `scenario` as a socket service: binds [`ServeOptions::listen`],
/// waits for [`ServeOptions::clients`] authenticated producer connections,
/// then drives the engine from their merged streams (see the
/// [module docs](self) for the wire protocol, authentication, reconnect and
/// determinism contracts). Returns the same [`ScenarioOutcome`] a direct
/// [`Session`] run would produce — byte-identical to the sync run when the
/// connected clients together carry a trace recorded from the same
/// scenario.
///
/// # Errors
///
/// [`BenchError::Usage`] for invalid options or scenarios,
/// [`BenchError::Io`] for bind/accept failures, and everything
/// [`Session::run`] reports. Per-connection failures (authentication
/// rejections, dropped clients) are **not** errors of the serve run — they
/// degrade per the reconnect contract.
pub fn serve(
    scenario: &Scenario,
    options: &ServeOptions,
    on_sample: impl FnMut(&RoundSample),
) -> Result<ScenarioOutcome, BenchError> {
    if options.clients == 0 {
        return Err(BenchError::usage("serve needs at least one client"));
    }
    scenario.validate().map_err(BenchError::Usage)?;

    let listener = Listener::bind(&options.listen)?;
    listener
        .set_nonblocking(true)
        .map_err(|e| BenchError::io(format!("configuring listener: {e}")))?;
    let bound = listener.client_addr(&options.listen);
    if let Some(path) = &options.listen_info {
        let info = Json::obj([("addr", Json::from(bound.as_str()))]);
        lb_analysis::write_bytes_atomic(path, format!("{}\n", info.render()).as_bytes())
            .map_err(|e| BenchError::io(format!("writing {}: {e}", path.display())))?;
    }

    let (merge, registrar) = MergeSession::with_registrar();
    let ctx = Arc::new(ServeCtx {
        scenario: scenario.clone(),
        registrar,
        slots: Mutex::new(HashMap::new()),
        ready: Mutex::new(0),
        ready_cv: Condvar::new(),
        reconnect_timeout: options.reconnect_timeout,
        shutdown: AtomicBool::new(false),
    });

    let accept_ctx = Arc::clone(&ctx);
    let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_ctx));

    // Gate the engine on the agreed number of handshakes, so the start is
    // deterministic no matter how the clients race their connects.
    {
        let mut ready = ctx.ready.lock().expect("ready lock");
        while *ready < options.clients {
            ready = ctx.ready_cv.wait(ready).expect("ready lock");
        }
    }

    let result = Session::from_scenario(scenario)
        .record(options.record.clone())
        .merged(merge)
        .run(on_sample);

    ctx.shutdown.store(true, Ordering::SeqCst);
    let _ = accept_thread.join();
    if let Some(path) = options.listen.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Accepts connections until shutdown, handing each to its own handshake
/// thread; between accepts it reaps parked feeds whose reconnect window
/// expired (dropping the producer is what lets the blocked engine degrade
/// and move on).
fn accept_loop(listener: Listener, ctx: Arc<ServeCtx>) {
    let mut workers = Vec::new();
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(conn) => {
                let conn_ctx = Arc::clone(&ctx);
                workers.push(std::thread::spawn(move || {
                    handle_connection(conn, &conn_ctx)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_expired(&ctx);
                std::thread::park_timeout(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::park_timeout(ACCEPT_POLL),
        }
    }
    // Handshake threads block only on short socket reads from live
    // clients; a stuck pump cannot block shutdown because the engine side
    // is already gone — its sends fail immediately. Still, don't wait for
    // threads parked on a half-open handshake.
    for worker in workers {
        if worker.is_finished() {
            let _ = worker.join();
        }
    }
}

/// Drops the producers of parked feeds whose reconnect deadline passed,
/// turning the park into a normal closed-feed degradation.
fn reap_expired(ctx: &ServeCtx) {
    let now = Instant::now();
    let mut slots = ctx.slots.lock().expect("slots lock");
    for slot in slots.values_mut() {
        if matches!(&slot.state, SlotState::Parked { deadline, .. } if *deadline <= now) {
            // Replacing the state drops the parked producer: the channel
            // hangs up and the merge closes the feed.
            slot.state = SlotState::Finished;
        }
    }
}

/// The handshake outcome for one connection: the producer to pump into and
/// the round to resume after (a fresh feed resumes after nothing).
struct Admission {
    producer: EventProducer,
    last_round: Option<u64>,
    first_time: bool,
}

/// Claims `feed` under the slot lock: a new name registers a fresh merge
/// feed, a parked name hands back its producer, a busy or finished name is
/// refused.
fn admit(ctx: &ServeCtx, feed: &str) -> Result<Admission, String> {
    let mut slots = ctx.slots.lock().expect("slots lock");
    match slots.get_mut(feed) {
        None => {
            let (producer, consumer) = ingest::bounded(DEFAULT_CHANNEL_CAPACITY);
            ctx.registrar.register(consumer);
            slots.insert(
                feed.to_string(),
                FeedSlot {
                    state: SlotState::Active,
                    last_round: None,
                },
            );
            Ok(Admission {
                producer,
                last_round: None,
                first_time: true,
            })
        }
        Some(slot) => match std::mem::replace(&mut slot.state, SlotState::Active) {
            SlotState::Parked { producer, .. } => Ok(Admission {
                producer,
                last_round: slot.last_round,
                first_time: false,
            }),
            state @ SlotState::Active => {
                slot.state = state;
                Err(format!("feed {feed:?} is already connected"))
            }
            state @ SlotState::Finished => {
                slot.state = state;
                Err(format!("feed {feed:?} has already delivered its stream"))
            }
        },
    }
}

/// Validates the hello line, returning the feed name. Parsing goes through
/// [`lb_proto::Record`]; the version policy (v1 only) is enforced here.
fn check_hello(line: &str) -> Result<String, String> {
    let record = match Record::parse(line) {
        Ok(record) => record,
        Err(e @ ProtoError::Malformed { .. }) => return Err(format!("malformed hello: {e}")),
        Err(e) => return Err(e.to_string()),
    };
    let Record::Hello { version, feed } = record else {
        return Err("expected a hello record".into());
    };
    if version != SERVE_PROTOCOL_VERSION {
        return Err(format!(
            "protocol version mismatch: server speaks {SERVE_PROTOCOL_VERSION}, client sent {version}"
        ));
    }
    Ok(feed)
}

/// Authenticates the trace header line against the running scenario,
/// returning the client's embedded scenario on success.
fn check_header(line: &str, ours: &Scenario) -> Result<Scenario, String> {
    let record = match Record::parse(line) {
        Ok(record) => record,
        Err(e @ ProtoError::Malformed { .. }) => {
            return Err(format!("malformed trace header: {e}"))
        }
        Err(e) => return Err(e.to_string()),
    };
    let Record::Header { version, scenario } = record else {
        return Err("expected the trace header record".into());
    };
    if version != TRACE_VERSION {
        return Err(format!(
            "trace version mismatch: server reads {TRACE_VERSION}, client sent {version}"
        ));
    }
    let scenario = Scenario::from_json(&scenario)
        .map_err(|_| "trace header scenario does not parse".to_string())?;
    scenario
        .validate()
        .map_err(|e| format!("trace header scenario: {e}"))?;
    // Shards and federation never change the result, so a trace recorded at
    // any intra-process or inter-process parallelism is accepted; everything
    // else must match the effective scenario.
    let mut theirs = scenario.clone();
    theirs.shards = ours.shards;
    theirs.federation = ours.federation;
    if &theirs != ours {
        return Err(format!(
            "scenario mismatch: this server runs {:?} (seed {}), the header embeds {:?} (seed {})",
            ours.name, ours.seed, scenario.name, scenario.seed
        ));
    }
    Ok(scenario)
}

/// Runs one connection end to end: handshake, admission, welcome, then
/// pumping round batches into the feed's channel until the stream ends,
/// the client drops, or the engine finishes.
fn handle_connection(conn: Conn, ctx: &ServeCtx) {
    let Ok(write_half) = conn.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut scanner = LineScanner::new(conn);

    let admission = (|| {
        let feed = check_hello(&scanner.read_line()?)?;
        let scenario = check_header(&scanner.read_line()?, &ctx.scenario)?;
        let admission = admit(ctx, &feed)?;
        Ok::<_, String>((feed, scenario, admission))
    })();

    let (feed, scenario, admission) = match admission {
        Ok(parts) => parts,
        Err(reason) => {
            let reject = Record::Reject {
                version: SERVE_PROTOCOL_VERSION,
                error: reason,
            };
            let _ = writeln!(write_half, "{}", reject.render());
            let _ = write_half.flush();
            return;
        }
    };

    let welcome = Record::Welcome {
        version: SERVE_PROTOCOL_VERSION,
        feed: feed.clone(),
        last_round: admission.last_round,
    };
    if writeln!(write_half, "{}", welcome.render())
        .and_then(|()| write_half.flush())
        .is_err()
    {
        park(ctx, &feed, admission.producer, None);
        return;
    }

    if admission.first_time {
        let mut ready = ctx.ready.lock().expect("ready lock");
        *ready += 1;
        ctx.ready_cv.notify_all();
    }

    // The handshake may have over-read into the round records; chain the
    // tail back in front of the socket. The header was consumed during
    // authentication, so the source resumes headerless with fresh totals —
    // the client's own end record validates — while `last_round` keeps
    // rejecting replays of already-admitted rounds.
    let (leftover, read_half) = scanner.into_parts();
    let checkpoint = Checkpoint {
        lineno: 2,
        last_round: admission.last_round,
        ..Checkpoint::default()
    };
    let reader = io::Cursor::new(leftover).chain(read_half);
    let source = match ReadSource::headerless(reader, scenario, checkpoint) {
        Ok(source) => source,
        Err(_) => {
            park(ctx, &feed, admission.producer, None);
            return;
        }
    };
    pump(source, admission.producer, &feed, ctx);
}

/// Parks `producer` for a reconnect window (recording how far the feed
/// got), unless the slot has already moved on.
fn park(ctx: &ServeCtx, feed: &str, producer: EventProducer, last_round: Option<u64>) {
    let mut slots = ctx.slots.lock().expect("slots lock");
    if let Some(slot) = slots.get_mut(feed) {
        if let Some(round) = last_round {
            slot.last_round = Some(round);
        }
        slot.state = SlotState::Parked {
            producer,
            deadline: Instant::now() + ctx.reconnect_timeout,
        };
    }
}

/// Marks `feed` complete; dropping the producer (by not storing it) closes
/// the channel and the merge retires the feed cleanly.
fn finish_slot(ctx: &ServeCtx, feed: &str, last_round: Option<u64>) {
    let mut slots = ctx.slots.lock().expect("slots lock");
    if let Some(slot) = slots.get_mut(feed) {
        if last_round.is_some() {
            slot.last_round = last_round;
        }
        slot.state = SlotState::Finished;
    }
}

/// Forwards round batches from the connection's [`ReadSource`] into the
/// feed's ingest channel. A clean `end` record finishes the feed; a read
/// failure (dropped client, torn line) parks it for reconnect; a failed
/// send means the engine is done — the feed is finished so a late
/// reconnect is refused rather than parked forever.
fn pump<R: Read + Send>(
    mut source: ReadSource<R>,
    mut producer: EventProducer,
    feed: &str,
    ctx: &ServeCtx,
) {
    let mut spare: Option<RoundEvents> = None;
    loop {
        let mut batch = spare.take().unwrap_or_else(|| producer.buffer());
        match source.next_round(&mut batch) {
            Ok(Some(round)) => {
                if batch.is_empty() {
                    spare = Some(batch);
                } else if producer.send(round, batch).is_err() {
                    finish_slot(ctx, feed, source.checkpoint().last_round);
                    return;
                } else {
                    // Only admitted (sent) rounds advance the resume point.
                    let mut slots = ctx.slots.lock().expect("slots lock");
                    if let Some(slot) = slots.get_mut(feed) {
                        slot.last_round = Some(round);
                    }
                }
            }
            Ok(None) => {
                finish_slot(ctx, feed, source.checkpoint().last_round);
                return;
            }
            Err(_) => {
                park(ctx, feed, producer, source.checkpoint().last_round);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Connects to a [`serve`] instance at `addr` and streams `source`'s round
/// records as one feed: hello, trace header, welcome, then every stride-
/// selected record strictly after the server's `last_round`, sealed with
/// the `end` record. Records are read as they are sent, so the trace is
/// never held in memory. This is the engine behind
/// `lb serve-trace <trace> --connect <addr>` and the reconnect path — a
/// client that reconnects after a drop is just `push_trace` again, over a
/// reopened trace, with the same feed name.
///
/// # Errors
///
/// [`BenchError::Usage`] for an invalid stride, [`BenchError::Io`] for
/// connect/write failures, [`BenchError::Protocol`] when the server
/// rejects the handshake or replies out of protocol. A malformed or
/// truncated trace fails as the source reaches it; the connection then
/// drops without the `end` record, which the server treats as an aborted
/// client.
pub fn push_trace(
    addr: &str,
    mut source: impl RoundSource,
    options: &PushOptions,
) -> Result<PushReport, BenchError> {
    let (n, i) = options.stride;
    if n == 0 || i >= n {
        return Err(BenchError::usage(format!(
            "stride must be N:I with I < N, got {n}:{i}"
        )));
    }
    let conn = Conn::connect(addr)?;
    let mut write_half = conn
        .try_clone()
        .map_err(|e| BenchError::io(format!("splitting connection: {e}")))?;
    let hello = Record::Hello {
        version: SERVE_PROTOCOL_VERSION,
        feed: options.feed.clone(),
    };
    writeln!(write_half, "{}", hello.render())
        .and_then(|()| write_half.flush())
        .map_err(|e| BenchError::io(format!("sending hello: {e}")))?;
    let mut writer = TraceWriter::new(write_half, source.scenario()).map_err(BenchError::Io)?;

    let mut scanner = LineScanner::new(conn);
    let reply = Record::parse(&scanner.read_line().map_err(BenchError::Protocol)?)
        .map_err(|e| BenchError::protocol(format!("malformed server reply: {e}")))?;
    let last_round = match reply {
        Record::Welcome { last_round, .. } => last_round,
        Record::Reject { error, .. } => {
            return Err(BenchError::protocol(format!(
                "server rejected feed {:?}: {error}",
                options.feed
            )));
        }
        _ => {
            return Err(BenchError::protocol(
                "server reply is neither welcome nor reject",
            ))
        }
    };

    let mut events = RoundEvents::default();
    let mut sent = 0u64;
    let mut index = 0usize;
    while let Some(round) = source
        .next_round(&mut events)
        .map_err(BenchError::from_source)?
    {
        let selected = index % n == i;
        index += 1;
        if !selected || last_round.is_some_and(|last| round <= last) {
            continue;
        }
        if options.abort_after.is_some_and(|cap| sent >= cap as u64) {
            // Dropping the writer (and the connection with it) without the
            // end record is the point: it simulates a crashed client.
            return Ok(PushReport {
                resumed_after: last_round,
                rounds_sent: sent,
                aborted: true,
            });
        }
        if let Some(delay) = options.delay {
            if sent > 0 {
                std::thread::sleep(delay);
            }
        }
        writer
            .record_round(round, &events)
            .map_err(BenchError::Io)?;
        sent += 1;
    }
    writer.finish().map_err(BenchError::Io)?;
    Ok(PushReport {
        resumed_after: last_round,
        rounds_sent: sent,
        aborted: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lb_workloads::{
        AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, ServiceSpec, SpeedSpec,
        TokenDistribution, TopologySpec,
    };

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "serve_test".into(),
            seed: 5,
            rounds: 8,
            sample_every: 4,
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

    #[test]
    fn hello_validation_catches_each_field() {
        assert!(check_hello(r#"{"kind":"hello","version":1,"feed":"a"}"#).is_ok());
        assert!(check_hello(r#"{"kind":"header","version":1,"feed":"a"}"#)
            .unwrap_err()
            .contains("hello"));
        assert!(check_hello(r#"{"kind":"hello","version":9,"feed":"a"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(check_hello(r#"{"kind":"hello","version":1,"feed":""}"#)
            .unwrap_err()
            .contains("feed"));
    }

    fn header(scenario: &Scenario) -> String {
        Json::obj([
            ("kind", Json::from("header")),
            ("version", Json::from(TRACE_VERSION)),
            ("scenario", scenario.to_json()),
        ])
        .render()
    }

    #[test]
    fn stride_is_validated() {
        let text = header(&tiny_scenario()) + "\n";
        let source = ReadSource::new(io::Cursor::new(text.into_bytes())).unwrap();
        let mut options = PushOptions::feed("a");
        options.stride = (2, 2);
        let err = push_trace("127.0.0.1:1", source, &options).unwrap_err();
        assert!(matches!(err, BenchError::Usage(_)), "{err}");
    }

    #[test]
    fn header_auth_matches_effective_scenario_ignoring_shards() {
        let ours = tiny_scenario();
        assert!(check_header(&header(&ours), &ours).is_ok());
        let mut sharded = ours.clone();
        sharded.shards = 4;
        assert!(check_header(&header(&sharded), &ours).is_ok());
        let mut reseeded = ours.clone();
        reseeded.seed = 6;
        assert!(check_header(&header(&reseeded), &ours)
            .unwrap_err()
            .contains("scenario mismatch"));
        assert!(
            check_header(r#"{"kind":"header","version":9,"scenario":null}"#, &ours)
                .unwrap_err()
                .contains("version")
        );
    }
}
