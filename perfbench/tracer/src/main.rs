//! Traced run of the repository benchmark.
//!
//! Drives one scenario through the public functions of each layer
//! (`lb-graph`, `lb-core`'s continuous, discrete, shard, snapshot, ingest,
//! metrics and federate modules, `lb-workloads`, `lb-proto`), records one
//! span per call, and prints per-layer metrics as one JSON object.
//!
//! ```text
//! perfbench-tracer --scenario FILE --scratch DIR --doc FILE --spans FILE
//!     [--shards S] [--parts 2] [--producer channel] [--checkpoint-every K]
//! ```
//!
//! The loop runs twice. Both passes must render the same result document
//! (written to `--doc`, which the caller compares with the untraced `lb`
//! run) and the same work counts; per-layer times pool the spans of both
//! passes.

mod engine;
mod fed;
mod local;
mod spans;
mod world;

use std::path::PathBuf;
use std::time::Instant;

use lb_analysis::Json;
use lb_core::ingest::ChannelMetrics;
use lb_workloads::{ModelSpec, Scenario};

use crate::spans::{percentile, recording_ns, Spans};

/// Traced passes per invocation; the second proves the first repeats.
const PASSES: usize = 2;

/// What one traced invocation runs.
pub struct Config {
    /// The effective scenario (seed and executor overrides applied).
    pub scenario: Scenario,
    pub shards: usize,
    pub parts: usize,
    pub channel: bool,
    pub checkpoint_every: Option<usize>,
    pub scratch: PathBuf,
}

/// Everything one pass of the traced loop produced.
pub struct PassOutput {
    pub doc: String,
    pub nodes: usize,
    pub edges: usize,
    pub items_sent: u64,
    pub dummy_created: u64,
    pub events: u64,
    pub samples: u64,
    pub snapshot_bytes: Vec<u64>,
    pub ingest: Option<ChannelMetrics>,
    pub exchanges: Vec<fed::Exchange>,
    /// Wall time from round 0 ready to the last round.
    pub loop_ms: f64,
    /// Spans the loop recorded on its critical path.
    pub loop_spans: usize,
    pub spans: Spans,
}

impl PassOutput {
    pub fn new(nodes: usize, edges: usize) -> Self {
        PassOutput {
            doc: String::new(),
            nodes,
            edges,
            items_sent: 0,
            dummy_created: 0,
            events: 0,
            samples: 0,
            snapshot_bytes: Vec::new(),
            ingest: None,
            exchanges: Vec::new(),
            loop_ms: 0.0,
            loop_spans: 0,
            spans: Spans::new(Instant::now(), "engine"),
        }
    }
}

struct Args {
    config: Config,
    doc: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut scenario = None;
    let mut scratch = None;
    let (mut shards, mut parts, mut channel) = (1usize, 1usize, false);
    let mut checkpoint_every = None;
    let (mut doc, mut spans) = (None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--scenario" => scenario = Some(value()?),
            "--scratch" => scratch = Some(PathBuf::from(value()?)),
            "--shards" => shards = num(value()?)?,
            "--parts" => parts = num(value()?)?,
            "--producer" => match value()?.as_str() {
                "channel" => channel = true,
                other => return Err(format!("--producer: unknown mode {other:?}")),
            },
            "--checkpoint-every" => checkpoint_every = Some(num(value()?)?),
            "--doc" => doc = Some(PathBuf::from(value()?)),
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let path = scenario.ok_or("--scenario is required")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut scenario = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    // The executor overrides echo into the result document exactly as the
    // `lb` CLI echoes them.
    if shards > 1 {
        scenario.shards = shards;
    }
    if parts > 1 {
        scenario.federation = parts;
    }
    scenario.validate()?;
    Ok(Args {
        config: Config {
            scenario,
            shards,
            parts,
            channel,
            checkpoint_every,
            scratch: scratch.ok_or("--scratch is required")?,
        },
        doc: doc.ok_or("--doc is required")?,
        spans: spans.ok_or("--spans is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-layer metrics pooled over all passes. A metric appears only when
/// this invocation exercised its layer.
fn layer_metrics(cfg: &Config, passes: &[PassOutput]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let pooled =
        |name: &str| -> Vec<f64> { passes.iter().flat_map(|p| p.spans.ms(name)).collect() };
    let per_pass_total = |name: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.spans.ms(name).iter().sum::<f64>())
            .collect()
    };
    let first = &passes[0];
    let (n, m) = (first.nodes as f64, first.edges as f64);
    let mut put = |name: &'static str, v: f64| out.push((name, v));

    put("graph.build_ms", median(per_pass_total("graph.build")));
    put("graph.edges", m);
    if !cfg.scenario.churn.is_empty() {
        put(
            "graph.churn_precompute_ms",
            median(per_pass_total("graph.churn_precompute")),
        );
        put(
            "graph.delta_ms_p50",
            percentile(&pooled("graph.delta"), 50.0),
        );
        put(
            "continuous.patch_ms_p50",
            percentile(&pooled("continuous.patch"), 50.0),
        );
        put(
            "discrete.replace_topology_ms_p50",
            percentile(&pooled("discrete.replace_topology"), 50.0),
        );
    }
    if cfg.scenario.model == ModelSpec::Sos {
        put(
            "continuous.beta_ms",
            percentile(&pooled("continuous.beta"), 50.0),
        );
    }
    put(
        "discrete.build_ms",
        percentile(&pooled("discrete.build"), 50.0),
    );
    put(
        "discrete.apply_events_ms_p50",
        percentile(&pooled("discrete.apply_events"), 50.0),
    );
    put("discrete.items_sent", first.items_sent as f64);
    put("discrete.dummy_created", first.dummy_created as f64);
    put("discrete.events", first.events as f64);
    put(
        "metrics.sample_ms_p50",
        percentile(&pooled("metrics.sample"), 50.0),
    );
    put("metrics.samples", first.samples as f64);
    put(
        "workloads.fill_round_us_p50",
        percentile(&pooled("workloads.fill_round"), 50.0) * 1e3,
    );
    put(
        "driver.render_ms",
        percentile(&pooled("driver.render"), 50.0),
    );
    if !first.snapshot_bytes.is_empty() {
        put(
            "snapshot.capture_ms",
            percentile(&pooled("snapshot.capture"), 50.0),
        );
        put(
            "snapshot.render_ms",
            percentile(&pooled("snapshot.render"), 50.0),
        );
        put(
            "snapshot.write_ms",
            percentile(&pooled("snapshot.write"), 50.0),
        );
        put(
            "snapshot.parse_ms",
            percentile(&pooled("snapshot.parse"), 50.0),
        );
        put(
            "snapshot.restore_ms",
            percentile(&pooled("snapshot.restore"), 50.0),
        );
        let bytes: Vec<f64> = first.snapshot_bytes.iter().map(|&b| b as f64).collect();
        put("snapshot.bytes", median(bytes));
    }

    if cfg.parts > 1 {
        // Per round, averaged over the two parts: the federated step minus
        // the link's share of it is compute; the barrier share is wait.
        let mut compute = Vec::new();
        let mut wait = Vec::new();
        let mut render = Vec::new();
        let mut parse = Vec::new();
        let calls = first.exchanges.len();
        let payload: u64 = first.exchanges.iter().map(|e| e.payload_bytes).sum();
        let wire: u64 = first.exchanges.iter().map(|e| e.wire_bytes).sum();
        for p in passes {
            render.extend(p.exchanges.iter().map(|e| e.render_ns as f64 / 1e3));
            parse.extend(p.exchanges.iter().map(|e| e.parse_ns as f64 / 1e3));
            let step_ms = p.spans.per_round_ms("federate.step");
            let mut link_ms = std::collections::BTreeMap::new();
            let mut wait_ms = std::collections::BTreeMap::new();
            for e in &p.exchanges {
                *link_ms.entry(e.round).or_insert(0.0) +=
                    (e.render_ns + e.wait_ns + e.parse_ns) as f64 / 1e6;
                *wait_ms.entry(e.round).or_insert(0.0) += e.wait_ns as f64 / 1e6;
            }
            for (round, total) in step_ms {
                compute.push((total - link_ms.get(&round).copied().unwrap_or(0.0)) / 2.0);
                wait.push(wait_ms.get(&round).copied().unwrap_or(0.0) / 2.0);
            }
        }
        let rounds = cfg.scenario.rounds as f64;
        put("federate.compute_ms_p50", percentile(&compute, 50.0));
        put("federate.wait_ms_p50", percentile(&wait, 50.0));
        put("federate.exchanges_per_round", calls as f64 / rounds / 2.0);
        put("federate.payload_bytes_per_round", payload as f64 / rounds);
        put("proto.render_us_p50", percentile(&render, 50.0));
        put("proto.parse_us_p50", percentile(&parse, 50.0));
        put("proto.wire_bytes_per_round", wire as f64 / rounds);
    } else {
        let twin = pooled("continuous.step");
        let twin_p50 = percentile(&twin, 50.0);
        put("continuous.step_ms_p50", twin_p50);
        put("continuous.step_ms_p99", percentile(&twin, 99.0));
        put("continuous.edges_per_s", m / (twin_p50 / 1e3));
        // Kernel traffic per round: per edge the two endpoint ids, alpha,
        // both endpoint loads and the written flow pair (56 B; SOS also
        // reads and writes the previous flow pair, +32 B); per node the
        // load read and write plus the speed (24 B).
        let per_edge = match cfg.scenario.model {
            ModelSpec::Fos => 56.0,
            ModelSpec::Sos => 88.0,
        };
        put("continuous.bytes_per_round", per_edge * m + 24.0 * n);
        let seq = pooled("discrete.step");
        let seq_p50 = percentile(&seq, 50.0);
        put("discrete.step_ms_p50", seq_p50);
        put("discrete.step_ms_p99", percentile(&seq, 99.0));
        // Engine step minus the standalone twin step of the same round.
        let mut send = Vec::new();
        for p in passes {
            let steps = p.spans.per_round_ms("discrete.step");
            let twins = p.spans.per_round_ms("continuous.step");
            for (round, step) in steps {
                send.push(step - twins.get(&round).copied().unwrap_or(0.0));
            }
        }
        put("discrete.send_ms_p50", percentile(&send, 50.0));
        if cfg.shards > 1 {
            let sharded = pooled("shard.step");
            let p50 = percentile(&sharded, 50.0);
            put("shard.step_ms_p50", p50);
            put("shard.step_ms_p99", percentile(&sharded, 99.0));
            put("shard.speedup", seq_p50 / p50);
        }
    }
    if let Some(ingest) = first.ingest {
        put(
            "ingest.wait_us_p50",
            percentile(&pooled("ingest.wait"), 50.0) * 1e3,
        );
        put("ingest.blocked_sends", ingest.blocked_sends as f64);
        put("ingest.high_water", ingest.high_water as f64);
    }
    out
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = &args.config;
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("creating scratch: {e}"))?;
    let origin = Instant::now();
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let pass = if cfg.parts > 1 {
            fed::run(cfg, origin)?
        } else {
            local::run(cfg, origin)?
        };
        passes.push(pass);
    }
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.doc != first.doc {
            return Err(format!(
                "pass {} rendered a different result document",
                i + 1
            ));
        }
        let counts = |p: &PassOutput| (p.items_sent, p.dummy_created, p.events, p.samples);
        if counts(p) != counts(first) {
            return Err(format!("pass {} counted different work", i + 1));
        }
    }
    std::fs::write(&args.doc, first.doc.as_bytes()).map_err(|e| format!("writing doc: {e}"))?;
    let text: String = passes
        .iter()
        .enumerate()
        .map(|(i, p)| p.spans.render(i))
        .collect();
    std::fs::write(&args.spans, text).map_err(|e| format!("writing spans: {e}"))?;
    // Tracing overhead: the time the loop spent recording spans, as a share
    // of the loop without it (the untraced base). Both passes' loops run the
    // same calls with the same transport, so only the recording differs.
    let per_span_ms = recording_ns() / 1e6;
    let overhead: Vec<f64> = passes
        .iter()
        .map(|p| {
            let recording = p.loop_spans as f64 * per_span_ms;
            recording / (p.loop_ms - recording) * 100.0
        })
        .collect();
    let mut metrics = layer_metrics(cfg, &passes);
    metrics.push(("trace.overhead_pct", median(overhead)));
    let report = Json::obj([(
        "metrics",
        Json::Obj(
            metrics
                .into_iter()
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        ),
    )]);
    println!("{}", report.render());
    Ok(())
}

fn main() {
    if let Err(err) = run() {
        eprintln!("perfbench-tracer: {err}");
        std::process::exit(1);
    }
}
