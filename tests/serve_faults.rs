//! Fault injection for the `lb serve` socket front-end: a client that drops
//! mid-stream degrades the run (it still finishes), a client that
//! reconnects within the window resumes where it left off and the served
//! run stays **byte-identical** to the synchronous reference at the
//! acceptance shard counts {1, 4}, and a handshake whose header embeds the
//! wrong scenario is rejected with a typed error while the engine keeps
//! serving the other feeds.

use lb_analysis::artifact::unique_name;
use lb_bench::dynamic::Session;
use lb_bench::error::BenchError;
use lb_bench::serve::{push_trace, serve, PushOptions, ServeOptions};
use lb_workloads::{
    AlgorithmSpec, ArrivalSpec, InitialSpec, ModelSpec, PadSpec, RoundSource, Scenario,
    ServiceSpec, SpeedSpec, TokenDistribution, TopologySpec, TraceSource, TraceWriter,
};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn serve_scenario() -> Scenario {
    Scenario {
        name: "serve_faults".into(),
        seed: 7,
        rounds: 12,
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

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(unique_name(&format!("lb_serve_faults_{tag}")))
}

/// Records the scenario's event stream once; the header embeds the
/// effective scenario, which is what the server authenticates against.
/// Returns the trace file and the reference document.
fn recorded_trace(tag: &str) -> (PathBuf, String) {
    let scenario = serve_scenario();
    let path = temp_path(&format!("{tag}.trace.jsonl"));
    let reference = Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| Ok(()))
        .expect("reference run records");
    (path, reference.to_json().render_pretty())
}

/// Opens a trace file for one push (a reconnect reopens it).
fn open(trace: &Path) -> TraceSource {
    TraceSource::open(trace).expect("trace opens")
}

/// Polls the `--listen-info` file the server writes once its socket is up,
/// returning the bound address.
fn wait_for_addr(info: &Path) -> String {
    for _ in 0..500 {
        if let Ok(text) = std::fs::read_to_string(info) {
            if let Ok(json) = lb_analysis::Json::parse(text.trim()) {
                if let Some(addr) = json.get("addr").and_then(lb_analysis::Json::as_str) {
                    return addr.to_string();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server never published its address to {}", info.display());
}

/// Reconnects under a feed name, retrying while the server is still
/// parking the dropped connection (the old pump may not have observed the
/// hang-up yet, in which case the name is briefly "already connected").
fn reconnect(addr: &str, trace: &Path, options: &PushOptions) -> lb_bench::serve::PushReport {
    for _ in 0..200 {
        match push_trace(addr, open(trace), options) {
            Ok(report) => return report,
            Err(BenchError::Protocol(reason)) if reason.contains("already connected") => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => panic!("reconnect failed: {err}"),
        }
    }
    panic!("feed {:?} never came free for reconnect", options.feed);
}

/// A client that drops mid-stream and never comes back: once the reconnect
/// window expires the feed closes and the run degrades — the remaining
/// rounds see no events from it — but still completes deterministically.
#[test]
fn dropped_client_degrades_and_the_run_finishes() {
    let scenario = serve_scenario();
    let (trace, _) = recorded_trace("degrade");
    let info = temp_path("degrade.addr.json");
    let options = ServeOptions {
        reconnect_timeout: Duration::from_millis(200),
        listen_info: Some(info.clone()),
        ..ServeOptions::default()
    };

    let server = {
        let scenario = scenario.clone();
        std::thread::spawn(move || serve(&scenario, &options, |_| Ok(())))
    };
    let addr = wait_for_addr(&info);

    let mut push = PushOptions::feed("flaky");
    push.abort_after = Some(2);
    let report = push_trace(&addr, open(&trace), &push).expect("partial push connects");
    assert!(report.aborted, "the client really dropped mid-stream");
    assert_eq!(report.rounds_sent, 2);

    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(
        outcome.last().round,
        scenario.rounds,
        "the degraded run still reaches the horizon"
    );
    // Only the two delivered rounds' arrivals made it in.
    let full = Session::from_scenario(&scenario)
        .run(|_| Ok(()))
        .expect("runs");
    assert!(
        outcome.last().arrived_weight < full.last().arrived_weight,
        "the dropped tail of the stream never arrived"
    );
    std::fs::remove_file(&info).ok();
    std::fs::remove_file(&trace).ok();
}

/// The tentpole contract: two striped clients, one killed mid-stream and
/// reconnected, produce a served run byte-identical to the synchronous
/// reference — at both acceptance shard counts.
#[test]
fn reconnected_client_resumes_byte_identically_at_acceptance_shards() {
    let scenario = serve_scenario();
    let (trace, _) = recorded_trace("reconnect");

    for shards in [1usize, 4] {
        let reference = Session::from_scenario(&scenario)
            .shards(shards)
            .run(|_| Ok(()))
            .expect("sync reference runs");
        let reference_doc = reference.to_json().render_pretty();

        let info = temp_path(&format!("reconnect_{shards}.addr.json"));
        let options = ServeOptions {
            clients: 2,
            reconnect_timeout: Duration::from_secs(10),
            listen_info: Some(info.clone()),
            ..ServeOptions::default()
        };
        let server = {
            let mut scenario = scenario.clone();
            scenario.shards = shards;
            std::thread::spawn(move || serve(&scenario, &options, |_| Ok(())))
        };
        let addr = wait_for_addr(&info);

        // Feed "even" carries the even-indexed round records and crashes
        // after the first one; feed "odd" carries the rest uninterrupted.
        let odd_client = {
            let trace = trace.clone();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut push = PushOptions::feed("odd");
                push.stride = (2, 1);
                push_trace(&addr, open(&trace), &push).expect("odd feed streams")
            })
        };
        let mut push = PushOptions::feed("even");
        push.stride = (2, 0);
        push.abort_after = Some(1);
        let crashed = push_trace(&addr, open(&trace), &push).expect("even feed connects");
        assert!(crashed.aborted);
        assert_eq!(crashed.rounds_sent, 1);

        // Come back under the same name: the welcome's last_round makes the
        // client skip what the server already admitted.
        push.abort_after = None;
        let resumed = reconnect(&addr, &trace, &push);
        assert!(
            resumed.resumed_after.is_some(),
            "the welcome carried the resume point"
        );

        odd_client.join().expect("odd client");
        let outcome = server.join().expect("server thread").expect("serve run");
        assert_eq!(
            reference_doc,
            outcome.to_json().render_pretty(),
            "shards={shards}: served run diverged from the sync reference"
        );
        let stats = outcome.ingest.expect("served runs report ingest stats");
        let feeds = stats
            .get("feeds")
            .and_then(lb_analysis::Json::as_array)
            .expect("per-feed stats");
        assert_eq!(feeds.len(), 2, "one merge feed per connection name");
        std::fs::remove_file(&info).ok();
    }
    std::fs::remove_file(&trace).ok();
}

/// A handshake embedding the wrong effective scenario is refused with a
/// typed rejection before touching the engine; a correct client afterwards
/// is served normally and the run completes byte-identical to sync.
#[test]
fn mismatched_header_is_rejected_while_the_engine_keeps_serving() {
    let scenario = serve_scenario();
    let (trace, reference_doc) = recorded_trace("mismatch");
    let info = temp_path("mismatch.addr.json");
    let options = ServeOptions {
        listen_info: Some(info.clone()),
        ..ServeOptions::default()
    };
    let server = {
        let scenario = scenario.clone();
        std::thread::spawn(move || serve(&scenario, &options, |_| Ok(())))
    };
    let addr = wait_for_addr(&info);

    // A trace recorded at a different seed: same shape, wrong scenario.
    let mut reseeded = open(&trace).scenario().clone();
    reseeded.seed = 9999;
    let imposter = temp_path("mismatch.imposter.jsonl");
    TraceWriter::create(&imposter, &reseeded)
        .and_then(TraceWriter::finish)
        .expect("imposter trace writes");
    let err = push_trace(&addr, open(&imposter), &PushOptions::feed("imposter"))
        .expect_err("mismatched header must be rejected");
    assert!(matches!(err, BenchError::Protocol(_)), "{err:?}");
    assert!(err.to_string().contains("scenario mismatch"), "{err}");

    // The rejection never reached the engine: a good client is served and
    // the run is still byte-identical to the sync reference.
    let report =
        push_trace(&addr, open(&trace), &PushOptions::feed("good")).expect("good feed streams");
    assert!(!report.aborted);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(reference_doc, outcome.to_json().render_pretty());
    std::fs::remove_file(&info).ok();
    std::fs::remove_file(&imposter).ok();
    std::fs::remove_file(&trace).ok();
}
