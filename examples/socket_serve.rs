//! Serve one scenario over a socket: an `lb serve`-style server accepts two
//! concurrent trace-streaming clients (one of which crashes mid-stream and
//! reconnects), merges their feeds into a single live engine, and produces
//! a result document **byte-identical** to the synchronous run — the socket
//! service contract behind `lb serve` and `lb serve-trace --connect`.
//!
//! Run with: `cargo run --release -p lb-bench --example socket_serve`

use lb_bench::dynamic::Session;
use lb_bench::serve::{push_trace, serve, PushOptions, ServeOptions};
use lb_workloads::{Scenario, TraceSource};
use std::time::Duration;

fn main() {
    let scenario = Scenario::parse(
        r#"{
            "name": "socket_serve_demo",
            "seed": 2012,
            "rounds": 60,
            "sample_every": 15,
            "algorithm": "alg1",
            "model": "fos",
            "topology": {"family": "hypercube", "target_n": 64},
            "speeds": {"model": "uniform"},
            "initial": {
                "distribution": {"model": "single_source", "source": 0},
                "tokens_per_node": 8,
                "pad": "degree"
            },
            "arrivals": {"model": "poisson", "rate_per_node": 0.5, "max_weight": 1},
            "completions": {"model": "uniform", "weight_per_speed": 1},
            "churn": []
        }"#,
    )
    .expect("demo scenario parses");

    // 1. The synchronous reference run, recorded so the clients have a
    //    stream to serve back. The header embeds the effective scenario —
    //    exactly what the server's handshake authenticates against.
    let path = std::env::temp_dir().join("lb_socket_serve_demo.trace.jsonl");
    let reference = Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| Ok(()))
        .expect("reference run succeeds");
    let reference_doc = reference.to_json().render_pretty();
    println!(
        "reference: {} rounds recorded, final max_avg = {:.2}",
        scenario.rounds,
        reference.last().max_avg,
    );
    // Each push streams the trace file from its own reader, so a reconnect
    // simply reopens it.
    let trace = || TraceSource::open(&path).expect("trace opens");

    // 2. Start the server on an ephemeral port; it publishes the bound
    //    address through --listen-info so clients never race the bind. The
    //    engine starts once both clients have completed their handshake.
    let info = std::env::temp_dir().join("lb_socket_serve_demo.addr.json");
    let options = ServeOptions {
        clients: 2,
        reconnect_timeout: Duration::from_secs(10),
        listen_info: Some(info.clone()),
        ..ServeOptions::default()
    };
    let server = {
        let scenario = scenario.clone();
        std::thread::spawn(move || serve(&scenario, &options, |_| Ok(())))
    };
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&info) {
            if let Ok(json) = lb_analysis::Json::parse(text.trim()) {
                if let Some(addr) = json.get("addr").and_then(lb_analysis::Json::as_str) {
                    break addr.to_string();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    println!("server listening on {addr}");

    // 3. Two striped clients: "even" carries the even-indexed round
    //    records, "odd" the rest. No two feeds share a round, which is what
    //    keeps the served run byte-identical no matter the admission order.
    //    The "even" client crashes after 5 records (dropping the socket
    //    without the sealing end record), then reconnects: the welcome's
    //    last_round tells it where to resume.
    let odd = {
        let source = trace();
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut push = PushOptions::feed("odd");
            push.stride = (2, 1);
            push_trace(&addr, source, &push).expect("odd feed streams")
        })
    };
    let mut push = PushOptions::feed("even");
    push.stride = (2, 0);
    push.abort_after = Some(5);
    let crashed = push_trace(&addr, trace(), &push).expect("even feed connects");
    println!(
        "even feed crashed after {} record(s) (no end record)",
        crashed.rounds_sent
    );
    push.abort_after = None;
    let resumed = loop {
        // The server parks the dropped feed once it observes the hang-up;
        // until then the name is briefly still "connected".
        match push_trace(&addr, trace(), &push) {
            Ok(report) => break report,
            Err(err) if err.to_string().contains("already connected") => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(err) => panic!("reconnect failed: {err}"),
        }
    };
    println!(
        "even feed reconnected, resumed after round {:?}, sent {} more record(s)",
        resumed.resumed_after, resumed.rounds_sent
    );

    // 4. The contract: the served run's result document is byte-identical
    //    to the synchronous reference, crash and all.
    odd.join().expect("odd client");
    let outcome = server
        .join()
        .expect("server thread")
        .expect("serve run succeeds");
    assert_eq!(
        reference_doc,
        outcome.to_json().render_pretty(),
        "served run diverged from the synchronous reference"
    );
    println!("served run is byte-identical to the synchronous reference ✓");
    let stats = outcome.ingest.expect("served runs report ingest stats");
    println!("per-connection ingest report (timing-dependent, out of band):");
    println!("{}", stats.render_pretty());
    std::fs::remove_file(&info).ok();
    std::fs::remove_file(&path).ok();
}
