//! Record a dynamic-workload run to an event trace, then stream the trace
//! back through the async ingestion channel (a one-feed merge) and verify the result document
//! is **byte-identical** — the trace record/replay contract behind
//! `lb run --record` and `lb replay`.
//!
//! Run with: `cargo run --release -p lb-bench --example record_replay`

use lb_bench::dynamic::{Producer, Session};
use lb_workloads::{RoundSource, Scenario, TraceSource};

fn main() {
    // A compact sustained-load scenario: Poisson arrivals, uniform service,
    // one mid-run rewire. Any scenario file accepted by `lb run` works.
    let scenario = Scenario::parse(
        r#"{
            "name": "record_replay_demo",
            "seed": 2012,
            "rounds": 120,
            "sample_every": 30,
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
            "churn": [{"round": 60, "kind": "rewire", "seed": 99}]
        }"#,
    )
    .expect("demo scenario parses");

    let path = std::env::temp_dir().join("lb_record_replay_demo.trace.jsonl");

    // 1. Run and record. Recording taps the applied event stream; it never
    //    perturbs the run.
    let recorded = Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| Ok(()))
        .expect("recorded run succeeds");
    println!(
        "recorded {} rounds: final max_avg = {:.2}, arrived = {}, completed = {}",
        scenario.rounds,
        recorded.last().max_avg,
        recorded.last().arrived_weight,
        recorded.last().completed_weight,
    );

    // 2. Open the trace and replay it. The header embeds the effective
    //    scenario, so the trace is self-contained; the round records are
    //    read one at a time as the engine consumes them.
    let trace = TraceSource::open(&path).expect("trace opens");
    println!(
        "trace header: scenario {:?}, seed {}",
        trace.scenario().name,
        trace.scenario().seed
    );
    let replayed = Session::from_stream(Box::new(trace))
        .run(|_| Ok(()))
        .expect("replay succeeds");

    // 3. The contract: byte-identical result documents.
    let a = recorded.to_json().render_pretty();
    let b = replayed.to_json().render_pretty();
    assert_eq!(a, b, "replayed run diverged from the recorded run");
    println!("replay is byte-identical to the recorded run ✓");

    // The channel producer mode (`lb run --producer channel`, a one-feed
    // merge) is equally bit-identical — same scenario, same seed, events
    // streamed through one bounded SPSC channel instead of generated inline.
    let channel = Session::from_scenario(&scenario)
        .producer(Producer::Merge { feeds: 1 })
        .run(|_| Ok(()))
        .expect("channel run succeeds");
    assert_eq!(
        a,
        channel.to_json().render_pretty(),
        "channel-driven run diverged from the sync run"
    );
    println!("channel ingestion is byte-identical to the sync path ✓");

    std::fs::remove_file(&path).ok();
}
