//! Drive one scenario through the multi-producer merge stage and through a
//! file-tailed byte-stream source, and verify both emit result JSON
//! **byte-identical** to the synchronous run — the live-ingestion contract
//! behind `lb run --producer merge:<N>` and `lb replay --follow`. Also
//! prints the per-feed backpressure report that channel-fed runs expose out
//! of band.
//!
//! Run with: `cargo run --release -p lb-bench --example merge_ingestion`

use lb_bench::dynamic::{Producer, Session};
use lb_workloads::{Scenario, TraceSource};

fn main() {
    let scenario = Scenario::parse(
        r#"{
            "name": "merge_ingestion_demo",
            "seed": 2026,
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

    // 1. The synchronous reference run, recorded for the byte-stream replay.
    let path = std::env::temp_dir().join("lb_merge_ingestion_demo.trace.jsonl");
    let sync = Session::from_scenario(&scenario)
        .record(path.clone())
        .run(|_| Ok(()))
        .expect("sync run succeeds");
    let sync_doc = sync.to_json().render_pretty();
    println!(
        "sync: final max_avg = {:.2}, arrived = {}, completed = {}",
        sync.last().max_avg,
        sync.last().arrived_weight,
        sync.last().completed_weight,
    );

    // 2. Three producer threads, each streaming a contiguous slice of every
    //    round's batch; the k-way merge reassembles them bit for bit.
    let merged = Session::from_scenario(&scenario)
        .producer(Producer::Merge { feeds: 3 })
        .run(|_| Ok(()))
        .expect("merged run succeeds");
    assert_eq!(
        sync_doc,
        merged.to_json().render_pretty(),
        "3-feed merge must be byte-identical to sync"
    );
    println!("merge(3): result JSON is byte-identical to the sync run");
    let stats = merged.ingest.expect("merged runs report ingest stats");
    println!("merge(3) ingest report (timing-dependent, out of band):");
    println!("{}", stats.render_pretty());

    // 3. Replay the recorded trace through the file-tail source — the same
    //    path `lb replay --follow` takes against a growing file.
    let source = TraceSource::open(&path).expect("trace tail opens");
    let tailed = Session::from_stream(Box::new(source))
        .run(|_| Ok(()))
        .expect("tail replays");
    assert_eq!(
        sync_doc,
        tailed.to_json().render_pretty(),
        "file-tailed replay must be byte-identical to sync"
    );
    println!("file tail: result JSON is byte-identical to the sync run");

    std::fs::remove_file(&path).ok();
    println!("merge ingestion contract holds: sync == merge(3) == file tail");
}
