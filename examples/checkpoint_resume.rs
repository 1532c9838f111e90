//! Checkpoint a dynamic-workload run mid-flight, then resume it from the
//! snapshot — at a *different* shard count — and verify the result document
//! is **byte-identical** to the uninterrupted run's: the crash-recovery and
//! elastic-resharding contract behind `lb run --checkpoint-every` and
//! `lb run --resume`.
//!
//! Run with: `cargo run --release -p lb-bench --example checkpoint_resume`

use lb_bench::dynamic::Session;
use lb_core::snapshot;
use lb_workloads::Scenario;

fn main() {
    // A compact sustained-load scenario: Poisson arrivals, uniform service,
    // one mid-run rewire. Any scenario file accepted by `lb run` works.
    let scenario = Scenario::parse(
        r#"{
            "name": "checkpoint_resume_demo",
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

    let rotating = std::env::temp_dir().join("lb_checkpoint_resume_demo.snapshot.jsonl");

    // 1. The uninterrupted reference run, checkpointing every 25 rounds.
    //    Each checkpoint atomically replaces the rotating file (temp file →
    //    fsync → rename), so a crash at any instant leaves the newest
    //    complete snapshot behind — never a torn one. A mid-run callback
    //    copies the rotating file aside to stand in for "the file a crash
    //    left behind".
    let mid_run = std::env::temp_dir().join("lb_checkpoint_resume_demo.mid.jsonl");
    let mid_run_copy = mid_run.clone();
    let rotating_at_callback = rotating.clone();
    let reference = Session::from_scenario(&scenario)
        .checkpoint(rotating.clone(), 25)
        .run(move |sample| {
            // At the round-60 sample the rotating file holds the round-50
            // checkpoint: the last state published before the "crash".
            if sample.round == 60 {
                std::fs::copy(&rotating_at_callback, &mid_run_copy).expect("harvest checkpoint");
            }
            Ok(())
        })
        .expect("checkpointed run succeeds");
    let doc = reference.to_json().render_pretty();
    println!(
        "reference run: {} rounds, final max_avg = {:.2}, arrived = {}, completed = {}",
        scenario.rounds,
        reference.last().max_avg,
        reference.last().arrived_weight,
        reference.last().completed_weight,
    );

    // 2. Load the harvested snapshot. It embeds the effective scenario and
    //    the full engine state — discrete loads, task queues in pop order,
    //    the continuous twin, the imitation ledger — as exact integers and
    //    IEEE-754 bit patterns, so nothing is lost to formatting.
    let snap = snapshot::load(&mid_run).expect("snapshot loads");
    println!(
        "snapshot: captured at round {} (the run went on to 120)",
        snap.round
    );

    // 3. Resume from it. The snapshot pins the scenario and seed; the run
    //    continues from the captured round and the final document is
    //    byte-identical to the uninterrupted reference.
    let resumed = Session::from_snapshot(snap.clone())
        .run(|_| Ok(()))
        .expect("resume succeeds");
    assert_eq!(
        doc,
        resumed.to_json().render_pretty(),
        "resumed run diverged from the reference"
    );
    println!("resume is byte-identical to the uninterrupted run ✓");

    // 4. Elastic resharding: resume the same snapshot on 4 shards. The shard
    //    count only changes wall-clock parallelism — the determinism contract
    //    keeps the document byte-identical, so a snapshot is the natural
    //    migration unit for moving a run to a bigger (or smaller) machine.
    let resharded = Session::from_snapshot(snap)
        .shards(4)
        .run(|_| Ok(()))
        .expect("resharded resume succeeds");
    assert_eq!(
        doc,
        resharded.to_json().render_pretty(),
        "resharded resume diverged from the reference"
    );
    println!("resume at 4 shards is byte-identical too ✓");

    std::fs::remove_file(&rotating).ok();
    std::fs::remove_file(&mid_run).ok();
}
