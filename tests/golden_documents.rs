//! Golden result documents: seed-42 `lb run` documents of three small
//! scenarios, committed under `tests/fixtures/golden/`, must be reproduced
//! byte for byte.
//!
//! The equivalence suites compare execution modes with each other, so a
//! change to a rounding rule that every mode shares would pass them all.
//! These documents pin the trajectories themselves. Each scenario runs
//! sequentially and sharded; the shard count is the `LB_BENCH_SHARDS`
//! value when set, and 3 otherwise. A sharded document records its shard
//! count in the scenario echo, so that one field is reset before comparing.
//!
//! To regenerate a fixture after a deliberate change of trajectory, run
//! `lb run tests/fixtures/golden/<name>.scenario.json --seed 42 --out
//! tests/fixtures/golden/<name>.doc.json` and say why in the change.

use lb_bench::dynamic::Session;
use lb_workloads::Scenario;
use std::path::PathBuf;

/// Algorithm 2 on SOS across two rewires and an edge delta; Algorithm 2 on
/// FOS from a single source; Algorithm 1 on FOS with arrivals up to weight
/// 3, so `w_max` = 3.
const GOLDEN: [&str; 3] = ["alg2_sos_churn", "alg2_fos", "alg1_fos_wmax3"];

fn fixture(name: &str, kind: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/golden")
        .join(format!("{name}.{kind}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn sharded_count() -> usize {
    std::env::var("LB_BENCH_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

#[test]
fn seed_42_documents_match_their_fixtures() {
    for name in GOLDEN {
        let mut scenario = Scenario::parse(&fixture(name, "scenario")).expect("scenario parses");
        scenario.seed = 42;
        let expected = fixture(name, "doc");
        for shards in [1, sharded_count()] {
            let mut outcome = Session::from_scenario(&scenario)
                .shards(shards)
                .run(|_| Ok(()))
                .unwrap_or_else(|e| panic!("{name} shards={shards}: {e}"));
            assert_eq!(outcome.scenario.shards, shards, "{name}: override recorded");
            outcome.scenario.shards = 1;
            let document = outcome.to_json().render_pretty();
            assert!(
                document == expected,
                "{name} shards={shards}: the document differs from its fixture\n\
                 --- fixture\n{expected}\n--- run\n{document}"
            );
        }
    }
}
