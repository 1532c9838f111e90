//! # lb-bench
//!
//! Experiment harness reproducing the evaluation artefacts of *"A Simple
//! Approach for Adapting Continuous Load Balancing Processes to Discrete
//! Settings"* (PODC 2012): the comparison Tables 1 and 2, the quantitative
//! bounds of Theorems 3 and 8, and several supporting ablations.
//!
//! * [`harness`] — graph classes, continuous models, discretizers and a
//!   uniform way to build and run any combination of them.
//! * [`experiments`] — one module per reproduced artefact (the module docs
//!   index them by id and `lb` subcommand); each has a `run(quick)` entry
//!   point.
//! * [`dynamic`] — the scenario driver: binds a JSON
//!   [`Scenario`](lb_workloads::Scenario) (arrivals, completions, churn) to a
//!   dynamic flow-imitation engine with deterministic, streamable results.
//!   Every single-process run goes through one builder,
//!   [`dynamic::Session`].
//! * [`federate`] — one scenario partitioned across worker processes that
//!   exchange boundary state over TCP each round (`lb federate`,
//!   `lb federate-worker`), byte-identical to the sequential driver.
//! * [`serve`] — the socket service front-end behind `lb serve`: an accept
//!   loop feeding authenticated trace-streaming connections into one live
//!   engine as merge feeds, with reconnect-and-resume.
//! * [`error`] — the typed failure surface ([`error::BenchError`]) mapping
//!   failure classes to distinct process exit codes.
//! * [`cli`] — the unified `lb` binary: `lb run <scenario.json>`,
//!   `lb serve`, `lb table1 … lb dynamic_arrivals [--quick]`, `lb hotpath`,
//!   the CI perf-regression gate `lb bench-check`, and the static-analysis
//!   pass `lb lint` (rules R01–R05 from the `lb-lint` crate: determinism,
//!   checked narrowing, typed errors, atomic artefacts, zero-alloc hot
//!   paths; exit 0 clean / 1 findings).
//! * [`hotpath`] — the engine-vs-seed-semantics throughput benchmark behind
//!   `BENCH_hotpath.json`.
//!
//! Every experiment runs as a subcommand of the one binary
//! (`cargo run --release -p lb-bench --bin lb -- <subcommand>`). Criterion
//! benches with the experiment names exercise reduced configurations under
//! `cargo bench`.
//!
//! `Session::run` reports failures as a typed [`error::BenchError`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod dynamic;
pub mod error;
pub mod experiments;
pub mod federate;
pub mod harness;
pub mod hotpath;
pub mod parallel;
pub mod serve;
