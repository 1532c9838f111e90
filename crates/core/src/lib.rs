//! # lb-core
//!
//! Continuous and discrete neighbourhood load-balancing processes,
//! reproducing *"A Simple Approach for Adapting Continuous Load Balancing
//! Processes to Discrete Settings"* (Akbari, Berenbrink, Sauerwald — PODC
//! 2012).
//!
//! ## Layout
//!
//! * [`continuous`] — the continuous processes being discretized: first- and
//!   second-order diffusion, periodic dimension exchange, random matchings.
//! * [`discrete`] — the paper's flow-imitation transformation, one engine
//!   with two rounding algorithms (Algorithm 1: [`discrete::FlowImitation`],
//!   Algorithm 2: [`discrete::RandomizedImitation`]), plus the prior-work
//!   baselines they are compared against, and the dynamic-workload extension
//!   ([`discrete::dynamic`]): per-round task arrivals, completions and
//!   topology churn.
//! * [`metrics`] — makespan, max-min / max-avg discrepancy and the quadratic
//!   potential.
//! * [`convergence`] — measuring the continuous balancing time `T`.
//! * [`shard`] — intra-instance parallelism: a [`ShardedExecutor`] splits a
//!   single simulation's per-round `O(m)` work across contiguous node-range
//!   shards on persistent worker threads, bit-identically to the sequential
//!   engine.
//! * [`ingest`] — async event ingestion: a bounded SPSC channel feeding
//!   round-tagged [`discrete::RoundEvents`] batches from an external producer
//!   thread (trace replay, live traffic) into a
//!   [`discrete::DynamicBalancer`], bit-identically to the synchronous path.
//! * [`snapshot`] — versioned, crash-safe serialization of the full engine
//!   state at a between-rounds boundary, for checkpointing and bit-identical
//!   resume (including at a different shard count).
//! * [`federate`] — federation: the same round partitioned across OS
//!   processes. A [`FederatedExecutor`] owns one part's node range (the same
//!   edge-balanced planner as the shard plan) and exchanges boundary loads,
//!   crossing flows and cross-partition deliveries over a
//!   [`federate::FederateLink`], bit-identically to the sequential engine.
//!
//! ## Quick example
//!
//! ```
//! use lb_core::continuous::Fos;
//! use lb_core::discrete::{DiscreteBalancer, FlowImitation, TaskPicker};
//! use lb_core::{InitialLoad, Speeds};
//! use lb_graph::{generators, AlphaScheme};
//!
//! // A hypercube of 64 processors, all tokens initially on node 0 plus the
//! // d·w_max safety stock everywhere (Theorem 3(2)).
//! let graph = generators::hypercube(6)?;
//! let n = graph.node_count();
//! let speeds = Speeds::uniform(n);
//! let mut counts = vec![6u64; n];
//! counts[0] += (n * 10) as u64;
//! let initial = InitialLoad::from_token_counts(counts);
//!
//! let fos = Fos::new(graph, &speeds, AlphaScheme::MaxDegreePlusOne)?;
//! let mut alg1 = FlowImitation::new(fos, &initial, speeds, TaskPicker::Fifo)?;
//! alg1.run(400);
//!
//! // Final discrepancy is bounded by 2·d·w_max + 2 = 14, independent of n.
//! assert!(alg1.metrics().max_min <= 14.0);
//! assert_eq!(alg1.dummy_created(), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod continuous;
pub mod convergence;
pub mod discrete;
mod error;
pub mod federate;
pub mod ingest;
mod load;
pub mod metrics;
pub mod shard;
pub mod snapshot;
mod task;

pub use error::CoreError;
pub use federate::{FederatedExecutor, FederationPlan, SendBatch};
pub use load::InitialLoad;
pub use metrics::MetricsSnapshot;
pub use shard::ShardedExecutor;
pub use task::{Speeds, Task, TaskId, TaskOrigin, TaskPicker, TaskQueue, Weight};
