//! # lb-workloads
//!
//! Workload generators for the load-balancing experiments: initial token
//! distributions ([`TokenDistribution`]), weighted workloads
//! ([`WeightModel`], [`weighted_load`]), node speed profiles ([`SpeedModel`]),
//! the sufficient-initial-load padding of Theorems 3(2)/8(2)
//! ([`pad_for_min_load`]), and dynamic-workload scenarios ([`scenario`]):
//! a JSON-serialisable [`Scenario`] spec describing per-round task arrivals,
//! completions and topology churn, with a deterministic event stream
//! ([`ScenarioEvents`]). The [`trace`] module records any run's event stream
//! to a line-delimited JSON file ([`TraceWriter`]) for bit-identical replay.
//! The [`source`] module reads it back incrementally from any framed
//! [`std::io::Read`] ([`ReadSource`] — trace files, pipes, sockets, stdin)
//! or a growing trace file ([`TraceSource`], tail-following), feeding
//! recycled event buffers to the async ingestion channel.
//!
//! ```
//! use lb_workloads::{TokenDistribution, SpeedModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let load = TokenDistribution::UniformRandom.generate(16, 1_000, &mut rng);
//! let speeds = SpeedModel::PowersOfTwo { classes: 2 }.generate(16, &mut rng);
//! assert_eq!(load.total_weight(), 1_000);
//! assert_eq!(speeds.len(), 16);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod distributions;
pub mod scenario;
pub mod source;
pub mod trace;
mod weights;

pub use distributions::{corner_source, pad_for_min_load, TokenDistribution};
pub use scenario::{
    AlgorithmSpec, ArrivalSpec, ChurnEvent, ChurnKind, InitialSpec, ModelSpec, PadSpec, Scenario,
    ScenarioEvents, ServiceSpec, SpeedSpec, TopologySpec, MAX_FEDERATION, MAX_SHARDS,
};
pub use source::{Checkpoint, ReadSource, RoundSource, TraceSource};
pub use trace::{TraceWriter, TRACE_VERSION};
pub use weights::{weighted_load, SpeedModel, WeightModel};
