//! # lb-graph
//!
//! Graph substrate for neighbourhood load balancing: an immutable CSR
//! [`Graph`] type, generators for the graph families used in the paper's
//! comparison tables, a speed-aware [`DiffusionMatrix`], spectral estimates
//! (`λ`, `γ`, balancing-time), and matching machinery for dimension-exchange
//! models.
//!
//! This crate is the lowest layer of the reproduction of *"A Simple Approach
//! for Adapting Continuous Load Balancing Processes to Discrete Settings"*
//! (Akbari, Berenbrink, Sauerwald — PODC 2012); the balancing processes
//! themselves live in `lb-core`.
//!
//! ## Quick example
//!
//! ```
//! use lb_graph::{generators, AlphaScheme, DiffusionMatrix, spectral};
//!
//! let g = generators::hypercube(6)?;
//! let p = DiffusionMatrix::uniform(&g, AlphaScheme::MaxDegreePlusOne)?;
//! let lambda = spectral::second_eigenvalue(&g, &p, &[], Default::default()).lambda;
//! let t = spectral::estimate_fos_balancing_time(lambda, 1000.0, g.node_count());
//! assert!(lambda < 1.0 && t > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod error;
pub mod generators;
mod graph;
mod matching;
mod matrix;
pub mod spectral;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeId, Graph, GraphDelta, NodeId};
pub use matching::{random_maximal_matching, Matching, PeriodicMatchings};
pub use matrix::{AlphaScheme, DiffusionMatrix};
pub use spectral::PowerIterationOptions;
