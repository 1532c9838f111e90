//! # lb-analysis
//!
//! Statistics, Markdown table rendering and machine-readable experiment
//! records for the load-balancing experiment harness, and the one record
//! codec ([`codec`]) behind snapshots, traces and wire records.
//!
//! ```
//! use lb_analysis::{Summary, Table, format_value};
//!
//! let s = Summary::of(&[1.0, 2.0, 3.0]);
//! let mut table = Table::new(vec!["metric".into(), "value".into()]);
//! table.add_row(vec!["mean".into(), format_value(s.mean)]);
//! assert!(table.render().contains("mean"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod codec;
pub mod json;
mod record;
mod stats;
mod table;

pub use artifact::{u64_exact, usize_exact, write_bytes_atomic};
pub use json::Json;
pub use record::{ExperimentRecord, Measurement};
pub use stats::{correlation, linear_fit, Summary};
pub use table::{format_value, Table};
