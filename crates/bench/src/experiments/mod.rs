//! One module per reproduced paper artefact.
//!
//! | id | `lb` subcommand | paper artefact |
//! |---|---|---|
//! | E1 | `table1` | Table 1 (diffusion, FOS model) |
//! | E2 | `table2` | Table 2 (matching models) |
//! | E3 | `theorem3` | Theorem 3 (Algorithm 1, weighted tasks) |
//! | E4 | `theorem8` | Theorem 8 (Algorithm 2) |
//! | E5 | `trajectory` | flow-imitation shadowing series |
//! | E6 | `heterogeneous` | general model (speeds and weighted tasks) |
//! | E7 | `dummy_ablation` | Lemma 7 / Theorem 3(2) dummy-token ablation |
//! | E8 | `fos_vs_sos` | Section 2.1, FOS vs SOS convergence |
//! | E9 | `dynamic_arrivals` | beyond the paper: sustained load |
//!
//! Every experiment exposes `run(quick) -> ExperimentReport`; `quick = true`
//! shrinks sizes and repeat counts so the same code path can be exercised by
//! unit tests and Criterion benches, while `lb <subcommand>` runs the full
//! configuration and writes the JSON record under `target/experiments/`.

pub mod dummy_ablation;
pub mod dynamic_arrivals;
pub mod fos_vs_sos;
pub mod heterogeneous;
pub mod table1;
pub mod table2;
pub mod theorem3;
pub mod theorem8;
pub mod trajectory;

use crate::cli::{note, out};
use crate::error::BenchError;
use lb_analysis::ExperimentRecord;

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Markdown report printed to stdout by the experiment binary.
    pub markdown: String,
    /// Machine-readable record written under `target/experiments/`.
    pub record: ExperimentRecord,
}

impl ExperimentReport {
    /// Prints the Markdown report and writes the JSON record to
    /// `target/experiments/`. A record that cannot be written is a warning;
    /// a failing stdout or stderr is an I/O failure.
    pub fn emit(&self) -> Result<(), BenchError> {
        out(&format!("{}\n", self.markdown))?;
        match self.record.write_to_dir("target/experiments") {
            Ok(path) => out(&format!("(record written to {})\n", path.display())),
            Err(err) => note(&format!(
                "warning: could not write experiment record: {err}\n"
            )),
        }
    }
}

/// Seeds used for repeated runs; experiments index into this list so repeat
/// counts stay consistent across experiments.
pub(crate) const REPEAT_SEEDS: [u64; 5] = [11, 23, 37, 51, 73];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must complete in quick mode and produce a non-empty
    /// report with at least one measurement.
    #[test]
    fn all_experiments_run_in_quick_mode() {
        let reports = vec![
            ("table1", table1::run(true)),
            ("table2", table2::run(true)),
            ("theorem3", theorem3::run(true)),
            ("theorem8", theorem8::run(true)),
            ("trajectory", trajectory::run(true)),
            ("heterogeneous", heterogeneous::run(true)),
            ("dummy_ablation", dummy_ablation::run(true)),
            ("fos_vs_sos", fos_vs_sos::run(true)),
            ("dynamic_arrivals", dynamic_arrivals::run(true)),
        ];
        for (name, report) in reports {
            assert!(!report.markdown.is_empty(), "{name} produced no markdown");
            assert!(
                !report.record.measurements.is_empty(),
                "{name} produced no measurements"
            );
        }
    }
}
