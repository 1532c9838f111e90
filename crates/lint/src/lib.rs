//! `lb-lint` — repo-native static analysis for the load-balancing workspace.
//!
//! The engine's guarantees (bit-identical trajectories across shard counts
//! and producer modes, allocation-free steady-state rounds, exact-integer
//! serialization, typed located errors, atomic artefact publication) are
//! contracts the test suite can only sample. This crate enforces them at the
//! source level: a hand-rolled comment/string/raw-string-aware tokenizer
//! ([`tokenizer`]), a token-sequence rule set ([`rules`], R01–R05 plus the
//! R00 suppression-hygiene meta-rule), and a small strict `lint.toml`
//! config ([`config`]) scoping rules to crates and modules.
//!
//! The CLI front-end is `lb lint [--format human|json] [PATHS…]` in
//! `lb-bench`; this crate is the engine. Typical embedding:
//!
//! ```no_run
//! let linter = lb_lint::Linter::load(std::path::Path::new(".")).unwrap();
//! let findings = linter.lint_workspace().unwrap();
//! for f in &findings {
//!     println!("{}", f.human());
//! }
//! ```
//!
//! Everything is deterministic: the walk visits files in sorted order and
//! findings are sorted by (file, line, col, rule), so two runs over the same
//! tree produce byte-identical reports.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use lb_analysis::json::Json;

pub mod config;
pub mod rules;
pub mod tokenizer;

pub use config::{Config, Scope};
pub use rules::{known_rule, lint_source, RuleInfo, RULES};

/// One located diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `/`-separated path, relative to the lint root.
    pub file: String,
    /// 1-based line of the anchoring token.
    pub line: usize,
    /// 1-based byte column of the anchoring token.
    pub col: usize,
    /// Rule id (`R00` … `R05`).
    pub rule: &'static str,
    /// What is wrong and which contract it breaks.
    pub message: String,
    /// The trimmed source line the finding anchors to.
    pub snippet: String,
}

impl Finding {
    /// `file:line:col` — the clickable anchor.
    pub fn location(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.col)
    }

    /// The rule's short name (`nondeterminism`, `truncating-cast`, …).
    pub fn rule_name(&self) -> &'static str {
        RULES
            .iter()
            .find(|r| r.id == self.rule)
            .map_or("unknown", |r| r.name)
    }

    /// Two-line human rendering: location + rule + message, then the
    /// offending source line.
    pub fn human(&self) -> String {
        format!(
            "{}: {} [{}] {}\n    {}",
            self.location(),
            self.rule,
            self.rule_name(),
            self.message,
            self.snippet
        )
    }

    /// The finding as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("file", Json::Str(self.file.clone())),
            ("line", Json::Int(self.line as i128)),
            ("col", Json::Int(self.col as i128)),
            ("rule", Json::Str(self.rule.to_string())),
            ("name", Json::Str(self.rule_name().to_string())),
            ("message", Json::Str(self.message.clone())),
            ("snippet", Json::Str(self.snippet.clone())),
        ])
    }
}

/// Renders a whole report as the `lb lint --format json` document.
pub fn report_json(findings: &[Finding]) -> Json {
    Json::obj([
        ("version", Json::Int(1)),
        ("count", Json::Int(findings.len() as i128)),
        (
            "findings",
            Json::Arr(findings.iter().map(Finding::to_json).collect()),
        ),
    ])
}

/// Why a lint run could not complete (distinct from findings: findings are
/// the *successful* output).
#[derive(Debug)]
pub enum LintError {
    /// Reading a file or directory failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// `lint.toml` is malformed (message carries the line number).
    Config { path: PathBuf, message: String },
    /// An explicitly requested path does not exist or is not lintable.
    BadPath { path: PathBuf },
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "{}: {}", path.display(), source)
            }
            LintError::Config { path, message } => {
                write!(f, "{}: {}", path.display(), message)
            }
            LintError::BadPath { path } => {
                write!(f, "{}: not a lintable file or directory", path.display())
            }
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The linter: a root directory plus the `lint.toml` config found there.
pub struct Linter {
    root: PathBuf,
    config: Config,
}

impl Linter {
    /// Loads the linter for `root`, reading `root/lint.toml` when present
    /// (a missing config means "lint everything, all rules everywhere").
    ///
    /// # Errors
    ///
    /// Returns [`LintError::Config`] for a malformed `lint.toml` and
    /// [`LintError::Io`] when the file exists but cannot be read.
    pub fn load(root: &Path) -> Result<Linter, LintError> {
        let config_path = root.join("lint.toml");
        let config = match fs::read_to_string(&config_path) {
            Ok(text) => Config::parse(&text).map_err(|message| LintError::Config {
                path: config_path.clone(),
                message,
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Config::default(),
            Err(source) => {
                return Err(LintError::Io {
                    path: config_path,
                    source,
                })
            }
        };
        Ok(Linter {
            root: root.to_path_buf(),
            config,
        })
    }

    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Lints every `.rs` file under the root that the `[paths]` scope
    /// covers. Findings come back sorted by (file, line, col, rule).
    ///
    /// # Errors
    ///
    /// Returns [`LintError::Io`] when the walk or a file read fails.
    pub fn lint_workspace(&self) -> Result<Vec<Finding>, LintError> {
        self.lint_paths(std::slice::from_ref(&self.root))
    }

    /// Lints an explicit set of files and/or directories. Directories are
    /// walked recursively with the `[paths]` scope applied; explicitly
    /// named files are always linted, scope or not (naming a file is the
    /// stronger signal).
    ///
    /// # Errors
    ///
    /// Returns [`LintError::BadPath`] for a path that is neither a file nor
    /// a directory, and [`LintError::Io`] for read failures.
    pub fn lint_paths(&self, paths: &[PathBuf]) -> Result<Vec<Finding>, LintError> {
        let mut files = Vec::new();
        for path in paths {
            if path.is_dir() {
                self.walk(path, &mut files)?;
            } else if path.is_file() {
                files.push(path.clone());
            } else {
                return Err(LintError::BadPath { path: path.clone() });
            }
        }
        files.sort();
        files.dedup();
        let mut findings = Vec::new();
        for file in &files {
            let rel = self.rel(file);
            let src = fs::read_to_string(file).map_err(|source| LintError::Io {
                path: file.clone(),
                source,
            })?;
            findings.extend(rules::lint_source(&rel, &src, &self.config));
        }
        findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
        Ok(findings)
    }

    /// Collects the `.rs` files under `dir` in sorted order, skipping
    /// `target/`, `.git/` and other dot-directories, and applying the
    /// `[paths]` include/exclude scope.
    fn walk(&self, dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), LintError> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(|source| LintError::Io {
                path: dir.to_path_buf(),
                source,
            })?
            .map(|entry| {
                entry.map(|e| e.path()).map_err(|source| LintError::Io {
                    path: dir.to_path_buf(),
                    source,
                })
            })
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                // Prune excluded subtrees early; descend into included (or
                // potentially-included) ones.
                let rel = self.rel(&path);
                if !rel.is_empty() && !self.config.paths.could_contain(&rel) {
                    continue;
                }
                self.walk(&path, files)?;
            } else if name.ends_with(".rs") {
                let rel = self.rel(&path);
                if self.config.paths.contains(&rel) {
                    files.push(path);
                }
            }
        }
        Ok(())
    }

    /// The `/`-separated root-relative form of `path` (used for scoping and
    /// reporting). Paths outside the root are rendered as given.
    fn rel(&self, path: &Path) -> String {
        let rel = path.strip_prefix(&self.root).unwrap_or(path);
        rel.to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let findings = vec![Finding {
            file: "crates/core/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            rule: "R01",
            message: "wall-clock read".to_string(),
            snippet: "let t = SystemTime::now();".to_string(),
        }];
        let doc = report_json(&findings);
        let parsed = Json::parse(&doc.render()).unwrap();
        assert_eq!(parsed.get("count"), Some(&Json::Int(1)));
        let arr = match parsed.get("findings") {
            Some(Json::Arr(items)) => items,
            other => panic!("findings not an array: {other:?}"),
        };
        assert_eq!(arr[0].get("rule"), Some(&Json::Str("R01".to_string())));
        assert_eq!(
            arr[0].get("name"),
            Some(&Json::Str("nondeterminism".to_string()))
        );
        assert_eq!(arr[0].get("line"), Some(&Json::Int(3)));
    }

    #[test]
    fn human_rendering_is_clickable() {
        let f = Finding {
            file: "crates/x.rs".to_string(),
            line: 10,
            col: 5,
            rule: "R03",
            message: "no panics".to_string(),
            snippet: "x.unwrap();".to_string(),
        };
        let text = f.human();
        assert!(text.starts_with("crates/x.rs:10:5: R03 [panic-in-library] no panics"));
        assert!(text.ends_with("    x.unwrap();"));
    }
}
