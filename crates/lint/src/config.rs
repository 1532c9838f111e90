//! The `lint.toml` configuration: which files the workspace walk covers and
//! which crates/modules each rule applies to.
//!
//! This is a hand-rolled parser for the small TOML subset the linter needs
//! (the container has no registry access, so no `toml` crate): `#` comments,
//! `[section]` / `[rules.RXX]` headers, and `key = [ "string", … ]` arrays.
//! Parsing is strict — unknown sections, unknown keys and malformed values
//! are located errors, so a typo in the config fails loudly instead of
//! silently widening or narrowing a rule's scope.

use std::collections::BTreeMap;

/// An include/exclude path scope. Paths are `/`-separated and relative to
/// the workspace root (the directory holding `lint.toml`); a path matches a
/// file when it is a whole-component prefix of the file's relative path.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    pub include: Vec<String>,
    pub exclude: Vec<String>,
}

impl Scope {
    /// Whether `rel` (a `/`-separated workspace-relative path) is inside
    /// this scope: under some include root (an empty include list means
    /// "everywhere") and under no exclude root.
    pub fn contains(&self, rel: &str) -> bool {
        let included =
            self.include.is_empty() || self.include.iter().any(|p| path_has_prefix(rel, p));
        included && !self.exclude.iter().any(|p| path_has_prefix(rel, p))
    }

    /// Whether the *directory* `rel` might hold in-scope files — used to
    /// prune whole subtrees during the walk. A directory qualifies when it
    /// is not excluded and either sits under an include root or is an
    /// ancestor of one (walking `crates` must still descend toward an
    /// include of `crates/core/src`).
    pub fn could_contain(&self, rel: &str) -> bool {
        let included = self.include.is_empty()
            || self
                .include
                .iter()
                .any(|p| path_has_prefix(rel, p) || path_has_prefix(p, rel));
        included && !self.exclude.iter().any(|p| path_has_prefix(rel, p))
    }
}

/// `prefix` matches `rel` only on whole path components: `crates/core`
/// covers `crates/core/src/lib.rs` but not `crates/core-extras/x.rs`.
fn path_has_prefix(rel: &str, prefix: &str) -> bool {
    match rel.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

/// The parsed configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workspace file set: which paths the walk visits at all.
    pub paths: Scope,
    /// Per-rule scopes, keyed by rule id (`R01` … `R05`). A rule with no
    /// entry applies to every walked file.
    pub rules: BTreeMap<String, Scope>,
}

impl Default for Config {
    /// The zero-config default: lint everything under the root.
    fn default() -> Self {
        Config {
            paths: Scope::default(),
            rules: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Whether `rule` applies to the workspace-relative file `rel`.
    pub fn rule_applies(&self, rule: &str, rel: &str) -> bool {
        self.rules.get(rule).is_none_or(|scope| scope.contains(rel))
    }

    /// Parses a `lint.toml` document. Errors carry the 1-based line number.
    ///
    /// # Errors
    ///
    /// Returns a located message for unknown sections/keys, malformed
    /// headers, non-array values and unterminated strings.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section: Option<String> = None;
        let lines: Vec<&str> = text.lines().collect();
        let mut i = 0;
        while i < lines.len() {
            let lineno = i + 1;
            let line = strip_comment(lines[i]).trim().to_string();
            i += 1;
            let line = line.as_str();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                    .trim();
                match name {
                    "paths" => section = Some("paths".to_string()),
                    _ => match name.strip_prefix("rules.") {
                        Some(rule) if is_rule_id(rule) => section = Some(rule.to_string()),
                        _ => {
                            return Err(format!(
                                "line {lineno}: unknown section [{name}] \
                                 (want [paths] or [rules.RXX])"
                            ));
                        }
                    },
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = [\"…\"]`"))?;
            let key = key.trim();
            if key != "include" && key != "exclude" {
                return Err(format!(
                    "line {lineno}: unknown key {key:?} (want include or exclude)"
                ));
            }
            // Arrays may span lines: keep appending until the `]` closes.
            let mut value = value.trim().to_string();
            while value.starts_with('[') && !value.ends_with(']') {
                let Some(next) = lines.get(i) else {
                    return Err(format!("line {lineno}: unterminated array"));
                };
                value.push(' ');
                value.push_str(strip_comment(next).trim());
                value = value.trim_end().to_string();
                i += 1;
            }
            let items = parse_string_array(&value).map_err(|e| format!("line {lineno}: {e}"))?;
            let scope = match section.as_deref() {
                Some("paths") => &mut config.paths,
                Some(rule) => config.rules.entry(rule.to_string()).or_default(),
                None => {
                    return Err(format!(
                        "line {lineno}: {key} outside any [paths]/[rules.RXX] section"
                    ));
                }
            };
            let target = if key == "include" {
                &mut scope.include
            } else {
                &mut scope.exclude
            };
            target.extend(items);
            continue;
        }
        Ok(config)
    }
}

/// Rule ids are `R` followed by digits (`R01`, `R00`, `R12`).
fn is_rule_id(s: &str) -> bool {
    s.len() >= 2 && s.starts_with('R') && s[1..].bytes().all(|b| b.is_ascii_digit())
}

/// Drops a `#` comment, respecting string literals.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_string = !in_string,
            b'\\' if in_string => i += 1,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// Parses `[ "a", "b" ]` (trailing comma allowed).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"…\"] array, got {value:?}"))?;
    let mut items = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let body = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted string in {value:?}"))?;
        let end = body
            .find('"')
            .ok_or_else(|| format!("unterminated string in {value:?}"))?;
        items.push(body[..end].to_string());
        rest = body[end + 1..].trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected `,` between strings in {value:?}"));
        }
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let config = Config::parse(
            "# repo lint scopes\n\
             [paths]\n\
             include = [\"crates\"]\n\
             exclude = [\"crates/bench/benches\", \"compat\"] # trailing\n\
             \n\
             [rules.R01]\n\
             include = [\"crates/core/src\"]\n",
        )
        .unwrap();
        assert_eq!(config.paths.include, ["crates"]);
        assert_eq!(config.paths.exclude, ["crates/bench/benches", "compat"]);
        assert!(config.rule_applies("R01", "crates/core/src/lib.rs"));
        assert!(!config.rule_applies("R01", "crates/graph/src/lib.rs"));
        // Rules without a section apply everywhere.
        assert!(config.rule_applies("R04", "crates/graph/src/lib.rs"));
    }

    #[test]
    fn scope_matching_is_component_wise() {
        let scope = Scope {
            include: vec!["crates/core".into()],
            exclude: vec!["crates/core/src/ingest.rs".into()],
        };
        assert!(scope.contains("crates/core/src/lib.rs"));
        assert!(scope.contains("crates/core"));
        assert!(!scope.contains("crates/core-extras/lib.rs"));
        assert!(!scope.contains("crates/core/src/ingest.rs"));
    }

    #[test]
    fn strict_errors_are_located() {
        for (text, needle) in [
            ("[nope]\n", "unknown section"),
            ("[rules.bogus]\n", "unknown section"),
            ("[paths]\ncolor = [\"x\"]\n", "unknown key"),
            ("include = [\"x\"]\n", "outside any"),
            ("[paths]\ninclude = \"x\"\n", "array"),
            ("[paths]\ninclude = [\"x]\n", "unterminated"),
            ("[paths\n", "unterminated section header"),
            ("[paths]\ninclude = [\"a\" \"b\"]\n", "expected `,`"),
        ] {
            let err = Config::parse(text).unwrap_err();
            assert!(err.contains("line "), "{err}");
            assert!(err.contains(needle), "{err} should mention {needle}");
        }
    }

    #[test]
    fn arrays_may_span_lines() {
        let config = Config::parse(
            "[paths]\n\
             include = [\n\
                 \"crates/core\", # engine\n\
                 \"crates/graph\",\n\
             ]\n",
        )
        .unwrap();
        assert_eq!(config.paths.include, ["crates/core", "crates/graph"]);
        let err = Config::parse("[paths]\ninclude = [\n\"a\",\n").unwrap_err();
        assert!(err.contains("unterminated array"), "{err}");
    }

    #[test]
    fn hash_inside_strings_is_not_a_comment() {
        let config = Config::parse("[paths]\ninclude = [\"a#b\"]\n").unwrap();
        assert_eq!(config.paths.include, ["a#b"]);
    }
}
