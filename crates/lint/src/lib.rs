//! `itrust-lint` — the workspace invariant checker.
//!
//! Replaces the brittle `grep` gates in `scripts/ci.sh` with a
//! zero-dependency static analysis over every `.rs` file under `crates/`.
//! File-local rules match token shapes (see [`rules::RULES`]); on top of
//! them, an item parser ([`parse`]) and a cross-crate call graph
//! ([`graph`]) power three interprocedural passes ([`passes`]):
//! lock-order deadlock detection, panic-reachability from public APIs, and
//! transient/non-transient error discipline. See `--explain <rule>` for
//! each rule's long-form rationale.
//!
//! ## Suppressions
//!
//! A finding can be silenced inline, with a mandatory reason:
//!
//! ```text
//! // itrust-lint: allow(panic-reachable) — element pushed on the previous line
//! ```
//!
//! A trailing comment covers its own line; a standalone comment covers the
//! next line that carries code. A suppression without a reason is itself a
//! finding (`malformed-suppression`, always denied), and a suppression that
//! matches nothing is flagged `unused-suppression` — and listed in the
//! JSON `stale_suppressions` array — so stale annotations rot loudly
//! instead of silently.

#![deny(unsafe_code)]

pub mod diag;
pub mod fixtures;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod passes;
pub mod rules;

use diag::{sort_diagnostics, Diagnostic};
use lexer::LineComment;
use rules::{FileCtx, MALFORMED_SUPPRESSION, UNUSED_SUPPRESSION};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A suppression that matched no finding, surfaced in `--json` as the
/// `stale_suppressions` array (and as an `unused-suppression` finding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleSuppression {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// The rule the stale annotation named.
    pub rule: &'static str,
}

/// Result of linting a set of paths.
pub struct LintOutcome {
    /// All findings (denied and advisory), in canonical order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Suppressions that matched nothing, in canonical order.
    pub stale_suppressions: Vec<StaleSuppression>,
}

/// Exit-code contract: should this finding fail the run?
///
/// - `malformed-suppression` is always denied (it is a syntax error).
/// - `unused-suppression` is denied only under `--deny-all`.
/// - Every named rule is denied under `--deny-all`, advisory otherwise.
pub fn is_denied(rule: &str, deny_all: bool) -> bool {
    if rule == MALFORMED_SUPPRESSION {
        return true;
    }
    deny_all
}

/// Lint a set of in-memory source files as one workspace: file-local rules
/// per file, then the interprocedural passes over the whole set, then
/// suppression application. This is the core entry point; `lint_source`
/// and `lint_paths` are wrappers.
pub fn lint_files(files: &[(String, String)]) -> LintOutcome {
    let units: Vec<graph::FileUnit> =
        files.iter().map(|(p, s)| graph::file_unit(p, s)).collect();

    // File-local rules.
    let mut raw: Vec<Diagnostic> = Vec::new();
    for u in &units {
        let ctx = FileCtx {
            path: &u.path,
            crate_name: &u.crate_name,
            in_test_dir: u.in_test_dir,
            is_bin: u.is_bin,
            toks: &u.toks,
            in_test: &u.in_test,
        };
        raw.extend(rules::run_rules(&ctx));
    }

    // Interprocedural passes over the workspace model.
    let ws = graph::build_workspace(units);
    raw.extend(passes::run_passes(&ws));

    // Suppressions, per file, applied to the combined finding set.
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut suppressions: BTreeMap<&str, Vec<Suppression>> = BTreeMap::new();
    for u in &ws.files {
        suppressions.insert(&u.path, parse_file_suppressions(&u.path, &u.comments, &u.toks, &mut out));
    }
    for d in raw {
        let mut suppressed = false;
        if let Some(supps) = suppressions.get_mut(d.file.as_str()) {
            for s in supps.iter_mut() {
                if s.rule == d.rule && s.targets.contains(&d.line) {
                    s.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            out.push(d);
        }
    }

    let mut stale: Vec<StaleSuppression> = Vec::new();
    for (path, supps) in &suppressions {
        for s in supps {
            if !s.used {
                out.push(Diagnostic {
                    file: path.to_string(),
                    line: s.line,
                    col: s.col,
                    rule: UNUSED_SUPPRESSION,
                    message: format!("suppression for `{}` matched no finding; remove it", s.rule),
                });
                stale.push(StaleSuppression {
                    file: path.to_string(),
                    line: s.line,
                    col: s.col,
                    rule: s.rule,
                });
            }
        }
    }
    sort_diagnostics(&mut out);
    stale.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    LintOutcome { diagnostics: out, files_scanned: ws.files.len(), stale_suppressions: stale }
}

/// Lint one in-memory source file. `path` drives rule scoping (crate name,
/// tests/ dirs, bin targets) and appears verbatim in diagnostics. The
/// interprocedural passes run with this file as the entire workspace.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_files(&[(path.to_string(), src.to_string())]).diagnostics
}

/// Lint every `.rs` file under the given paths (files or directories).
/// Directories are walked recursively in sorted order; `target/` and hidden
/// directories are skipped.
pub fn lint_paths(paths: &[String]) -> Result<LintOutcome, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            collect_rs_files(path, &mut files)?;
        } else if path.is_file() {
            files.push(path.to_path_buf());
        } else {
            return Err(format!("path not found: {p}"));
        }
    }
    files.sort_by_key(|p| p.to_string_lossy().replace('\\', "/"));
    files.dedup();
    let mut sources: Vec<(String, String)> = Vec::new();
    for file in &files {
        let display = file.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("failed to read {display}: {e}"))?;
        sources.push((display, src));
    }
    Ok(lint_files(&sources))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("failed to read dir {}: {e}", dir.display()))?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("failed to read dir {}: {e}", dir.display()))?;
        children.push(entry.path());
    }
    children.sort();
    for child in children {
        let name = child.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        if child.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}

/// A parsed `// itrust-lint: allow(rule) — reason` comment.
struct Suppression {
    line: u32,
    col: u32,
    rule: &'static str,
    /// Line(s) this suppression covers.
    targets: Vec<u32>,
    used: bool,
}

const SUPPRESSION_MARKER: &str = "itrust-lint";

/// Parse one file's suppression comments; malformed ones become findings.
fn parse_file_suppressions(
    path: &str,
    comments: &[LineComment],
    toks: &[lexer::Tok],
    out: &mut Vec<Diagnostic>,
) -> Vec<Suppression> {
    let mut suppressions: Vec<Suppression> = Vec::new();
    for c in comments {
        let text = c.text.trim_start();
        if !text.starts_with(SUPPRESSION_MARKER) {
            continue;
        }
        match parse_suppression(text) {
            Ok(rule) => {
                let trailing = toks.iter().any(|t| t.line == c.line);
                let targets = if trailing {
                    vec![c.line]
                } else {
                    // Standalone comment: covers the next line carrying code.
                    match toks.iter().map(|t| t.line).filter(|&l| l > c.line).min() {
                        Some(next) => vec![next],
                        None => Vec::new(),
                    }
                };
                suppressions.push(Suppression { line: c.line, col: c.col, rule, targets, used: false });
            }
            Err(msg) => out.push(Diagnostic {
                file: path.to_string(),
                line: c.line,
                col: c.col,
                rule: MALFORMED_SUPPRESSION,
                message: msg,
            }),
        }
    }
    suppressions
}

/// Parse the text of a suppression comment (already known to start with the
/// marker). Returns the rule id, or a message for `malformed-suppression`.
fn parse_suppression(text: &str) -> Result<&'static str, String> {
    // itrust-lint: allow(panic-reachable) — indices come from enumerate over the same slice they index
    let rest = text[SUPPRESSION_MARKER.len()..].trim_start();
    let rest = rest.strip_prefix(':').unwrap_or(rest).trim_start();
    let Some(rest) = rest.strip_prefix("allow") else {
        return Err("expected `allow(<rule>)` after `itrust-lint:`".to_string());
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("expected `(` after `allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(` in suppression".to_string());
    };
    let rule_name = rest[..close].trim();
    let Some(info) = rules::rule_by_id(rule_name) else {
        return Err(format!("unknown rule `{rule_name}` in suppression"));
    };
    let reason = rest[close + 1..]
        .trim_start_matches([' ', '\t', '-', '—', '–', ':', ','])
        .trim();
    if reason.is_empty() {
        return Err(format!(
            "suppression for `{}` has no reason; write `allow({}) — <why this is sound>`",
            info.id, info.id
        ));
    }
    Ok(info.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/demo/src/lib.rs";

    #[test]
    fn crate_name_extraction() {
        let unit = graph::file_unit("crates/trustdb/src/wal.rs", "");
        assert_eq!(unit.crate_name, "trustdb");
        let unit = graph::file_unit("/abs/repo/crates/obs/src/lib.rs", "");
        assert_eq!(unit.crate_name, "obs");
        let unit = graph::file_unit("vendor/rand/src/lib.rs", "");
        assert_eq!(unit.crate_name, "");
    }

    #[test]
    fn trailing_suppression_covers_its_own_line() {
        let src = "pub fn f(v: &[u8]) -> u8 {\n    v.first().copied().unwrap() // itrust-lint: allow(panic-reachable) — slice is non-empty by contract\n}\n";
        let diags = lint_source(LIB, src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn standalone_suppression_covers_next_code_line() {
        let src = "pub fn f(v: &[u8]) -> u8 {\n    // itrust-lint: allow(panic-reachable) — caller guarantees non-empty\n\n    v.first().copied().unwrap()\n}\n";
        let diags = lint_source(LIB, src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn one_suppression_covers_all_same_rule_findings_on_its_line() {
        // `v[0]` (index) and `.unwrap()` are two panic-reachable findings on
        // one line; a single allow covers both.
        let src = "pub fn f(v: &[u8]) -> u8 {\n    v[0].checked_add(1).unwrap() // itrust-lint: allow(panic-reachable) — caller guarantees non-empty, sum < 255\n}\n";
        let diags = lint_source(LIB, src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_suppress_and_is_unused() {
        let src = "pub fn f(v: &[u8]) -> u8 {\n    // itrust-lint: allow(wallclock-in-core) — wrong rule\n    v.first().copied().unwrap()\n}\n";
        let diags = lint_source(LIB, src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"panic-reachable"));
        assert!(rules.contains(&"unused-suppression"));
    }

    #[test]
    fn suppression_without_reason_is_malformed_and_inert() {
        let src = "pub fn f(v: &[u8]) -> u8 {\n    // itrust-lint: allow(panic-reachable)\n    v.first().copied().unwrap()\n}\n";
        let diags = lint_source(LIB, src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"malformed-suppression"));
        assert!(rules.contains(&"panic-reachable"));
    }

    #[test]
    fn suppression_with_unknown_rule_is_malformed() {
        let src = "// itrust-lint: allow(no-such-rule) — because\npub fn f() {}\n";
        let diags = lint_source(LIB, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "malformed-suppression");
    }

    #[test]
    fn unused_suppression_is_reported_and_listed_stale() {
        let src = "// itrust-lint: allow(panic-reachable) — nothing here panics\npub fn f() {}\n";
        let outcome = lint_files(&[(LIB.to_string(), src.to_string())]);
        assert_eq!(outcome.diagnostics.len(), 1);
        assert_eq!(outcome.diagnostics[0].rule, "unused-suppression");
        assert_eq!(outcome.diagnostics[0].line, 1);
        assert_eq!(outcome.stale_suppressions.len(), 1);
        assert_eq!(outcome.stale_suppressions[0].rule, "panic-reachable");
        assert_eq!(outcome.stale_suppressions[0].line, 1);
    }

    #[test]
    fn used_suppression_is_not_stale() {
        let src = "pub fn f(v: &[u8]) -> u8 {\n    v.first().copied().unwrap() // itrust-lint: allow(panic-reachable) — non-empty by contract\n}\n";
        let outcome = lint_files(&[(LIB.to_string(), src.to_string())]);
        assert!(outcome.diagnostics.is_empty());
        assert!(outcome.stale_suppressions.is_empty());
    }

    #[test]
    fn tests_dir_files_skip_lib_rules() {
        let src = "pub fn f(v: &[u8]) -> u8 { v.first().copied().unwrap() }\n";
        let diags = lint_source("crates/demo/tests/integration.rs", src);
        assert!(diags.is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn bin_targets_skip_panic_rule_but_not_determinism_rules() {
        let src = "fn main() {\n    let x: Option<u8> = None;\n    let _ = x.unwrap_or(0);\n    let _ = std::env::var(\"HOME\");\n}\n";
        let diags = lint_source("crates/demo/src/bin/tool.rs", src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["env-read-outside-config"]);
    }

    #[test]
    fn cross_file_suppression_applies_in_workspace_lint() {
        // The panic site lives in one file; the public root in another.
        // The suppression must be honored at the site file.
        let api = ("crates/a/src/lib.rs".to_string(),
            "pub fn api(v: &[u8]) -> u8 { crate::util::helper(v) }\npub mod util;\n".to_string());
        let util = ("crates/a/src/util.rs".to_string(),
            "pub(crate) fn helper(v: &[u8]) -> u8 {\n    v.first().copied().unwrap() // itrust-lint: allow(panic-reachable) — callers pre-check emptiness\n}\n".to_string());
        let outcome = lint_files(&[api, util]);
        assert!(outcome.diagnostics.is_empty(), "unexpected: {:?}", outcome.diagnostics);
    }

    #[test]
    fn is_denied_contract() {
        assert!(is_denied("malformed-suppression", false));
        assert!(!is_denied("panic-reachable", false));
        assert!(is_denied("panic-reachable", true));
        assert!(!is_denied("unused-suppression", false));
        assert!(is_denied("unused-suppression", true));
    }
}
