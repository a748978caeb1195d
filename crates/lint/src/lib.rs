//! `smoke-lint`: the workspace invariant checker.
//!
//! Clippy and rustc see Rust; they cannot see *Smoke's* invariants — that
//! the server's request path never panics on untrusted bytes, that lock
//! guards and pinned buffer-pool pages never straddle blocking I/O, that
//! whole-column kernels stay pure
//! `0..len` delegations of their `_range` twins, that the hand-rolled JSON
//! layer keeps integers exact, that the aggregate fold is written once. This
//! crate encodes those invariants as lint
//! rules over a hand-rolled token stream (the workspace vendors its few
//! dependencies and deliberately excludes `syn`).
//!
//! Entry points: [`check_source`] lints one in-memory file (what the fixture
//! tests use), [`run_workspace`] walks every `crates/*/src/**.rs` file.
//! Violations carry a stable rule ID, a `file:line:col` span, and a message;
//! a `// lint:allow(<rule>)` comment on the same or preceding line
//! suppresses a violation. The CI gate runs `smoke-lint --workspace` and
//! fails on any violation.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (see [`rules::RULE_IDS`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// The result of linting one file.
#[derive(Debug, Default)]
pub struct CheckResult {
    /// Violations that survived suppression, sorted by span.
    pub violations: Vec<Violation>,
    /// Number of violations silenced by `lint:allow` pragmas.
    pub suppressed: usize,
}

/// A suppression pragma parsed from a comment: the rule it allows and the
/// lines it covers (its own line and the next).
struct Allow {
    rule: String,
    line: u32,
}

fn parse_allows(tokens: &[lexer::Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for tok in tokens.iter().filter(|t| t.is_comment()) {
        let text = &tok.text;
        let mut rest = text.as_str();
        while let Some(at) = rest.find("lint:allow(") {
            rest = &rest[at + "lint:allow(".len()..];
            if let Some(end) = rest.find(')') {
                for rule in rest[..end].split(',') {
                    allows.push(Allow {
                        rule: rule.trim().to_string(),
                        line: tok.line,
                    });
                }
                rest = &rest[end + 1..];
            } else {
                break;
            }
        }
    }
    allows
}

/// Lints one source file given its workspace-relative path (the path decides
/// which rules apply — e.g. `crates/server/src/...` activates the
/// request-path and lock rules).
pub fn check_source(rel_path: &str, src: &str) -> CheckResult {
    let mut tokens = lexer::lex(src);
    lexer::mark_test_regions(&mut tokens);
    let raw = rules::run_all(rel_path, &tokens);
    let allows = parse_allows(&tokens);
    let mut result = CheckResult::default();
    for v in raw {
        let allowed = allows
            .iter()
            .any(|a| a.rule == v.rule && (a.line == v.line || a.line + 1 == v.line));
        if allowed {
            result.suppressed += 1;
        } else {
            result.violations.push(v);
        }
    }
    result
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**.rs` file under the workspace root. Fixture
/// files (under `tests/`) are deliberately out of scope — they exist to
/// violate the rules.
pub fn run_workspace(root: &Path) -> io::Result<CheckResult> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }
    let mut result = CheckResult::default();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&file)?;
        let one = check_source(&rel, &src);
        result.suppressed += one.suppressed;
        result.violations.extend(one.violations);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src =
            "fn f(v: &[u8]) -> u8 {\n    // lint:allow(no-panic-on-request-path)\n    v[0]\n}\n";
        let r = check_source("crates/server/src/x.rs", src);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.suppressed, 1);
    }

    #[test]
    fn suppression_is_rule_specific() {
        let src =
            "fn f(v: &[u8]) -> u8 {\n    // lint:allow(unsafe-needs-safety-comment)\n    v[0]\n}\n";
        let r = check_source("crates/server/src/x.rs", src);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.suppressed, 0);
    }

    #[test]
    fn rules_scope_by_path() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        assert_eq!(
            check_source("crates/server/src/x.rs", src).violations.len(),
            1
        );
        assert!(check_source("crates/storage/src/x.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn violations_render_with_span_and_rule_id() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        let r = check_source("crates/server/src/x.rs", src);
        let line = r.violations[0].to_string();
        assert!(
            line.starts_with("crates/server/src/x.rs:1:26: [no-panic-on-request-path]"),
            "{line}"
        );
    }
}
