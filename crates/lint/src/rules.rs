//! The domain-specific rule set.
//!
//! Each rule is a pure function from `(workspace-relative path, token
//! stream)` to violations. Rules are token-pattern heuristics, not semantic
//! analyses — they are tuned to this workspace's code style and err on the
//! side of firing (a human can always add a `// lint:allow(<rule>)` pragma;
//! the acceptance bar for the request-path crates is zero pragmas, which the
//! fixed code meets).

use crate::lexer::{Token, TokenKind};
use crate::Violation;

/// Stable rule identifiers, in reporting order.
pub const RULE_IDS: [&str; 7] = [
    "no-panic-on-request-path",
    "unsafe-needs-safety-comment",
    "no-lock-across-io",
    "pin-guard-no-io",
    "kernel-range-twin",
    "exact-int-json",
    "one-agg-fold",
];

fn violation(rule: &'static str, path: &str, tok: &Token, message: String) -> Violation {
    Violation {
        rule,
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// Whether `path` is on the untrusted request path: everything in the server
/// crate plus the planner's hand-rolled JSON and wire-decode layers, plus
/// the pager crate — its buffer pool sits under every paged session, so a
/// panic there poisons pool locks for all concurrent readers — plus the
/// grace-join path, which runs arbitrary key data through partition writers
/// under the same shared pool.
fn on_request_path(path: &str) -> bool {
    path.starts_with("crates/server/src/")
        || path.starts_with("crates/pager/src/")
        || path == "crates/core/src/paged/grace.rs"
        || path == "crates/planner/src/json.rs"
        || path == "crates/planner/src/wire.rs"
}

/// The significant (non-comment) token before index `i`, if any.
fn prev_significant(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens[..i].iter().rev().find(|t| !t.is_comment())
}

/// The significant (non-comment) token after index `i`, if any.
fn next_significant(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens[i + 1..].iter().find(|t| !t.is_comment())
}

/// Rule 1 — `no-panic-on-request-path`.
///
/// On the request path (server crate, planner json/wire), non-test code must
/// not contain `.unwrap()`, `.expect(`, `panic!` and friends, or indexing by
/// an integer literal (`frame[0]`) — a malformed frame must map to a typed
/// error, never a session panic.
pub fn no_panic_on_request_path(path: &str, tokens: &[Token]) -> Vec<Violation> {
    const RULE: &str = "no-panic-on-request-path";
    let mut out = Vec::new();
    if !on_request_path(path) {
        return out;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let followed_by = |ch| next_significant(tokens, i).is_some_and(|t| t.is_punct(ch));
        match tok.text.as_str() {
            // `.unwrap()` / `.expect(...)` method calls. The leading-dot
            // check keeps same-named local methods (none remain after this
            // PR; `json::Parser::expect` was renamed `eat`) and plain
            // identifiers out of scope.
            "unwrap" | "expect" => {
                let is_method = prev_significant(tokens, i).is_some_and(|t| t.is_punct('.'));
                if is_method && followed_by('(') {
                    out.push(violation(
                        RULE,
                        path,
                        tok,
                        format!(
                            "`.{}()` on the request path can panic a session mid-request; return a typed error",
                            tok.text
                        ),
                    ));
                }
            }
            // Panicking macros.
            "panic" | "unreachable" | "todo" | "unimplemented" if followed_by('!') => {
                out.push(violation(
                    RULE,
                    path,
                    tok,
                    format!(
                        "`{}!` on the request path; return a typed error instead",
                        tok.text
                    ),
                ));
            }
            "panic_any" if followed_by('(') => {
                out.push(violation(
                    RULE,
                    path,
                    tok,
                    "`panic_any` on the request path; return a typed error instead".to_string(),
                ));
            }
            _ => {}
        }
    }
    // Integer-literal indexing of untrusted slices: `expr[0]`. The token
    // before `[` must be an expression tail (identifier, `)`, or `]`) so
    // array types `[u8; 4]`, array literals, and attributes `#[...]` don't
    // fire.
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for i in 1..sig.len() {
        if sig[i].in_test || !sig[i].is_punct('[') {
            continue;
        }
        let tail = sig[i - 1].kind == TokenKind::Ident
            || sig[i - 1].is_punct(')')
            || sig[i - 1].is_punct(']');
        let (Some(idx), Some(close)) = (sig.get(i + 1), sig.get(i + 2)) else {
            continue;
        };
        if tail && idx.kind == TokenKind::Int && close.is_punct(']') {
            out.push(violation(
                RULE,
                path,
                idx,
                format!(
                    "indexing with literal `[{}]` on the request path can panic on short input; use `get` or a slice pattern",
                    idx.text
                ),
            ));
        }
    }
    out
}

/// Rule 2 — `unsafe-needs-safety-comment`.
///
/// Every `unsafe` keyword (block or fn) must be preceded — within the three
/// lines above it or on its own line — by a comment containing `SAFETY:`.
/// The workspace currently has zero `unsafe`; this rule keeps any future
/// introduction honest.
pub fn unsafe_needs_safety_comment(path: &str, tokens: &[Token]) -> Vec<Violation> {
    const RULE: &str = "unsafe-needs-safety-comment";
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let justified = tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line + 3 >= tok.line)
            .any(|t| t.is_comment() && t.text.contains("SAFETY:"));
        if !justified {
            out.push(violation(
                RULE,
                path,
                tok,
                "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
            ));
        }
    }
    out
}

/// A live guard binding for the guard-across-I/O rules.
struct Guard {
    name: String,
    brace_depth: usize,
    line: u32,
}

/// Blocking I/O methods (fired on a `.` receiver) shared by the
/// guard-across-I/O rules.
const IO_METHODS: [&str; 9] = [
    "read",
    "read_exact",
    "write",
    "write_all",
    "flush",
    "accept",
    "recv",
    "recv_timeout",
    "connect",
];
/// Blocking free/associated frame helpers shared by the guard-across-I/O
/// rules.
const IO_FREE: [&str; 2] = ["read_frame", "write_frame"];

/// The shared walk behind `no-lock-across-io` and `pin-guard-no-io`: a `let`
/// statement whose initializer contains a method call matched by `acquire`
/// starts a guard; the guard dies at the end of its block or at
/// `drop(name)`. Any blocking I/O call while a guard is live fires a
/// violation naming the guards via `noun`.
fn guard_across_io(
    rule: &'static str,
    noun: &str,
    acquire: fn(&str) -> bool,
    path: &str,
    tokens: &[Token],
) -> Vec<Violation> {
    let mut out = Vec::new();
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < sig.len() {
        let tok = sig[i];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth = depth.saturating_sub(1);
            guards.retain(|g| g.brace_depth <= depth);
        } else if tok.is_ident("drop") && sig.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            if let Some(name) = sig.get(i + 2) {
                guards.retain(|g| g.name != name.text);
            }
        } else if tok.is_ident("let") && !tok.in_test {
            // Binding name: first identifier after `let` (skipping `mut`).
            let mut j = i + 1;
            while sig.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let name = sig
                .get(j)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone());
            // Scan the statement (to `;` at this brace depth, or to a `{`
            // that opens a sub-block as in `if let`/`while let`) for an
            // acquisition.
            let mut k = i + 1;
            let mut acquires = false;
            while let Some(t) = sig.get(k) {
                if t.is_punct(';') || t.is_punct('{') {
                    break;
                }
                if t.kind == TokenKind::Ident
                    && acquire(&t.text)
                    && sig.get(k.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
                    && sig.get(k + 1).is_some_and(|n| n.is_punct('('))
                {
                    acquires = true;
                }
                k += 1;
            }
            if acquires {
                if let Some(name) = name {
                    guards.push(Guard {
                        name,
                        brace_depth: depth,
                        line: tok.line,
                    });
                }
            }
        } else if !tok.in_test && tok.kind == TokenKind::Ident && !guards.is_empty() {
            let is_call = sig.get(i + 1).is_some_and(|t| t.is_punct('('));
            let is_method = sig.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'));
            let fires = is_call
                && ((is_method && IO_METHODS.contains(&tok.text.as_str()))
                    || IO_FREE.contains(&tok.text.as_str()));
            if fires {
                let held: Vec<String> = guards
                    .iter()
                    .map(|g| format!("`{}` (line {})", g.name, g.line))
                    .collect();
                out.push(violation(
                    rule,
                    path,
                    tok,
                    format!(
                        "blocking I/O call `{}` while {noun}(s) {} are live; drop the guard first",
                        tok.text,
                        held.join(", ")
                    ),
                ));
            }
        }
        i += 1;
    }
    out
}

/// Rule 3 — `no-lock-across-io`.
///
/// In the server crate, a `Mutex`/`RwLock`/`Condvar` guard binding must not
/// be live across a blocking I/O call (`read`/`write`/`accept`/frame
/// helpers). Heuristic: a `let` statement whose initializer contains
/// `.lock(`/`.wait(` *on a lock receiver* starts a guard; the guard dies at
/// the end of its block or at `drop(name)`. Any I/O call while a guard is
/// live fires.
pub fn no_lock_across_io(path: &str, tokens: &[Token]) -> Vec<Violation> {
    if !path.starts_with("crates/server/src/") {
        return Vec::new();
    }
    guard_across_io(
        "no-lock-across-io",
        "lock guard",
        |name| matches!(name, "lock" | "wait" | "wait_timeout"),
        path,
        tokens,
    )
}

/// Rule 4 — `pin-guard-no-io`.
///
/// A pinned-page guard (a `let` binding whose initializer calls `.pin(`)
/// must not be live across blocking session I/O. A pin occupies a
/// buffer-pool frame; holding one while a slow client drains a socket write
/// shrinks the pool for every concurrent session and can deadlock a
/// budget-of-one pool outright. Decode the page into an owned value, drop
/// the pin, then write.
///
/// Scope: the server crate (sessions) and the chunked paged operators
/// including the grace-hash join (single-pin discipline is what makes
/// one-frame pools survivable). The pool's own internals
/// (`pool.rs`/`store.rs`) stay exempt — pinning around store I/O there *is*
/// the mechanism.
pub fn pin_guard_no_io(path: &str, tokens: &[Token]) -> Vec<Violation> {
    let in_scope =
        path.starts_with("crates/server/src/") || path.starts_with("crates/core/src/paged/");
    if !in_scope {
        return Vec::new();
    }
    guard_across_io(
        "pin-guard-no-io",
        "pinned-page guard",
        |name| name == "pin",
        path,
        tokens,
    )
}

/// A function's extent in the significant-token stream: `(name, open-brace
/// index, close-brace index)`, exclusive of the braces themselves.
fn fn_spans(sig: &[&Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < sig.len() {
        if sig[i].is_ident("fn") {
            if let Some(name_tok) = sig.get(i + 1).filter(|t| t.kind == TokenKind::Ident) {
                // Find the body's `{` (or a `;` for trait-method decls).
                let mut j = i + 2;
                let mut open = None;
                while let Some(t) = sig.get(j) {
                    if t.is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if t.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let mut depth = 1usize;
                    let mut k = open + 1;
                    while let Some(t) = sig.get(k) {
                        if t.is_punct('{') {
                            depth += 1;
                        } else if t.is_punct('}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        k += 1;
                    }
                    out.push((name_tok.text.clone(), open, k));
                    i = open;
                }
            }
        }
        i += 1;
    }
    out
}

/// Rule 5 — `kernel-range-twin`.
///
/// In `smoke_storage::kernels`, every whole-column kernel `foo` that has a
/// `foo_range` sibling must be a pure `0..len` delegation to it — a single
/// call expression, no statements — so the pair cannot drift apart.
pub fn kernel_range_twin(path: &str, tokens: &[Token]) -> Vec<Violation> {
    const RULE: &str = "kernel-range-twin";
    let mut out = Vec::new();
    if path != "crates/storage/src/kernels.rs" {
        return out;
    }
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let spans = fn_spans(&sig);
    let names: Vec<&str> = spans.iter().map(|(n, _, _)| n.as_str()).collect();
    for (name, open, close) in &spans {
        if sig[*open].in_test {
            continue;
        }
        let twin = format!("{name}_range");
        if !names.contains(&twin.as_str()) {
            continue;
        }
        let body = &sig[*open + 1..*close];
        let delegates = body.first().is_some_and(|t| t.is_ident(&twin))
            && body.get(1).is_some_and(|t| t.is_punct('('))
            && !body.iter().any(|t| t.is_punct(';'))
            && body
                .iter()
                .any(|t| t.kind == TokenKind::Int && t.text == "0");
        if !delegates {
            out.push(violation(
                RULE,
                path,
                sig[*open],
                format!(
                    "kernel `{name}` has a `{twin}` sibling but is not a single `{twin}(.., 0, ..len())` delegation; the pair can drift"
                ),
            ));
        }
    }
    out
}

/// Rule 6 — `exact-int-json`.
///
/// The hand-rolled JSON layer renders integers exactly; float conversions
/// (`as f64` / `as f32` casts, `parse::<f64>`) are confined to the explicit
/// float codec (`as_f64`, `as_i64`, `number`, `render_into`). Anywhere else
/// in `json.rs` they silently lose precision above 2^53.
pub fn exact_int_json(path: &str, tokens: &[Token]) -> Vec<Violation> {
    const RULE: &str = "exact-int-json";
    let mut out = Vec::new();
    if path != "crates/planner/src/json.rs" {
        return out;
    }
    const ALLOWED_FNS: [&str; 4] = ["as_f64", "as_i64", "number", "render_into"];
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let spans = fn_spans(&sig);
    let enclosing_fn = |idx: usize| -> Option<&str> {
        spans
            .iter()
            .rfind(|(_, open, close)| *open < idx && idx < *close)
            .map(|(n, _, _)| n.as_str())
    };
    for i in 0..sig.len() {
        let tok = sig[i];
        if tok.in_test || tok.kind != TokenKind::Ident {
            continue;
        }
        let is_float_cast = matches!(tok.text.as_str(), "f64" | "f32")
            && sig.get(i.wrapping_sub(1)).is_some_and(|t| t.is_ident("as"));
        let is_float_parse = tok.text == "parse"
            && sig.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && sig
                .iter()
                .skip(i + 2)
                .take(4)
                .any(|t| t.is_ident("f64") || t.is_ident("f32"));
        if (is_float_cast || is_float_parse)
            && !enclosing_fn(i).is_some_and(|f| ALLOWED_FNS.contains(&f))
        {
            out.push(violation(
                RULE,
                path,
                tok,
                format!(
                    "float conversion in the JSON layer outside the float codec ({}); integers must render exactly",
                    ALLOWED_FNS.join(", ")
                ),
            ));
        }
    }
    out
}

/// Rule 7 — `one-agg-fold`.
///
/// Folding one input row into a group's `AggState`s is written once
/// (`AggInputs::update` in `ops/groupby.rs`, over the states of `agg.rs`);
/// group-by capture, traced-row re-aggregation and the push-down cube all go
/// through it, and the competitor baselines keep their own as baselines
/// should. Anywhere else, non-test code that names an
/// `AggFunc::` variant in a function that also calls `.update(` /
/// `.update_key(` is a copy of that fold coming back.
pub fn one_agg_fold(path: &str, tokens: &[Token]) -> Vec<Violation> {
    const RULE: &str = "one-agg-fold";
    let mut out = Vec::new();
    if path == "crates/core/src/agg.rs"
        || path == "crates/core/src/ops/groupby.rs"
        || path.starts_with("crates/core/src/baselines/")
    {
        return out;
    }
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    for (name, open, close) in fn_spans(&sig) {
        let body = &sig[open + 1..close];
        let names_variant = body
            .windows(3)
            .any(|w| w[0].is_ident("AggFunc") && w[1].is_punct(':') && w[2].is_punct(':'));
        if sig[open].in_test || !names_variant {
            continue;
        }
        for (i, tok) in body.iter().enumerate() {
            let folds = (tok.is_ident("update") || tok.is_ident("update_key"))
                && i > 0
                && body[i - 1].is_punct('.')
                && body.get(i + 1).is_some_and(|t| t.is_punct('('));
            if folds {
                out.push(violation(
                    RULE,
                    path,
                    tok,
                    format!(
                        "`{name}` matches on `AggFunc::` and calls `.{}(`: a second copy of the aggregate fold; resolve the columns with `AggInputs::resolve` and fold with `AggInputs::update`",
                        tok.text
                    ),
                ));
            }
        }
    }
    // A nested fn is inside its parent's span too.
    out.sort_by_key(|v| (v.line, v.col));
    out.dedup_by_key(|v| (v.line, v.col));
    out
}

/// Runs every rule over one file's token stream.
pub fn run_all(path: &str, tokens: &[Token]) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(no_panic_on_request_path(path, tokens));
    out.extend(unsafe_needs_safety_comment(path, tokens));
    out.extend(no_lock_across_io(path, tokens));
    out.extend(pin_guard_no_io(path, tokens));
    out.extend(kernel_range_twin(path, tokens));
    out.extend(exact_int_json(path, tokens));
    out.extend(one_agg_fold(path, tokens));
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}
