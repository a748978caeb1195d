//! Fixture self-tests: every rule has a firing and a clean fixture, asserted
//! by rule ID and span. The fixture sources live under `tests/fixtures/` —
//! outside `src/`, so the workspace walk never lints them.

use smoke_lint::check_source;

fn fixture(rule_dir: &str, which: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/{}/{}.rs",
        env!("CARGO_MANIFEST_DIR"),
        rule_dir,
        which
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Asserts the fixture fires exactly `expected` = `(rule, line, snippet)`
/// triples, where `snippet` must start at the reported column of that line —
/// i.e. the span points at the offending token, not just the right line.
fn assert_fires(rel_path: &str, src: &str, expected: &[(&str, u32, &str)]) {
    let result = check_source(rel_path, src);
    let lines: Vec<&str> = src.lines().collect();
    assert_eq!(
        result.violations.len(),
        expected.len(),
        "violation count mismatch for {rel_path}: {:#?}",
        result.violations
    );
    for (v, (rule, line, snippet)) in result.violations.iter().zip(expected) {
        assert_eq!(v.rule, *rule, "rule mismatch: {v}");
        assert_eq!(v.line, *line, "line mismatch: {v}");
        let text = lines[(v.line - 1) as usize];
        let at_col = &text[(v.col - 1) as usize..];
        assert!(
            at_col.starts_with(snippet),
            "span {v} does not point at `{snippet}`; line is `{text}`, col text `{at_col}`"
        );
    }
}

fn assert_clean(rel_path: &str, src: &str) {
    let result = check_source(rel_path, src);
    assert!(
        result.violations.is_empty(),
        "expected clean, got {:#?}",
        result.violations
    );
    assert_eq!(
        result.suppressed, 0,
        "clean fixtures must not rely on pragmas"
    );
}

#[test]
fn no_panic_on_request_path_fires() {
    let src = fixture("no_panic", "fires");
    assert_fires(
        "crates/server/src/fixture.rs",
        &src,
        &[
            ("no-panic-on-request-path", 3, "0]"),
            ("no-panic-on-request-path", 5, "panic!"),
            ("no-panic-on-request-path", 7, "unwrap()"),
        ],
    );
}

#[test]
fn no_panic_on_request_path_clean() {
    let src = fixture("no_panic", "clean");
    assert_clean("crates/server/src/fixture.rs", &src);
}

#[test]
fn no_panic_rule_also_covers_planner_decode_layers() {
    let src = fixture("no_panic", "fires");
    for path in ["crates/planner/src/json.rs", "crates/planner/src/wire.rs"] {
        // json.rs additionally runs exact-int-json, but this fixture has no
        // floats, so the same three violations fire.
        let r = check_source(path, &src);
        assert_eq!(r.violations.len(), 3, "{path}: {:#?}", r.violations);
    }
    // ...and NOT other planner files.
    let r = check_source("crates/planner/src/cost.rs", &src);
    assert!(r.violations.is_empty());
}

#[test]
fn unsafe_needs_safety_comment_fires() {
    let src = fixture("unsafe_comment", "fires");
    assert_fires(
        "crates/storage/src/fixture.rs",
        &src,
        &[("unsafe-needs-safety-comment", 3, "unsafe")],
    );
}

#[test]
fn unsafe_needs_safety_comment_clean() {
    let src = fixture("unsafe_comment", "clean");
    assert_clean("crates/storage/src/fixture.rs", &src);
}

#[test]
fn no_lock_across_io_fires() {
    let src = fixture("lock_io", "fires");
    assert_fires(
        "crates/server/src/fixture.rs",
        &src,
        &[("no-lock-across-io", 9, "write_all")],
    );
}

#[test]
fn no_lock_across_io_clean() {
    let src = fixture("lock_io", "clean");
    assert_clean("crates/server/src/fixture.rs", &src);
}

#[test]
fn pin_guard_no_io_fires() {
    let src = fixture("pin_io", "fires");
    assert_fires(
        "crates/server/src/fixture.rs",
        &src,
        &[("pin-guard-no-io", 7, "write_all")],
    );
}

#[test]
fn pin_guard_no_io_clean() {
    let src = fixture("pin_io", "clean");
    assert_clean("crates/server/src/fixture.rs", &src);
}

#[test]
fn pin_guard_rule_skips_the_pool_internals() {
    // The pool's own internals pin pages around store I/O by design; the
    // rule polices pin *consumers* — sessions and the paged operators — not
    // the mechanism itself.
    let src = fixture("pin_io", "fires");
    assert_clean("crates/pager/src/pool.rs", &src);
    assert_clean("crates/pager/src/store.rs", &src);
    assert_clean("crates/storage/src/paged.rs", &src);
}

#[test]
fn pin_guard_rule_covers_paged_operators() {
    let src = fixture("pin_io", "fires");
    for path in [
        "crates/core/src/paged/mod.rs",
        "crates/core/src/paged/grace.rs",
    ] {
        let r = check_source(path, &src);
        assert!(
            r.violations.iter().any(|v| v.rule == "pin-guard-no-io"),
            "{path} must be in pin-guard scope: {:#?}",
            r.violations
        );
    }
}

#[test]
fn no_panic_rule_covers_the_grace_join_path() {
    let src = fixture("no_panic", "fires");
    let r = check_source("crates/core/src/paged/grace.rs", &src);
    assert_eq!(r.violations.len(), 3, "{:#?}", r.violations);
    // ...but not the rest of the core crate.
    let r = check_source("crates/core/src/ops/join.rs", &src);
    assert!(r.violations.is_empty());
}

#[test]
fn kernel_range_twin_fires() {
    let src = fixture("kernel_twin", "fires");
    assert_fires(
        "crates/storage/src/kernels.rs",
        &src,
        &[("kernel-range-twin", 7, "{")],
    );
}

#[test]
fn kernel_range_twin_clean() {
    let src = fixture("kernel_twin", "clean");
    assert_clean("crates/storage/src/kernels.rs", &src);
}

#[test]
fn kernel_twin_rule_only_applies_to_kernels_rs() {
    let src = fixture("kernel_twin", "fires");
    assert_clean("crates/storage/src/column.rs", &src);
}

#[test]
fn exact_int_json_fires() {
    let src = fixture("exact_int", "fires");
    assert_fires(
        "crates/planner/src/json.rs",
        &src,
        &[("exact-int-json", 4, "f64")],
    );
}

#[test]
fn exact_int_json_clean() {
    let src = fixture("exact_int", "clean");
    assert_clean("crates/planner/src/json.rs", &src);
}

#[test]
fn one_agg_fold_fires() {
    let src = fixture("agg_fold", "fires");
    assert_fires(
        "crates/core/src/query.rs",
        &src,
        &[
            ("one-agg-fold", 6, "update(0.0)"),
            ("one-agg-fold", 7, "update_key("),
            ("one-agg-fold", 8, "update(rel"),
            ("one-agg-fold", 9, "update(0.0)"),
        ],
    );
}

#[test]
fn one_agg_fold_clean() {
    let src = fixture("agg_fold", "clean");
    assert_clean("crates/core/src/workload.rs", &src);
}

#[test]
fn one_agg_fold_exempts_the_fold_itself_and_the_baselines() {
    let src = fixture("agg_fold", "fires");
    for path in [
        "crates/core/src/agg.rs",
        "crates/core/src/ops/groupby.rs",
        "crates/core/src/baselines/physical.rs",
    ] {
        assert_clean(path, &src);
    }
}

#[test]
fn pragma_suppresses_exactly_one_rule_on_one_line() {
    let mut src = fixture("no_panic", "fires");
    src = src.replace(
        "    let tag = frame[0];",
        "    // lint:allow(no-panic-on-request-path)\n    let tag = frame[0];",
    );
    let r = check_source("crates/server/src/fixture.rs", &src);
    assert_eq!(r.suppressed, 1);
    assert_eq!(r.violations.len(), 2, "{:#?}", r.violations);
}
