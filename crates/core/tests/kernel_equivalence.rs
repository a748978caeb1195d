//! The predicate evaluator against an independent oracle.
//!
//! `naive` below is a test-only evaluator written for this file: a static
//! type check (unknown columns first, then a `Str` in boolean position or
//! under arithmetic), then a `match` on `Expr` per row with
//! [`Value::total_cmp`] comparisons, `f64` arithmetic and IEEE `v != 0.0`
//! truthiness. On random expressions over Int / Float / Str columns —
//! comparisons, `IN` lists, connectives, arithmetic (division by zero,
//! `-0.0`), booleans used as values, `NaN` floats, and ill-typed shapes that
//! must fail on both sides — `select`, `predicate_rids`, `predicate_mask` and
//! `filter_rids` (over unsorted, duplicated and empty rid lists) must agree
//! with it row for row.

use std::cmp::Ordering;

use proptest::prelude::*;
use smoke_core::kernels::{filter_rids, predicate_mask, predicate_rids};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::{ArithOp, CmpOp, EngineError, Expr};
use smoke_storage::{DataType, Relation, Rid, Value};

/// Builds `t(a, b, s)` from generated rows: `a` a small-domain int, `b` a
/// float derived from the second component (with `NaN` and `-0.0` rows), `s`
/// a short string.
fn table_from(rows: &[(i64, i64)]) -> Relation {
    let mut b = Relation::builder("t")
        .column("a", DataType::Int)
        .column("b", DataType::Float)
        .column("s", DataType::Str);
    for &(x, y) in rows {
        let s = ["red", "green", "blue", "cyan"][(y % 4).unsigned_abs() as usize];
        let f = match y % 17 {
            0 => f64::NAN,
            1 => -0.0,
            _ => y as f64 * 0.5,
        };
        b = b.row(vec![Value::Int(x), Value::Float(f), Value::Str(s.into())]);
    }
    b.build().unwrap()
}

// ---- the oracle -----------------------------------------------------------

/// Which typed error an evaluation ends in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    UnknownColumn,
    Type,
}

fn failure(err: &EngineError) -> Failure {
    match err {
        EngineError::UnknownColumn(_) => Failure::UnknownColumn,
        EngineError::Expression(_) => Failure::Type,
        other => panic!("unexpected error {other:?}"),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Position {
    Boolean,
    Number,
    Value,
}

fn is_str(e: &Expr, t: &Relation) -> bool {
    match e {
        Expr::Column(c) => t.column_by_name(c).unwrap().data_type() == DataType::Str,
        Expr::Literal(v) => matches!(v, Value::Str(_)),
        _ => false,
    }
}

fn type_check(e: &Expr, t: &Relation, pos: Position) -> Result<(), Failure> {
    match e {
        Expr::Column(_) | Expr::Literal(_) => {
            if pos != Position::Value && is_str(e, t) {
                return Err(Failure::Type);
            }
            Ok(())
        }
        Expr::Cmp { left, right, .. } => {
            type_check(left, t, Position::Value)?;
            type_check(right, t, Position::Value)
        }
        Expr::Arith { left, right, .. } => {
            type_check(left, t, Position::Number)?;
            type_check(right, t, Position::Number)
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            type_check(l, t, Position::Boolean)?;
            type_check(r, t, Position::Boolean)
        }
        Expr::Not(e) => type_check(e, t, Position::Boolean),
        Expr::InList { expr, .. } => type_check(expr, t, Position::Value),
    }
}

fn cmp_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

fn value(e: &Expr, t: &Relation, rid: usize) -> Value {
    let flag = |b: bool| Value::Int(b as i64);
    match e {
        Expr::Column(c) => t.value(rid, t.column_index(c).unwrap()),
        Expr::Literal(v) => v.clone(),
        Expr::Cmp { op, left, right } => flag(cmp_matches(
            *op,
            value(left, t, rid).total_cmp(&value(right, t, rid)),
        )),
        Expr::Arith { op, left, right } => {
            let l = value(left, t, rid).as_float().unwrap();
            let r = value(right, t, rid).as_float().unwrap();
            Value::Float(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
            })
        }
        Expr::And(l, r) => flag(truth(l, t, rid) && truth(r, t, rid)),
        Expr::Or(l, r) => flag(truth(l, t, rid) || truth(r, t, rid)),
        Expr::Not(e) => flag(!truth(e, t, rid)),
        Expr::InList { expr, list } => {
            let v = value(expr, t, rid);
            flag(list.iter().any(|x| v.total_cmp(x) == Ordering::Equal))
        }
    }
}

fn truth(e: &Expr, t: &Relation, rid: usize) -> bool {
    match value(e, t, rid) {
        Value::Int(v) => v != 0,
        Value::Float(v) => v != 0.0,
        Value::Str(_) => unreachable!("type-checked"),
    }
}

/// The oracle: per row of `t`, whether `e` holds — or the typed failure.
fn naive(e: &Expr, t: &Relation) -> Result<Vec<bool>, Failure> {
    for c in e.referenced_columns() {
        t.column_index(c).map_err(|_| Failure::UnknownColumn)?;
    }
    type_check(e, t, Position::Boolean)?;
    Ok((0..t.len()).map(|rid| truth(e, t, rid)).collect())
}

fn naive_rids(e: &Expr, t: &Relation) -> Result<Vec<Rid>, Failure> {
    Ok(naive(e, t)?
        .iter()
        .enumerate()
        .filter(|(_, &hit)| hit)
        .map(|(rid, _)| rid as Rid)
        .collect())
}

// ---- generators -----------------------------------------------------------

/// Draws the next seed, cycling (the builder consumes a bounded number).
fn next(seeds: &[u64], pos: &mut usize) -> u64 {
    let s = seeds[*pos % seeds.len()];
    *pos += 1;
    s
}

fn op_from(seed: u64, left: Expr, right: Expr) -> Expr {
    match seed % 6 {
        0 => left.eq(right),
        1 => left.ne(right),
        2 => left.lt(right),
        3 => left.le(right),
        4 => left.gt(right),
        _ => left.ge(right),
    }
}

fn literal_for(col: usize, seed: u64) -> Expr {
    match col {
        0 => Expr::lit((seed % 10) as i64 - 1),
        1 => match seed % 9 {
            0 => Expr::lit(-0.0),
            1 => Expr::lit(f64::NAN),
            _ => Expr::lit((seed % 120) as f64 * 0.5 - 2.0),
        },
        _ => Expr::lit(["red", "green", "blue", "mauve"][(seed % 4) as usize]),
    }
}

const COLS: [&str; 3] = ["a", "b", "s"];

/// A numeric operand: a numeric column, a literal (zeros included, so
/// division by zero happens), or an arithmetic node over two of them.
fn number(seeds: &[u64], pos: &mut usize, depth: u32) -> Expr {
    let s = next(seeds, pos);
    match s % if depth == 0 { 3 } else { 4 } {
        0 => Expr::col(COLS[(s / 4 % 2) as usize]),
        1 => literal_for(0, next(seeds, pos)),
        2 => literal_for(1, next(seeds, pos)),
        _ => {
            let op = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][(s / 4 % 4) as usize];
            Expr::Arith {
                op,
                left: Box::new(number(seeds, pos, depth - 1)),
                right: Box::new(number(seeds, pos, depth - 1)),
            }
        }
    }
}

/// A random leaf. `rich` adds arithmetic, booleans used as values, numeric
/// columns as booleans, and ill-typed shapes (a `Str` under arithmetic or in
/// boolean position) to the comparison / `IN` fragment.
fn leaf(seeds: &[u64], pos: &mut usize, rich: bool) -> Expr {
    let s = next(seeds, pos);
    let col = (s % 3) as usize;
    match s % if rich { 9 } else { 3 } {
        0 => op_from(
            next(seeds, pos),
            Expr::col(COLS[col]),
            literal_for(col, next(seeds, pos)),
        ),
        1 => {
            let other = (next(seeds, pos) % 3) as usize;
            op_from(
                next(seeds, pos),
                Expr::col(COLS[col]),
                Expr::col(COLS[other]),
            )
        }
        2 => {
            let list: Vec<Value> = (0..(next(seeds, pos) % 4 + 1))
                .map(|i| match col {
                    0 => Value::Int((next(seeds, pos) % 10) as i64 - 1),
                    1 => match next(seeds, pos) % 7 {
                        0 => Value::Float(-0.0),
                        1 => Value::Int(0),
                        n => Value::Float(n as f64 * 0.5),
                    },
                    _ => Value::Str(["red", "blue", "teal"][(i % 3) as usize].into()),
                })
                .collect();
            Expr::col(COLS[col]).in_list(list)
        }
        3 => op_from(
            next(seeds, pos),
            number(seeds, pos, 2),
            number(seeds, pos, 1),
        ),
        // A boolean used as a value: compared, summed or listed.
        4 => {
            let inner = leaf(seeds, pos, false);
            match next(seeds, pos) % 3 {
                0 => op_from(next(seeds, pos), inner, literal_for(0, next(seeds, pos))),
                1 => op_from(
                    next(seeds, pos),
                    inner + leaf(seeds, pos, false),
                    Expr::col(COLS[col]),
                ),
                _ => inner.in_list(vec![Value::Int(1), Value::Float(0.0)]),
            }
        }
        // Arithmetic or a numeric column in boolean position.
        5 => number(seeds, pos, 2),
        6 => Expr::col(COLS[(s / 9 % 2) as usize]),
        // Ill-typed: a `Str` under arithmetic or in boolean position.
        7 => match next(seeds, pos) % 3 {
            0 => op_from(
                next(seeds, pos),
                Expr::col("s") + number(seeds, pos, 0),
                Expr::lit(1),
            ),
            1 => Expr::col("s"),
            _ => Expr::lit("x"),
        },
        _ => Expr::lit(next(seeds, pos) as i64 % 2),
    }
}

/// A random boolean expression tree of bounded depth.
fn build_expr(seeds: &[u64], pos: &mut usize, depth: u32, rich: bool) -> Expr {
    let s = next(seeds, pos);
    if depth == 0 || s % 8 < 3 {
        return leaf(seeds, pos, rich);
    }
    let sub = |pos: &mut usize| build_expr(seeds, pos, depth - 1, rich);
    match s % 8 {
        3 | 4 => {
            let l = sub(pos);
            l.and(sub(pos))
        }
        5 | 6 => {
            let l = sub(pos);
            l.or(sub(pos))
        }
        _ => sub(pos).not(),
    }
}

/// A rid list over `t` drawn from `picks`: unsorted, with duplicates.
fn rid_list(t: &Relation, picks: &[u64]) -> Vec<Rid> {
    if t.is_empty() {
        return Vec::new();
    }
    picks.iter().map(|&p| (p % t.len() as u64) as Rid).collect()
}

// ---- the properties -------------------------------------------------------

/// `select` (capturing and not), `predicate_rids` and `predicate_mask` against
/// the naive scan: the same rows and lineage, or the same typed failure.
fn assert_scans_agree(t: &Relation, pred: &Expr) {
    let expect = naive_rids(pred, t);
    let rids = predicate_rids(t, pred).map_err(|e| failure(&e));
    assert_eq!(rids, expect, "predicate_rids of {pred:?}");
    let mask = predicate_mask(t, pred).map(|m| m.to_rids());
    assert_eq!(mask.map_err(|e| failure(&e)), expect, "mask of {pred:?}");

    let inject = select(t, pred, &SelectOptions::inject());
    let baseline = select(t, pred, &SelectOptions::baseline());
    let expect = match expect {
        Ok(rids) => rids,
        Err(f) => {
            assert_eq!(inject.map(|_| ()).map_err(|e| failure(&e)), Err(f));
            assert_eq!(baseline.map(|_| ()).map_err(|e| failure(&e)), Err(f));
            return;
        }
    };
    let (inject, baseline) = (inject.unwrap(), baseline.unwrap());
    assert_same_rows(&inject.output, &t.gather(&expect, "expect"));
    assert_same_rows(&baseline.output, &inject.output);
    assert!(baseline.lineage.is_none());
    let lin = inject.lineage.input(0);
    for (o, &rid) in expect.iter().enumerate() {
        assert_eq!(lin.backward().lookup(o as Rid), vec![rid], "{pred:?}");
    }
    for i in 0..t.len() as Rid {
        let out = expect.iter().position(|&r| r == i).map(|o| o as Rid);
        assert_eq!(lin.forward().lookup(i), out.into_iter().collect::<Vec<_>>());
    }
}

/// Row-for-row equality under `total_cmp`, so `NaN` equals itself.
fn assert_same_rows(got: &Relation, expect: &Relation) {
    assert_eq!(got.len(), expect.len());
    for rid in 0..got.len() {
        for (g, e) in got.row_values(rid).iter().zip(expect.row_values(rid)) {
            assert_eq!(g.total_cmp(&e), Ordering::Equal, "row {rid}");
        }
    }
}

/// `filter_rids` against the naive per-rid filter, order and duplicates kept.
fn assert_filter_agrees(t: &Relation, pred: &Expr, rids: &[Rid]) {
    let expect = naive(pred, t).map(|hits| {
        rids.iter()
            .copied()
            .filter(|&r| hits[r as usize])
            .collect::<Vec<Rid>>()
    });
    let got = filter_rids(t, pred, rids).map_err(|e| failure(&e));
    assert_eq!(got, expect, "filter_rids of {pred:?} over {rids:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn comparison_fragment_scans_match_the_naive_scan(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..80),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let table = table_from(&rows);
        let mut pos = 0;
        let pred = build_expr(&seeds, &mut pos, 3, false);
        // The comparison fragment is always well-typed.
        prop_assert!(naive(&pred, &table).is_ok(), "{:?}", pred);
        assert_scans_agree(&table, &pred);
    }

    #[test]
    fn every_shape_scans_match_the_naive_scan(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..60),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..32),
    ) {
        let table = table_from(&rows);
        let mut pos = 0;
        let pred = build_expr(&seeds, &mut pos, 2, true);
        assert_scans_agree(&table, &pred);
    }

    #[test]
    fn filter_rids_matches_the_naive_per_rid_filter(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..60),
        seeds in prop::collection::vec(0u64..u64::MAX, 1..32),
        picks in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let table = table_from(&rows);
        let mut pos = 0;
        let pred = build_expr(&seeds, &mut pos, 2, true);
        let rids = rid_list(&table, &picks);
        assert_filter_agrees(&table, &pred, &rids);
        assert_filter_agrees(&table, &pred, &[]);
        assert_filter_agrees(&table, &pred, &table.all_rids());
    }

    #[test]
    fn lazy_rewrite_scan_matches_the_naive_scan(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..80),
        groups in prop::collection::vec(-2i64..8, 1..6),
        cut in 1i64..110,
    ) {
        // The exact predicate shape LazyRewrite issues: OR'd key equalities
        // AND'd with the base selection.
        let table = table_from(&rows);
        let terms = groups.iter().map(|&g| {
            Expr::col("a").eq(Expr::lit(g))
                .and(Expr::col("b").lt(Expr::lit(cut as f64 * 0.5)))
        });
        let pred = smoke_core::lazy::disjunction(terms.collect()).unwrap();
        let scanned = smoke_core::lazy::lazy_backward(&table, &pred).unwrap();
        prop_assert_eq!(Ok(scanned), naive_rids(&pred, &table));
    }
}

#[test]
fn empty_relation_and_empty_rid_list() {
    let table = table_from(&[]);
    assert!(table.is_empty());
    assert_scans_agree(&table, &Expr::col("a").gt(Expr::lit(3)));
    // A type error is one before any row is read.
    for pred in [
        Expr::col("s"),
        Expr::lit("x").and(Expr::col("a").lt(Expr::lit(0))),
    ] {
        assert_scans_agree(&table, &pred);
        assert_filter_agrees(&table, &pred, &[]);
    }
}

#[test]
fn all_true_and_all_false_predicates() {
    let table = table_from(&[(1, 10), (5, 20), (7, 30)]);
    let all_true = Expr::col("a").ge(Expr::lit(-100));
    assert_scans_agree(&table, &all_true);
    assert_eq!(
        predicate_rids(&table, &all_true).unwrap().len(),
        table.len()
    );
    let all_false = Expr::col("a").gt(Expr::lit(100));
    assert_scans_agree(&table, &all_false);
    assert!(predicate_rids(&table, &all_false).unwrap().is_empty());
    // Type-determined constants (string column vs numeric literal).
    assert_scans_agree(&table, &Expr::col("s").lt(Expr::lit(5)));
    assert_scans_agree(&table, &Expr::col("s").gt(Expr::lit(5)));
}

#[test]
fn operand_order_does_not_change_the_error() {
    let table = table_from(&[(1, 10), (5, 20)]);
    let z = Expr::col("a").lt(Expr::lit(0));
    for pred in [
        z.clone().and(Expr::lit("x")),
        Expr::lit("x").and(z.clone()),
        z.clone().or(Expr::lit("x")),
        Expr::lit("x").or(z),
    ] {
        for rids in [&[][..], &[0], &[1, 0]] {
            assert!(matches!(
                filter_rids(&table, &pred, rids),
                Err(EngineError::Expression(_))
            ));
        }
    }
}
