//! Hash join and group-by over keys chosen to collide in a weak hasher —
//! 0, −1, `i64::MIN`, `i64::MAX`, keys that differ only in their high bits
//! (`k << 32`, `k << 48`), integer pairs that mirror each other, strings
//! with long shared prefixes — checked rid for rid against nested-loop
//! references under every capture mode.

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::ops::join::{hash_join, JoinOptions, JoinResult};
use smoke_core::{AggExpr, CaptureMode};
use smoke_lineage::{LineageIndex, Rid};
use smoke_storage::{Column, DataType, Field, Relation, Schema, Value};

const MODES: [CaptureMode; 4] = [
    CaptureMode::Baseline,
    CaptureMode::Inject,
    CaptureMode::Defer,
    CaptureMode::DeferForward,
];

/// The adversarial integer keys, `n` of them, with repeats.
fn int_keys(n: usize) -> Vec<i64> {
    let special = [0, -1, i64::MIN, i64::MAX, 1, i64::MIN + 1, i64::MAX - 1];
    (0..n as i64)
        .map(|i| match i % 5 {
            0 => special[(i / 5) as usize % special.len()],
            1 => (i % 64) << 32,
            2 => (i % 48) << 48,
            3 => -((i % 40) << 32),
            _ => i % 37,
        })
        .collect()
}

/// Strings sharing a 40-byte prefix, differing in their last bytes.
fn str_keys(n: usize) -> Vec<String> {
    let prefix = "x".repeat(40);
    (0..n).map(|i| format!("{prefix}{}", i % 23)).collect()
}

/// A relation of the given key columns plus a row-number column `v`.
fn relation(name: &str, keys: Vec<(&str, Column)>) -> Relation {
    let rows = keys[0].1.len();
    let mut fields: Vec<Field> = (keys.iter())
        .map(|(n, c)| Field::new(*n, c.data_type()))
        .collect();
    fields.push(Field::new("v", DataType::Int));
    let mut columns: Vec<Column> = keys.into_iter().map(|(_, c)| c).collect();
    columns.push(Column::Int((0..rows as i64).collect()));
    Relation::from_columns(name, Schema::new(fields).unwrap(), columns).unwrap()
}

/// Row `i`'s key over `cols`.
fn key(rel: &Relation, cols: &[usize], i: usize) -> Vec<Value> {
    cols.iter().map(|&c| rel.value(i, c)).collect()
}

fn positions(rel: &Relation, names: &[String]) -> Vec<usize> {
    let at = |n: &String| rel.column_index(n).unwrap();
    names.iter().map(at).collect()
}

fn lookups(index: &LineageIndex, len: usize) -> Vec<Vec<Rid>> {
    (0..len as Rid).map(|p| index.lookup(p)).collect()
}

fn check_join(left: &Relation, right: &Relation, left_keys: &[String], right_keys: &[String]) {
    let (lk, rk) = (positions(left, left_keys), positions(right, right_keys));
    // The probe order: right rows in order, each left match in rid order.
    let mut pairs = Vec::new();
    for r in 0..right.len() {
        for l in 0..left.len() {
            if key(left, &lk, l) == key(right, &rk, r) {
                pairs.push((l as Rid, r as Rid));
            }
        }
    }
    let outputs_of = |rows: usize, side: fn(&(Rid, Rid)) -> Rid| -> Vec<Vec<Rid>> {
        let mut out = vec![Vec::new(); rows];
        for (o, pair) in pairs.iter().enumerate() {
            out[side(pair) as usize].push(o as Rid);
        }
        out
    };
    let left_forward = outputs_of(left.len(), |p| p.0);
    let right_forward = outputs_of(right.len(), |p| p.1);

    for mode in MODES {
        let opts = JoinOptions {
            mode,
            ..JoinOptions::default()
        };
        let got: JoinResult = hash_join(left, right, left_keys, right_keys, &opts).unwrap();
        assert_eq!(got.output_rows, pairs.len(), "{mode:?} {left_keys:?}");
        for (o, &(l, r)) in pairs.iter().enumerate() {
            assert_eq!(
                got.output.value(o, 0),
                left.value(l as usize, 0),
                "{mode:?}"
            );
            let right_at = left.columns().len();
            assert_eq!(got.output.value(o, right_at), right.value(r as usize, 0));
        }
        if mode == CaptureMode::Baseline {
            assert!(got.lineage.is_none());
            continue;
        }
        let (a, b) = (got.lineage.input(0), got.lineage.input(1));
        let n = pairs.len();
        let left_backward: Vec<Vec<Rid>> = pairs.iter().map(|p| vec![p.0]).collect();
        let right_backward: Vec<Vec<Rid>> = pairs.iter().map(|p| vec![p.1]).collect();
        assert_eq!(lookups(a.backward(), n), left_backward, "{mode:?}");
        assert_eq!(lookups(b.backward(), n), right_backward, "{mode:?}");
        assert_eq!(lookups(a.forward(), left.len()), left_forward, "{mode:?}");
        assert_eq!(lookups(b.forward(), right.len()), right_forward, "{mode:?}");
    }
}

fn check_group_by(rel: &Relation, keys: &[String]) {
    let kc = positions(rel, keys);
    // Groups in order of first occurrence, each with its rows in rid order.
    let mut groups: Vec<(Vec<Value>, Vec<Rid>)> = Vec::new();
    let mut gid_of_row = Vec::with_capacity(rel.len());
    for i in 0..rel.len() {
        let k = key(rel, &kc, i);
        let gid = match groups.iter().position(|(g, _)| *g == k) {
            Some(gid) => gid,
            None => {
                groups.push((k, Vec::new()));
                groups.len() - 1
            }
        };
        groups[gid].1.push(i as Rid);
        gid_of_row.push(vec![gid as Rid]);
    }

    for mode in MODES {
        let opts = GroupByOptions {
            mode,
            ..GroupByOptions::default()
        };
        let got = group_by(rel, keys, &[AggExpr::count("n")], &opts).unwrap();
        assert_eq!(got.output.len(), groups.len(), "{mode:?} {keys:?}");
        for (gid, (k, rows)) in groups.iter().enumerate() {
            let out: Vec<Value> = (0..keys.len()).map(|c| got.output.value(gid, c)).collect();
            assert_eq!(&out, k, "{mode:?} group {gid}");
            let count = got.output.value(gid, keys.len());
            assert_eq!(count, Value::Int(rows.len() as i64), "{mode:?} group {gid}");
        }
        if mode == CaptureMode::Baseline {
            assert!(got.lineage.is_none());
            continue;
        }
        let lineage = got.lineage.input(0);
        let backward: Vec<Vec<Rid>> = groups.iter().map(|(_, rows)| rows.clone()).collect();
        assert_eq!(
            lookups(lineage.backward(), groups.len()),
            backward,
            "{mode:?}"
        );
        assert_eq!(
            lookups(lineage.forward(), rel.len()),
            gid_of_row,
            "{mode:?}"
        );
    }
}

fn names(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

#[test]
fn integer_keys_match_the_nested_loops() {
    let build = relation("build", vec![("k", Column::Int(int_keys(300)))]);
    let probe_keys: Vec<i64> = int_keys(700).into_iter().rev().collect();
    let probe = relation("probe", vec![("k", Column::Int(probe_keys))]);
    check_join(&build, &probe, &names(&["k"]), &names(&["k"]));
    check_group_by(&probe, &names(&["k"]));

    // A unique build side: the pk-fk join.
    let mut unique = int_keys(300);
    unique.sort_unstable();
    unique.dedup();
    let unique = relation("unique", vec![("k", Column::Int(unique))]);
    check_join(&unique, &probe, &names(&["k"]), &names(&["k"]));
}

#[test]
fn integer_pair_keys_match_the_nested_loops() {
    // `(k, 0)` and `(0, k)` rows side by side.
    let ks = int_keys(400);
    let (a, b): (Vec<i64>, Vec<i64>) = (ks.iter().enumerate())
        .map(|(i, &k)| if i % 2 == 0 { (k, 0) } else { (0, k) })
        .unzip();
    let rel = relation("pairs", vec![("a", Column::Int(a)), ("b", Column::Int(b))]);
    let half = relation(
        "half",
        vec![
            ("a", Column::Int(rel.column(0).as_int()[..150].to_vec())),
            ("b", Column::Int(rel.column(1).as_int()[..150].to_vec())),
        ],
    );
    check_join(&half, &rel, &names(&["a", "b"]), &names(&["a", "b"]));
    check_group_by(&rel, &names(&["a", "b"]));
}

#[test]
fn string_keys_with_shared_prefixes_match_the_nested_loops() {
    let build = relation("build", vec![("s", Column::Str(str_keys(60)))]);
    let probe_keys: Vec<String> = str_keys(200).into_iter().rev().collect();
    let probe = relation("probe", vec![("s", Column::Str(probe_keys))]);
    check_join(&build, &probe, &names(&["s"]), &names(&["s"]));
    check_group_by(&probe, &names(&["s"]));

    // A mixed string / integer key goes through the generic key path.
    let ints = Column::Int(int_keys(200).into_iter().map(|k| k & 3).collect());
    let mixed = relation(
        "mixed",
        vec![("s", Column::Str(str_keys(200))), ("k", ints)],
    );
    check_join(&mixed, &mixed, &names(&["s", "k"]), &names(&["s", "k"]));
    check_group_by(&mixed, &names(&["s", "k"]));
}
