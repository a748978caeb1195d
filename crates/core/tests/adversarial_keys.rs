//! Hash join and group-by over keys chosen to collide in a weak hasher —
//! 0, −1, `i64::MIN`, `i64::MAX`, keys that differ only in their high bits
//! (`k << 32`, `k << 48`), integer pairs that mirror each other, strings
//! with long shared prefixes — checked rid for rid against nested-loop
//! references under every capture mode and with either direction pruned,
//! and Defer and DeferForward diffed against Inject byte for byte: every
//! mode hands out the same read-side indexes.
//! The group-by reference also folds
//! every aggregate function one row at a time, in rid order, and diffs the
//! batched γ fold against it bit for bit — with and without the selection
//! push-down and the §4.2 partitions and cube, resident and paged — over
//! row counts straddling the fold's batch size.

use std::sync::Arc;

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::ops::join::{hash_join, JoinOptions, JoinResult};
use smoke_core::{
    paged_group_by, AggExpr, AggFunc, AggPushdown, AggState, CaptureMode, DirectionFilter, Expr,
    WorkloadOptions,
};
use smoke_lineage::{LineageIndex, OperatorLineage, Rid};
use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
use smoke_storage::{Column, DataType, Field, PagedRelation, Relation, Schema, Value};

/// Rows per batch of the γ fold (`BATCH` in `ops/groupby.rs`): the row
/// counts of `batch_edges_match_the_nested_loops` straddle it.
const BATCH: usize = 1024;

const MODES: [CaptureMode; 4] = [
    CaptureMode::Baseline,
    CaptureMode::Inject,
    CaptureMode::Defer,
    CaptureMode::DeferForward,
];

/// Both directions, then each one pruned: a Defer capture builds what it
/// prunes as scratch (the γ re-probe's gid array, the ⋈ left side's slot
/// array), so each pruning is its own path.
const DIRECTIONS: [DirectionFilter; 3] = [
    DirectionFilter::Both,
    DirectionFilter::BackwardOnly,
    DirectionFilter::ForwardOnly,
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

/// A relation of the given key columns plus a row-number column `v`, a
/// `Float` column `f` whose sums depend on the order they are added in
/// (small values beside `1e16`, both signs), and an `Int` partition
/// attribute `p` of 97 values.
fn relation(name: &str, keys: Vec<(&str, Column)>) -> Relation {
    let rows = keys[0].1.len();
    let mut fields: Vec<Field> = (keys.iter())
        .map(|(n, c)| Field::new(*n, c.data_type()))
        .collect();
    fields.push(Field::new("v", DataType::Int));
    fields.push(Field::new("f", DataType::Float));
    fields.push(Field::new("p", DataType::Int));
    let mut columns: Vec<Column> = keys.into_iter().map(|(_, c)| c).collect();
    columns.push(Column::Int((0..rows as i64).collect()));
    let f = (0..rows).map(|i| match i % 11 {
        0 => 1e16,
        5 => -1e16,
        _ => (i * 2_654_435_761 % 1000) as f64 / 7.0 - 60.0,
    });
    columns.push(Column::Float(f.collect()));
    columns.push(Column::Int(
        (0..rows).map(|i| (i * 31 % 97) as i64 - 40).collect(),
    ));
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

/// A captured direction's index holds `want`; a pruned one is `None`.
fn check_index(index: Option<&LineageIndex>, captured: bool, want: &[Vec<Rid>], what: &str) {
    match index {
        Some(index) if captured => assert_eq!(lookups(index, want.len()), want, "{what}"),
        got => assert!(!captured && got.is_none(), "{what}: {got:?}"),
    }
}

/// Whether `mode` defers, and so must hand out Inject's indexes.
fn defers(mode: CaptureMode) -> bool {
    matches!(mode, CaptureMode::Defer | CaptureMode::DeferForward)
}

/// A deferred capture hands out exactly the indexes Inject does.
fn same_as_inject(got: &OperatorLineage, inject: &OperatorLineage, what: &str) {
    assert_eq!(got.input_count(), inject.input_count(), "{what}");
    for i in 0..got.input_count() {
        let (got, inject) = (got.input(i), inject.input(i));
        assert_eq!(
            got.backward, inject.backward,
            "{what}: backward[{i}] against Inject"
        );
        assert_eq!(
            got.forward, inject.forward,
            "{what}: forward[{i}] against Inject"
        );
    }
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

    for (mode, directions) in MODES.into_iter().flat_map(|m| DIRECTIONS.map(|d| (m, d))) {
        let opts = |mode| JoinOptions {
            mode,
            left_directions: directions,
            right_directions: directions,
            ..JoinOptions::default()
        };
        let what = format!("{mode:?} {directions:?} {left_keys:?}");
        let join = |mode| hash_join(left, right, left_keys, right_keys, &opts(mode)).unwrap();
        let got: JoinResult = join(mode);
        assert_eq!(got.output_rows, pairs.len(), "{what}");
        for (o, &(l, r)) in pairs.iter().enumerate() {
            assert_eq!(got.output.value(o, 0), left.value(l as usize, 0), "{what}");
            let right_at = left.columns().len();
            assert_eq!(got.output.value(o, right_at), right.value(r as usize, 0));
        }
        if mode == CaptureMode::Baseline {
            assert!(got.lineage.is_none());
            continue;
        }
        let (a, b) = (got.lineage.input(0), got.lineage.input(1));
        let (bw, fw) = (directions.backward(), directions.forward());
        let left_backward: Vec<Vec<Rid>> = pairs.iter().map(|p| vec![p.0]).collect();
        let right_backward: Vec<Vec<Rid>> = pairs.iter().map(|p| vec![p.1]).collect();
        check_index(a.backward.as_ref(), bw, &left_backward, &what);
        check_index(b.backward.as_ref(), bw, &right_backward, &what);
        check_index(a.forward.as_ref(), fw, &left_forward, &what);
        check_index(b.forward.as_ref(), fw, &right_forward, &what);
        if defers(mode) {
            same_as_inject(&got.lineage, &join(CaptureMode::Inject).lineage, &what);
        }
    }
}

/// `COUNT(*)`, then every other aggregate function over the `Int` column
/// `v` and over the `Float` column `f`.
fn all_aggs() -> Vec<AggExpr> {
    let mut aggs = vec![AggExpr::count("n")];
    for c in ["v", "f"] {
        aggs.extend([
            AggExpr::sum(c, format!("sum_{c}")),
            AggExpr::sum_sq(c, format!("sum_sq_{c}")),
            AggExpr::sum_sqrt(c, format!("sum_sqrt_{c}")),
            AggExpr::min(c, format!("min_{c}")),
            AggExpr::max(c, format!("max_{c}")),
            AggExpr::avg(c, format!("avg_{c}")),
            AggExpr::count_distinct(c, format!("distinct_{c}")),
        ]);
    }
    aggs
}

/// `aggs` over `rows` of `rel`, folded one row at a time in rid order.
fn reference_aggs(rel: &Relation, aggs: &[AggExpr], rows: &[Rid]) -> Vec<Value> {
    let mut states: Vec<AggState> = aggs.iter().map(AggExpr::new_state).collect();
    for &r in rows {
        for (agg, state) in aggs.iter().zip(&mut states) {
            let Some(c) = &agg.column else {
                state.update(0.0);
                continue;
            };
            match (
                agg.func,
                rel.value(r as usize, rel.column_index(c).unwrap()),
            ) {
                (AggFunc::Count, _) => state.update(0.0),
                (AggFunc::CountDistinct, value) => state.update_key(&value.group_key()),
                (_, Value::Int(x)) => state.update(x as f64),
                (_, Value::Float(x)) => state.update(x),
                (_, Value::Str(_)) => state.update(0.0),
            }
        }
    }
    states.iter().map(AggState::finalize).collect()
}

/// Row `row` of `rel` from column `from` on equals `want`, floats bit for bit.
fn assert_row(rel: &Relation, row: usize, from: usize, want: &[Value], what: &str) {
    for (c, want) in want.iter().enumerate() {
        let got = rel.value(row, from + c);
        let same = match (&got, want) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => got == *want,
        };
        assert!(same, "{what}, column {}: {got:?} != {want:?}", from + c);
    }
}

/// The workload options every group-by is checked under: none, a selection
/// push-down (`f < 0`), and partitions plus a cube of every aggregate on `p`.
fn workloads() -> [WorkloadOptions; 3] {
    let cube = AggPushdown {
        partition_by: vec!["p".to_string()],
        aggs: all_aggs(),
    };
    [
        WorkloadOptions::default(),
        WorkloadOptions {
            selection_pushdown: Some(Expr::col("f").lt(Expr::lit(0.0))),
            ..WorkloadOptions::default()
        },
        WorkloadOptions {
            skipping_partition_by: vec!["p".to_string()],
            agg_pushdown: Some(cube),
            ..WorkloadOptions::default()
        },
    ]
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
        gid_of_row.push(gid as Rid);
    }
    let aggs = all_aggs();
    let (f, p) = (
        positions(rel, &names(&["f"]))[0],
        positions(rel, &names(&["p"]))[0],
    );
    let passes = |r: Rid| match rel.value(r as usize, f) {
        Value::Float(x) => x < 0.0,
        other => panic!("f is a float column, got {other:?}"),
    };
    let pool = Arc::new(BufferPool::new(
        SegmentStore::in_memory(),
        8,
        ReplacementPolicy::Sieve,
    ));
    let paged = PagedRelation::spill(rel, &pool).unwrap();

    for (mode, directions) in MODES.into_iter().flat_map(|m| DIRECTIONS.map(|d| (m, d))) {
        for workload in workloads() {
            let opts = GroupByOptions {
                mode,
                directions,
                workload: workload.clone(),
                ..GroupByOptions::default()
            };
            let resident = group_by(rel, keys, &aggs, &opts).unwrap();
            let by_pages = paged_group_by(&paged, keys, &aggs, &opts, BATCH).unwrap();
            let inject = defers(mode).then(|| {
                let inject = GroupByOptions {
                    mode: CaptureMode::Inject,
                    ..opts.clone()
                };
                group_by(rel, keys, &aggs, &inject).unwrap().lineage
            });
            for (driver, got) in [("resident", &resident), ("paged", &by_pages)] {
                let what = format!("{driver} {mode:?} {directions:?} {keys:?} {workload:?}");
                check_groups(rel, &groups, &aggs, got, &what);
                if mode == CaptureMode::Baseline {
                    assert!(got.lineage.is_none(), "{what}");
                    assert!(got.artifacts.partitioned.is_none(), "{what}");
                    continue;
                }
                let pushed = workload.selection_pushdown.is_some();
                let kept = |r: &Rid| !pushed || passes(*r);
                let lineage = got.lineage.input(0);
                let backward: Vec<Vec<Rid>> = (groups.iter())
                    .map(|(_, rows)| rows.iter().copied().filter(kept).collect())
                    .collect();
                let forward: Vec<Vec<Rid>> = (0..rel.len() as Rid)
                    .map(|r| match kept(&r) {
                        true => vec![gid_of_row[r as usize]],
                        false => Vec::new(),
                    })
                    .collect();
                check_index(
                    lineage.backward.as_ref(),
                    directions.backward(),
                    &backward,
                    &what,
                );
                check_index(
                    lineage.forward.as_ref(),
                    directions.forward(),
                    &forward,
                    &what,
                );
                if let Some(inject) = &inject {
                    same_as_inject(&got.lineage, inject, &what);
                }
                if workload.agg_pushdown.is_some() {
                    check_cells(rel, p, &groups, &aggs, got, &what);
                }
            }
        }
    }
}

/// The output holds one row per reference group, in order of first
/// appearance: the key, then every aggregate as the rid-order fold has it.
fn check_groups(
    rel: &Relation,
    groups: &[(Vec<Value>, Vec<Rid>)],
    aggs: &[AggExpr],
    got: &GroupByResult,
    what: &str,
) {
    assert_eq!(got.output.len(), groups.len(), "{what}");
    for (gid, (k, rows)) in groups.iter().enumerate() {
        assert_row(&got.output, gid, 0, k, &format!("{what} group {gid} key"));
        let want = reference_aggs(rel, aggs, rows);
        assert_row(
            &got.output,
            gid,
            k.len(),
            &want,
            &format!("{what} group {gid}"),
        );
    }
}

/// Each group's rows split by the attribute in column `p`, in ascending
/// attribute order, are its partitions; folded in rid order, its cube cells.
fn check_cells(
    rel: &Relation,
    p: usize,
    groups: &[(Vec<Value>, Vec<Rid>)],
    aggs: &[AggExpr],
    got: &GroupByResult,
    what: &str,
) {
    let parts = got.artifacts.partitioned.as_ref().unwrap();
    let cube = got.artifacts.cube.as_ref().unwrap();
    for (gid, (_, rows)) in groups.iter().enumerate() {
        let mut cells: Vec<(Value, Vec<Rid>)> = Vec::new();
        for &r in rows {
            let a = rel.value(r as usize, p);
            match cells.iter_mut().find(|(v, _)| *v == a) {
                Some((_, cell)) => cell.push(r),
                None => cells.push((a, vec![r])),
            }
        }
        cells.sort_by(|x, y| x.0.total_cmp(&y.0));
        let got_parts: Vec<(Vec<Value>, Vec<Rid>)> = (parts.partitions(gid))
            .map(|(k, rids)| (k.to_vec(), rids.to_vec()))
            .collect();
        let want_parts: Vec<(Vec<Value>, Vec<Rid>)> = (cells.iter())
            .map(|(a, rids)| (vec![a.clone()], rids.clone()))
            .collect();
        assert_eq!(got_parts, want_parts, "{what} group {gid} partitions");
        let answer = cube.query(gid).unwrap();
        assert_eq!(answer.len(), cells.len(), "{what} group {gid} cells");
        for (c, (a, rids)) in cells.iter().enumerate() {
            let cell = format!("{what} group {gid} cell {a:?}");
            assert_row(&answer, c, 0, std::slice::from_ref(a), &cell);
            assert_row(&answer, c, 1, &reference_aggs(rel, aggs, rids), &cell);
        }
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

#[test]
fn batch_edges_match_the_nested_loops() {
    for n in [BATCH - 1, BATCH, BATCH + 1, 3 * BATCH + 7] {
        // 211 keys, most first seen in the first batch; one new key first
        // seen in the middle of every batch; and, three rows from the end, a
        // key far outside the dense domain: the resident γ hashes from the
        // start, and the paged one, a batch per chunk, demotes its dense
        // table to hashing at the last chunk. With 97 values of `p` the
        // finer core's dense cells outgrow their cap part-way through the
        // first ingest and are demoted there.
        let keys: Vec<i64> = (0..n)
            .map(|i| match i {
                _ if i + 3 == n => 1 << 40,
                _ if i % BATCH == BATCH / 2 + 3 => 1000 + (i / BATCH) as i64,
                _ => (i * 7919 % 211) as i64,
            })
            .collect();
        let rel = relation("batches", vec![("k", Column::Int(keys))]);
        check_group_by(&rel, &names(&["k"]));
    }
}
