//! An independent oracle for the §4.2 artifacts. The data-skipping
//! partitions and the push-down cube are the groups of a finer γ keyed by
//! `(coarse gid, partition attributes)`; `chunk_source_equivalence.rs`
//! diffs every driver against the resident run of that same γ, so it cannot
//! see a bug shared by all of them. This suite computes what the artifacts
//! must hold with a `BTreeMap` over the rows, keyed by typed values — no
//! code shared with `smoke-core` — and checks every partition and cube cell
//! that the resident, morsel and page-run drivers produce, and that each
//! output's partitions and cube rows come in ascending typed key order.
//!
//! Float columns hold multiples of 0.5, so every sum is exact whatever the
//! order of addition.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::Arc;

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::parallel::{par_group_by, ParallelOptions};
use smoke_core::{paged_group_by, AggExpr, AggPushdown, CaptureMode, Expr};
use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
use smoke_storage::{DataType, PagedRelation, Relation, Rid, Value, ROWS_PER_PAGE};

const ROWS: usize = 3000;

/// Three pages of rows. Coarse keys: `z` (20 keys, then 60 from row 1500 on,
/// so later page runs add coarse groups), `fine` (600 keys) and `k` (`Str`).
/// Partition attributes:
/// - `bin`: dense `Int` in `0..8`;
/// - `neg`: negative `Int` in `-6..=2`;
/// - `sparse`: `Int` multiples of 10^9 + 7, wider than any dense table;
/// - `wide`: `Int` in `0..40` — under the 600 `fine` groups that is 24 000
///   slots, past the 4 × rows cap, so the dense table demotes mid-scan;
/// - `grow`: `Int` whose domain widens, both ways, with every page;
/// - `f`: `Float`; `tag` and `tag2`: `Str`s holding `|` and `\`, whose
///   pairs include `("a|b", "c")` and `("a", "b|c")` under one coarse key.
fn table() -> Relation {
    let tags = ["a", "a|b", "b", "b|c", "c\\", "\\|"];
    let tags2 = ["c", "b|c", "", "\\|"];
    let mut b = Relation::builder("facts");
    for (name, ty) in [
        ("z", DataType::Int),
        ("fine", DataType::Int),
        ("k", DataType::Str),
        ("v", DataType::Float),
        ("bin", DataType::Int),
        ("neg", DataType::Int),
        ("sparse", DataType::Int),
        ("wide", DataType::Int),
        ("grow", DataType::Int),
        ("f", DataType::Float),
        ("tag", DataType::Str),
        ("tag2", DataType::Str),
    ] {
        b = b.column(name, ty);
    }
    for i in 0..ROWS as i64 {
        let page = i / ROWS_PER_PAGE as i64;
        let z = if i < 1500 { (i * i) % 20 } else { (i * 7) % 60 };
        let grow = match i % 2 {
            0 => page * 5 + i % 3,
            _ => -page * 2 - i % 3,
        };
        b = b.row(vec![
            Value::Int(z),
            Value::Int(i / 5),
            Value::Str(format!("k{}", i % 9)),
            Value::Float((i % 61) as f64 * 0.5),
            Value::Int((i * 13) % 8),
            Value::Int((i % 9) - 6),
            Value::Int((i % 13) * 1_000_000_007),
            Value::Int((i * 17) % 40),
            Value::Int(grow),
            Value::Float((i % 5) as f64 * 0.25),
            Value::Str(tags[(i % 6) as usize].into()),
            Value::Str(tags2[(i / 7 % 4) as usize].into()),
        ]);
    }
    b.build().unwrap()
}

fn strs(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| n.to_string()).collect()
}

/// A key of typed values, ordered lexicographically by `Value::total_cmp`.
#[derive(Debug, Clone)]
struct Key(Vec<Value>);

impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        let pairs = self.0.iter().zip(&other.0);
        let first_difference = pairs.map(|(a, b)| a.total_cmp(b)).find(|o| o.is_ne());
        first_difference.unwrap_or_else(|| self.0.len().cmp(&other.0.len()))
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

fn values(table: &Relation, row: usize, names: &[String]) -> Key {
    let col = |n: &String| table.column_index(n).unwrap();
    Key(names.iter().map(|n| table.value(row, col(n))).collect())
}

/// Whether `keys` ascend strictly.
fn ascending(keys: &[Key]) -> bool {
    keys.windows(2).all(|w| w[0] < w[1])
}

/// One expected cell: its rids, ascending, and `COUNT(*)`, `SUM(v)`.
#[derive(Debug, Default)]
struct Cell {
    rids: Vec<Rid>,
    count: i64,
    sum: f64,
}

/// The cells of partitioning the rows that `pass` by `attrs` under each
/// coarse key: `(coarse key, partition key) → cell`.
fn oracle(
    table: &Relation,
    keys: &[String],
    attrs: &[String],
    pass: &dyn Fn(usize) -> bool,
) -> BTreeMap<(Key, Key), Cell> {
    let v = table.column_index("v").unwrap();
    let mut cells: BTreeMap<(Key, Key), Cell> = BTreeMap::new();
    for row in (0..table.len()).filter(|&r| pass(r)) {
        let at = (values(table, row, keys), values(table, row, attrs));
        let cell = cells.entry(at).or_default();
        cell.rids.push(row as Rid);
        cell.count += 1;
        let Value::Float(x) = table.value(row, v) else {
            unreachable!("v is a Float column")
        };
        cell.sum += x;
    }
    cells
}

fn cube_aggs() -> Vec<AggExpr> {
    vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")]
}

/// Inject with partitions on `skip` and a `COUNT(*), SUM(v)` cube on `cube`
/// (either may be empty for "none").
fn opts(skip: &[&str], cube: &[&str]) -> GroupByOptions {
    let mut opts = GroupByOptions::inject();
    opts.workload.skipping_partition_by = strs(skip);
    opts.workload.agg_pushdown = (!cube.is_empty()).then(|| AggPushdown {
        partition_by: strs(cube),
        aggs: cube_aggs(),
    });
    opts
}

/// Every driver's run of `GROUP BY keys` under `opts`.
fn runs(table: &Relation, keys: &[String], opts: &GroupByOptions) -> Vec<(String, GroupByResult)> {
    let aggs = [AggExpr::count("cnt")];
    let pool = BufferPool::new(SegmentStore::in_memory(), 2, ReplacementPolicy::Sieve);
    let paged = PagedRelation::spill(table, &Arc::new(pool)).unwrap();
    let par = ParallelOptions::new(2).with_morsel_rows(64);
    vec![
        ("resident", group_by(table, keys, &aggs, opts)),
        ("morsels", par_group_by(table, keys, &aggs, opts, &par)),
        (
            "page runs",
            paged_group_by(&paged, keys, &aggs, opts, ROWS_PER_PAGE),
        ),
    ]
    .into_iter()
    .map(|(name, run)| (name.to_string(), run.unwrap()))
    .collect()
}

/// Checks every partition and cube cell of every driver's run against the
/// oracle; `pass` is the selection push-down, evaluated independently.
fn check(keys: &[&str], opts: &GroupByOptions, pass: &dyn Fn(usize) -> bool) {
    let table = table();
    let keys = strs(keys);
    for (driver, got) in runs(&table, &keys, opts) {
        let ctx = format!("{driver}, GROUP BY {keys:?}, {:?}", opts.workload);
        let coarse: Vec<Key> = (0..got.output.len())
            .map(|out| Key(got.output.row_values(out)[..keys.len()].to_vec()))
            .collect();
        let skip = &opts.workload.skipping_partition_by;
        if !skip.is_empty() {
            let want: BTreeMap<_, _> = (oracle(&table, &keys, skip, pass).into_iter())
                .map(|(at, cell)| (at, cell.rids))
                .collect();
            let index = got.artifacts.partitioned.as_ref().expect(&ctx);
            let mut partitions = BTreeMap::new();
            for (out, coarse) in coarse.iter().enumerate() {
                let order: Vec<Key> = index
                    .partitions(out)
                    .map(|(k, _)| Key(k.to_vec()))
                    .collect();
                assert!(
                    ascending(&order),
                    "partitions of {out} in typed order: {ctx}"
                );
                for (key, rids) in index.partitions(out) {
                    partitions.insert((coarse.clone(), Key(key.to_vec())), rids.to_vec());
                }
            }
            assert_eq!(partitions, want, "{ctx}");
        }
        if let Some(pd) = &opts.workload.agg_pushdown {
            let want: BTreeMap<_, _> = (oracle(&table, &keys, &pd.partition_by, pass).into_iter())
                .map(|(at, cell)| (at, (Value::Int(cell.count), Value::Float(cell.sum))))
                .collect();
            let cube = got.artifacts.cube.as_ref().expect(&ctx);
            let attrs = pd.partition_by.len();
            let (mut cells, mut rows) = (BTreeMap::new(), 0);
            for (out, coarse) in coarse.iter().enumerate() {
                let drill = cube.query(out).unwrap();
                let mut order = Vec::new();
                for r in 0..drill.len() {
                    let row = drill.row_values(r);
                    order.push(Key(row[..attrs].to_vec()));
                    let at = (coarse.clone(), Key(row[..attrs].to_vec()));
                    cells.insert(at, (row[attrs].clone(), row[attrs + 1].clone()));
                }
                assert!(
                    ascending(&order),
                    "cube rows of {out} in typed order: {ctx}"
                );
                rows += drill.len();
            }
            assert_eq!(cells, want, "{ctx}");
            assert_eq!(rows, want.len(), "one drill-down row per cell: {ctx}");
        }
    }
}

fn every_row(_: usize) -> bool {
    true
}

#[test]
fn dense_int_attribute() {
    check(&["z"], &opts(&["bin"], &["bin"]), &every_row);
}

#[test]
fn negative_int_attribute() {
    check(&["z"], &opts(&["neg"], &["neg"]), &every_row);
}

#[test]
fn sparse_int_attribute_demotes_to_hashing() {
    // Wider than the cap at the first ingest.
    check(&["z"], &opts(&["sparse"], &["sparse"]), &every_row);
    // Within the cap per coarse group, past it once 600 groups have cells.
    check(&["fine"], &opts(&["wide"], &["wide"]), &every_row);
}

#[test]
fn page_runs_widen_the_attribute_domain() {
    // Every page widens `grow`'s domain on both ends and, past row 1500,
    // `z` gains coarse groups: the dense table re-lays out its slots.
    check(&["z"], &opts(&["grow"], &["grow"]), &every_row);
}

#[test]
fn float_and_str_attributes() {
    check(&["z"], &opts(&["f"], &["f"]), &every_row);
    check(&["z"], &opts(&["tag"], &["tag"]), &every_row);
    // A `Str` coarse key takes the generic coarse path.
    check(&["k"], &opts(&["bin"], &["tag"]), &every_row);
}

#[test]
fn two_attributes() {
    check(&["z"], &opts(&["tag", "bin"], &["bin", "tag"]), &every_row);
    check(
        &["z"],
        &opts(&["tag", "tag2"], &["tag", "tag2"]),
        &every_row,
    );
    check(&["k", "z"], &opts(&["tag", "f"], &["tag", "f"]), &every_row);
}

#[test]
fn split_skip_and_cube_attributes() {
    // Two finer cores, one per attribute list.
    check(&["z"], &opts(&["bin"], &["tag"]), &every_row);
    check(&["z"], &opts(&["neg"], &[]), &every_row);
    check(&["z"], &opts(&[], &["grow"]), &every_row);
}

#[test]
fn selection_pushdown_feeds_the_finer_cores() {
    let table = table();
    let v = table.column_by_name("v").unwrap().as_float().to_vec();
    let pass = move |row: usize| v[row] > 12.0;
    for (skip, cube) in [(&["bin"][..], &["bin"][..]), (&["tag"], &["grow"])] {
        let mut opts = opts(skip, cube);
        opts.workload.selection_pushdown = Some(Expr::col("v").gt(Expr::lit(12.0)));
        check(&["z"], &opts, &pass);
        opts.mode = CaptureMode::Defer;
        check(&["z"], &opts, &pass);
    }
}
