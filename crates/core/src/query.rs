//! Lineage and lineage-consuming query evaluation (paper §2.1, §6.3, §6.4).
//!
//! A lineage query is evaluated as a secondary index scan: probe the backward
//! (or forward) index and use the resulting rids as array offsets into the
//! base relation. A lineage-consuming query further filters / aggregates that
//! rid set: an ordinary query over the traced subset, so the aggregation is
//! the group-by operator core itself ([`crate::ops::groupby`]) ingesting the
//! rid list — no intermediate relation is materialized and no second hash
//! table or aggregate fold exists.

use std::borrow::Cow;
use std::time::Instant;

use smoke_lineage::PartitionedRidIndex;
use smoke_storage::{Relation, Rid, Value};

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::ops::groupby::{GroupByCore, GroupByOptions};
use crate::workload::LineageCube;

/// Materializes the rows of `relation` identified by `rids` (a plain lineage
/// query `SELECT * FROM L(...)`).
pub fn gather_rows(relation: &Relation, rids: &[Rid]) -> Relation {
    relation.gather(rids, format!("lineage({})", relation.name()))
}

/// Evaluates a lineage-consuming aggregation over the subset of `relation`
/// identified by `rids`: `SELECT keys, aggs FROM subset GROUP BY keys`.
///
/// The evaluation is an index scan: only the given rids are touched.
pub fn consume_aggregate(
    relation: &Relation,
    rids: &[Rid],
    keys: &[String],
    aggs: &[AggExpr],
) -> Result<Relation> {
    consume_filter_aggregate(relation, rids, None, keys, aggs)
}

/// Evaluates a lineage-consuming filter + aggregation over a rid subset:
/// `SELECT keys, aggs FROM subset WHERE predicate GROUP BY keys` — the
/// group-by operator itself, uninstrumented, ingesting the surviving rids
/// instead of a range (groups appear in the order the rids first reach them).
pub fn consume_filter_aggregate(
    relation: &Relation,
    rids: &[Rid],
    predicate: Option<&Expr>,
    keys: &[String],
    aggs: &[AggExpr],
) -> Result<Relation> {
    let start = Instant::now();
    // The filter runs through the kernel layer up front, reading only the
    // given rids, so the group-by touches only surviving rids.
    let filtered: Cow<'_, [Rid]> = match predicate {
        Some(p) => Cow::Owned(crate::kernels::filter_rids(relation, p, rids)?),
        None => Cow::Borrowed(rids),
    };
    let opts = GroupByOptions::baseline();
    let mut core = GroupByCore::new(keys, aggs, &opts, filtered.len());
    core.ingest(relation, &filtered[..], 0)?;
    Ok(core.finish(relation, start)?.output.with_name("consume"))
}

/// Evaluates a lineage-consuming aggregation using a data-skipping partitioned
/// index (§4.2): only the rid partition whose partition attributes equal
/// `parameter` (one value per attribute, under [`Value::total_cmp`]) for the
/// given base-query output is scanned.
pub fn consume_with_skipping(
    relation: &Relation,
    index: &PartitionedRidIndex,
    output_rid: Rid,
    parameter: &[Value],
    keys: &[String],
    aggs: &[AggExpr],
) -> Result<Relation> {
    let rids = index.partition(output_rid as usize, parameter);
    consume_aggregate(relation, rids, keys, aggs)
}

/// Answers a push-down lineage-consuming aggregation from the materialized
/// cube (§4.2): no base-relation access at all.
pub fn consume_from_cube(cube: &LineageCube, output_rid: Rid) -> Result<Relation> {
    cube.query(output_rid as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::filter_rids;
    use crate::ops::groupby::group_by;
    use proptest::prelude::*;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        let mut b = Relation::builder("items")
            .column("month", DataType::Str)
            .column("qty", DataType::Float)
            .column("mode", DataType::Str);
        let rows = [
            ("jan", 1.0, "AIR"),
            ("jan", 2.0, "MAIL"),
            ("feb", 3.0, "AIR"),
            ("feb", 4.0, "AIR"),
            ("mar", 5.0, "MAIL"),
        ];
        for (m, q, md) in rows {
            b = b.row(vec![
                Value::Str(m.into()),
                Value::Float(q),
                Value::Str(md.into()),
            ]);
        }
        b.build().unwrap()
    }

    #[test]
    fn gather_rows_materializes_subset() {
        let r = rel();
        let sub = gather_rows(&r, &[4, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.value(0, 0), Value::Str("mar".into()));
    }

    #[test]
    fn consume_aggregate_over_rid_subset() {
        let r = rel();
        let out = consume_aggregate(
            &r,
            &[0, 1, 2, 3],
            &["month".to_string()],
            &[AggExpr::count("cnt"), AggExpr::sum("qty", "total")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, 0), Value::Str("jan".into()));
        assert_eq!(out.value(0, 2), Value::Float(3.0));
        assert_eq!(out.value(1, 2), Value::Float(7.0));
    }

    #[test]
    fn consume_with_filter() {
        let r = rel();
        let out = consume_filter_aggregate(
            &r,
            &[0, 1, 2, 3, 4],
            Some(&Expr::col("mode").eq(Expr::lit("AIR"))),
            &["month".to_string()],
            &[AggExpr::count("cnt")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, 1), Value::Int(1)); // jan: one AIR row
        assert_eq!(out.value(1, 1), Value::Int(2)); // feb: two AIR rows
    }

    #[test]
    fn consume_with_skipping_scans_one_partition() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.skipping_partition_by = vec!["mode".to_string()];
        let captured = group_by(&r, &[], &[AggExpr::count("c")], &opts).unwrap();
        let idx = captured.artifacts.partitioned.as_ref().unwrap();
        let out = consume_with_skipping(
            &r,
            idx,
            0,
            &[Value::Str("MAIL".into())],
            &["month".to_string()],
            &[AggExpr::sum("qty", "total")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.value(0, 1), Value::Float(2.0));
        assert_eq!(out.value(1, 1), Value::Float(5.0));
    }

    #[test]
    fn empty_rid_set_gives_empty_result() {
        let r = rel();
        let out =
            consume_aggregate(&r, &[], &["month".to_string()], &[AggExpr::count("c")]).unwrap();
        assert_eq!(out.len(), 0);
    }

    /// `t(d, w, c, s, v)`: `d` a dense int, `w` the same groups spread over a
    /// domain too wide for the dense gid table (hashed), `c` a second int for
    /// pair keys, `s` a string, `v` the aggregated float.
    fn table(rows: &[(i64, i64)]) -> Relation {
        let mut b = Relation::builder("t")
            .column("d", DataType::Int)
            .column("w", DataType::Int)
            .column("c", DataType::Int)
            .column("s", DataType::Str)
            .column("v", DataType::Float);
        for &(x, y) in rows {
            b = b.row(vec![
                Value::Int(x),
                Value::Int(x * 1_000_003),
                Value::Int(y % 3),
                Value::Str(["red", "green", "blue"][(y % 3) as usize].into()),
                Value::Float(y as f64 * 0.25),
            ]);
        }
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A consuming query is the group-by operator over the traced rows:
        /// for any rid list (empty, unsorted, with duplicates), every key
        /// shape and every aggregate, it equals `group_by` over the gathered
        /// (and filtered) rows, row for row.
        #[test]
        fn consume_is_group_by_over_the_traced_rows(
            rows in prop::collection::vec((0i64..6, 0i64..40), 0..60),
            picks in prop::collection::vec(0usize..1000, 0..120),
            cut in 0i64..40,
        ) {
            let rel = table(&rows);
            let rids: Vec<Rid> = match rel.len() {
                0 => Vec::new(),
                n => picks.iter().map(|p| (p % n) as Rid).collect(),
            };
            let pred = Expr::col("v").lt(Expr::lit(cut as f64 * 0.25));
            let aggs = [
                AggExpr::count("cnt"),
                AggExpr::sum("v", "sum"),
                AggExpr::sum_sq("v", "sum_sq"),
                AggExpr::sum_sqrt("v", "sum_sqrt"),
                AggExpr::min("v", "min"),
                AggExpr::max("v", "max"),
                AggExpr::avg("v", "avg"),
                AggExpr::count_distinct("s", "dcnt"),
            ];
            let shapes: [&[&str]; 6] = [&["d"], &["w"], &["d", "c"], &["s"], &["s", "d", "c"], &[]];
            for keys in shapes {
                let keys: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
                for pred in [None, Some(&pred)] {
                    let got = consume_filter_aggregate(&rel, &rids, pred, &keys, &aggs).unwrap();
                    let kept = match pred {
                        Some(p) => filter_rids(&rel, p, &rids).unwrap(),
                        None => rids.clone(),
                    };
                    let traced = gather_rows(&rel, &kept);
                    let want = group_by(&traced, &keys, &aggs, &GroupByOptions::baseline()).unwrap();
                    prop_assert_eq!(got.schema(), want.output.schema());
                    prop_assert_eq!(got.len(), want.output.len());
                    for row in 0..got.len() {
                        prop_assert_eq!(got.row_values(row), want.output.row_values(row));
                    }
                }
            }
        }
    }
}
