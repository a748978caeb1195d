//! Integration tests for the workload-aware optimizations (§4) over the
//! TPC-H-like data: data skipping, aggregation push-down, instrumentation
//! pruning, and their equivalence with the lazy rewrites.

use smoke::core::lazy::{backward_predicate, lazy_consume};
use smoke::core::query::{consume_aggregate, consume_from_cube, consume_with_skipping};
use smoke::core::{AggPushdown, CaptureConfig, DirectionFilter, WorkloadOptions};
use smoke::datagen::tpch::TpchSpec;
use smoke::datagen::tpch_queries::{
    drilldown_aggs, q1, q1_shipdate_cutoff, q1a_keys, q1b_partition_attrs, q3,
};
use smoke::prelude::*;

fn db() -> Database {
    TpchSpec {
        scale_factor: 0.0015,
        seed: 7,
    }
    .generate()
}

fn normalized(rel: &Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..rel.len())
        .map(|rid| {
            rel.row_values(rid)
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn q1a_index_scan_matches_lazy_rewrite() {
    let db = db();
    let lineitem = db.relation("lineitem").unwrap();
    let out = Executor::new(CaptureMode::Inject)
        .execute(&q1(), &db)
        .unwrap();
    let base_sel = Expr::col("l_shipdate").lt(Expr::lit(q1_shipdate_cutoff()));

    for bar in 0..out.relation.len() as u32 {
        let keys = vec![
            out.relation.value(bar as usize, 0),
            out.relation.value(bar as usize, 1),
        ];
        let rewrite = backward_predicate(
            &["l_returnflag".to_string(), "l_linestatus".to_string()],
            &keys,
            Some(&base_sel),
        );
        let lazy = lazy_consume(lineitem, &rewrite, None, &q1a_keys(), &drilldown_aggs()).unwrap();

        let rids = out.lineage.backward(&[bar], "lineitem");
        let eager = consume_aggregate(lineitem, &rids, &q1a_keys(), &drilldown_aggs()).unwrap();
        assert_eq!(normalized(&lazy), normalized(&eager), "bar {bar}");
    }
}

#[test]
fn data_skipping_partition_equals_filtered_index_scan() {
    let db = db();
    let lineitem = db.relation("lineitem").unwrap();
    let cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        skipping_partition_by: q1b_partition_attrs(),
        ..Default::default()
    });
    let out = Executor::with_config(cfg).execute(&q1(), &db).unwrap();
    let index = out
        .artifacts
        .partitioned
        .as_ref()
        .expect("partitioned index");

    let bar = 0u32;
    let rids = out.lineage.backward(&[bar], "lineitem");
    for mode in ["MAIL", "AIR"] {
        for instruct in ["NONE", "COLLECT COD"] {
            let skipped = consume_with_skipping(
                lineitem,
                index,
                bar,
                &[Value::Str(mode.into()), Value::Str(instruct.into())],
                &q1a_keys(),
                &drilldown_aggs(),
            )
            .unwrap();
            let filtered = smoke::core::query::consume_filter_aggregate(
                lineitem,
                &rids,
                Some(
                    &Expr::col("l_shipmode")
                        .eq(Expr::lit(mode))
                        .and(Expr::col("l_shipinstruct").eq(Expr::lit(instruct))),
                ),
                &q1a_keys(),
                &drilldown_aggs(),
            )
            .unwrap();
            assert_eq!(
                normalized(&skipped),
                normalized(&filtered),
                "{mode}/{instruct}"
            );
        }
    }
}

#[test]
fn aggregation_pushdown_cube_matches_index_scan() {
    let db = db();
    let lineitem = db.relation("lineitem").unwrap();
    let aggs = drilldown_aggs();
    let cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        agg_pushdown: Some(AggPushdown {
            partition_by: vec!["l_tax".to_string()],
            aggs: aggs.clone(),
        }),
        ..Default::default()
    });
    let out = Executor::with_config(cfg).execute(&q1(), &db).unwrap();
    let cube = out.artifacts.cube.as_ref().expect("cube");

    for bar in 0..out.relation.len() as u32 {
        let rids = out.lineage.backward(&[bar], "lineitem");
        let eager = consume_aggregate(lineitem, &rids, &["l_tax".to_string()], &aggs).unwrap();
        let from_cube = consume_from_cube(cube, bar).unwrap();
        assert_eq!(normalized(&eager), normalized(&from_cube), "bar {bar}");
    }
}

#[test]
fn pruned_relations_capture_nothing_but_results_are_identical() {
    let db = db();
    let full = Executor::new(CaptureMode::Inject)
        .execute(&q3(), &db)
        .unwrap();
    let cfg = CaptureConfig::inject()
        .default_directions(DirectionFilter::None)
        .prune("lineitem", DirectionFilter::BackwardOnly);
    let pruned = Executor::with_config(cfg).execute(&q3(), &db).unwrap();

    assert_eq!(full.relation, pruned.relation);
    assert_eq!(pruned.lineage.tables(), vec!["lineitem"]);
    assert!(pruned.lineage.table("lineitem").unwrap().forward.is_none());
    // The captured backward lineage agrees with the full capture.
    for bar in 0..full.relation.len().min(20) as u32 {
        let mut a = full.lineage.backward(&[bar], "lineitem");
        let mut b = pruned.lineage.backward(&[bar], "lineitem");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

#[test]
fn selection_pushdown_restricts_indexes_to_matching_rows() {
    let db = db();
    let lineitem = db.relation("lineitem").unwrap();
    let cutoff = 0.03;
    let cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        selection_pushdown: Some(Expr::col("l_tax").lt(Expr::lit(cutoff))),
        ..Default::default()
    });
    let out = Executor::with_config(cfg).execute(&q1(), &db).unwrap();
    let full = Executor::new(CaptureMode::Inject)
        .execute(&q1(), &db)
        .unwrap();
    assert_eq!(out.relation, full.relation);

    let tax = lineitem.column_by_name("l_tax").unwrap().as_float();
    let mut pruned_total = 0usize;
    let mut full_total = 0usize;
    for bar in 0..out.relation.len() as u32 {
        let rids = out.lineage.backward(&[bar], "lineitem");
        pruned_total += rids.len();
        full_total += full.lineage.backward(&[bar], "lineitem").len();
        assert!(rids.iter().all(|&r| tax[r as usize] < cutoff));
    }
    assert!(
        pruned_total < full_total,
        "push-down should shrink the index"
    );
}
