//! Property-based equivalence between the planner's strategies: on random
//! group-by/select queries, `LazyRewrite` and `EagerTrace` backward lineage
//! must agree rid-for-rid, and a lineage-consuming aggregate evaluated both
//! ways must produce the same relation.

use proptest::prelude::*;
use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::{AggExpr, AggPushdown, CaptureMode, EngineError, Executor, Expr, PlanBuilder};
use smoke_planner::{LineagePlanner, LineageQuery, RewriteInfo, Strategy};
use smoke_storage::{DataType, Database, Relation, Rid, Value};

/// Builds `t(z, v)` from generated `(z, v)` pairs (`v` stored as a float).
fn table_from(rows: &[(i64, i64)]) -> Relation {
    let mut b = Relation::builder("t")
        .column("z", DataType::Int)
        .column("v", DataType::Float);
    for &(z, v) in rows {
        b = b.row(vec![Value::Int(z), Value::Float(v as f64)]);
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_and_eager_backward_lineage_agree_rid_for_rid(
        rows in prop::collection::vec((0i64..6, 0i64..100), 1..60),
        cut in 1i64..110,
        picks in prop::collection::vec(0u32..8, 0..8),
    ) {
        let table = table_from(&rows);
        let mut db = Database::new();
        db.register(table.clone()).unwrap();

        // Base query: SELECT z, COUNT(*), SUM(v) FROM t WHERE v < cut GROUP BY z.
        let plan = PlanBuilder::scan("t")
            .select(Expr::col("v").lt(Expr::lit(cut as f64)))
            .group_by(&["z"], vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")])
            .build();
        let out = Executor::new(CaptureMode::Inject).execute(&plan, &db).unwrap();
        let rewrite = RewriteInfo::from_plan(&plan).unwrap();
        let planner = LineagePlanner::from_query_output(&out, &table, "t").rewrite(rewrite);

        let rids: Vec<Rid> = picks;
        let q = LineageQuery::backward().rids(rids.clone());
        let eager = planner.execute_with(Strategy::EagerTrace, &q).unwrap();
        let lazy = planner.execute_with(Strategy::LazyRewrite, &q).unwrap();
        prop_assert_eq!(&eager.rids, &lazy.rids, "backward lineage must agree rid-for-rid");

        // Lineage-consuming aggregate: re-group the traced rows by z.
        let qa = LineageQuery::backward().rids(rids).aggregate(
            &["z"],
            vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
        );
        let eager_rows = planner
            .execute_with(Strategy::EagerTrace, &qa)
            .unwrap()
            .rows
            .unwrap();
        let lazy_rows = planner
            .execute_with(Strategy::LazyRewrite, &qa)
            .unwrap()
            .rows
            .unwrap();
        prop_assert_eq!(normalized(&eager_rows), normalized(&lazy_rows));
    }

    #[test]
    fn lazy_and_eager_agree_with_residual_filters(
        rows in prop::collection::vec((0i64..4, 0i64..50), 1..40),
        filter_cut in 1i64..60,
        pick in 0u32..4,
    ) {
        let table = table_from(&rows);
        let mut db = Database::new();
        db.register(table.clone()).unwrap();
        let plan = PlanBuilder::scan("t")
            .group_by(&["z"], vec![AggExpr::count("cnt")])
            .build();
        let out = Executor::new(CaptureMode::Inject).execute(&plan, &db).unwrap();
        let planner = LineagePlanner::from_query_output(&out, &table, "t")
            .rewrite(RewriteInfo::from_plan(&plan).unwrap());

        // Filter-only consumption: the traced rid set restricted by v > cut.
        let q = LineageQuery::backward()
            .rids([pick])
            .filter(Expr::col("v").gt(Expr::lit(filter_cut as f64)));
        let eager = planner.execute_with(Strategy::EagerTrace, &q).unwrap();
        let lazy = planner.execute_with(Strategy::LazyRewrite, &q).unwrap();
        prop_assert_eq!(&eager.rids, &lazy.rids);
        for &rid in &eager.rids {
            let v = table.value(rid as usize, 1);
            prop_assert!(matches!(v, Value::Float(f) if f > filter_cut as f64));
        }
    }

    #[test]
    fn batch_tracing_matches_single_set_traces(
        rows in prop::collection::vec((0i64..8, 0i64..100), 1..80),
        sets in prop::collection::vec(prop::collection::vec(0u32..10, 0..5), 0..12),
    ) {
        let table = table_from(&rows);
        let mut db = Database::new();
        db.register(table.clone()).unwrap();
        let plan = PlanBuilder::scan("t")
            .group_by(&["z"], vec![AggExpr::count("cnt")])
            .build();
        let out = Executor::new(CaptureMode::Inject).execute(&plan, &db).unwrap();
        let planner = LineagePlanner::from_query_output(&out, &table, "t");

        let q = LineageQuery::backward();
        let batched = planner.execute_batch(&q, &sets).unwrap();
        prop_assert_eq!(batched.len(), sets.len());
        for (set, batch_result) in sets.iter().zip(&batched) {
            let single = planner
                .execute(&LineageQuery::backward().rids(set.clone()))
                .unwrap();
            prop_assert_eq!(&single.rids, batch_result);
        }
    }
}

fn normalized(rel: &Relation) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = (0..rel.len())
        .map(|r| {
            rel.row_values(r)
                .iter()
                .map(|v| v.group_key())
                .collect::<Vec<_>>()
        })
        .collect();
    rows.sort();
    rows
}

/// `CubeHit` and a forced `EagerTrace` answer one drill-down with one schema
/// — also for a group none of whose rows passed the selection push-down,
/// whose cube entry has no cell to read the attribute types off.
#[test]
fn cube_hit_and_eager_trace_agree_on_the_schema_of_an_empty_answer() {
    // `v` doubles as the (Int-valued) partition attribute's source: z = 0
    // rows pass `v < 10`, every z = 1 row fails it.
    let mut b = Relation::builder("t")
        .column("z", DataType::Int)
        .column("v", DataType::Float)
        .column("bin", DataType::Int);
    for (z, v) in [(0, 1.0), (1, 50.0), (0, 2.0), (1, 60.0)] {
        b = b.row(vec![
            Value::Int(z),
            Value::Float(v),
            Value::Int(v as i64 % 2),
        ]);
    }
    let table = b.build().unwrap();
    let aggs = vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")];
    let mut opts = GroupByOptions::inject();
    opts.workload.selection_pushdown = Some(Expr::col("v").lt(Expr::lit(10.0)));
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["bin".to_string()],
        aggs: aggs.clone(),
    });
    let captured = group_by(&table, &["z".to_string()], &[], &opts).unwrap();
    let planner = LineagePlanner::new(&table, &captured.output)
        .lineage(captured.lineage.input(0))
        .artifacts(&captured.artifacts);

    let answers: Vec<[Relation; 2]> = [0, 1]
        .map(|group| {
            let q = LineageQuery::backward()
                .rids([group])
                .aggregate(&["bin"], aggs.clone());
            [Strategy::CubeHit, Strategy::EagerTrace]
                .map(|s| planner.execute_with(s, &q).unwrap().rows.unwrap())
        })
        .into();
    let [[hit, traced], [empty_hit, empty_traced]] = &answers[..] else {
        unreachable!()
    };
    assert_eq!(normalized(hit), normalized(traced));
    assert_eq!((hit.len(), empty_hit.len(), empty_traced.len()), (2, 0, 0));
    assert_eq!(hit.schema(), traced.schema());
    assert_eq!(empty_hit.schema(), hit.schema());
    assert_eq!(empty_hit.schema(), empty_traced.schema());
}

/// A `Str` in boolean position is a type error before any row is read: both
/// operand orders fail alike under eager and lazy, on every selection width,
/// the empty one included.
#[test]
fn an_ill_typed_filter_fails_alike_under_every_strategy() {
    let table = table_from(&[(0, 1), (1, 50), (0, 2), (2, 60)]);
    let captured = group_by(
        &table,
        &["z".to_string()],
        &[AggExpr::count("cnt")],
        &GroupByOptions::inject(),
    )
    .unwrap();
    let planner = LineagePlanner::new(&table, &captured.output)
        .lineage(captured.lineage.input(0))
        .rewrite(RewriteInfo::new(vec!["z".to_string()], None));
    let z_neg = Expr::col("z").lt(Expr::lit(0));
    for filter in [z_neg.clone().and(Expr::lit("x")), Expr::lit("x").and(z_neg)] {
        for rids in [vec![], vec![0], vec![2, 0, 1]] {
            let q = LineageQuery::backward().rids(rids).filter(filter.clone());
            for strategy in [Strategy::EagerTrace, Strategy::LazyRewrite] {
                let got = planner.execute_with(strategy, &q);
                assert!(
                    matches!(got, Err(EngineError::Expression(_))),
                    "{strategy:?} {filter:?}: {got:?}"
                );
            }
        }
    }
}
