//! Property-based equivalence between the planner's strategies: on random
//! group-by/select queries, `LazyRewrite` and `EagerTrace` backward lineage
//! must agree rid-for-rid, and a lineage-consuming aggregate evaluated both
//! ways must produce the same relation. Over the §4.2 artifacts, typed
//! partition probes and cube rows must agree with both.

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

/// 2^53: the first integer past which `i64 as f64` stops being exact.
const BIG: i64 = 1 << 53;

/// The values one partition attribute draws from, per type: `Int` around
/// ±2^53, `Float` with both zeros, `Str` with separators, escapes and "".
fn attribute_values(ty: usize) -> (DataType, Vec<Value>) {
    match ty {
        0 => (
            DataType::Int,
            [BIG - 1, BIG, BIG + 1, BIG + 2, -BIG, -BIG - 1, 0, 1, -1, 3]
                .map(Value::Int)
                .to_vec(),
        ),
        1 => (
            DataType::Float,
            [0.0, -0.0, 1.5, -1.5, 3.0, BIG as f64, -(BIG as f64)]
                .map(Value::Float)
                .to_vec(),
        ),
        _ => (
            DataType::Str,
            ["a|b", "a", "b|c", "\\", "", "\\|", "3"]
                .map(|s| Value::Str(s.into()))
                .to_vec(),
        ),
    }
}

/// Equality literals of every type: each attribute value, each numeric
/// one as the other numeric type too (`-0.0` and the floats nearest ±2^53
/// included), and a few that match nothing.
fn literals() -> Vec<Value> {
    let mut all: Vec<Value> = (0..3).flat_map(|ty| attribute_values(ty).1).collect();
    let crossed: Vec<Value> = (all.iter())
        .filter_map(|v| match *v {
            Value::Int(i) => Some(Value::Float(i as f64)),
            Value::Float(f) if f.fract() == 0.0 => Some(Value::Int(f as i64)),
            _ => None,
        })
        .collect();
    all.extend(crossed);
    all.extend([Value::Float(0.5), Value::Int(2), Value::Str("zz".into())]);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Over one partition attribute of any type and every equality literal
    /// of any type, every feasible strategy among `PartitionPruned`,
    /// `EagerTrace` and `LazyRewrite` keeps the same rids and aggregates
    /// them alike, and a `CubeHit` answers what the eager trace re-groups.
    #[test]
    fn pruned_eager_lazy_and_cube_agree_on_typed_partitions(
        ty in 0usize..3,
        rows in prop::collection::vec((0i64..3, 0usize..16, 0i64..20), 1..40),
    ) {
        let (data_type, values) = attribute_values(ty);
        let mut b = Relation::builder("t")
            .column("z", DataType::Int)
            .column("p", data_type)
            .column("v", DataType::Float);
        for &(z, p, v) in &rows {
            let p = values[p % values.len()].clone();
            b = b.row(vec![Value::Int(z), p, Value::Float(v as f64 * 0.5)]);
        }
        let table = b.build().unwrap();
        let aggs = vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")];
        let mut opts = GroupByOptions::inject();
        opts.workload.skipping_partition_by = vec!["p".to_string()];
        opts.workload.agg_pushdown = Some(AggPushdown {
            partition_by: vec!["p".to_string()],
            aggs: aggs.clone(),
        });
        let captured = group_by(&table, &["z".to_string()], &[], &opts).unwrap();
        let planner = LineagePlanner::new(&table, &captured.output)
            .lineage(captured.lineage.input(0))
            .artifacts(&captured.artifacts)
            .rewrite(RewriteInfo::new(vec!["z".to_string()], None));

        for pick in 0..=captured.output.len() as Rid {
            for literal in literals() {
                let filter = Expr::col("p").eq(Expr::Literal(literal.clone()));
                let traced = LineageQuery::backward().rids([pick]).filter(filter);
                let counted = traced.clone().aggregate(&["p"], vec![AggExpr::count("cnt")]);
                for q in [&traced, &counted] {
                    let eager = planner.execute_with(Strategy::EagerTrace, q).unwrap();
                    let chosen = planner.execute(q).unwrap();
                    let ctx = format!("{data_type:?} p = {literal:?} under output {pick}");
                    prop_assert_eq!(&chosen.rids, &eager.rids, "{:?}: {}", chosen.strategy, ctx);
                    for strategy in [Strategy::PartitionPruned, Strategy::LazyRewrite] {
                        match planner.execute_with(strategy, q) {
                            Ok(got) => {
                                prop_assert_eq!(&got.rids, &eager.rids, "{:?}: {}", strategy, ctx);
                                prop_assert_eq!(
                                    got.rows.as_ref().map(normalized),
                                    eager.rows.as_ref().map(normalized),
                                    "{:?}: {}", strategy, ctx
                                );
                            }
                            Err(e) => prop_assert!(
                                strategy == Strategy::PartitionPruned
                                    && matches!(e, EngineError::InvalidPlan(_)),
                                "{:?}: {}: {:?}", strategy, ctx, e
                            ),
                        }
                    }
                }
            }

            let drill = LineageQuery::backward().rids([pick]).aggregate(&["p"], aggs.clone());
            let eager = planner.execute_with(Strategy::EagerTrace, &drill).unwrap();
            match planner.execute_with(Strategy::CubeHit, &drill) {
                Ok(hit) => prop_assert_eq!(
                    normalized(hit.rows.as_ref().unwrap()),
                    normalized(eager.rows.as_ref().unwrap())
                ),
                // A selection past the outputs resolves to no rid at all.
                Err(_) => prop_assert_eq!(pick as usize, captured.output.len()),
            }
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
