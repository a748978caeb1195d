//! The acceptance scenarios for the cost-based strategy choice: across four
//! query shapes over one captured workload, the planner must pick all four
//! strategies — `CubeHit`, `PartitionPruned`, `EagerTrace`, and
//! `LazyRewrite` — and the `Explain` output must name the choice and its
//! cost. Forced-strategy runs additionally check that every feasible
//! strategy returns the same answer.

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::{AggExpr, AggPushdown, Expr};
use smoke_datagen::zipf::{zipf_table_binned, ZipfSpec};
use smoke_planner::{Direction, LineagePlanner, LineageQuery, RewriteInfo, Strategy};
use smoke_storage::{DataType, Relation, Value};

const BINS: usize = 4;

fn workload() -> (Relation, GroupByResult) {
    let table = zipf_table_binned(
        &ZipfSpec {
            theta: 1.0,
            rows: 2_000,
            groups: 20,
            seed: 7,
        },
        BINS,
    );
    let mut opts = GroupByOptions::inject();
    opts.workload.skipping_partition_by = vec!["v_bin".to_string()];
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["v_bin".to_string()],
        aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    });
    let captured = group_by(&table, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
    (table, captured)
}

fn planner<'a>(table: &'a Relation, captured: &'a GroupByResult) -> LineagePlanner<'a> {
    LineagePlanner::new(table, &captured.output)
        .lineage(captured.lineage.input(0))
        .artifacts(&captured.artifacts)
        .rewrite(RewriteInfo::new(vec!["z".to_string()], None))
        .stats(captured.stats)
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

#[test]
fn cube_matching_aggregate_selects_cube_hit() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    let q = LineageQuery::backward().rids([0]).aggregate(
        &["v_bin"],
        vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    );

    let explain = p.explain(&q).unwrap();
    assert_eq!(explain.strategy, Strategy::CubeHit, "{}", explain.render());
    assert!(explain.cost.is_finite());
    assert!(
        explain.cost < explain.candidate_cost(Strategy::EagerTrace).unwrap(),
        "{}",
        explain.render()
    );
    assert!(explain.render().starts_with("strategy=CubeHit"));

    // The cube answer equals the eager trace + re-aggregation answer.
    let from_cube = p.execute(&q).unwrap();
    assert_eq!(from_cube.strategy, Strategy::CubeHit);
    let from_eager = p.execute_with(Strategy::EagerTrace, &q).unwrap();
    assert_eq!(
        normalized(from_cube.rows.as_ref().unwrap()),
        normalized(from_eager.rows.as_ref().unwrap())
    );
}

#[test]
fn partition_equality_filter_selects_partition_pruned() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    // The COUNT-only aggregate does not match the cube, and the equality
    // filter on the partition attribute makes data skipping applicable.
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);

    let explain = p.explain(&q).unwrap();
    assert_eq!(
        explain.strategy,
        Strategy::PartitionPruned,
        "{}",
        explain.render()
    );
    assert!(
        explain.cost < explain.candidate_cost(Strategy::EagerTrace).unwrap(),
        "pruning must be estimated cheaper than the full index scan: {}",
        explain.render()
    );
    let cube = explain
        .candidates
        .iter()
        .find(|c| c.strategy == Strategy::CubeHit)
        .unwrap();
    assert!(!cube.feasible);

    // Scanning one partition gives the same rids and aggregate as tracing
    // everything and filtering.
    let pruned = p.execute(&q).unwrap();
    assert_eq!(pruned.strategy, Strategy::PartitionPruned);
    let eager = p.execute_with(Strategy::EagerTrace, &q).unwrap();
    assert!(!pruned.rids.is_empty());
    assert_eq!(
        normalized(pruned.rows.as_ref().unwrap()),
        normalized(eager.rows.as_ref().unwrap())
    );
}

#[test]
fn partition_key_coerces_cross_type_equality_literals() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    // `v_bin` is an Int column; a Float literal 2.0 compares equal to Int(2)
    // under predicate evaluation, so the pruned partition probe must use key
    // "2", not "2.0" — a mismatch would silently return an empty result.
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2.0)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    let explain = p.explain(&q).unwrap();
    assert_eq!(explain.strategy, Strategy::PartitionPruned);
    let pruned = p.execute(&q).unwrap();
    let eager = p.execute_with(Strategy::EagerTrace, &q).unwrap();
    assert!(!pruned.rids.is_empty());
    assert_eq!(pruned.rids, eager.rids);
    assert_eq!(
        normalized(pruned.rows.as_ref().unwrap()),
        normalized(eager.rows.as_ref().unwrap())
    );

    // A non-integral Float literal can never equal an Int partition value:
    // pruning is infeasible, and the fallback strategy correctly returns an
    // empty match set.
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2.5)));
    let explain = p.explain(&q).unwrap();
    assert_ne!(explain.strategy, Strategy::PartitionPruned);
    assert!(p.execute(&q).unwrap().rids.is_empty());

    // Past 2^53 several integers round to one float: predicate evaluation
    // keeps both 2^53 and 2^53 + 1 under the literal 2^53, which no single
    // partition holds, so pruning must step aside.
    let table = wide_int_table();
    let captured = capture_on_p(&table);
    let p = planner(&table, &captured);
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("p").eq(Expr::lit(BIG as f64)));
    let explain = p.explain(&q).unwrap();
    assert_ne!(
        explain.strategy,
        Strategy::PartitionPruned,
        "{}",
        explain.render()
    );
    for strategy in [Strategy::EagerTrace, Strategy::LazyRewrite] {
        assert_eq!(p.execute_with(strategy, &q).unwrap().rids, vec![0, 1]);
    }
    assert_eq!(p.execute(&q).unwrap().rids, vec![0, 1]);
    // Below 2^53 an integral literal still prunes, and agrees.
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("p").eq(Expr::lit(-2.0)));
    assert_eq!(p.explain(&q).unwrap().strategy, Strategy::PartitionPruned);
    assert_eq!(p.execute(&q).unwrap().rids, vec![7]);
}

/// 2^53: the first integer past which `i64 as f64` stops being exact.
const BIG: i64 = 1 << 53;

/// `t(z, p, v)`: one `z` group whose `Int` attribute `p` holds 2^53 and its
/// neighbours among small values of both signs.
fn wide_int_table() -> Relation {
    let ps = [BIG, BIG + 1, BIG + 2, 3, 10, 2, -1, -2];
    let mut b = Relation::builder("t")
        .column("z", DataType::Int)
        .column("p", DataType::Int)
        .column("v", DataType::Float);
    for (i, p) in ps.into_iter().enumerate() {
        b = b.row(vec![Value::Int(0), Value::Int(p), Value::Float(i as f64)]);
    }
    b.build().unwrap()
}

/// `GROUP BY z` with partitions and a `COUNT(*), SUM(v)` cube on `p`.
fn capture_on_p(table: &Relation) -> GroupByResult {
    let mut opts = GroupByOptions::inject();
    opts.workload.skipping_partition_by = vec!["p".to_string()];
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["p".to_string()],
        aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    });
    group_by(table, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap()
}

#[test]
fn cube_rows_come_in_ascending_typed_key_order() {
    let table = wide_int_table();
    let captured = capture_on_p(&table);
    let p = planner(&table, &captured);
    let q = LineageQuery::backward().rids([0]).aggregate(
        &["p"],
        vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    );
    let hit = p.execute(&q).unwrap();
    assert_eq!(hit.strategy, Strategy::CubeHit);
    let rows = hit.rows.unwrap();
    let keys: Vec<Value> = (0..rows.len()).map(|r| rows.value(r, 0)).collect();
    let want = [-2, -1, 2, 3, 10, BIG, BIG + 1, BIG + 2].map(Value::Int);
    assert_eq!(keys, want);
    let eager = p.execute_with(Strategy::EagerTrace, &q).unwrap();
    assert_eq!(normalized(&rows), normalized(eager.rows.as_ref().unwrap()));
}

#[test]
fn batch_templates_with_selection_or_consumption_are_rejected() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    let sets = vec![vec![0u32], vec![1]];
    assert!(p.execute_batch(&LineageQuery::backward(), &sets).is_ok());
    // A filter (or aggregate) on the template would be silently ignored —
    // reject it instead.
    let filtered = LineageQuery::backward().filter(Expr::col("v").gt(Expr::lit(50.0)));
    assert!(p.execute_batch(&filtered, &sets).is_err());
    let aggregated = LineageQuery::backward().aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    assert!(p.execute_batch(&aggregated, &sets).is_err());
    // Same for a template carrying its own selection.
    let selected = LineageQuery::backward().rids([0]);
    assert!(p.execute_batch(&selected, &sets).is_err());
}

#[test]
fn plain_trace_selects_eager_over_lazy_on_cost() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    let q = LineageQuery::backward().rids([3]);

    let explain = p.explain(&q).unwrap();
    assert_eq!(
        explain.strategy,
        Strategy::EagerTrace,
        "{}",
        explain.render()
    );
    // Lazy is feasible (rewrite info is registered) but must lose on cost:
    // a full 2000-row scan against one group's index entry.
    let lazy = explain.candidate_cost(Strategy::LazyRewrite).unwrap();
    assert!(lazy.is_finite());
    assert!(explain.cost < lazy, "{}", explain.render());
    assert_eq!(explain.selection_width, 1);
    assert!(explain.est_fanout > 1.0);
}

#[test]
fn pruned_capture_falls_back_to_lazy_rewrite() {
    let (table, captured) = workload();
    // Simulate instrumentation pruning: no indexes or artifacts survive, only
    // the knowledge of the base query (its group-by key) remains.
    let p = LineagePlanner::new(&table, &captured.output)
        .rewrite(RewriteInfo::new(vec!["z".to_string()], None));
    let q = LineageQuery::backward().rids([0, 4]);

    let explain = p.explain(&q).unwrap();
    assert_eq!(
        explain.strategy,
        Strategy::LazyRewrite,
        "{}",
        explain.render()
    );
    let eager = explain
        .candidates
        .iter()
        .find(|c| c.strategy == Strategy::EagerTrace)
        .unwrap();
    assert!(!eager.feasible);
    assert!(explain.render().contains("EagerTrace=inf"));

    // The lazy result agrees rid-for-rid with the eager trace from the
    // fully-captured planner.
    let lazy = p.execute(&q).unwrap();
    let full = planner(&table, &captured);
    let eager = full.execute_with(Strategy::EagerTrace, &q).unwrap();
    assert_eq!(lazy.rids, eager.rids);
    assert!(!lazy.rids.is_empty());
}

#[test]
fn predicate_selection_resolves_to_matching_outputs() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    // Select output groups by a predicate over the output relation.
    let q = LineageQuery::backward().matching(Expr::col("cnt").ge(Expr::lit(150)));
    let plan = p.plan(&q).unwrap();
    assert!(plan.explain.selection_width >= 1);
    let result = p.execute_plan(&plan, &q).unwrap();

    // Equivalent explicit-rid query.
    let wide: Vec<u32> = (0..captured.output.len())
        .filter(|&g| captured.output.column_by_name("cnt").unwrap().as_int()[g] >= 150)
        .map(|g| g as u32)
        .collect();
    assert_eq!(wide.len(), plan.explain.selection_width);
    let explicit = p.execute(&LineageQuery::backward().rids(wide)).unwrap();
    assert_eq!(result.rids, explicit.rids);
}

#[test]
fn infeasible_everything_is_a_planning_error() {
    let (table, captured) = workload();
    let bare = LineagePlanner::new(&table, &captured.output);
    let err = bare.plan(&LineageQuery::backward().rids([0]));
    assert!(err.is_err());

    // Forcing an infeasible strategy errors with the candidate's note.
    let p = planner(&table, &captured);
    let err = p.execute_with(Strategy::CubeHit, &LineageQuery::backward().rids([0]));
    assert!(err.is_err());
}

#[test]
fn multi_view_chain_matches_two_step_trace() {
    let (table, captured) = workload();
    // A second view over the same base table, grouped by the bin attribute.
    let v2 = group_by(
        &table,
        &["v_bin".to_string()],
        &[AggExpr::count("cnt")],
        &GroupByOptions::inject(),
    )
    .unwrap();
    let v2_forward = v2.lineage.input(0).forward();

    let p = planner(&table, &captured);
    let q = LineageQuery::multi_view()
        .rids([0])
        .then_through(v2_forward);
    let explain = p.explain(&q).unwrap();
    assert_eq!(explain.strategy, Strategy::EagerTrace);
    let chained = p.execute(&q).unwrap();

    // Two-step reference: backward to base, then forward into v2.
    let base_rids = p.execute(&LineageQuery::backward().rids([0])).unwrap().rids;
    let mut two_step = v2_forward.trace_set(&base_rids);
    two_step.sort_unstable();
    assert_eq!(chained.rids, two_step);
    assert!(!chained.rids.is_empty());

    // Consuming a multi-view trace is rejected at plan time, as is a chain on
    // a plain backward query.
    let bad = LineageQuery::multi_view()
        .rids([0])
        .then_through(v2_forward)
        .aggregate(&["v_bin"], vec![AggExpr::count("c")]);
    assert!(p.plan(&bad).is_err());
    let bad = LineageQuery::backward().rids([0]).then_through(v2_forward);
    assert!(p.plan(&bad).is_err());
    assert!(p.plan(&LineageQuery::multi_view().rids([0])).is_err());
}

#[test]
fn forward_direction_traces_base_to_output() {
    let (table, captured) = workload();
    let p = planner(&table, &captured);
    let q = LineageQuery::forward().rids([0, 1, 2]);
    let explain = p.explain(&q).unwrap();
    assert_eq!(explain.strategy, Strategy::EagerTrace);
    // Lazy cannot answer forward queries.
    assert!(explain.candidate_cost(Strategy::LazyRewrite) == Some(f64::INFINITY));

    let result = p.execute(&q).unwrap();
    assert_eq!(q.direction(), Direction::Forward);
    // Every base row belongs to exactly one group.
    assert!(!result.rids.is_empty() && result.rids.len() <= 3);
}
