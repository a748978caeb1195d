//! Plans for the TPC-H queries used in the paper's evaluation (Q1, Q3, Q10,
//! Q12) plus the Q1 drill-down variants of §6.4 / Appendix C.
//!
//! The plans are left-deep with the primary-key side as the build side of
//! every join, matching the paper's hash-based execution (no sorts; `ORDER
//! BY` clauses are omitted, as in the paper).

use smoke_core::{microbenchmark_aggs, AggExpr, Expr, LogicalPlan, PlanBuilder};

use crate::tpch::DATE_DOMAIN_DAYS;

/// The cut-off used by Q1's shipdate predicate (`l_shipdate <= '1998-09-02'`);
/// expressed as a day offset covering ~98% of the date domain.
pub fn q1_shipdate_cutoff() -> i64 {
    (DATE_DOMAIN_DAYS as f64 * 0.98) as i64
}

/// TPC-H Q1: pricing summary report over `lineitem`.
pub fn q1() -> LogicalPlan {
    PlanBuilder::scan("lineitem")
        .select(Expr::col("l_shipdate").lt(Expr::lit(q1_shipdate_cutoff())))
        .group_by(
            &["l_returnflag", "l_linestatus"],
            vec![
                AggExpr::sum("l_quantity", "sum_qty"),
                AggExpr::sum("l_extendedprice", "sum_base_price"),
                AggExpr::sum("l_discprice", "sum_disc_price"),
                AggExpr::sum("l_charge", "sum_charge"),
                AggExpr::avg("l_quantity", "avg_qty"),
                AggExpr::avg("l_extendedprice", "avg_price"),
                AggExpr::avg("l_discount", "avg_disc"),
                AggExpr::count("count_order"),
            ],
        )
        .build()
}

/// TPC-H Q3: shipping-priority revenue per order for the BUILDING segment.
pub fn q3() -> LogicalPlan {
    let cutoff = DATE_DOMAIN_DAYS / 2;
    PlanBuilder::scan("customer")
        .select(Expr::col("c_mktsegment").eq(Expr::lit("BUILDING")))
        .join(
            PlanBuilder::scan("orders").select(Expr::col("o_orderdate").lt(Expr::lit(cutoff))),
            &["c_custkey"],
            &["o_custkey"],
        )
        .join(
            PlanBuilder::scan("lineitem").select(Expr::col("l_shipdate").gt(Expr::lit(cutoff))),
            &["o_orderkey"],
            &["l_orderkey"],
        )
        .group_by(
            &["o_orderkey", "o_orderdate", "o_shippriority"],
            vec![AggExpr::sum("l_discprice", "revenue")],
        )
        .build()
}

/// TPC-H Q10: returned-item revenue per customer over a quarter.
pub fn q10() -> LogicalPlan {
    let start = DATE_DOMAIN_DAYS / 3;
    let end = start + 90;
    PlanBuilder::scan("nation")
        .join(
            PlanBuilder::scan("customer"),
            &["n_nationkey"],
            &["c_nationkey"],
        )
        .join(
            PlanBuilder::scan("orders").select(
                Expr::col("o_orderdate")
                    .ge(Expr::lit(start))
                    .and(Expr::col("o_orderdate").lt(Expr::lit(end))),
            ),
            &["c_custkey"],
            &["o_custkey"],
        )
        .join(
            PlanBuilder::scan("lineitem").select(Expr::col("l_returnflag").eq(Expr::lit("R"))),
            &["o_orderkey"],
            &["l_orderkey"],
        )
        .group_by(
            &["c_custkey", "n_name"],
            vec![
                AggExpr::sum("l_discprice", "revenue"),
                AggExpr::count("items"),
            ],
        )
        .build()
}

/// TPC-H Q12: shipping-mode / order-priority counts for MAIL and SHIP.
pub fn q12() -> LogicalPlan {
    let start = DATE_DOMAIN_DAYS / 4;
    let end = start + 365;
    PlanBuilder::scan("orders")
        .join(
            PlanBuilder::scan("lineitem").select(
                Expr::col("l_shipmode")
                    .in_list(vec!["MAIL".into(), "SHIP".into()])
                    .and(Expr::col("l_shipdate").ge(Expr::lit(start)))
                    .and(Expr::col("l_shipdate").lt(Expr::lit(end))),
            ),
            &["o_orderkey"],
            &["l_orderkey"],
        )
        .group_by(
            &["l_shipmode"],
            vec![
                AggExpr::count("line_count"),
                AggExpr::sum("o_shippriority", "priority_sum"),
            ],
        )
        .build()
}

/// All four evaluation queries, with their paper names.
pub fn evaluation_queries() -> Vec<(&'static str, LogicalPlan)> {
    vec![("Q1", q1()), ("Q3", q3()), ("Q10", q10()), ("Q12", q12())]
}

/// The drill-down aggregates used by the Q1a/Q1b/Q1c lineage-consuming
/// queries of §6.4: the same multi-statistic list as the microbenchmark.
pub fn drilldown_aggs() -> Vec<AggExpr> {
    microbenchmark_aggs("l_extendedprice")
}

/// Group-by keys of Q1a: drill down into a Q1 group by ship year and month.
pub fn q1a_keys() -> Vec<String> {
    vec!["l_shipyear".to_string(), "l_shipmonth".to_string()]
}

/// Templated predicate attributes of Q1b (data-skipping experiment).
pub fn q1b_partition_attrs() -> Vec<String> {
    vec!["l_shipmode".to_string(), "l_shipinstruct".to_string()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::TpchSpec;
    use smoke_core::{CaptureMode, Executor};

    fn db() -> smoke_storage::Database {
        TpchSpec {
            scale_factor: 0.001,
            seed: 11,
        }
        .generate()
    }

    #[test]
    fn q1_produces_four_groups() {
        let out = Executor::new(CaptureMode::Inject)
            .execute(&q1(), &db())
            .unwrap();
        assert_eq!(out.relation.len(), 4);
        assert!(out.lineage.table("lineitem").is_some());
    }

    #[test]
    fn q3_reads_three_relations() {
        let plan = q3();
        assert_eq!(plan.base_tables(), vec!["customer", "orders", "lineitem"]);
        let out = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db())
            .unwrap();
        // Every group's backward lineage into customer is a single customer.
        for o in 0..out.relation.len().min(10) as u32 {
            assert_eq!(out.lineage.backward(&[o], "customer").len(), 1);
        }
    }

    #[test]
    fn q10_reads_four_relations_including_nation() {
        let plan = q10();
        assert_eq!(
            plan.base_tables(),
            vec!["nation", "customer", "orders", "lineitem"]
        );
        let out = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db())
            .unwrap();
        assert!(!out.relation.is_empty());
        assert_eq!(out.lineage.tables().len(), 4);
    }

    #[test]
    fn q12_groups_by_ship_mode() {
        let out = Executor::new(CaptureMode::Inject)
            .execute(&q12(), &db())
            .unwrap();
        assert!(out.relation.len() <= 2);
        for rid in 0..out.relation.len() {
            let mode = out.relation.value(rid, 0);
            assert!(matches!(
                mode,
                smoke_storage::Value::Str(ref s) if s == "MAIL" || s == "SHIP"
            ));
        }
    }

    #[test]
    fn baseline_and_inject_agree_on_all_queries() {
        let db = db();
        for (name, plan) in evaluation_queries() {
            let base = Executor::new(CaptureMode::Baseline)
                .execute(&plan, &db)
                .unwrap();
            let inject = Executor::new(CaptureMode::Inject)
                .execute(&plan, &db)
                .unwrap();
            assert_eq!(base.relation, inject.relation, "{name} results diverge");
        }
    }
}
