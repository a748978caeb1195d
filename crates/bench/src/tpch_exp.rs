//! TPC-H capture and workload-aware optimization experiments: Figures 8, 10,
//! 11, 12, 22, and 23.

use smoke_core::baselines::logical::{run_logical, LogicalTechnique};
use smoke_core::lazy::{backward_predicate, lazy_consume};
use smoke_core::query::{consume_aggregate, consume_from_cube, consume_with_skipping};
use smoke_core::{
    AggExpr, AggPushdown, CaptureConfig, CaptureMode, DirectionFilter, Executor, Expr,
    WorkloadOptions,
};
use smoke_datagen::tpch::TpchSpec;
use smoke_datagen::tpch_queries::{
    drilldown_aggs, evaluation_queries, q1, q10, q1_shipdate_cutoff, q1b_partition_attrs, q3,
};
use smoke_storage::{Database, Rid, Value};

use crate::{ms, overhead, time_avg, ExpRow, Scale};

fn tpch_db(scale: &Scale) -> Database {
    TpchSpec {
        scale_factor: 0.003 * scale.factor,
        seed: 7,
    }
    .generate()
}

/// Figure 8: relative capture overhead of Smoke-I and Logic-Idx on TPC-H Q1,
/// Q3, Q10, Q12.
pub fn fig8(scale: &Scale) -> Vec<ExpRow> {
    let db = tpch_db(scale);
    let mut rows = Vec::new();
    for (name, plan) in evaluation_queries() {
        let baseline = time_avg(scale.runs, scale.warmup, || {
            Executor::new(CaptureMode::Baseline)
                .execute(&plan, &db)
                .unwrap()
        });
        rows.push(ExpRow::new(
            "fig8",
            name,
            "Baseline",
            "latency_ms",
            ms(baseline),
        ));

        let inject = time_avg(scale.runs, scale.warmup, || {
            Executor::new(CaptureMode::Inject)
                .execute(&plan, &db)
                .unwrap()
        });
        rows.push(ExpRow::new(
            "fig8",
            name,
            "Smoke-I",
            "latency_ms",
            ms(inject),
        ));
        rows.push(ExpRow::new(
            "fig8",
            name,
            "Smoke-I",
            "overhead_pct",
            100.0 * overhead(inject, baseline),
        ));

        let logic = time_avg(scale.runs.min(2), 0, || {
            run_logical(&plan, &db, LogicalTechnique::LogicIdx).unwrap()
        });
        rows.push(ExpRow::new(
            "fig8",
            name,
            "Logic-Idx",
            "latency_ms",
            ms(logic),
        ));
        rows.push(ExpRow::new(
            "fig8",
            name,
            "Logic-Idx",
            "overhead_pct",
            100.0 * overhead(logic, baseline),
        ));
    }
    rows
}

/// Figure 10: Q1b lineage-consuming query latency (templated filters on
/// `l_shipmode` / `l_shipinstruct`) for Lazy, lineage indexes without data
/// skipping, and data skipping.
pub fn fig10(scale: &Scale) -> Vec<ExpRow> {
    let db = tpch_db(scale);
    let lineitem = db.relation("lineitem").unwrap();
    let mut rows = Vec::new();

    // Capture Q1 with and without the data-skipping partitioning.
    let plain = Executor::new(CaptureMode::Inject)
        .execute(&q1(), &db)
        .unwrap();
    let skipping_cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        skipping_partition_by: q1b_partition_attrs(),
        ..Default::default()
    });
    let skipping = Executor::with_config(skipping_cfg)
        .execute(&q1(), &db)
        .unwrap();
    let part_index = skipping
        .artifacts
        .partitioned
        .as_ref()
        .expect("skipping index");

    let q1_keys = vec!["l_returnflag".to_string(), "l_linestatus".to_string()];
    let q1a_keys = vec!["l_shipyear".to_string(), "l_shipmonth".to_string()];
    let aggs = drilldown_aggs();
    let base_sel = Expr::col("l_shipdate").lt(Expr::lit(q1_shipdate_cutoff()));

    // Sample the parameter space: the first few (shipmode, shipinstruct)
    // combinations per output bar.
    let modes = ["MAIL", "AIR", "SHIP", "TRUCK"];
    let instructs = ["NONE", "COLLECT COD"];
    for bar in 0..plain.relation.len() as Rid {
        let key_values = vec![
            plain.relation.value(bar as usize, 0),
            plain.relation.value(bar as usize, 1),
        ];
        let rewrite = backward_predicate(&q1_keys, &key_values, Some(&base_sel));
        for mode in modes {
            for instruct in instructs {
                let config = format!("bar={bar},mode={mode},instruct={instruct}");
                let extra = Expr::col("l_shipmode")
                    .eq(Expr::lit(mode))
                    .and(Expr::col("l_shipinstruct").eq(Expr::lit(instruct)));

                let lazy = time_avg(scale.runs, scale.warmup, || {
                    lazy_consume(lineitem, &rewrite, Some(&extra), &q1a_keys, &aggs).unwrap()
                });
                rows.push(ExpRow::new(
                    "fig10",
                    &config,
                    "Lazy",
                    "latency_ms",
                    ms(lazy),
                ));

                let rids = plain.lineage.backward(&[bar], "lineitem");
                let no_skip = time_avg(scale.runs, scale.warmup, || {
                    smoke_core::query::consume_filter_aggregate(
                        lineitem,
                        &rids,
                        Some(&extra),
                        &q1a_keys,
                        &aggs,
                    )
                    .unwrap()
                });
                rows.push(ExpRow::new(
                    "fig10",
                    &config,
                    "NoDataSkipping",
                    "latency_ms",
                    ms(no_skip),
                ));

                let parameter = [Value::Str(mode.into()), Value::Str(instruct.into())];
                let skip = time_avg(scale.runs, scale.warmup, || {
                    consume_with_skipping(lineitem, part_index, bar, &parameter, &q1a_keys, &aggs)
                        .unwrap()
                });
                rows.push(ExpRow::new(
                    "fig10",
                    &config,
                    "DataSkipping",
                    "latency_ms",
                    ms(skip),
                ));
            }
        }
    }
    rows
}

/// Figures 11 and 12: aggregation push-down. Figure 11 reports the
/// lineage-consuming query latency for Lazy, lineage indexes without
/// push-down, and the materialized cube; Figure 12 reports the capture
/// overhead Q1 pays with and without the push-down.
pub fn fig11_12(scale: &Scale) -> Vec<ExpRow> {
    let db = tpch_db(scale);
    let lineitem = db.relation("lineitem").unwrap();
    let mut rows = Vec::new();

    let q1_keys = vec!["l_returnflag".to_string(), "l_linestatus".to_string()];
    let consuming_keys = vec!["l_tax".to_string()];
    let aggs = drilldown_aggs();
    let base_sel = Expr::col("l_shipdate").lt(Expr::lit(q1_shipdate_cutoff()));

    // Capture configurations.
    let baseline = time_avg(scale.runs, scale.warmup, || {
        Executor::new(CaptureMode::Baseline)
            .execute(&q1(), &db)
            .unwrap()
    });
    let plain_latency = time_avg(scale.runs, scale.warmup, || {
        Executor::new(CaptureMode::Inject)
            .execute(&q1(), &db)
            .unwrap()
    });
    let pushdown_cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        agg_pushdown: Some(AggPushdown {
            partition_by: consuming_keys.clone(),
            aggs: aggs.clone(),
        }),
        ..Default::default()
    });
    let pushdown_latency = time_avg(scale.runs, scale.warmup, || {
        Executor::with_config(pushdown_cfg.clone())
            .execute(&q1(), &db)
            .unwrap()
    });
    rows.push(ExpRow::new(
        "fig12",
        "Q1",
        "NoPushdown",
        "overhead_pct",
        100.0 * overhead(plain_latency, baseline),
    ));
    rows.push(ExpRow::new(
        "fig12",
        "Q1",
        "AggPushdown",
        "overhead_pct",
        100.0 * overhead(pushdown_latency, baseline),
    ));

    // Consuming query latency per Q1 output bar.
    let plain = Executor::new(CaptureMode::Inject)
        .execute(&q1(), &db)
        .unwrap();
    let pushed = Executor::with_config(pushdown_cfg)
        .execute(&q1(), &db)
        .unwrap();
    let cube = pushed.artifacts.cube.as_ref().expect("cube materialized");
    for bar in 0..plain.relation.len() as Rid {
        let key_values = vec![
            plain.relation.value(bar as usize, 0),
            plain.relation.value(bar as usize, 1),
        ];
        let config = format!("bar={bar}");
        let rewrite = backward_predicate(&q1_keys, &key_values, Some(&base_sel));
        let lazy = time_avg(scale.runs, scale.warmup, || {
            lazy_consume(lineitem, &rewrite, None, &consuming_keys, &aggs).unwrap()
        });
        rows.push(ExpRow::new(
            "fig11",
            &config,
            "Lazy",
            "latency_ms",
            ms(lazy),
        ));

        let rids = plain.lineage.backward(&[bar], "lineitem");
        let no_push = time_avg(scale.runs, scale.warmup, || {
            consume_aggregate(lineitem, &rids, &consuming_keys, &aggs).unwrap()
        });
        rows.push(ExpRow::new(
            "fig11",
            &config,
            "NoAggPushdown",
            "latency_ms",
            ms(no_push),
        ));

        let from_cube = time_avg(scale.runs, scale.warmup, || {
            consume_from_cube(cube, bar).unwrap()
        });
        rows.push(ExpRow::new(
            "fig11",
            &config,
            "AggPushdown",
            "latency_ms",
            ms(from_cube),
        ));
    }
    rows
}

/// Figure 22 (Appendix G.2): per-relation instrumentation pruning on Q3 and
/// Q10.
pub fn fig22(scale: &Scale) -> Vec<ExpRow> {
    let db = tpch_db(scale);
    let mut rows = Vec::new();
    for (name, plan) in [("Q3", q3()), ("Q10", q10())] {
        let tables: Vec<String> = plan.base_tables().iter().map(|s| s.to_string()).collect();
        let baseline = time_avg(scale.runs, scale.warmup, || {
            Executor::new(CaptureMode::Baseline)
                .execute(&plan, &db)
                .unwrap()
        });
        rows.push(ExpRow::new(
            "fig22",
            name,
            "NoCapture",
            "latency_ms",
            ms(baseline),
        ));
        let all = time_avg(scale.runs, scale.warmup, || {
            Executor::new(CaptureMode::Inject)
                .execute(&plan, &db)
                .unwrap()
        });
        rows.push(ExpRow::new("fig22", name, "All", "latency_ms", ms(all)));

        for keep in &tables {
            let mut cfg = CaptureConfig::inject().default_directions(DirectionFilter::None);
            cfg = cfg.prune(keep.clone(), DirectionFilter::Both);
            let latency = time_avg(scale.runs, scale.warmup, || {
                Executor::with_config(cfg.clone())
                    .execute(&plan, &db)
                    .unwrap()
            });
            rows.push(ExpRow::new(
                "fig22",
                name,
                format!("Only:{keep}"),
                "latency_ms",
                ms(latency),
            ));
        }
    }
    rows
}

/// Figure 23 (Appendix G.2): selection push-down capture latency at varying
/// predicate selectivities of `l_tax < ?`.
pub fn fig23(scale: &Scale) -> Vec<ExpRow> {
    let db = tpch_db(scale);
    let mut rows = Vec::new();
    let baseline = time_avg(scale.runs, scale.warmup, || {
        Executor::new(CaptureMode::Baseline)
            .execute(&q1(), &db)
            .unwrap()
    });
    rows.push(ExpRow::new(
        "fig23",
        "Q1",
        "Baseline",
        "latency_ms",
        ms(baseline),
    ));
    let inject = time_avg(scale.runs, scale.warmup, || {
        Executor::new(CaptureMode::Inject)
            .execute(&q1(), &db)
            .unwrap()
    });
    rows.push(ExpRow::new(
        "fig23",
        "Q1",
        "Smoke-I",
        "latency_ms",
        ms(inject),
    ));

    for selectivity in [0.25, 0.5, 0.75] {
        let cutoff = 0.08 * selectivity; // l_tax is uniform in [0, 0.08].
        let cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
            selection_pushdown: Some(Expr::col("l_tax").lt(Expr::lit(cutoff))),
            ..Default::default()
        });
        let latency = time_avg(scale.runs, scale.warmup, || {
            Executor::with_config(cfg.clone())
                .execute(&q1(), &db)
                .unwrap()
        });
        rows.push(ExpRow::new(
            "fig23",
            format!("sel={selectivity}"),
            "SelectionPushdown",
            "latency_ms",
            ms(latency),
        ));
    }
    rows
}

/// Sanity helper used by tests: the Q1 output over the scaled TPC-H data has
/// the four canonical groups.
pub fn q1_group_count(scale: &Scale) -> usize {
    let db = tpch_db(scale);
    Executor::new(CaptureMode::Baseline)
        .execute(&q1(), &db)
        .unwrap()
        .relation
        .len()
}

/// Returns true when the cube answer and the index-scan answer agree for
/// every Q1 bar (used by integration tests).
pub fn pushdown_matches_index_scan(scale: &Scale) -> bool {
    let db = tpch_db(scale);
    let lineitem = db.relation("lineitem").unwrap();
    let aggs = vec![AggExpr::count("cnt"), AggExpr::sum("l_quantity", "qty")];
    let cfg = CaptureConfig::inject().with_workload(WorkloadOptions {
        agg_pushdown: Some(AggPushdown {
            partition_by: vec!["l_tax".to_string()],
            aggs: aggs.clone(),
        }),
        ..Default::default()
    });
    let out = Executor::with_config(cfg).execute(&q1(), &db).unwrap();
    let cube = out.artifacts.cube.as_ref().unwrap();
    for bar in 0..out.relation.len() as Rid {
        let rids = out.lineage.backward(&[bar], "lineitem");
        let expected = consume_aggregate(lineitem, &rids, &["l_tax".to_string()], &aggs).unwrap();
        let got = consume_from_cube(cube, bar).unwrap();
        if expected.len() != got.len() {
            return false;
        }
        let total = |rel: &smoke_storage::Relation| -> f64 {
            (0..rel.len())
                .map(|r| rel.value(r, 2).as_float().unwrap_or(0.0))
                .sum()
        };
        if (total(&expected) - total(&got)).abs() > 1e-6 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_reports_overheads_for_all_queries() {
        let rows = fig8(&Scale::tiny());
        let queries: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.config.as_str()).collect();
        assert_eq!(queries.len(), 4);
        assert!(rows
            .iter()
            .any(|r| r.technique == "Logic-Idx" && r.metric == "overhead_pct"));
    }

    #[test]
    fn fig10_covers_three_techniques() {
        let rows = fig10(&Scale::tiny());
        let t: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.technique.as_str()).collect();
        assert!(t.contains("Lazy") && t.contains("NoDataSkipping") && t.contains("DataSkipping"));
    }

    #[test]
    fn fig11_12_pushdown_is_cheapest_at_query_time() {
        let rows = fig11_12(&Scale::tiny());
        let avg = |tech: &str| {
            let v: Vec<f64> = rows
                .iter()
                .filter(|r| r.experiment == "fig11" && r.technique == tech)
                .map(|r| r.value)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(avg("AggPushdown") <= avg("Lazy"));
        assert!(rows.iter().any(|r| r.experiment == "fig12"));
    }

    #[test]
    fn fig22_and_fig23_produce_rows() {
        assert!(!fig22(&Scale::tiny()).is_empty());
        let rows = fig23(&Scale::tiny());
        assert!(rows.iter().any(|r| r.technique == "SelectionPushdown"));
    }

    #[test]
    fn q1_has_four_groups_and_pushdown_is_correct() {
        assert_eq!(q1_group_count(&Scale::tiny()), 4);
        assert!(pushdown_matches_index_scan(&Scale::tiny()));
    }
}
