//! Single-operator capture microbenchmarks: Figures 5, 6, 7, and 21.

use smoke_core::baselines::logical::{run_logical, LogicalTechnique};
use smoke_core::baselines::physical::{group_by_with_sink, ExternalStoreSink, PhysMemSink};
use smoke_core::ops::groupby::{group_by, true_cardinalities, GroupByOptions};
use smoke_core::ops::join::{hash_join, JoinOptions};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::{microbenchmark_aggs, Expr, PlanBuilder};
use smoke_datagen::zipf::{gids_table, zipf_table, zipf_table_named, ZipfSpec};
use smoke_storage::Database;

use crate::{capture_stat_rows, ms, overhead, time_avg, ExpRow, Scale};

/// Figure 5: group-by aggregation capture latency across relation sizes and
/// group counts for Baseline, Smoke-I, Smoke-D, Logic-Rid, Logic-Tup,
/// Phys-Mem, and Phys-Bdb.
pub fn fig5(scale: &Scale) -> Vec<ExpRow> {
    let mut rows = Vec::new();
    let sizes = [scale.size(100_000, 2_000), scale.size(400_000, 5_000)];
    let group_counts = [100usize, 10_000];
    let keys = vec!["z".to_string()];
    let aggs = microbenchmark_aggs("v");

    for &n in &sizes {
        for &g in &group_counts {
            let spec = ZipfSpec {
                theta: 1.0,
                rows: n,
                groups: g,
                seed: 42,
            };
            let table = zipf_table(&spec);
            let config = format!("n={n},g={g}");

            let baseline = time_avg(scale.runs, scale.warmup, || {
                group_by(&table, &keys, &aggs, &GroupByOptions::baseline()).unwrap()
            });
            let mut push = |technique: &str, latency: std::time::Duration| {
                rows.push(ExpRow::new(
                    "fig5",
                    &config,
                    technique,
                    "capture_ms",
                    ms(latency),
                ));
                rows.push(ExpRow::new(
                    "fig5",
                    &config,
                    technique,
                    "overhead_x",
                    overhead(latency, baseline),
                ));
            };
            push("Baseline", baseline);

            let inject = time_avg(scale.runs, scale.warmup, || {
                group_by(&table, &keys, &aggs, &GroupByOptions::inject()).unwrap()
            });
            push("Smoke-I", inject);

            let defer = time_avg(scale.runs, scale.warmup, || {
                group_by(&table, &keys, &aggs, &GroupByOptions::defer()).unwrap()
            });
            push("Smoke-D", defer);

            // Smoke-I with true group cardinalities (the "+TC" result quoted
            // inline in §6.1.1).
            let hints = true_cardinalities(&table, &keys).unwrap();
            let inject_tc = time_avg(scale.runs, scale.warmup, || {
                group_by(
                    &table,
                    &keys,
                    &aggs,
                    &GroupByOptions::inject_with_hints(hints.clone()),
                )
                .unwrap()
            });
            push("Smoke-I+TC", inject_tc);

            // Logical baselines run on the plan form of the same query.
            let mut db = Database::new();
            db.register(table.clone()).unwrap();
            let plan = PlanBuilder::scan("zipf")
                .group_by(&["z"], aggs.clone())
                .build();
            let logic_rid = time_avg(scale.runs, scale.warmup, || {
                run_logical(&plan, &db, LogicalTechnique::LogicRid).unwrap()
            });
            push("Logic-Rid", logic_rid);
            let logic_tup = time_avg(scale.runs, scale.warmup, || {
                run_logical(&plan, &db, LogicalTechnique::LogicTup).unwrap()
            });
            push("Logic-Tup", logic_tup);

            // Physical baselines.
            let phys_mem = time_avg(scale.runs, scale.warmup, || {
                let mut sink = PhysMemSink::new();
                group_by_with_sink(&table, &keys, &aggs, &mut sink).unwrap()
            });
            push("Phys-Mem", phys_mem);
            let phys_bdb = time_avg(scale.runs.min(2), 0, || {
                let mut sink = ExternalStoreSink::new();
                group_by_with_sink(&table, &keys, &aggs, &mut sink).unwrap()
            });
            push("Phys-Bdb", phys_bdb);

            // Where the capture overhead goes (rid resizes, edges written,
            // lineage bytes) — the paper's overhead breakdowns, recorded in
            // the same table as the latency rows.
            for (technique, opts) in [
                ("Smoke-I", GroupByOptions::inject()),
                ("Smoke-D", GroupByOptions::defer()),
            ] {
                let out = group_by(&table, &keys, &aggs, &opts).unwrap();
                rows.extend(capture_stat_rows("fig5", &config, technique, &out.stats));
            }
        }
    }
    rows
}

/// Figure 6: primary-key / foreign-key join capture latency for Baseline,
/// Logic-Idx, Smoke-I, and Smoke-I+TC.
pub fn fig6(scale: &Scale) -> Vec<ExpRow> {
    let mut rows = Vec::new();
    let sizes = [scale.size(200_000, 5_000), scale.size(500_000, 10_000)];
    let group_counts = [100usize, 10_000];

    for &n in &sizes {
        for &g in &group_counts {
            let left = gids_table(g);
            let right = zipf_table(&ZipfSpec {
                theta: 1.0,
                rows: n,
                groups: g,
                seed: 13,
            });
            let left_keys = vec!["id".to_string()];
            let right_keys = vec!["z".to_string()];
            let config = format!("n={n},g={g}");

            let baseline = time_avg(scale.runs, scale.warmup, || {
                hash_join(
                    &left,
                    &right,
                    &left_keys,
                    &right_keys,
                    &JoinOptions::baseline(),
                )
                .unwrap()
            });
            let mut push = |technique: &str, latency: std::time::Duration| {
                rows.push(ExpRow::new(
                    "fig6",
                    &config,
                    technique,
                    "capture_ms",
                    ms(latency),
                ));
                rows.push(ExpRow::new(
                    "fig6",
                    &config,
                    technique,
                    "overhead_x",
                    overhead(latency, baseline),
                ));
            };
            push("Baseline", baseline);

            let inject = time_avg(scale.runs, scale.warmup, || {
                hash_join(
                    &left,
                    &right,
                    &left_keys,
                    &right_keys,
                    &JoinOptions::inject(),
                )
                .unwrap()
            });
            push("Smoke-I", inject);

            // True match cardinalities per join key.
            let hints = true_cardinalities(&right, &right_keys).unwrap();
            let tc_opts = JoinOptions::inject().with_hints(hints);
            let inject_tc = time_avg(scale.runs, scale.warmup, || {
                hash_join(&left, &right, &left_keys, &right_keys, &tc_opts).unwrap()
            });
            push("Smoke-I+TC", inject_tc);

            let mut db = Database::new();
            db.register(left.clone()).unwrap();
            db.register(right.clone()).unwrap();
            let plan = PlanBuilder::scan("gids")
                .join(PlanBuilder::scan("zipf"), &["id"], &["z"])
                .build();
            let logic_idx = time_avg(scale.runs.min(2), 0, || {
                run_logical(&plan, &db, LogicalTechnique::LogicIdx).unwrap()
            });
            push("Logic-Idx", logic_idx);
        }
    }
    rows
}

/// Figure 7: many-to-many join capture latency (output not materialized) for
/// Smoke-I, Smoke-D-DeferForw, and Smoke-D.
pub fn fig7(scale: &Scale) -> Vec<ExpRow> {
    let mut rows = Vec::new();
    let left_groups = [10usize, 100];
    let right_sizes = [
        scale.size(10_000, 1_000),
        scale.size(30_000, 2_000),
        scale.size(60_000, 4_000),
    ];
    for &lg in &left_groups {
        let left = zipf_table_named(
            &ZipfSpec {
                theta: 1.0,
                rows: 1_000,
                groups: lg,
                seed: 3,
            },
            "zipf1",
        );
        for &rn in &right_sizes {
            let right = zipf_table_named(
                &ZipfSpec {
                    theta: 1.0,
                    rows: rn,
                    groups: 100,
                    seed: 4,
                },
                "zipf2",
            );
            let config = format!("left_groups={lg},right_n={rn}");
            let keys = (vec!["z".to_string()], vec!["z".to_string()]);
            for (technique, opts) in [
                ("Smoke-I", JoinOptions::inject().without_output()),
                (
                    "Smoke-D-DeferForw",
                    JoinOptions::defer_forward().without_output(),
                ),
                ("Smoke-D", JoinOptions::defer().without_output()),
            ] {
                let latency = time_avg(scale.runs, scale.warmup, || {
                    hash_join(&left, &right, &keys.0, &keys.1, &opts).unwrap()
                });
                rows.push(ExpRow::new(
                    "fig7",
                    &config,
                    technique,
                    "capture_ms",
                    ms(latency),
                ));
            }
        }
    }
    rows
}

/// Figure 21 (Appendix G.1): selection capture latency across predicate
/// selectivities. The paper's `Smoke-I+EC` variant (a selectivity estimate
/// pre-sizing the backward array) has no row here: the kernel bitmap's
/// popcount sizes it exactly, so it would time the same code as `Smoke-I`.
pub fn fig21(scale: &Scale) -> Vec<ExpRow> {
    let mut rows = Vec::new();
    let sizes = [scale.size(200_000, 5_000), scale.size(500_000, 10_000)];
    let selectivities = [0.01, 0.1, 0.25, 0.5];
    for &n in &sizes {
        let table = zipf_table(&ZipfSpec {
            theta: 1.0,
            rows: n,
            groups: 100,
            seed: 8,
        });
        for &sel in &selectivities {
            let predicate = Expr::col("v").lt(Expr::lit(100.0 * sel));
            let config = format!("n={n},sel={sel}");
            let baseline = time_avg(scale.runs, scale.warmup, || {
                select(&table, &predicate, &SelectOptions::baseline()).unwrap()
            });
            rows.push(ExpRow::new(
                "fig21",
                &config,
                "Baseline",
                "capture_ms",
                ms(baseline),
            ));
            let inject = time_avg(scale.runs, scale.warmup, || {
                select(&table, &predicate, &SelectOptions::inject()).unwrap()
            });
            rows.push(ExpRow::new(
                "fig21",
                &config,
                "Smoke-I",
                "capture_ms",
                ms(inject),
            ));
            rows.push(ExpRow::new(
                "fig21",
                &config,
                "Smoke-I",
                "overhead_x",
                overhead(inject, baseline),
            ));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn techniques(rows: &[ExpRow]) -> std::collections::HashSet<String> {
        rows.iter().map(|r| r.technique.clone()).collect()
    }

    #[test]
    fn fig5_reports_all_techniques() {
        let rows = fig5(&Scale::tiny());
        let t = techniques(&rows);
        for expected in [
            "Baseline",
            "Smoke-I",
            "Smoke-D",
            "Smoke-I+TC",
            "Logic-Rid",
            "Logic-Tup",
            "Phys-Mem",
            "Phys-Bdb",
        ] {
            assert!(t.contains(expected), "missing {expected}");
        }
        assert!(rows.iter().all(|r| r.value.is_finite()));
    }

    #[test]
    fn fig6_and_fig7_produce_rows() {
        let rows6 = fig6(&Scale::tiny());
        assert!(techniques(&rows6).contains("Logic-Idx"));
        let rows7 = fig7(&Scale::tiny());
        assert_eq!(techniques(&rows7).len(), 3);
        assert_eq!(rows7.len(), 2 * 3 * 3);
    }

    #[test]
    fn fig21_covers_selectivities() {
        let rows = fig21(&Scale::tiny());
        let expect: std::collections::HashSet<String> =
            ["Baseline", "Smoke-I"].map(String::from).into();
        assert_eq!(techniques(&rows), expect);
        let configs: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.config.as_str()).collect();
        assert!(configs.len() >= 8);
    }
}
