//! The "Overview first, zoom and filter, details on demand" workflow of the
//! paper's §6.4, expressed over TPC-H Q1:
//!
//! 1. the base query (Q1) renders an overview bar chart with lineage capture;
//! 2. **details on demand** is a backward lineage query from one bar;
//! 3. **zoom** (Q1a) drills into a bar by ship year/month via an index scan;
//! 4. **filter** (Q1b) applies templated predicates answered from the
//!    data-skipping partitioned index;
//! 5. a further drill-down (Q1c) on `l_tax` is answered instantly from the
//!    aggregates materialized by the group-by push-down.
//!
//! Run with `cargo run --release --example tpch_drilldown`.

use smoke::core::query::{consume_aggregate, consume_from_cube, consume_with_skipping};
use smoke::core::{AggPushdown, CaptureConfig, WorkloadOptions};
use smoke::datagen::tpch::TpchSpec;
use smoke::datagen::tpch_queries::{drilldown_aggs, q1, q1a_keys, q1b_partition_attrs};
use smoke::prelude::*;

fn main() -> smoke::core::Result<()> {
    let db = TpchSpec {
        scale_factor: 0.003,
        seed: 7,
    }
    .generate();
    let lineitem = db.relation("lineitem").unwrap();
    println!("lineitem rows: {}", lineitem.len());

    // Capture Q1 with both workload-aware optimizations enabled: data
    // skipping on (l_shipmode, l_shipinstruct) and aggregation push-down on
    // l_tax.
    let config = CaptureConfig::inject().with_workload(WorkloadOptions {
        skipping_partition_by: q1b_partition_attrs(),
        agg_pushdown: Some(AggPushdown {
            partition_by: vec!["l_tax".to_string()],
            aggs: drilldown_aggs(),
        }),
        ..Default::default()
    });
    let overview = Executor::with_config(config).execute(&q1(), &db)?;
    println!("\noverview (Q1): {} bars", overview.relation.len());
    for rid in 0..overview.relation.len() {
        let row = overview.relation.row_values(rid);
        println!(
            "  bar {rid}: flag={} status={} count={}",
            row[0], row[1], row[9]
        );
    }

    // Details on demand: backward lineage of bar 0.
    let bar = 0u32;
    let lineage = overview.lineage.backward(&[bar], "lineitem");
    println!("\nbar {bar} derives from {} lineitem rows", lineage.len());

    // Zoom (Q1a): statistics by ship year/month over the bar's lineage.
    let zoom = consume_aggregate(lineitem, &lineage, &q1a_keys(), &drilldown_aggs())?;
    println!(
        "Q1a drill-down produced {} (year, month) groups",
        zoom.len()
    );

    // Filter (Q1b): templated predicate answered from the partitioned index.
    let skipping = overview
        .artifacts
        .partitioned
        .as_ref()
        .expect("skipping index");
    let filtered = consume_with_skipping(
        lineitem,
        skipping,
        bar,
        &[Value::Str("MAIL".into()), Value::Str("NONE".into())],
        &q1a_keys(),
        &drilldown_aggs(),
    )?;
    println!(
        "Q1b (l_shipmode = MAIL, l_shipinstruct = NONE) produced {} groups from the skipped partition",
        filtered.len()
    );

    // Drill-down (Q1c): answered from the materialized cube without touching
    // lineitem at all.
    let cube = overview.artifacts.cube.as_ref().expect("push-down cube");
    let by_tax = consume_from_cube(cube, bar)?;
    println!(
        "Q1c (group by l_tax) answered from the cube: {} rows",
        by_tax.len()
    );
    assert!(by_tax.len() > 1);
    Ok(())
}
