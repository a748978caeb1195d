//! The I/O term of the cost model over a genuinely paged base relation:
//! candidate page estimates must order `CubeHit` (zero) < `PartitionPruned`
//! < `EagerTrace` < `LazyRewrite` (full footprint), a warm buffer pool must
//! discount the charged cost without changing the page estimates, and the
//! estimates must surface through `Explain` and its wire encoding.

use std::sync::Arc;

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::{AggExpr, AggPushdown, Expr};
use smoke_datagen::zipf::{zipf_table_binned, ZipfSpec};
use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
use smoke_planner::{IoModel, LineagePlanner, LineageQuery, RewriteInfo, Strategy};
use smoke_storage::{Column, DataType, Field, PagedRelation, Relation, Schema, ROWS_PER_PAGE};

const BINS: usize = 4;

/// 200k rows over 2k groups: ~100 edges per trace against ~196 pages per
/// column, far from Yao saturation, so page estimates stay discriminative.
fn workload() -> (Relation, GroupByResult) {
    let table = zipf_table_binned(
        &ZipfSpec {
            theta: 1.0,
            rows: 200_000,
            groups: 2_000,
            seed: 11,
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

fn spill(table: &Relation, budget_pages: usize) -> PagedRelation {
    let pool = Arc::new(BufferPool::new(
        SegmentStore::in_memory(),
        budget_pages,
        ReplacementPolicy::Sieve,
    ));
    PagedRelation::spill(table, &pool).unwrap()
}

fn planner<'a>(
    table: &'a Relation,
    captured: &'a GroupByResult,
    io: IoModel,
) -> LineagePlanner<'a> {
    LineagePlanner::new(table, &captured.output)
        .lineage(captured.lineage.input(0))
        .artifacts(&captured.artifacts)
        .rewrite(RewriteInfo::new(vec!["z".to_string()], None))
        .stats(captured.stats)
        .with_io(io)
}

#[test]
fn page_estimates_order_the_strategies() {
    let (table, captured) = workload();
    let paged = spill(&table, 8);
    let io = IoModel::from_paged(&paged);
    assert_eq!(io.columns, 4, "id, z, v, v_bin are all numeric");
    assert_eq!(
        io.pages_per_column as usize,
        table.len().div_ceil(ROWS_PER_PAGE)
    );
    let p = planner(&table, &captured, io);

    // The crossfilter query: partition-equality filter plus an aggregate.
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    let explain = p.explain(&q).unwrap();
    assert!(explain.residency.is_some());

    let pruned = explain.candidate_pages(Strategy::PartitionPruned).unwrap();
    let eager = explain.candidate_pages(Strategy::EagerTrace).unwrap();
    let lazy = explain.candidate_pages(Strategy::LazyRewrite).unwrap();
    assert!(pruned > 0.0, "{}", explain.render());
    assert!(
        pruned < eager,
        "pruning must touch strictly fewer pages: {}",
        explain.render()
    );
    assert!(eager < lazy, "{}", explain.render());
    assert_eq!(lazy, io.total_pages(), "a full scan pays the footprint");
    assert_eq!(explain.strategy, Strategy::PartitionPruned);
    assert!(explain.render().contains("pg"), "{}", explain.render());

    // The cube-matching aggregate touches no base pages at all.
    let cube_q = LineageQuery::backward().rids([0]).aggregate(
        &["v_bin"],
        vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    );
    let cube_explain = p.explain(&cube_q).unwrap();
    assert_eq!(cube_explain.strategy, Strategy::CubeHit);
    assert_eq!(cube_explain.candidate_pages(Strategy::CubeHit), Some(0.0));
    assert!(cube_explain.candidate_pages(Strategy::EagerTrace).unwrap() > 0.0);
}

#[test]
fn str_columns_cost_pages() {
    // The workload table plus a `Str` column, which spills as an offsets
    // run and a bytes run: an aggregate over it must fault pages in.
    let (table, _) = workload();
    let mut fields = table.schema().fields().to_vec();
    fields.push(Field::new("tag", DataType::Str));
    let mut columns = table.columns().to_vec();
    columns.push(Column::Str(
        (0..table.len()).map(|i| format!("t{}", i % 7)).collect(),
    ));
    let table = Relation::from_columns("tagged", Schema::new(fields).unwrap(), columns).unwrap();
    let captured = group_by(
        &table,
        &["z".to_string()],
        &[AggExpr::count("cnt")],
        &GroupByOptions::inject(),
    )
    .unwrap();
    let paged = spill(&table, 8);
    let io = IoModel::from_paged(&paged);
    assert_eq!(io.columns, 5, "the `Str` column counts as a paged column");
    let q = LineageQuery::backward()
        .rids([0])
        .aggregate(&["tag"], vec![AggExpr::count("cnt")]);
    let explain = planner(&table, &captured, io).explain(&q).unwrap();
    let pages = explain.candidate_pages(Strategy::EagerTrace).unwrap();
    assert!(pages > 0.0, "{}", explain.render());
}

#[test]
fn pure_rid_traces_charge_no_base_pages() {
    let (table, captured) = workload();
    let paged = spill(&table, 8);
    let p = planner(&table, &captured, IoModel::from_paged(&paged));

    // No filter, no aggregate: the answer comes straight out of the index.
    let explain = p.explain(&LineageQuery::backward().rids([0])).unwrap();
    assert_eq!(explain.candidate_pages(Strategy::EagerTrace), Some(0.0));
    // Forward traces land in the resident view output, not the paged base.
    let fwd = p.explain(&LineageQuery::forward().rids([0, 1])).unwrap();
    assert_eq!(fwd.candidate_pages(Strategy::EagerTrace), Some(0.0));
}

#[test]
fn warm_pool_discounts_cost_but_not_pages() {
    let (table, captured) = workload();
    let paged = spill(&table, 64);
    let cold = IoModel::from_paged(&paged);
    assert_eq!(cold.residency, 0.0, "spill bypasses the pool");

    // Fault in a working set, then re-derive the model: residency rises,
    // estimated pages stay put, and the charged cost drops.
    let rids: Vec<u32> = (0..40).map(|i| i * ROWS_PER_PAGE as u32).collect();
    paged.gather(&rids, "warmup").unwrap();
    let warm = IoModel::from_paged(&paged);
    assert!(warm.residency > 0.0, "gather populates the pool");

    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    let cold_explain = planner(&table, &captured, cold).explain(&q).unwrap();
    let warm_explain = planner(&table, &captured, warm).explain(&q).unwrap();
    assert_eq!(
        cold_explain.candidate_pages(Strategy::EagerTrace),
        warm_explain.candidate_pages(Strategy::EagerTrace)
    );
    assert!(
        warm_explain.candidate_cost(Strategy::EagerTrace).unwrap()
            < cold_explain.candidate_cost(Strategy::EagerTrace).unwrap(),
        "resident pages must discount the charge"
    );
}

#[test]
fn prefetching_pool_cheapens_only_the_full_scan() {
    let (table, captured) = workload();
    let plain = spill(&table, 8);
    let pf_pool = Arc::new(BufferPool::with_prefetch(
        SegmentStore::in_memory(),
        8,
        ReplacementPolicy::Sieve,
        2,
    ));
    let hinted = PagedRelation::spill(&table, &pf_pool).unwrap();

    let io_plain = IoModel::from_paged(&plain);
    let io_hinted = IoModel::from_paged(&hinted);
    assert!(!io_plain.prefetch);
    assert!(io_hinted.prefetch, "from_paged reads the pool's prefetcher");

    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    let cold = planner(&table, &captured, io_plain).explain(&q).unwrap();
    let seq = planner(&table, &captured, io_hinted).explain(&q).unwrap();

    // LazyRewrite is the only sequential-sweep strategy: its charge drops at
    // the batched rate while its page estimate and every random-read
    // candidate stay identical.
    assert!(
        seq.candidate_cost(Strategy::LazyRewrite).unwrap()
            < cold.candidate_cost(Strategy::LazyRewrite).unwrap(),
        "{}",
        seq.render()
    );
    assert_eq!(
        seq.candidate_pages(Strategy::LazyRewrite),
        cold.candidate_pages(Strategy::LazyRewrite)
    );
    assert_eq!(
        seq.candidate_cost(Strategy::EagerTrace),
        cold.candidate_cost(Strategy::EagerTrace),
        "trace-driven random reads keep the demand rate"
    );
    assert_eq!(
        seq.candidate_cost(Strategy::PartitionPruned),
        cold.candidate_cost(Strategy::PartitionPruned)
    );

    assert_eq!(seq.prefetch, Some(true));
    assert!(seq.render().contains("prefetch=on"), "{}", seq.render());
    assert!(cold.render().contains("prefetch=off"), "{}", cold.render());

    let json = smoke_planner::wire::explain_to_json(&seq);
    assert_eq!(json.get("prefetch").unwrap().as_bool(), Some(true));
}

#[test]
fn explain_wire_encoding_carries_pages_and_residency() {
    let (table, captured) = workload();
    let paged = spill(&table, 8);
    let p = planner(&table, &captured, IoModel::from_paged(&paged));
    let q = LineageQuery::backward()
        .rids([0])
        .filter(Expr::col("v_bin").eq(Expr::lit(2)))
        .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]);
    let explain = p.explain(&q).unwrap();

    let json = smoke_planner::wire::explain_to_json(&explain);
    assert!(json.get("residency").unwrap().as_f64().is_some());
    let candidates = json.get("candidates").unwrap().as_arr().unwrap();
    let pages_of = |name: &str| {
        candidates
            .iter()
            .find(|c| c.get("strategy").unwrap().as_str() == Some(name))
            .and_then(|c| c.get("pages"))
            .and_then(|p| p.as_f64())
            .unwrap()
    };
    assert!(pages_of("PartitionPruned") < pages_of("EagerTrace"));
    assert_eq!(pages_of("CubeHit"), 0.0);

    // Without an I/O model the same keys exist but report no paged base.
    let in_ram = LineagePlanner::new(&table, &captured.output)
        .lineage(captured.lineage.input(0))
        .explain(&LineageQuery::backward().rids([0]))
        .unwrap();
    let json = smoke_planner::wire::explain_to_json(&in_ram);
    assert!(json.get("residency").unwrap().is_null());
}

#[test]
fn io_model_reads_pool_residency_through_the_relation() {
    // Direct plumbing check: PagedRelation::resident_fraction is the pool's
    // residency over exactly this relation's pages.
    let (table, _) = workload();
    let pool = Arc::new(BufferPool::new(
        SegmentStore::in_memory(),
        8,
        ReplacementPolicy::Sieve,
    ));
    let paged = PagedRelation::spill(&table, &pool).unwrap();
    assert_eq!(paged.resident_fraction(), 0.0);
    paged.gather(&[0, 1, 2], "probe").unwrap();
    let frac = paged.resident_fraction();
    assert!(frac > 0.0 && frac < 1.0);
    // An unrelated pool page does not count toward this relation.
    let extra = pool.allocate(1);
    pool.pin(extra).unwrap();
    assert_eq!(paged.resident_fraction(), frac);
}
