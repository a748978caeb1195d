//! What `plan_inproc` and `serve_mix` share: the two-view snapshot (the
//! shape of `smoke_server::demo_snapshot`, assembled here from the
//! benchmark's own columns), the script → `QuerySpec` mapping, and the
//! oracle's expectation for each spec.

use std::time::Duration;

use smoke_core::ops::groupby::{group_by, GroupByOptions, GroupByResult};
use smoke_core::{AggExpr, AggPushdown, Expr};
use smoke_lineage::InputLineage;
use smoke_planner::wire::QuerySpec;
use smoke_planner::{LineageResult, RewriteInfo, Strategy};
use smoke_server::{Snapshot, View};
use smoke_storage::{Relation, Value};

use super::{out_rids, take_lineage, timed, Res};
use crate::gen::BINS;
use crate::harness::{repeat_until, Answer, CaptureItem};
use crate::oracle::{BinRow, Oracle};
use crate::script::{Item, Query};
use crate::trace::Tracer;

pub const BY_Z: &str = "by_z";
pub const BY_BIN: &str = "by_bin";

fn cube_aggs() -> Vec<AggExpr> {
    vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")]
}

/// Wall time of each stage of one snapshot build.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildTimes {
    /// `group_by` on `z` with the partitioned index and the cube, finalized.
    pub by_z: Duration,
    /// Plain Inject `group_by` on `v_bin`, finalized.
    pub by_bin: Duration,
    /// `View` / `Snapshot` assembly (clones the base relation per view).
    pub assemble: Duration,
}

pub struct Built {
    pub snapshot: Snapshot,
    pub times: BuildTimes,
    /// Output rid in `by_z` of each `z` key, and in `by_bin` of each bin.
    pub out_of_key: Vec<u32>,
    pub out_of_bin: Vec<u32>,
    /// Bytes of every finalized lineage artifact the trace phase reads (both
    /// views' backward and forward indexes, the partitioned index, the cube
    /// at [`CUBE_CELL_BYTES`] per cell) and the backward edges they describe.
    pub lineage_bytes: usize,
    pub lineage_edges: usize,
}

/// `LineageCube` has no size accessor: a cell is a key value plus a count
/// and a sum state, charged here at a flat 64 bytes.
pub const CUBE_CELL_BYTES: usize = 64;

fn capture_view(
    table: &Relation,
    key: &str,
    opts: &GroupByOptions,
    tracer: &mut Tracer,
) -> Res<(GroupByResult, InputLineage, Duration)> {
    let (out, took) = timed(|| -> Res<_> {
        let mut r = tracer.span("core.group_by", 0, || {
            group_by(table, &[key.to_string()], &[AggExpr::count("cnt")], opts)
        })?;
        let lineage = tracer.span("lineage.finalize", 0, || {
            take_lineage(&mut r.lineage, 0).finalize()
        });
        Ok((r, lineage))
    });
    let (result, lineage) = out?;
    Ok((result, lineage, took))
}

/// Builds `by_z` (partitioned rid index + cube + rewrite info) and `by_bin`
/// over `table` and bundles them into a snapshot.
pub fn build(table: &Relation, groups: usize, tracer: &mut Tracer) -> Res<Built> {
    let mut opts = GroupByOptions::inject();
    opts.workload.skipping_partition_by = vec!["v_bin".to_string()];
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["v_bin".to_string()],
        aggs: cube_aggs(),
    });
    let (by_z, z_lineage, z_time) = capture_view(table, "z", &opts, tracer)?;
    let (by_bin, bin_lineage, bin_time) =
        capture_view(table, "v_bin", &GroupByOptions::inject(), tracer)?;
    let out_of_key = out_rids(&by_z.output, "z", groups)?;
    let out_of_bin = out_rids(&by_bin.output, "v_bin", BINS as usize)?;
    let lineage_bytes = z_lineage.heap_bytes()
        + bin_lineage.heap_bytes()
        + by_z
            .artifacts
            .partitioned
            .as_ref()
            .map_or(0, |p| p.heap_bytes())
        + by_z
            .artifacts
            .cube
            .as_ref()
            .map_or(0, |c| c.cell_count() * CUBE_CELL_BYTES);
    let lineage_edges = z_lineage.backward().edge_count() + bin_lineage.backward().edge_count();

    let (snapshot, assemble) = timed(|| {
        tracer.span("server.snapshot_assemble", 0, || {
            let view_z = View::new(table.clone(), by_z.output.clone())
                .lineage(&z_lineage)
                .artifacts(&by_z.artifacts)
                .rewrite(RewriteInfo::new(vec!["z".to_string()], None))
                .stats(by_z.stats);
            let view_bin = View::new(table.clone(), by_bin.output.clone())
                .lineage(&bin_lineage)
                .rewrite(RewriteInfo::new(vec!["v_bin".to_string()], None))
                .stats(by_bin.stats);
            Snapshot::new()
                .with_view(BY_Z, view_z)
                .with_view(BY_BIN, view_bin)
        })
    });
    Ok(Built {
        snapshot,
        times: BuildTimes {
            by_z: z_time,
            by_bin: bin_time,
            assemble,
        },
        out_of_key,
        out_of_bin,
        lineage_bytes,
        lineage_edges,
    })
}

/// The capture phase `plan_inproc` and `serve_mix` share: repetitions of the
/// snapshot build until `budget` is spent. Returns the two instrumented
/// group-bys as capture items and the view-assembly time of each repetition.
pub fn capture_phase(
    table: &Relation,
    groups: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Res<(Vec<CaptureItem>, Vec<f64>)> {
    let mut items = vec![
        CaptureItem::new("groupby_workload", table.len(), true),
        CaptureItem::new("groupby_bin", table.len(), true),
    ];
    let mut assemble_ms = Vec::new();
    repeat_until(budget, |_| -> Res<()> {
        let times = build(table, groups, tracer)?.times;
        items[0].secs.push(times.by_z.as_secs_f64());
        items[1].secs.push(times.by_bin.as_secs_f64());
        assemble_ms.push(times.assemble.as_secs_f64() * 1e3);
        Ok(())
    })?;
    Ok((items, assemble_ms))
}

/// The wire query of one script item.
pub fn spec(item: &Item, out_of_key: &[u32]) -> QuerySpec {
    let pos = |key: &u32| [out_of_key[*key as usize]];
    match &item.query {
        Query::Backward { key } => QuerySpec::backward().rids(pos(key)),
        Query::Crossfilter { key, bin } => QuerySpec::backward()
            .rids(pos(key))
            .filter(Expr::col("v_bin").eq(Expr::lit(*bin as i64)))
            .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]),
        Query::Drilldown { key } => QuerySpec::backward()
            .rids(pos(key))
            .aggregate(&["v_bin"], cube_aggs()),
        Query::Linked { key } => QuerySpec::multi_view().rids(pos(key)).then_through(BY_BIN),
        Query::Forward { rids } => QuerySpec::forward().rids(rids.iter().copied()),
        Query::Predicate { keys } => QuerySpec::backward()
            .matching(Expr::col("z").in_list(keys.iter().map(|&k| Value::Int(k as i64)).collect()))
            .aggregate(&["v_bin"], cube_aggs()),
        Query::Region { .. } => unreachable!("view scripts hold no region queries"),
    }
}

/// A result's answer relation as `(v_bin, cnt, total)` rows, ascending by bin
/// (`total` is 0 when the query did not ask for the sum).
pub fn bin_rows(rows: Option<&Relation>) -> Res<Option<Vec<BinRow>>> {
    let Some(rel) = rows else {
        return Ok(None);
    };
    let bins = rel.column_by_name("v_bin")?.as_int();
    let counts = rel.column_by_name("cnt")?.as_int();
    let totals = rel.column_by_name("total").ok().map(|c| c.as_float());
    let mut out: Vec<BinRow> = (0..rel.len())
        .map(|i| (bins[i], counts[i], totals.map_or(0.0, |t| t[i])))
        .collect();
    out.sort_by_key(|r| r.0);
    Ok(Some(out))
}

/// What the oracle says `item` must return. A cube hit answers from
/// materialized aggregates and returns no rids, by design.
pub fn expected(
    oracle: &Oracle<'_>,
    item: &Item,
    out_of_key: &[u32],
    out_of_bin: &[u32],
    strategy: Strategy,
) -> (Vec<u32>, Option<Vec<BinRow>>) {
    let drop_sum = |rows: Vec<BinRow>| rows.into_iter().map(|r| (r.0, r.1, 0.0)).collect();
    match &item.query {
        Query::Backward { key } => (oracle.backward(*key).to_vec(), None),
        Query::Crossfilter { key, bin } => {
            let rids = oracle.crossfilter(*key, *bin);
            let rows = drop_sum(oracle.bins(&rids));
            (rids, Some(rows))
        }
        Query::Drilldown { key } => {
            let rids = oracle.backward(*key);
            let rows = oracle.bins(rids);
            match strategy {
                Strategy::CubeHit => (Vec::new(), Some(rows)),
                _ => (rids.to_vec(), Some(rows)),
            }
        }
        Query::Linked { key } => {
            let mut outs: Vec<u32> = oracle
                .bins(oracle.backward(*key))
                .iter()
                .map(|b| out_of_bin[b.0 as usize])
                .collect();
            outs.sort_unstable();
            (outs, None)
        }
        Query::Forward { rids } => {
            let mut outs: Vec<u32> = rids
                .iter()
                .map(|&r| out_of_key[oracle.forward(r) as usize])
                .collect();
            outs.sort_unstable();
            outs.dedup();
            (outs, None)
        }
        Query::Predicate { keys } => {
            let rids = oracle.union(keys);
            let rows = oracle.bins(&rids);
            (rids, Some(rows))
        }
        Query::Region { .. } => unreachable!("view scripts hold no region queries"),
    }
}

/// A `LineageResult` in the oracle's terms.
pub fn answer(result: &LineageResult) -> Res<Answer<'_>> {
    Ok(Answer {
        rids: &result.rids,
        rows: bin_rows(result.rows.as_ref())?,
    })
}
