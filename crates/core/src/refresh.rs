//! Refresh and forward propagation over lineage (paper §2.1, footnote 1).
//!
//! Beyond plain backward/forward queries, Smoke's query model includes
//! *multi-directional* traces (tracing a rid set through several views at
//! once) and *refresh / forward propagation*: when a subset of base records
//! is deleted or updated, the forward lineage identifies exactly which output
//! records of an aggregation view are affected, and — because the maintained
//! aggregates are algebraic/distributive — those outputs can be refreshed
//! incrementally without re-running the base query.

use std::collections::{BTreeMap, BTreeSet};

use smoke_storage::{Relation, Rid, Value};

use crate::agg::{AggExpr, AggState};
use crate::error::{EngineError, Result};
use crate::exec::QueryOutput;
use crate::ops::groupby::AggInputs;

/// Multi-forward trace: for each registered view, the output rids that depend
/// on any of the given base rids of `table`.
pub fn multi_forward(views: &[&QueryOutput], base_rids: &[Rid], table: &str) -> Vec<Vec<Rid>> {
    views
        .iter()
        .map(|view| view.lineage.forward(base_rids, table))
        .collect()
}

/// Multi-backward trace: the union of the base rids of `table` contributing to
/// the selected output rids of *any* of the given views (deduplicated,
/// ascending).
pub fn multi_backward(views: &[&QueryOutput], selections: &[Vec<Rid>], table: &str) -> Vec<Rid> {
    let mut out: BTreeSet<Rid> = BTreeSet::new();
    for (view, selected) in views.iter().zip(selections) {
        out.extend(view.lineage.backward(selected, table));
    }
    out.into_iter().collect()
}

/// The effect of a base-table delta on one aggregation view output.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshedOutput {
    /// The affected output rid.
    pub output_rid: Rid,
    /// The refreshed values of the view's aggregate columns, in the order of
    /// the aggregate expressions.
    pub aggregates: Vec<Value>,
    /// Whether the group became empty after the delta (and should be removed
    /// from the rendered view).
    pub now_empty: bool,
}

/// Incrementally refreshes an aggregation view after deleting `deleted_rids`
/// from the base relation `table`.
///
/// The view must have been produced by a group-by whose aggregates are the
/// given `aggs` over `input` (the base relation), with both backward and
/// forward lineage captured. Only the affected groups are recomputed, and
/// only over their (shrunken) lineage sets — no full scan, no hash tables.
pub fn refresh_after_delete(
    view: &QueryOutput,
    input: &Relation,
    table: &str,
    aggs: &[AggExpr],
    deleted_rids: &[Rid],
) -> Result<Vec<RefreshedOutput>> {
    let lineage = view
        .lineage
        .table(table)
        .ok_or_else(|| EngineError::InvalidPlan(format!("no lineage captured for `{table}`")))?;
    let backward = lineage
        .backward
        .as_ref()
        .ok_or_else(|| EngineError::InvalidPlan("refresh requires backward lineage".to_string()))?;
    let forward = lineage
        .forward
        .as_ref()
        .ok_or_else(|| EngineError::InvalidPlan("refresh requires forward lineage".to_string()))?;

    let deleted: BTreeSet<Rid> = deleted_rids.iter().copied().collect();
    // Forward propagation: the affected output records. `for_each` walks the
    // index (CSR slices for finalized lineage) without per-rid allocations.
    let mut affected: BTreeSet<Rid> = BTreeSet::new();
    for &rid in deleted_rids {
        forward.for_each(rid, |o| {
            affected.insert(o);
        });
    }

    let agg_inputs = AggInputs::resolve(input, aggs)?;

    let mut refreshed = Vec::with_capacity(affected.len());
    for &out in &affected {
        let mut states: Vec<AggState> = aggs.iter().map(AggExpr::new_state).collect();
        let mut remaining = 0usize;
        backward.for_each(out, |rid| {
            if deleted.contains(&rid) {
                return;
            }
            remaining += 1;
            agg_inputs.update(&mut states, aggs, rid as usize);
        });
        refreshed.push(RefreshedOutput {
            output_rid: out,
            aggregates: states.iter().map(AggState::finalize).collect(),
            now_empty: remaining == 0,
        });
    }
    Ok(refreshed)
}

/// Applies a set of refreshed outputs to a rendered view relation, producing
/// the updated relation (affected aggregate cells replaced, emptied groups
/// dropped). `agg_start` is the column index of the first aggregate column.
pub fn apply_refresh(
    view: &Relation,
    refreshed: &[RefreshedOutput],
    agg_start: usize,
) -> Result<Relation> {
    let by_rid: BTreeMap<Rid, &RefreshedOutput> =
        refreshed.iter().map(|r| (r.output_rid, r)).collect();
    let mut builder = Relation::builder(view.name().to_string());
    for f in view.schema().fields() {
        builder = builder.column(f.name.clone(), f.data_type);
    }
    for rid in 0..view.len() {
        let mut row = view.row_values(rid);
        if let Some(update) = by_rid.get(&(rid as Rid)) {
            if update.now_empty {
                continue;
            }
            for (i, value) in update.aggregates.iter().enumerate() {
                row[agg_start + i] = value.clone();
            }
        }
        builder = builder.row(row);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::instrument::CaptureMode;
    use crate::plan::PlanBuilder;
    use smoke_storage::{DataType, Database};

    fn db() -> Database {
        let mut rel = Relation::builder("sales")
            .column("region", DataType::Str)
            .column("amount", DataType::Float);
        for (region, amount) in [
            ("east", 10.0),
            ("west", 20.0),
            ("east", 30.0),
            ("west", 40.0),
            ("east", 50.0),
        ] {
            rel = rel.row(vec![Value::Str(region.into()), Value::Float(amount)]);
        }
        let mut db = Database::new();
        db.register(rel.build().unwrap()).unwrap();
        db
    }

    fn aggs() -> Vec<AggExpr> {
        vec![AggExpr::count("cnt"), AggExpr::sum("amount", "total")]
    }

    fn view(db: &Database) -> QueryOutput {
        let plan = PlanBuilder::scan("sales")
            .group_by(&["region"], aggs())
            .build();
        Executor::new(CaptureMode::Inject)
            .execute(&plan, db)
            .unwrap()
    }

    #[test]
    fn delete_refreshes_only_affected_groups() {
        let db = db();
        let v = view(&db);
        let sales = db.relation("sales").unwrap();
        // Delete rid 2 (east, 30.0).
        let refreshed = refresh_after_delete(&v, sales, "sales", &aggs(), &[2]).unwrap();
        assert_eq!(refreshed.len(), 1);
        let east = &refreshed[0];
        assert_eq!(
            v.relation.value(east.output_rid as usize, 0),
            Value::Str("east".into())
        );
        assert_eq!(east.aggregates, vec![Value::Int(2), Value::Float(60.0)]);
        assert!(!east.now_empty);
    }

    #[test]
    fn deleting_an_entire_group_marks_it_empty_and_drops_it() {
        let db = db();
        let v = view(&db);
        let sales = db.relation("sales").unwrap();
        // Delete all west rows (rids 1 and 3).
        let refreshed = refresh_after_delete(&v, sales, "sales", &aggs(), &[1, 3]).unwrap();
        assert_eq!(refreshed.len(), 1);
        assert!(refreshed[0].now_empty);

        let updated = apply_refresh(&v.relation, &refreshed, 1).unwrap();
        assert_eq!(updated.len(), 1);
        assert_eq!(updated.value(0, 0), Value::Str("east".into()));
    }

    #[test]
    fn apply_refresh_rewrites_aggregate_cells() {
        let db = db();
        let v = view(&db);
        let sales = db.relation("sales").unwrap();
        let refreshed = refresh_after_delete(&v, sales, "sales", &aggs(), &[0, 4]).unwrap();
        let updated = apply_refresh(&v.relation, &refreshed, 1).unwrap();
        // East keeps one row (rid 2) with total 30.
        let east = (0..updated.len())
            .find(|&r| updated.value(r, 0) == Value::Str("east".into()))
            .unwrap();
        assert_eq!(updated.value(east, 1), Value::Int(1));
        assert_eq!(updated.value(east, 2), Value::Float(30.0));
        // West untouched.
        let west = (0..updated.len())
            .find(|&r| updated.value(r, 0) == Value::Str("west".into()))
            .unwrap();
        assert_eq!(updated.value(west, 2), Value::Float(60.0));
    }

    #[test]
    fn multi_directional_traces() {
        let db = db();
        let v1 = view(&db);
        let plan2 = PlanBuilder::scan("sales")
            .group_by(&["amount"], vec![AggExpr::count("cnt")])
            .build();
        let v2 = Executor::new(CaptureMode::Inject)
            .execute(&plan2, &db)
            .unwrap();

        let forward = multi_forward(&[&v1, &v2], &[0], "sales");
        assert_eq!(forward.len(), 2);
        assert_eq!(forward[0].len(), 1);
        assert_eq!(forward[1].len(), 1);

        let backward = multi_backward(&[&v1, &v2], &[vec![0], vec![0]], "sales");
        // View 1 output 0 = east group {0, 2, 4}; view 2 output 0 = amount
        // 10.0 group {0}; union = {0, 2, 4}.
        assert_eq!(backward, vec![0, 2, 4]);
    }

    #[test]
    fn refresh_requires_forward_lineage() {
        let db = db();
        let plan = PlanBuilder::scan("sales")
            .group_by(&["region"], aggs())
            .build();
        let cfg = crate::instrument::CaptureConfig::inject()
            .prune("sales", crate::instrument::DirectionFilter::BackwardOnly);
        let v = Executor::with_config(cfg).execute(&plan, &db).unwrap();
        let sales = db.relation("sales").unwrap();
        assert!(refresh_after_delete(&v, sales, "sales", &aggs(), &[0]).is_err());
    }
}
