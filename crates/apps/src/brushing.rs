//! Linked brushing between visualization views (paper Figure 1, Example 1).
//!
//! Two views `V1` and `V2` are generated by base queries over a database that
//! share an input relation `X`. When the user selects marks in `V1`, the
//! marks of `V2` derived from the same input records are highlighted. In
//! lineage terms this is a backward query from the selected marks of `V1` to
//! `X`, followed by a forward query from those records to `V2`.
//!
//! Rather than materializing the intermediate base rid set on every
//! interaction, [`LinkedViews::build`] composes `V1`'s backward index with
//! `V2`'s forward index once (a 1-to-N side composes into CSR through
//! `compose_backward`'s count-then-fill kernel) and serves each brush as a
//! **single** trace of the composed index via the lineage planner.

use smoke_core::{CaptureMode, EngineError, Executor, LogicalPlan, QueryOutput, Result};
use smoke_lineage::{compose_backward, LineageIndex};
use smoke_planner::{LineagePlanner, LineageQuery};
use smoke_storage::{Database, Rid};

/// Two lineage-instrumented views linked through a shared input relation.
#[derive(Debug, Clone)]
pub struct LinkedViews {
    /// The shared input relation both views read.
    pub shared_table: String,
    /// The first view (`V1`) with its lineage.
    pub v1: QueryOutput,
    /// The second view (`V2`) with its lineage.
    pub v2: QueryOutput,
    /// `V1` mark → `V2` marks, composed once at build time (`None` when a
    /// required direction was pruned from capture).
    v1_to_v2: Option<LineageIndex>,
    /// `V2` mark → `V1` marks.
    v2_to_v1: Option<LineageIndex>,
}

impl LinkedViews {
    /// Executes the two base queries with Inject capture, links them through
    /// `shared_table`, and composes the cross-view indexes.
    pub fn build(
        db: &Database,
        v1_plan: &LogicalPlan,
        v2_plan: &LogicalPlan,
        shared_table: &str,
    ) -> Result<Self> {
        for (name, plan) in [("V1", v1_plan), ("V2", v2_plan)] {
            if !plan.base_tables().contains(&shared_table) {
                return Err(EngineError::InvalidPlan(format!(
                    "{name} does not read the shared relation `{shared_table}`"
                )));
            }
        }
        let executor = Executor::new(CaptureMode::Inject);
        let v1 = executor.execute(v1_plan, db)?;
        let v2 = executor.execute(v2_plan, db)?;
        let v1_to_v2 = compose_views(&v1, &v2, shared_table);
        let v2_to_v1 = compose_views(&v2, &v1, shared_table);
        Ok(LinkedViews {
            shared_table: shared_table.to_string(),
            v1,
            v2,
            v1_to_v2,
            v2_to_v1,
        })
    }

    /// The linked-brushing interaction: selecting `marks` in `V1` returns the
    /// marks of `V2` to highlight, in ascending rid order.
    ///
    /// One trace of the composed `backward_trace ∘ forward_trace` index —
    /// the intermediate base rid set is never materialized.
    pub fn brush(&self, marks: &[Rid]) -> Vec<Rid> {
        match &self.v1_to_v2 {
            Some(idx) => composed_trace(&self.v1, &self.v2, idx, marks),
            None => self.brush_two_step(marks),
        }
    }

    /// The reverse interaction: selecting marks in `V2` highlights marks in
    /// `V1`, in ascending rid order.
    pub fn brush_reverse(&self, marks: &[Rid]) -> Vec<Rid> {
        match &self.v2_to_v1 {
            Some(idx) => composed_trace(&self.v2, &self.v1, idx, marks),
            None => self.brush_reverse_two_step(marks),
        }
    }

    /// Reference implementation of [`LinkedViews::brush`] that materializes
    /// the intermediate base rid set (two separate traces). Kept for parity
    /// checks and for sessions whose capture pruned one direction.
    pub fn brush_two_step(&self, marks: &[Rid]) -> Vec<Rid> {
        let base = self.v1.lineage.backward(marks, &self.shared_table);
        let mut out = self.v2.lineage.forward(&base, &self.shared_table);
        out.sort_unstable();
        out
    }

    /// Two-step reference for [`LinkedViews::brush_reverse`].
    pub fn brush_reverse_two_step(&self, marks: &[Rid]) -> Vec<Rid> {
        let base = self.v2.lineage.backward(marks, &self.shared_table);
        let mut out = self.v1.lineage.forward(&base, &self.shared_table);
        out.sort_unstable();
        out
    }
}

/// Composes `src`'s backward index with `dst`'s forward index into a direct
/// `src mark → dst marks` index.
fn compose_views(src: &QueryOutput, dst: &QueryOutput, table: &str) -> Option<LineageIndex> {
    let backward = src.lineage.table(table)?.backward.as_ref()?;
    let forward = dst.lineage.table(table)?.forward.as_ref()?;
    Some(compose_backward(backward, forward))
}

/// One planner-served trace of a composed cross-view index.
fn composed_trace(
    src: &QueryOutput,
    dst: &QueryOutput,
    composed: &LineageIndex,
    marks: &[Rid],
) -> Vec<Rid> {
    LineagePlanner::new(&dst.relation, &src.relation)
        .backward_index(composed)
        .execute(&LineageQuery::backward().rids(marks.iter().copied()))
        .map(|result| result.rids)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_core::{AggExpr, CaptureConfig, DirectionFilter, Expr, PlanBuilder};
    use smoke_storage::{DataType, Relation, Value};

    fn db() -> Database {
        // X(product, price, revenue, profit)
        let mut x = Relation::builder("X")
            .column("product", DataType::Str)
            .column("price", DataType::Float)
            .column("revenue", DataType::Float)
            .column("profit", DataType::Float);
        let rows = [
            ("widget", 10.0, 100.0, 20.0),
            ("widget", 12.0, 80.0, 10.0),
            ("gadget", 50.0, 500.0, 200.0),
            ("gadget", 55.0, 450.0, 150.0),
            ("doohickey", 5.0, 20.0, 1.0),
        ];
        for (p, price, rev, prof) in rows {
            x = x.row(vec![
                Value::Str(p.into()),
                Value::Float(price),
                Value::Float(rev),
                Value::Float(prof),
            ]);
        }
        let mut db = Database::new();
        db.register(x.build().unwrap()).unwrap();
        db
    }

    fn plans() -> (LogicalPlan, LogicalPlan) {
        // V1: scatter of price vs revenue (a selection over X).
        let v1 = PlanBuilder::scan("X")
            .select(Expr::col("price").gt(Expr::lit(8.0)))
            .build();
        // V2: bar chart of profit per product.
        let v2 = PlanBuilder::scan("X")
            .group_by(&["product"], vec![AggExpr::sum("profit", "total_profit")])
            .build();
        (v1, v2)
    }

    fn views() -> LinkedViews {
        let db = db();
        let (v1, v2) = plans();
        LinkedViews::build(&db, &v1, &v2, "X").unwrap()
    }

    #[test]
    fn brushing_highlights_derived_marks() {
        let linked = views();
        // V1 keeps rows with price > 8: X rids 0,1,2,3 -> V1 rids 0..4.
        assert_eq!(linked.v1.relation.len(), 4);
        // Select the two widget points in V1 (V1 rids 0 and 1).
        let highlighted = linked.brush(&[0, 1]);
        // They map to the "widget" bar in V2.
        assert_eq!(highlighted.len(), 1);
        let bar = highlighted[0] as usize;
        assert_eq!(
            linked.v2.relation.value(bar, 0),
            Value::Str("widget".into())
        );
    }

    #[test]
    fn reverse_brushing_highlights_source_marks() {
        let linked = views();
        // Select the "gadget" bar in V2.
        let gadget_bar = linked
            .v2
            .find_output(|row| row[0] == Value::Str("gadget".into()))
            .unwrap();
        let marks = linked.brush_reverse(&[gadget_bar]);
        // Gadget rows are X rids 2 and 3; V1 kept rids 0..=3, so gadget rows
        // map to V1 outputs 2 and 3.
        assert_eq!(marks, vec![2, 3]);
    }

    #[test]
    fn composed_single_trace_matches_two_step_path() {
        let linked = views();
        // Every single mark and a few multi-mark sets, in both directions.
        for mark in 0..linked.v1.relation.len() as Rid {
            assert_eq!(
                linked.brush(&[mark]),
                linked.brush_two_step(&[mark]),
                "brush parity for mark {mark}"
            );
        }
        for mark in 0..linked.v2.relation.len() as Rid {
            assert_eq!(
                linked.brush_reverse(&[mark]),
                linked.brush_reverse_two_step(&[mark]),
                "reverse parity for mark {mark}"
            );
        }
        let all_v1: Vec<Rid> = (0..linked.v1.relation.len() as Rid).collect();
        assert_eq!(
            linked.brush(&all_v1),
            linked.brush_two_step(&all_v1),
            "brush parity for all marks"
        );
        assert_eq!(linked.brush(&[]), Vec::<Rid>::new());
    }

    #[test]
    fn group_by_sourced_composition_is_csr() {
        let linked = views();
        // V2's backward index is 1-to-N (group-by): finalized to CSR, its
        // composition with V1's forward index takes the CSR fast path and
        // stays CSR.
        assert!(matches!(linked.v2_to_v1, Some(LineageIndex::Csr(_))));
        assert!(linked.v1_to_v2.is_some());
    }

    #[test]
    fn pruned_capture_falls_back_to_two_step_path() {
        // Composition is impossible when V2's forward direction was pruned;
        // brush must degrade to the two-step path (which itself returns empty
        // for the missing direction) instead of panicking.
        let db = db();
        let (v1_plan, v2_plan) = plans();
        let executor = Executor::with_config(
            CaptureConfig::inject().prune("X", DirectionFilter::BackwardOnly),
        );
        let v1 = executor.execute(&v1_plan, &db).unwrap();
        let v2 = executor.execute(&v2_plan, &db).unwrap();
        let linked = LinkedViews {
            shared_table: "X".into(),
            v1_to_v2: compose_views(&v1, &v2, "X"),
            v2_to_v1: compose_views(&v2, &v1, "X"),
            v1,
            v2,
        };
        assert!(linked.v1_to_v2.is_none());
        assert!(linked.brush(&[0]).is_empty());
    }

    #[test]
    fn brushing_nothing_highlights_nothing() {
        let linked = views();
        assert!(linked.brush(&[]).is_empty());
    }

    #[test]
    fn plans_must_share_the_relation() {
        let db = db();
        let v1 = PlanBuilder::scan("X").build();
        let v2 = PlanBuilder::scan("X").build();
        assert!(LinkedViews::build(&db, &v1, &v2, "Y").is_err());
    }
}
