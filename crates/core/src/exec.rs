//! Plan execution with end-to-end lineage propagation (paper §3.3).
//!
//! The executor runs each physical operator with the configured
//! instrumentation and *composes* the per-operator lineage indexes bottom-up,
//! so that only indexes connecting the query output to the base relations are
//! kept — intermediate indexes are dropped as soon as their parent has been
//! processed, exactly as the propagation technique of §3.3 prescribes.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::mem::take;
use std::time::Instant;

use smoke_lineage::{
    compose_backward, compose_forward, CaptureStats, InputLineage, LineageIndex, OperatorLineage,
    QueryLineage,
};
use smoke_storage::{Database, Relation, Rid, Value};

use crate::error::{EngineError, Result};
use crate::instrument::{CaptureConfig, CaptureMode, DirectionFilter};
use crate::ops::groupby::{group_by, GroupByOptions};
use crate::ops::join::{hash_join, JoinOptions};
use crate::ops::project::project;
use crate::ops::select::{select, SelectOptions};
use crate::plan::LogicalPlan;
use crate::workload::WorkloadArtifacts;

/// The result of executing an instrumented query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The query's output relation.
    pub relation: Relation,
    /// End-to-end lineage between the output and every (non-pruned) base
    /// relation.
    pub lineage: QueryLineage,
    /// Workload-aware artifacts (partitioned indexes / push-down cubes).
    pub artifacts: WorkloadArtifacts,
    /// Aggregated capture statistics.
    pub stats: CaptureStats,
}

impl QueryOutput {
    /// Finds the rid of the first output row whose values satisfy `pred`.
    pub fn find_output(&self, pred: impl Fn(&[Value]) -> bool) -> Option<Rid> {
        (0..self.relation.len())
            .find(|&rid| pred(&self.relation.row_values(rid)))
            .map(|rid| rid as Rid)
    }
}

struct NodeResult<'a> {
    relation: Cow<'a, Relation>,
    /// Lineage from this node's output to each base relation underneath it.
    per_table: BTreeMap<String, InputLineage>,
    artifacts: WorkloadArtifacts,
    stats: CaptureStats,
}

/// Executes logical plans with lineage capture.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    config: CaptureConfig,
}

impl Executor {
    /// Creates an executor with the given capture mode and default options.
    pub fn new(mode: CaptureMode) -> Self {
        Executor {
            config: CaptureConfig::new(mode),
        }
    }

    /// Creates an executor with a full capture configuration.
    pub fn with_config(config: CaptureConfig) -> Self {
        Executor { config }
    }

    /// The executor's capture configuration.
    pub fn config(&self) -> &CaptureConfig {
        &self.config
    }

    /// Executes `plan` against `db`.
    pub fn execute(&self, plan: &LogicalPlan, db: &Database) -> Result<QueryOutput> {
        let start = Instant::now();
        let node = self.execute_node(plan, db)?;

        let mut lineage = QueryLineage::new();
        for (table, input) in node.per_table {
            if !self.config.captures_table(&table) {
                continue;
            }
            let dirs = self.config.directions_for(&table);
            lineage.insert(
                table,
                InputLineage {
                    backward: if dirs.backward() {
                        input.backward
                    } else {
                        None
                    },
                    forward: if dirs.forward() { input.forward } else { None },
                },
            );
        }
        let mut stats = node.stats;
        stats.base_query = start.elapsed() - stats.deferred.min(start.elapsed());
        lineage.stats = stats;

        Ok(QueryOutput {
            relation: node.relation.into_owned(),
            lineage,
            artifacts: node.artifacts,
            stats,
        })
    }

    fn mode(&self) -> CaptureMode {
        self.config.mode
    }

    fn capture_any(&self, tables: &[&str]) -> bool {
        self.mode().captures() && tables.iter().any(|t| self.config.captures_table(t))
    }

    fn directions_for_side(&self, tables: &[&str]) -> DirectionFilter {
        if !self.mode().captures() {
            return DirectionFilter::None;
        }
        let mut backward = false;
        let mut forward = false;
        for t in tables {
            let d = self.config.directions_for(t);
            backward |= d.backward();
            forward |= d.forward();
        }
        match (backward, forward) {
            (true, true) => DirectionFilter::Both,
            (true, false) => DirectionFilter::BackwardOnly,
            (false, true) => DirectionFilter::ForwardOnly,
            (false, false) => DirectionFilter::None,
        }
    }

    fn execute_node<'a>(&self, plan: &LogicalPlan, db: &'a Database) -> Result<NodeResult<'a>> {
        match plan {
            LogicalPlan::Scan { table } => {
                let relation = db.relation(table)?;
                let mut per_table = BTreeMap::new();
                if self.config.captures_table(table) {
                    per_table.insert(
                        table.clone(),
                        InputLineage::new(
                            LineageIndex::Identity(relation.len()),
                            LineageIndex::Identity(relation.len()),
                        ),
                    );
                }
                Ok(NodeResult {
                    relation: Cow::Borrowed(relation),
                    per_table,
                    artifacts: WorkloadArtifacts::default(),
                    stats: CaptureStats::default(),
                })
            }
            LogicalPlan::Select { input, predicate } => {
                let child = self.execute_node(input, db)?;
                let tables = input.base_tables();
                let capture = self.capture_any(&tables);
                let opts = SelectOptions {
                    capture,
                    directions: self.directions_for_side(&tables),
                };
                let mut out = select(child.relation.as_ref(), predicate, &opts)?;
                let per_table = compose_unary(&child.per_table, &mut out.lineage, capture);
                let mut stats = child.stats;
                stats.merge(&out.stats);
                Ok(NodeResult {
                    relation: Cow::Owned(out.output),
                    per_table,
                    artifacts: child.artifacts,
                    stats,
                })
            }
            LogicalPlan::Project { input, columns } => {
                let child = self.execute_node(input, db)?;
                let capture = self.capture_any(&input.base_tables());
                let out = project(child.relation.as_ref(), columns, capture)?;
                // Bag projection is the identity on rids: child lineage passes
                // through unchanged.
                let mut stats = child.stats;
                stats.merge(&out.stats);
                Ok(NodeResult {
                    relation: Cow::Owned(out.output),
                    per_table: child.per_table,
                    artifacts: child.artifacts,
                    stats,
                })
            }
            LogicalPlan::GroupBy { input, keys, aggs } => {
                let child = self.execute_node(input, db)?;
                let tables = input.base_tables();
                let capture = self.capture_any(&tables);
                let opts = GroupByOptions {
                    mode: if capture {
                        self.mode()
                    } else {
                        CaptureMode::Baseline
                    },
                    directions: self.directions_for_side(&tables),
                    hints: self.config.hints.clone(),
                    workload: self.config.workload.clone(),
                };
                let mut out = group_by(child.relation.as_ref(), keys, aggs, &opts)?;
                let per_table = compose_unary(&child.per_table, &mut out.lineage, capture);

                // Remap the partitioned index (whose rids refer to this
                // operator's *input*) to base rids when the input is not a
                // base scan: its flat rid buffer maps in place through the
                // sole table's 1-to-1 backward lineage (the experiments apply
                // push-downs to single-table SPJA blocks). Cube cells hold no
                // rids.
                let mut artifacts = out.artifacts;
                if !matches!(input.as_ref(), LogicalPlan::Scan { .. }) && tables.len() == 1 {
                    let lineage = child.per_table.get(tables[0]);
                    if let Some(backward) = lineage.and_then(|l| l.backward.as_ref()) {
                        artifacts.partitioned = (artifacts.partitioned)
                            .map(|part| part.map_rids(|rid| backward.single(rid)));
                    }
                }

                let mut stats = child.stats;
                stats.merge(&out.stats);
                Ok(NodeResult {
                    relation: Cow::Owned(out.output),
                    per_table,
                    artifacts,
                    stats,
                })
            }
            LogicalPlan::Join {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let left_node = self.execute_node(left, db)?;
                let right_node = self.execute_node(right, db)?;
                let left_tables = left.base_tables();
                let right_tables = right.base_tables();
                let capture = self.capture_any(&left_tables) || self.capture_any(&right_tables);
                let opts = JoinOptions {
                    mode: if capture {
                        self.mode()
                    } else {
                        CaptureMode::Baseline
                    },
                    left_directions: self.directions_for_side(&left_tables),
                    right_directions: self.directions_for_side(&right_tables),
                    hints: self.config.hints.clone(),
                    materialize_output: true,
                };
                let mut out = hash_join(
                    left_node.relation.as_ref(),
                    right_node.relation.as_ref(),
                    left_keys,
                    right_keys,
                    &opts,
                )?;

                let mut per_table = BTreeMap::new();
                if capture {
                    let [left_op, right_op] = [0, 1].map(|at| take(out.lineage.input_mut(at)));
                    compose_side(&mut per_table, &left_node.per_table, left_op);
                    compose_side(&mut per_table, &right_node.per_table, right_op);
                }
                let mut stats = left_node.stats;
                stats.merge(&right_node.stats);
                stats.merge(&out.stats);
                let artifacts = if left_node.artifacts.is_empty() {
                    right_node.artifacts
                } else {
                    left_node.artifacts
                };
                Ok(NodeResult {
                    relation: Cow::Owned(out.output),
                    per_table,
                    artifacts,
                    stats,
                })
            }
        }
    }
}

/// Composes the per-base-table lineage of a unary operator's child with the
/// operator's own lineage (input 0), which moves out of `op`.
fn compose_unary(
    child: &BTreeMap<String, InputLineage>,
    op: &mut OperatorLineage,
    capture: bool,
) -> BTreeMap<String, InputLineage> {
    let mut out = BTreeMap::new();
    if !capture || op.is_none() {
        return out;
    }
    compose_side(&mut out, child, take(op.input_mut(0)));
    out
}

/// Composes one side of an operator: for every base table reachable through
/// the child, chain the child's indexes with the operator's indexes.
///
/// A child that is the operator's own input scan (through any projections)
/// maps one table by `Identity(n)` over exactly the `n` rows the operator
/// read: there the operator's index is the composition, and it moves in
/// rather than being copied through [`compose_backward`]'s identity rules.
fn compose_side(
    out: &mut BTreeMap<String, InputLineage>,
    child: &BTreeMap<String, InputLineage>,
    op: InputLineage,
) {
    if let (1, Some((table, lin))) = (child.len(), child.iter().next()) {
        let backward = match (op.backward, &lin.backward) {
            (Some(parent), Some(LineageIndex::Identity(n))) => {
                debug_assert!(
                    (0..parent.len() as Rid).all(|o| {
                        let mut inside = true;
                        parent.for_each(o, |r| inside &= (r as usize) < *n);
                        inside
                    }),
                    "an operator's backward lineage points past its input scan"
                );
                Some(parent)
            }
            (parent, child_idx) => compose(parent.as_ref(), child_idx.as_ref(), compose_backward),
        };
        let forward = match (&lin.forward, op.forward) {
            (Some(LineageIndex::Identity(n)), Some(parent)) if parent.len() == *n => Some(parent),
            (child_idx, parent) => compose(child_idx.as_ref(), parent.as_ref(), compose_forward),
        };
        out.insert(table.clone(), InputLineage { backward, forward });
        return;
    }
    for (table, lin) in child {
        let backward = compose(
            op.backward.as_ref(),
            lin.backward.as_ref(),
            compose_backward,
        );
        let forward = compose(lin.forward.as_ref(), op.forward.as_ref(), compose_forward);
        out.insert(table.clone(), InputLineage { backward, forward });
    }
}

/// `how(first, second)` when both directions were captured.
fn compose(
    first: Option<&LineageIndex>,
    second: Option<&LineageIndex>,
    how: fn(&LineageIndex, &LineageIndex) -> LineageIndex,
) -> Option<LineageIndex> {
    Some(how(first?, second?))
}

/// Convenience: executes a plan without capturing lineage and returns only the
/// output relation (used by baselines and lazy re-execution).
pub fn execute_baseline(plan: &LogicalPlan, db: &Database) -> Result<Relation> {
    let out = Executor::new(CaptureMode::Baseline).execute(plan, db)?;
    Ok(out.relation)
}

/// Validation helper: every output row's backward lineage, traced forward
/// again, must contain the output row (used by tests and property checks).
pub fn check_lineage_round_trip(output: &QueryOutput, table: &str) -> Result<()> {
    let lin = output
        .lineage
        .table(table)
        .ok_or_else(|| EngineError::InvalidPlan(format!("no lineage for `{table}`")))?;
    let (Some(backward), Some(forward)) = (&lin.backward, &lin.forward) else {
        return Ok(());
    };
    for o in 0..output.relation.len() as Rid {
        for base in backward.lookup(o) {
            if !forward.lookup(base).contains(&o) {
                return Err(EngineError::InvalidPlan(format!(
                    "lineage round trip failed for output {o} / base {base} of `{table}`"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::expr::Expr;
    use crate::plan::PlanBuilder;
    use smoke_pager::{ReplacementPolicy, PAGE_SIZE};
    use smoke_storage::{DataType, StorageError};

    fn db() -> Database {
        let mut db = Database::new();
        let mut orders = Relation::builder("orders")
            .column("o_id", DataType::Int)
            .column("o_cust", DataType::Str);
        for i in 0..4 {
            orders = orders.row(vec![
                Value::Int(i),
                Value::Str(if i % 2 == 0 { "alice" } else { "bob" }.into()),
            ]);
        }
        db.register(orders.build().unwrap()).unwrap();

        let mut items = Relation::builder("lineitem")
            .column("l_oid", DataType::Int)
            .column("l_qty", DataType::Float)
            .column("l_flag", DataType::Str);
        let rows = [
            (0, 5.0, "A"),
            (0, 7.0, "B"),
            (1, 1.0, "A"),
            (2, 9.0, "B"),
            (2, 2.0, "A"),
            (3, 4.0, "A"),
        ];
        for (oid, qty, flag) in rows {
            items = items.row(vec![
                Value::Int(oid),
                Value::Float(qty),
                Value::Str(flag.into()),
            ]);
        }
        db.register(items.build().unwrap()).unwrap();
        db
    }

    fn spja_plan() -> LogicalPlan {
        PlanBuilder::scan("orders")
            .join(PlanBuilder::scan("lineitem"), &["o_id"], &["l_oid"])
            .select(Expr::col("l_qty").gt(Expr::lit(1.5)))
            .group_by(
                &["o_cust"],
                vec![AggExpr::count("cnt"), AggExpr::sum("l_qty", "qty")],
            )
            .build()
    }

    #[test]
    fn baseline_and_inject_agree_on_results() {
        let db = db();
        let plan = spja_plan();
        let baseline = Executor::new(CaptureMode::Baseline)
            .execute(&plan, &db)
            .unwrap();
        let inject = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        let defer = Executor::new(CaptureMode::Defer)
            .execute(&plan, &db)
            .unwrap();
        assert_eq!(baseline.relation, inject.relation);
        assert_eq!(baseline.relation, defer.relation);
        assert!(baseline.lineage.is_empty());
        assert!(!inject.lineage.is_empty());
    }

    #[test]
    fn end_to_end_lineage_reaches_base_tables() {
        let db = db();
        let plan = spja_plan();
        let out = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        assert_eq!(out.lineage.tables(), vec!["lineitem", "orders"]);

        // Group "alice" covers orders 0 and 2 and their qualifying items.
        let alice = out
            .find_output(|row| row[0] == Value::Str("alice".into()))
            .unwrap();
        let mut base_orders = out.lineage.backward(&[alice], "orders");
        base_orders.sort_unstable();
        assert_eq!(base_orders, vec![0, 2]);
        let mut base_items = out.lineage.backward(&[alice], "lineitem");
        base_items.sort_unstable();
        // Items for orders 0 and 2 with qty > 1.5: rids 0, 1, 3, 4.
        assert_eq!(base_items, vec![0, 1, 3, 4]);

        // Forward from lineitem rid 3 (order 2, alice) reaches the alice group.
        assert_eq!(out.lineage.forward(&[3], "lineitem"), vec![alice]);
        check_lineage_round_trip(&out, "lineitem").unwrap();
        check_lineage_round_trip(&out, "orders").unwrap();
    }

    #[test]
    fn defer_produces_same_lineage_as_inject() {
        let db = db();
        let plan = spja_plan();
        let inject = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        let defer = Executor::new(CaptureMode::Defer)
            .execute(&plan, &db)
            .unwrap();
        for table in ["orders", "lineitem"] {
            for o in 0..inject.relation.len() as Rid {
                let mut a = inject.lineage.backward(&[o], table);
                let mut b = defer.lineage.backward(&[o], table);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "backward mismatch for {table} output {o}");
            }
        }
    }

    #[test]
    fn pruning_tables_and_directions() {
        let db = db();
        let plan = spja_plan();
        let cfg = CaptureConfig::inject()
            .prune("orders", DirectionFilter::None)
            .prune("lineitem", DirectionFilter::BackwardOnly);
        let out = Executor::with_config(cfg).execute(&plan, &db).unwrap();
        assert_eq!(out.lineage.tables(), vec!["lineitem"]);
        let lin = out.lineage.table("lineitem").unwrap();
        assert!(lin.backward.is_some());
        assert!(lin.forward.is_none());
        // Forward queries against a pruned direction return nothing.
        assert!(out.lineage.forward(&[0], "lineitem").is_empty());
    }

    #[test]
    fn single_table_aggregation_with_selection() {
        let db = db();
        let plan = PlanBuilder::scan("lineitem")
            .select(Expr::col("l_flag").eq(Expr::lit("A")))
            .group_by(&["l_oid"], vec![AggExpr::count("cnt")])
            .build();
        let out = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        assert_eq!(out.relation.len(), 4);
        // Group for l_oid = 2 with flag A is base rid 4 only.
        let g = out.find_output(|row| row[0] == Value::Int(2)).unwrap();
        assert_eq!(out.lineage.backward(&[g], "lineitem"), vec![4]);
        // Filtered-out rows have no forward lineage.
        assert!(out.lineage.forward(&[3], "lineitem").is_empty());
    }

    #[test]
    fn projection_passes_lineage_through() {
        let db = db();
        let plan = PlanBuilder::scan("lineitem")
            .select(Expr::col("l_qty").ge(Expr::lit(4.0)))
            .project(&["l_flag"])
            .build();
        let out = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        assert_eq!(out.relation.schema().names(), vec!["l_flag"]);
        // Output rid 0 is lineitem rid 0 (qty 5).
        assert_eq!(out.lineage.backward(&[0], "lineitem"), vec![0]);
    }

    #[test]
    fn missing_table_is_an_error() {
        let db = db();
        let plan = PlanBuilder::scan("nope").build();
        assert!(Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .is_err());
    }

    #[test]
    fn spilled_table_fails_typed_instead_of_reading_resident_rows() {
        let mut db = db();
        db.set_memory_budget_in_memory(PAGE_SIZE, ReplacementPolicy::Sieve)
            .unwrap();
        let plan = PlanBuilder::scan("lineitem")
            .group_by(&["l_flag"], vec![AggExpr::count("cnt")])
            .build();
        for mode in [CaptureMode::Baseline, CaptureMode::Inject] {
            assert_eq!(
                Executor::new(mode).execute(&plan, &db).unwrap_err(),
                EngineError::Storage(StorageError::RelationSpilled("lineitem".into()))
            );
        }
    }
}
