//! Logical (query-rewrite) capture baselines: `Logic-Rid`, `Logic-Tup`,
//! `Logic-Idx` (paper §2.1, §5, Appendix B).
//!
//! Logical approaches stay within the relational model: the base query is
//! rewritten so its output is annotated with input rids (`Logic-Rid`) or full
//! input tuples (`Logic-Tup`), producing a **denormalized lineage graph** —
//! an aggregation output computed over `k` inputs is duplicated `k` times.
//! `Logic-Idx` additionally scans the annotated relation to build the same
//! end-to-end rid indexes Smoke builds, so that lineage queries are served at
//! the same speed; the capture-side cost of producing and scanning the
//! denormalized relation is what the paper's figures compare against.
//!
//! Following Appendix B, the rewrite is implemented *inside* the Smoke engine
//! (reusing the aggregation hash table to join the output back to the input)
//! rather than on an external DBMS, which the paper shows is two orders of
//! magnitude faster than stock Perm/GProm and makes the comparison fair.

use std::collections::HashMap;

use smoke_lineage::{InputLineage, LineageIndex, QueryLineage, RidIndex};
use smoke_storage::{Column, DataType, Database, Relation, Rid, Value};

use crate::error::{EngineError, Result};
use crate::exec::execute_baseline;
use crate::key::KeyExtractor;
use crate::ops::groupby::{group_by, GroupByOptions};
use crate::plan::LogicalPlan;

/// How the rewritten query annotates its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Annotation {
    /// Annotate with input rids (`Logic-Rid`).
    Rid,
    /// Annotate with full input tuples (`Logic-Tup`).
    Tuple,
}

/// The result of logical lineage capture.
#[derive(Debug, Clone)]
pub struct LogicalCapture {
    /// The base query's (clean) output relation.
    pub output: Relation,
    /// The denormalized, annotated lineage relation.
    pub annotated: Relation,
    /// For each base table, the name of its rid annotation column in
    /// [`LogicalCapture::annotated`].
    pub rid_columns: Vec<(String, String)>,
    /// Name of the output-rid column in the annotated relation.
    pub oid_column: String,
}

fn rid_column_name(table: &str) -> String {
    format!("__rid_{table}")
}

/// Builds an augmented copy of every base table with an explicit rid column,
/// which is how the relational rewrite carries provenance through the plan.
fn augment_database(db: &Database, tables: &[&str]) -> Result<Database> {
    let mut augmented = Database::new();
    for table in tables {
        let relation = db.relation(table)?;
        let mut schema_fields = relation.schema().fields().to_vec();
        schema_fields.push(smoke_storage::Field::new(
            rid_column_name(table),
            DataType::Int,
        ));
        let mut columns: Vec<Column> = relation.columns().to_vec();
        columns.push(Column::Int((0..relation.len() as i64).collect()));
        let schema = smoke_storage::Schema::new(schema_fields)?;
        augmented.register(Relation::from_columns(*table, schema, columns)?)?;
    }
    Ok(augmented)
}

/// The group-by keys and aggregates peeled off the top of a plan, when the
/// plan's root is an aggregation.
type AggregationSplit<'a> = Option<(&'a [String], &'a [crate::agg::AggExpr])>;

fn split_aggregation(plan: &LogicalPlan) -> (&LogicalPlan, AggregationSplit<'_>) {
    match plan {
        LogicalPlan::GroupBy { input, keys, aggs } => (input.as_ref(), Some((keys, aggs))),
        other => (other, None),
    }
}

fn contains_projection(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Project { .. } => true,
        LogicalPlan::Scan { .. } => false,
        LogicalPlan::Select { input, .. } | LogicalPlan::GroupBy { input, .. } => {
            contains_projection(input)
        }
        LogicalPlan::Join { left, right, .. } => {
            contains_projection(left) || contains_projection(right)
        }
    }
}

/// Captures lineage for `plan` with the Perm-style relational rewrite.
pub fn logical_capture(
    plan: &LogicalPlan,
    db: &Database,
    annotation: Annotation,
) -> Result<LogicalCapture> {
    if contains_projection(plan) {
        return Err(EngineError::InvalidPlan(
            "logical capture supports SPJA plans without explicit projections".into(),
        ));
    }
    let tables = plan.base_tables();
    let augmented = augment_database(db, &tables)?;
    let (spj, agg) = split_aggregation(plan);
    let spj_result = execute_baseline(spj, &augmented)?;

    let rid_columns: Vec<(String, String)> = tables
        .iter()
        .map(|t| (t.to_string(), rid_column_name(t)))
        .collect();

    match agg {
        Some((keys, aggs)) => {
            // The clean output: the aggregation over the SPJ result.
            let agg_result = group_by(&spj_result, keys, aggs, &GroupByOptions::baseline())?.output;

            // Reuse the aggregation's hash table (modeled by re-deriving the
            // key→oid mapping from the output, which in a compiled engine is
            // the same hash table, Appendix B) to join the output back to the
            // annotated SPJ result.
            let out_extract = KeyExtractor::new(&agg_result, keys)?;
            let mut key_to_oid = HashMap::new();
            for oid in 0..agg_result.len() {
                key_to_oid.insert(out_extract.key(oid), oid as Rid);
            }
            let in_extract = KeyExtractor::new(&spj_result, keys)?;

            // Denormalized schema: output columns, then annotation columns,
            // then the output-rid column.
            let mut builder = Relation::builder("annotated");
            for f in agg_result.schema().fields() {
                builder = builder.column(f.name.clone(), f.data_type);
            }
            let annotation_columns: Vec<(String, usize, DataType)> = match annotation {
                Annotation::Rid => rid_columns
                    .iter()
                    .map(|(_, col)| {
                        let idx = spj_result.column_index(col).expect("rid column exists");
                        (col.clone(), idx, DataType::Int)
                    })
                    .collect(),
                Annotation::Tuple => spj_result
                    .schema()
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(idx, f)| (format!("in_{}", f.name), idx, f.data_type))
                    .collect(),
            };
            for (name, _, dt) in &annotation_columns {
                builder = builder.column(name.clone(), *dt);
            }
            builder = builder.column("__oid", DataType::Int);

            for rid in 0..spj_result.len() {
                let key = in_extract.key(rid);
                let oid = key_to_oid[&key];
                let mut row = agg_result.row_values(oid as usize);
                for (_, idx, _) in &annotation_columns {
                    row.push(spj_result.value(rid, *idx));
                }
                row.push(Value::Int(oid as i64));
                builder = builder.row(row);
            }
            Ok(LogicalCapture {
                output: agg_result,
                annotated: builder.build()?,
                rid_columns,
                oid_column: "__oid".to_string(),
            })
        }
        None => {
            // Join/select-rooted plan: the SPJ result is already the
            // denormalized graph; add an explicit output-rid column and strip
            // annotations for the clean output.
            let clean_names: Vec<&str> = spj_result
                .schema()
                .names()
                .into_iter()
                .filter(|n| !n.starts_with("__rid_"))
                .collect();
            let clean_schema = spj_result.schema().project(&clean_names)?;
            let clean_cols: Vec<Column> = clean_names
                .iter()
                .map(|n| spj_result.column_by_name(n).cloned())
                .collect::<std::result::Result<_, _>>()?;
            let output = Relation::from_columns("output", clean_schema, clean_cols)?;

            let mut fields = spj_result.schema().fields().to_vec();
            fields.push(smoke_storage::Field::new("__oid", DataType::Int));
            let mut columns = spj_result.columns().to_vec();
            columns.push(Column::Int((0..spj_result.len() as i64).collect()));
            let annotated =
                Relation::from_columns("annotated", smoke_storage::Schema::new(fields)?, columns)?;
            Ok(LogicalCapture {
                output,
                annotated,
                rid_columns,
                oid_column: "__oid".to_string(),
            })
        }
    }
}

/// `Logic-Idx`: scans the annotated relation to build the same end-to-end
/// backward/forward indexes Smoke builds (only meaningful for
/// [`Annotation::Rid`] captures).
pub fn build_indexes_from_annotated(
    capture: &LogicalCapture,
    db: &Database,
) -> Result<QueryLineage> {
    let annotated = &capture.annotated;
    let oid_idx = annotated.column_index(&capture.oid_column)?;
    let oid_col = annotated.column(oid_idx).as_int();
    let output_len = capture.output.len();

    let mut lineage = QueryLineage::new();
    for (table, rid_col_name) in &capture.rid_columns {
        let Ok(rid_idx) = annotated.column_index(rid_col_name) else {
            continue;
        };
        let rid_col = annotated.column(rid_idx).as_int();
        let table_len = db.relation(table)?.len();
        let mut backward = RidIndex::with_len(output_len);
        let mut forward = RidIndex::with_len(table_len);
        for row in 0..annotated.len() {
            let oid = oid_col[row] as usize;
            let rid = rid_col[row] as Rid;
            backward.append(oid, rid);
            forward.append(rid as usize, oid as Rid);
        }
        lineage.insert(
            table.clone(),
            InputLineage::new(LineageIndex::Index(backward), LineageIndex::Index(forward)),
        );
    }
    Ok(lineage)
}

/// Which logical technique to run (used by the benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalTechnique {
    /// Rid-annotated output only.
    LogicRid,
    /// Tuple-annotated output only.
    LogicTup,
    /// Rid-annotated output plus end-to-end index construction.
    LogicIdx,
}

/// Runs a logical technique end to end, returning the clean output, the
/// annotated relation, and (for `Logic-Idx`) the constructed indexes.
pub fn run_logical(
    plan: &LogicalPlan,
    db: &Database,
    technique: LogicalTechnique,
) -> Result<(LogicalCapture, Option<QueryLineage>)> {
    let annotation = match technique {
        LogicalTechnique::LogicTup => Annotation::Tuple,
        _ => Annotation::Rid,
    };
    let capture = logical_capture(plan, db, annotation)?;
    let lineage = if technique == LogicalTechnique::LogicIdx {
        Some(build_indexes_from_annotated(&capture, db)?)
    } else {
        None
    };
    Ok((capture, lineage))
}

/// Convenience used by benchmarks: evaluates a backward lineage query directly
/// over a `Logic-Rid`/`Logic-Tup` annotated relation (a scan with an equality
/// predicate on the `__oid` column), which is how logical systems without
/// extra indexes answer lineage queries (§6.3).
pub fn scan_annotated_backward(
    capture: &LogicalCapture,
    output_rid: Rid,
    table: &str,
) -> Result<Vec<Rid>> {
    let annotated = &capture.annotated;
    let oid_idx = annotated.column_index(&capture.oid_column)?;
    let oid_col = annotated.column(oid_idx).as_int();
    let rid_col_name = capture
        .rid_columns
        .iter()
        .find(|(t, _)| t == table)
        .map(|(_, c)| c.clone())
        .ok_or_else(|| EngineError::InvalidPlan(format!("no rid annotation for `{table}`")))?;
    let rids = match annotated.column_index(&rid_col_name) {
        Ok(idx) => {
            let rid_col = annotated.column(idx).as_int();
            (0..annotated.len())
                .filter(|&row| oid_col[row] == output_rid as i64)
                .map(|row| rid_col[row] as Rid)
                .collect()
        }
        Err(_) => {
            // Tuple annotation: the matching rows themselves are the lineage;
            // report their positions in the annotated relation.
            (0..annotated.len())
                .filter(|&row| oid_col[row] == output_rid as i64)
                .map(|row| row as Rid)
                .collect()
        }
    };
    Ok(rids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggExpr;
    use crate::exec::Executor;
    use crate::expr::Expr;
    use crate::instrument::CaptureMode;
    use crate::plan::PlanBuilder;

    fn db() -> Database {
        let mut db = Database::new();
        let mut zipf = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float);
        for (z, v) in [
            (1, 10.0),
            (2, 20.0),
            (1, 30.0),
            (3, 40.0),
            (2, 50.0),
            (1, 60.0),
        ] {
            zipf = zipf.row(vec![Value::Int(z), Value::Float(v)]);
        }
        db.register(zipf.build().unwrap()).unwrap();

        let mut gids = Relation::builder("gids")
            .column("id", DataType::Int)
            .column("label", DataType::Str);
        for i in 1..=3 {
            gids = gids.row(vec![Value::Int(i), Value::Str(format!("g{i}"))]);
        }
        db.register(gids.build().unwrap()).unwrap();
        db
    }

    fn groupby_plan() -> LogicalPlan {
        PlanBuilder::scan("zipf")
            .group_by(&["z"], vec![AggExpr::count("cnt"), AggExpr::sum("v", "s")])
            .build()
    }

    #[test]
    fn logic_rid_denormalizes_one_row_per_input() {
        let db = db();
        let (capture, _) = run_logical(&groupby_plan(), &db, LogicalTechnique::LogicRid).unwrap();
        assert_eq!(capture.output.len(), 3);
        // Denormalized graph has one row per input tuple.
        assert_eq!(capture.annotated.len(), 6);
        assert!(capture.annotated.column_by_name("__rid_zipf").is_ok());
        assert!(capture.annotated.column_by_name("__oid").is_ok());
    }

    #[test]
    fn logic_tup_duplicates_full_tuples_and_is_wider() {
        let db = db();
        let (rid, _) = run_logical(&groupby_plan(), &db, LogicalTechnique::LogicRid).unwrap();
        let (tup, _) = run_logical(&groupby_plan(), &db, LogicalTechnique::LogicTup).unwrap();
        assert_eq!(rid.annotated.len(), tup.annotated.len());
        assert!(tup.annotated.schema().arity() >= rid.annotated.schema().arity());
        assert!(tup.annotated.column_by_name("in_v").is_ok());
    }

    #[test]
    fn logic_idx_matches_smoke_lineage() {
        let db = db();
        let plan = groupby_plan();
        let (capture, lineage) = run_logical(&plan, &db, LogicalTechnique::LogicIdx).unwrap();
        let lineage = lineage.unwrap();
        let smoke = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        assert_eq!(capture.output, smoke.relation);
        for o in 0..capture.output.len() as Rid {
            let mut a = lineage.backward(&[o], "zipf");
            let mut b = smoke.lineage.backward(&[o], "zipf");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        for rid in 0..6 as Rid {
            assert_eq!(
                lineage.forward(&[rid], "zipf"),
                smoke.lineage.forward(&[rid], "zipf")
            );
        }
    }

    #[test]
    fn scan_annotated_answers_backward_queries() {
        let db = db();
        let (capture, _) = run_logical(&groupby_plan(), &db, LogicalTechnique::LogicRid).unwrap();
        // Find the output rid for group z=1.
        let z_col = capture.output.column_by_name("z").unwrap().as_int();
        let oid = z_col.iter().position(|&z| z == 1).unwrap() as Rid;
        let mut rids = scan_annotated_backward(&capture, oid, "zipf").unwrap();
        rids.sort_unstable();
        assert_eq!(rids, vec![0, 2, 5]);
    }

    #[test]
    fn join_rooted_plan_annotates_both_tables() {
        let db = db();
        let plan = PlanBuilder::scan("gids")
            .join(PlanBuilder::scan("zipf"), &["id"], &["z"])
            .build();
        let (capture, lineage) = run_logical(&plan, &db, LogicalTechnique::LogicIdx).unwrap();
        assert_eq!(capture.output.len(), 6);
        // Output has no annotation columns.
        assert!(capture.output.column_by_name("__rid_zipf").is_err());
        let lineage = lineage.unwrap();
        let smoke = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        for o in 0..capture.output.len() as Rid {
            assert_eq!(
                lineage.backward(&[o], "zipf").len(),
                smoke.lineage.backward(&[o], "zipf").len()
            );
            assert_eq!(
                lineage.backward(&[o], "gids").len(),
                smoke.lineage.backward(&[o], "gids").len()
            );
        }
    }

    #[test]
    fn selection_inside_spja_is_supported() {
        let db = db();
        let plan = PlanBuilder::scan("zipf")
            .select(Expr::col("v").lt(Expr::lit(45.0)))
            .group_by(&["z"], vec![AggExpr::count("cnt")])
            .build();
        let (capture, lineage) = run_logical(&plan, &db, LogicalTechnique::LogicIdx).unwrap();
        assert_eq!(capture.annotated.len(), 4);
        let smoke = Executor::new(CaptureMode::Inject)
            .execute(&plan, &db)
            .unwrap();
        let lineage = lineage.unwrap();
        for o in 0..capture.output.len() as Rid {
            let mut a = lineage.backward(&[o], "zipf");
            let mut b = smoke.lineage.backward(&[o], "zipf");
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn projections_are_rejected() {
        let db = db();
        let plan = PlanBuilder::scan("zipf").project(&["z"]).build();
        assert!(logical_capture(&plan, &db, Annotation::Rid).is_err());
    }
}
