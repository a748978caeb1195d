//! Projection with lineage capture (paper §3.2.1).
//!
//! Under bag semantics the input and output cardinalities and orders are
//! identical, so the rid of an output record *is* its backward (and forward)
//! lineage: no index needs to be materialized and the lineage is represented
//! by [`LineageIndex::Identity`].
//!
//! Bag projection is already batch-at-a-time: it moves whole column vectors,
//! never touching individual rows, so it needs no kernel pipeline of its own.

use std::time::Instant;

use smoke_lineage::{CaptureStats, InputLineage, LineageIndex, OperatorLineage};
use smoke_storage::{Relation, Schema};

use crate::error::{EngineError, Result};
use crate::ops::OpOutput;

/// Executes `SELECT columns FROM input` under bag semantics.
pub fn project(input: &Relation, columns: &[String], capture: bool) -> Result<OpOutput> {
    let start = Instant::now();
    let names: Vec<&str> = columns.iter().map(String::as_str).collect();
    let schema: Schema = input
        .schema()
        .project(&names)
        .map_err(|_| EngineError::InvalidPlan(format!("projection columns {names:?} not found")))?;

    let mut cols = Vec::with_capacity(columns.len());
    for name in columns {
        cols.push(input.column_by_name(name)?.clone());
    }
    let output = Relation::from_columns(format!("project({})", input.name()), schema, cols)?;
    let stats = CaptureStats {
        base_query: start.elapsed(),
        ..Default::default()
    };

    if !capture {
        return Ok(OpOutput::baseline(output, stats));
    }
    let lineage = InputLineage::new(
        LineageIndex::Identity(output.len()),
        LineageIndex::Identity(output.len()),
    );
    Ok(OpOutput {
        output,
        lineage: OperatorLineage::unary(lineage),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::{DataType, Value};

    fn rel() -> Relation {
        Relation::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .row(vec![Value::Int(1), Value::Str("x".into())])
            .row(vec![Value::Int(2), Value::Str("y".into())])
            .row(vec![Value::Int(1), Value::Str("x".into())])
            .build()
            .unwrap()
    }

    #[test]
    fn bag_projection_uses_identity_lineage() {
        let r = rel();
        let out = project(&r, &["b".to_string()], true).unwrap();
        assert_eq!(out.output.len(), 3);
        assert_eq!(out.output.schema().names(), vec!["b"]);
        let lin = out.lineage.input(0);
        assert_eq!(lin.backward().lookup(2), vec![2]);
        assert_eq!(lin.forward().lookup(1), vec![1]);
        assert_eq!(lin.heap_bytes(), 0, "identity lineage is free");
    }

    #[test]
    fn baseline_projection() {
        let r = rel();
        let out = project(&r, &["a".to_string()], false).unwrap();
        assert!(out.lineage.is_none());
        assert_eq!(out.output.column(0).as_int(), &[1, 2, 1]);
    }

    #[test]
    fn unknown_column_errors() {
        let r = rel();
        assert!(project(&r, &["zzz".to_string()], true).is_err());
    }
}
