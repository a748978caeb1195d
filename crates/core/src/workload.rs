//! Workload-aware capture artifacts (§4.2).
//!
//! When the lineage-consuming workload is known up-front, Smoke pushes parts
//! of it into lineage capture. The artifacts produced are:
//!
//! * [`PartitionedRidIndex`] (re-exported from `smoke-lineage`) — backward rid
//!   arrays partitioned by a templated predicate attribute (data skipping);
//! * [`LineageCube`] — per-(output group, partition) aggregate states
//!   maintained incrementally during capture (group-by push-down), i.e. an
//!   online partial data cube built by piggy-backing on the base query's scan.
//!
//! Both are the cells of a finer group-by keyed by `(coarse gid, partition
//! attributes)` riding the base query's γ ([`crate::ops::groupby`]), listed
//! per output rid in one typed [`CellDirectory`]: the partitioned index is
//! that directory over the cells' sealed rid CSR, the cube over their states.

use std::sync::Arc;

use smoke_lineage::{CellDirectory, PartitionedRidIndex};
use smoke_storage::{DataType, Field, Relation};

use crate::agg::{AggExpr, AggState};
use crate::error::Result;

/// Aggregates materialized during lineage capture, keyed by (output rid of the
/// base query, values of the push-down group-by attributes).
#[derive(Debug, Clone)]
pub struct LineageCube {
    directory: Arc<CellDirectory>,
    /// Cell `c`'s aggregate states: `states[c * aggs.len()..][..aggs.len()]`.
    states: Vec<AggState>,
    partition_by: Vec<String>,
    /// The partition attributes' types in the captured input, so every
    /// answer — an empty one included — has the same schema.
    partition_types: Vec<DataType>,
    aggs: Vec<AggExpr>,
}

impl LineageCube {
    /// A cube over the push-down group-by attributes (name and type in the
    /// captured input) and aggregates, whose cells `directory` lists.
    pub fn new(
        partition_fields: Vec<Field>,
        aggs: Vec<AggExpr>,
        directory: Arc<CellDirectory>,
        states: Vec<AggState>,
    ) -> Self {
        debug_assert_eq!(states.len(), directory.cell_count() * aggs.len());
        let (partition_by, partition_types) = (partition_fields.into_iter())
            .map(|f| (f.name, f.data_type))
            .unzip();
        LineageCube {
            directory,
            states,
            partition_by,
            partition_types,
            aggs,
        }
    }

    /// The push-down group-by attributes.
    pub fn partition_by(&self) -> &[String] {
        &self.partition_by
    }

    /// The push-down aggregates.
    pub fn aggs(&self) -> &[AggExpr] {
        &self.aggs
    }

    /// Number of base-query output records covered.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the cube covers no output records.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Answers the push-down lineage-consuming query for one base-query output
    /// record: a relation with the partition attributes plus one column per
    /// aggregate, one row per cell in ascending typed key order
    /// ([`smoke_storage::Value::total_cmp`], lexicographic over the
    /// attributes). This is the "≈0 ms" path of Fig. 11.
    pub fn query(&self, out_rid: usize) -> Result<Relation> {
        let mut b = Relation::builder("cube_result");
        for (name, data_type) in self.partition_by.iter().zip(&self.partition_types) {
            b = b.column(name.clone(), *data_type);
        }
        for agg in &self.aggs {
            b = b.column(agg.alias.clone(), agg.output_type());
        }
        let width = self.aggs.len();
        for (key, cell) in self.directory.cells(out_rid) {
            let states = &self.states[cell * width..][..width];
            let mut row = key.to_vec();
            row.extend(states.iter().map(AggState::finalize));
            b = b.row(row);
        }
        Ok(b.build()?)
    }

    /// Total number of materialized cells.
    pub fn cell_count(&self) -> usize {
        self.directory.cell_count()
    }
}

/// The workload-aware artifacts produced by an instrumented execution.
#[derive(Debug, Clone, Default)]
pub struct WorkloadArtifacts {
    /// Partitioned backward index for data skipping, if requested.
    pub partitioned: Option<PartitionedRidIndex>,
    /// Materialized push-down aggregates, if requested.
    pub cube: Option<LineageCube>,
}

impl WorkloadArtifacts {
    /// Whether any artifact was produced.
    pub fn is_empty(&self) -> bool {
        self.partitioned.is_none() && self.cube.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::Value;

    /// `COUNT(*), SUM(v)` over `month`: output 0 holds `jan` {10, 5} and
    /// `feb` {2}, output 1 holds `jan` {7}.
    fn cube() -> LineageCube {
        let cells = [
            (0, "jan", &[10.0, 5.0][..]),
            (1, "jan", &[7.0]),
            (0, "feb", &[2.0]),
        ];
        let gids: Vec<u32> = cells.iter().map(|c| c.0).collect();
        let keys = cells.iter().map(|c| Value::Str(c.1.into())).collect();
        let states = cells.iter().flat_map(|(_, _, vs)| {
            [
                AggState::Count(vs.len() as u64),
                AggState::Sum(vs.iter().sum()),
            ]
        });
        LineageCube::new(
            vec![Field::new("month", DataType::Str)],
            vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
            Arc::new(CellDirectory::new(1, &gids, keys)),
            states.collect(),
        )
    }

    #[test]
    fn cube_answers_per_partition_in_typed_key_order() {
        let cube = cube();
        assert_eq!(cube.cell_count(), 3);
        assert_eq!(cube.len(), 2);

        let result = cube.query(0).unwrap();
        assert_eq!(result.len(), 2);
        assert_eq!(result.value(0, 0), Value::Str("feb".into()));
        assert_eq!(result.value(0, 1), Value::Int(1));
        assert_eq!(result.value(1, 0), Value::Str("jan".into()));
        assert_eq!(result.value(1, 1), Value::Int(2));
        assert_eq!(result.value(1, 2), Value::Float(15.0));
        let result = cube.query(1).unwrap();
        assert_eq!(
            result.row_values(0)[1..],
            [Value::Int(1), Value::Float(7.0)]
        );
    }

    #[test]
    fn empty_and_uncovered_entries_answer_with_the_cube_schema() {
        let cube = LineageCube::new(
            vec![Field::new("bin", DataType::Int)],
            vec![AggExpr::count("c")],
            Arc::new(CellDirectory::new(1, &[2], vec![Value::Int(7)])),
            vec![AggState::Count(4)],
        );
        assert_eq!(cube.len(), 3);
        let hit = cube.query(2).unwrap();
        assert_eq!(hit.len(), 1);
        // Entry 0 has no cell, entry 9 is past the cube: both are empty
        // answers typed exactly like the hit (`bin: Int`, not a guessed Str).
        for out_rid in [0, 9] {
            let empty = cube.query(out_rid).unwrap();
            assert_eq!(empty.len(), 0);
            assert_eq!(empty.schema(), hit.schema());
        }
        let none = LineageCube::new(
            vec![Field::new("bin", DataType::Int)],
            vec![AggExpr::count("c")],
            Arc::new(CellDirectory::new(1, &[], Vec::new())),
            Vec::new(),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn artifacts_emptiness() {
        assert!(WorkloadArtifacts::default().is_empty());
        let arts = WorkloadArtifacts {
            cube: Some(cube()),
            partitioned: None,
        };
        assert!(!arts.is_empty());
    }
}
