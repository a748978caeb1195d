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
//! Both are the groups of a finer group-by keyed by `(coarse gid, partition
//! attributes)` that rides the base query's γ ([`crate::ops::groupby`]);
//! this module only holds them once finished — a partition or a cell
//! arrives whole, keyed by its partition attributes' values rendered as
//! [`Value::group_key`]s, `|`-joined (with `\` and `|` escaped inside
//! strings) when there are several.

use std::collections::btree_map::{BTreeMap, Entry};

use smoke_lineage::PartitionedRidIndex;
use smoke_storage::{DataType, Field, Relation, Value};

use crate::agg::{AggExpr, AggState};
use crate::error::Result;

/// Aggregates materialized during lineage capture, keyed by (output rid of the
/// base query, partition key of the push-down group-by attributes).
#[derive(Debug, Clone)]
pub struct LineageCube {
    /// `entries[out_rid]` maps a partition key (the rendered values of the
    /// push-down group-by attributes) to the aggregate states for that cell.
    entries: Vec<BTreeMap<String, CubeCell>>,
    partition_by: Vec<String>,
    /// The partition attributes' types in the captured input, so every
    /// answer — an empty one included — has the same schema.
    partition_types: Vec<DataType>,
    aggs: Vec<AggExpr>,
}

/// One cell of the cube: the partition's group-by values plus its aggregate
/// states.
#[derive(Debug, Clone)]
pub struct CubeCell {
    /// Values of the push-down group-by attributes for this cell.
    pub key_values: Vec<Value>,
    /// Aggregate states for this cell.
    pub states: Vec<AggState>,
}

impl LineageCube {
    /// Creates an empty cube over the given push-down group-by attributes
    /// (name and type in the captured input) and aggregates.
    pub fn new(partition_fields: Vec<Field>, aggs: Vec<AggExpr>) -> Self {
        let (partition_by, partition_types) = (partition_fields.into_iter())
            .map(|f| (f.name, f.data_type))
            .unzip();
        LineageCube {
            entries: Vec::new(),
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
        self.entries.len()
    }

    /// Whether the cube covers no output records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hangs a finished cell — the folded states of every input row of
    /// output `out_rid` whose partition attributes render as `key` — growing
    /// the cube as necessary.
    pub fn insert(&mut self, out_rid: usize, key: String, cell: CubeCell) {
        if out_rid >= self.entries.len() {
            self.entries.resize(out_rid + 1, BTreeMap::new());
        }
        match self.entries[out_rid].entry(key) {
            Entry::Vacant(slot) => drop(slot.insert(cell)),
            Entry::Occupied(mut slot) => {
                for (mine, theirs) in slot.get_mut().states.iter_mut().zip(&cell.states) {
                    mine.merge(theirs);
                }
            }
        }
    }

    /// Answers the push-down lineage-consuming query for one base-query output
    /// record: a relation with the partition attributes plus one column per
    /// aggregate. This is the "≈0 ms" path of Fig. 11.
    pub fn query(&self, out_rid: usize) -> Result<Relation> {
        let mut b = Relation::builder("cube_result");
        for (name, data_type) in self.partition_by.iter().zip(&self.partition_types) {
            b = b.column(name.clone(), *data_type);
        }
        for agg in &self.aggs {
            b = b.column(agg.alias.clone(), agg.output_type());
        }
        for cell in self
            .entries
            .get(out_rid)
            .into_iter()
            .flat_map(BTreeMap::values)
        {
            let mut row = cell.key_values.clone();
            row.extend(cell.states.iter().map(AggState::finalize));
            b = b.row(row);
        }
        Ok(b.build()?)
    }

    /// Total number of materialized cells.
    pub fn cell_count(&self) -> usize {
        self.entries.iter().map(BTreeMap::len).sum()
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

    /// A finished `COUNT(*), SUM(v)` cell over the given `v` values.
    fn cell(key: &str, vs: &[f64]) -> CubeCell {
        CubeCell {
            key_values: vec![Value::Str(key.into())],
            states: vec![
                AggState::Count(vs.len() as u64),
                AggState::Sum(vs.iter().sum()),
            ],
        }
    }

    fn cube() -> LineageCube {
        let mut cube = LineageCube::new(
            vec![Field::new("month", DataType::Str)],
            vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
        );
        cube.insert(0, "jan".into(), cell("jan", &[10.0, 5.0]));
        cube.insert(0, "feb".into(), cell("feb", &[2.0]));
        cube.insert(1, "jan".into(), cell("jan", &[7.0]));
        cube
    }

    #[test]
    fn cube_answers_per_partition() {
        let cube = cube();
        assert_eq!(cube.cell_count(), 3);
        assert_eq!(cube.len(), 2);

        let result = cube.query(0).unwrap();
        assert_eq!(result.len(), 2);
        // BTreeMap ordering: feb before jan.
        assert_eq!(result.value(0, 0), Value::Str("feb".into()));
        assert_eq!(result.value(0, 1), Value::Int(1));
        assert_eq!(result.value(1, 0), Value::Str("jan".into()));
        assert_eq!(result.value(1, 1), Value::Int(2));
        assert_eq!(result.value(1, 2), Value::Float(15.0));
    }

    #[test]
    fn cells_rendering_alike_merge() {
        let mut cube = cube();
        cube.insert(1, "jan".into(), cell("jan", &[1.0, 2.0]));
        assert_eq!(cube.cell_count(), 3);
        let result = cube.query(1).unwrap();
        assert_eq!(result.value(0, 1), Value::Int(3));
        assert_eq!(result.value(0, 2), Value::Float(10.0));
    }

    #[test]
    fn empty_and_uncovered_entries_answer_with_the_cube_schema() {
        let mut cube = LineageCube::new(
            vec![Field::new("bin", DataType::Int)],
            vec![AggExpr::count("c")],
        );
        assert!(cube.is_empty());
        cube.insert(
            2,
            "7".into(),
            CubeCell {
                key_values: vec![Value::Int(7)],
                states: vec![AggState::Count(4)],
            },
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
