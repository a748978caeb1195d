//! Relations: named, schema-typed, rid-addressable collections of tuples.

use crate::rid::to_rid;
use crate::{Column, DataType, Field, Result, Rid, Schema, StorageError, Value};

/// An in-memory relation.
///
/// Rows are addressed by rid (their position). Storage is columnar: hot loops
/// (predicate kernels, key extraction) read the typed columns, and
/// [`Relation::value`] / [`Relation::row`] read single values for plan
/// construction and result presentation.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    len: usize,
}

impl Relation {
    /// Starts building a relation with the given name.
    pub fn builder(name: impl Into<String>) -> RelationBuilder {
        RelationBuilder::new(name)
    }

    /// Creates a relation directly from a schema and columns.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
    ) -> Result<Self> {
        let name = name.into();
        if schema.arity() != columns.len() {
            return Err(StorageError::ArityMismatch {
                expected: schema.arity(),
                actual: columns.len(),
            });
        }
        let len = columns.first().map(Column::len).unwrap_or(0);
        if columns.iter().any(|c| c.len() != len) {
            return Err(StorageError::RaggedColumns { relation: name });
        }
        for (field, column) in schema.fields().iter().zip(&columns) {
            if field.data_type != column.data_type() {
                return Err(StorageError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.data_type,
                    actual: column.data_type(),
                });
            }
        }
        Ok(Relation {
            name,
            schema,
            columns,
            len,
        })
    }

    /// Creates an empty relation with the given schema.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.data_type))
            .collect();
        Relation {
            name: name.into(),
            schema,
            columns,
            len: 0,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation (used when registering derived outputs).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Consumes the relation and returns its columns, in schema order.
    pub fn into_columns(self) -> Vec<Column> {
        self.columns
    }

    /// The column at position `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The column with the given name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                column: name.to_string(),
                relation: self.name.clone(),
            })?;
        Ok(&self.columns[idx])
    }

    /// Index of a column name, with a relation-scoped error.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.schema
            .index_of(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                column: name.to_string(),
                relation: self.name.clone(),
            })
    }

    /// Reads a single cell.
    pub fn value(&self, rid: usize, col: usize) -> Value {
        self.columns[col].value(rid)
    }

    /// A borrowed view of one row.
    pub fn row(&self, rid: usize) -> RowRef<'_> {
        RowRef {
            relation: self,
            rid,
        }
    }

    /// Materializes a row as owned values.
    pub fn row_values(&self, rid: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(rid)).collect()
    }

    /// All rids of this relation, `0..len`.
    pub fn all_rids(&self) -> Vec<Rid> {
        (0..self.len).map(to_rid).collect()
    }

    /// Builds a new relation containing only the rows in `rids`, in order.
    /// The result keeps this relation's schema and is named `name`.
    pub fn gather(&self, rids: &[Rid], name: impl Into<String>) -> Relation {
        let columns = self.columns.iter().map(|c| c.gather(rids)).collect();
        Relation {
            name: name.into(),
            schema: self.schema.clone(),
            columns,
            len: rids.len(),
        }
    }

    /// Approximate heap footprint in bytes of the tuple payload.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

/// A borrowed view of one tuple of a [`Relation`].
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    relation: &'a Relation,
    rid: usize,
}

impl<'a> RowRef<'a> {
    /// The rid of this row.
    pub fn rid(&self) -> Rid {
        to_rid(self.rid)
    }

    /// Reads the cell at column position `col`.
    pub fn value(&self, col: usize) -> Value {
        self.relation.value(self.rid, col)
    }

    /// Reads the cell in the named column.
    pub fn value_by_name(&self, name: &str) -> Result<Value> {
        let idx = self.relation.column_index(name)?;
        Ok(self.relation.value(self.rid, idx))
    }

    /// The owning relation.
    pub fn relation(&self) -> &'a Relation {
        self.relation
    }
}

/// Incremental builder for [`Relation`]s.
#[derive(Debug)]
pub struct RelationBuilder {
    name: String,
    fields: Vec<Field>,
    columns: Vec<Column>,
    len: usize,
    error: Option<StorageError>,
}

impl RelationBuilder {
    fn new(name: impl Into<String>) -> Self {
        RelationBuilder {
            name: name.into(),
            fields: Vec::new(),
            columns: Vec::new(),
            len: 0,
            error: None,
        }
    }

    /// Declares a column. All columns must be declared before rows are added.
    pub fn column(mut self, name: impl Into<String>, data_type: DataType) -> Self {
        let name = name.into();
        if self.fields.iter().any(|f| f.name == name) {
            self.error
                .get_or_insert(StorageError::DuplicateColumn(name));
            return self;
        }
        self.fields.push(Field::new(name, data_type));
        self.columns.push(Column::new(data_type));
        self
    }

    /// Reserves capacity for `rows` tuples in every declared column.
    pub fn reserve(mut self, rows: usize) -> Self {
        for (field, column) in self.fields.iter().zip(self.columns.iter_mut()) {
            *column = Column::with_capacity(field.data_type, rows);
        }
        self
    }

    /// Appends one row.
    pub fn row(mut self, values: Vec<Value>) -> Self {
        if self.error.is_some() {
            return self;
        }
        if values.len() != self.columns.len() {
            self.error = Some(StorageError::ArityMismatch {
                expected: self.columns.len(),
                actual: values.len(),
            });
            return self;
        }
        for (column, value) in self.columns.iter_mut().zip(values) {
            if let Err(e) = column.push(value) {
                self.error = Some(e);
                return self;
            }
        }
        self.len += 1;
        self
    }

    /// Appends many rows.
    pub fn rows(mut self, rows: impl IntoIterator<Item = Vec<Value>>) -> Self {
        for r in rows {
            self = self.row(r);
        }
        self
    }

    /// Finalizes the relation.
    pub fn build(self) -> Result<Relation> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let schema = Schema::new(self.fields)?;
        Relation::from_columns(self.name, schema, self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::builder("t")
            .column("id", DataType::Int)
            .column("v", DataType::Float)
            .column("s", DataType::Str)
            .row(vec![
                Value::Int(1),
                Value::Float(0.5),
                Value::Str("a".into()),
            ])
            .row(vec![
                Value::Int(2),
                Value::Float(1.5),
                Value::Str("b".into()),
            ])
            .row(vec![
                Value::Int(3),
                Value::Float(2.5),
                Value::Str("c".into()),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_relation() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert_eq!(r.schema().arity(), 3);
        assert_eq!(r.value(2, 0), Value::Int(3));
        assert_eq!(r.row(1).value_by_name("s").unwrap(), Value::Str("b".into()));
        assert_eq!(r.all_rids(), vec![0, 1, 2]);
    }

    #[test]
    fn arity_mismatch_detected() {
        let err = Relation::builder("t")
            .column("a", DataType::Int)
            .row(vec![Value::Int(1), Value::Int(2)])
            .build();
        assert!(matches!(err, Err(StorageError::ArityMismatch { .. })));
    }

    #[test]
    fn ragged_columns_detected() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        let err = Relation::from_columns(
            "t",
            schema,
            vec![Column::Int(vec![1, 2]), Column::Int(vec![1])],
        );
        assert!(matches!(err, Err(StorageError::RaggedColumns { .. })));
    }

    #[test]
    fn from_columns_checks_types() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let err = Relation::from_columns("t", schema, vec![Column::Float(vec![1.0])]);
        assert!(matches!(err, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn gather_subsets_rows() {
        let r = sample();
        let g = r.gather(&[2, 0], "sub");
        assert_eq!(g.len(), 2);
        assert_eq!(g.name(), "sub");
        assert_eq!(g.value(0, 0), Value::Int(3));
        assert_eq!(g.value(1, 2), Value::Str("a".into()));
    }

    #[test]
    fn unknown_column_lookup_fails() {
        let r = sample();
        assert!(r.column_by_name("missing").is_err());
        assert!(r.column_index("missing").is_err());
        assert!(r.column_by_name("v").is_ok());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(
            "e",
            Schema::new(vec![Field::new("a", DataType::Int)]).unwrap(),
        );
        assert!(r.is_empty());
        assert_eq!(r.all_rids(), Vec::<Rid>::new());
    }

    #[test]
    fn row_values_round_trip() {
        let r = sample();
        assert_eq!(
            r.row_values(0),
            vec![Value::Int(1), Value::Float(0.5), Value::Str("a".into())]
        );
    }

    #[test]
    fn reserve_does_not_change_contents() {
        let r = Relation::builder("t")
            .column("a", DataType::Int)
            .reserve(100)
            .row(vec![Value::Int(9)])
            .build()
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.value(0, 0), Value::Int(9));
    }
}
