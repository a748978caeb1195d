//! Relation schemas.

use crate::{DataType, Result, StorageError};

/// A named, typed column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column data type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a new field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of [`Field`]s describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(StorageError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields })
    }

    /// The fields of this schema, in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field at position `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Concatenates two schemas (used by joins and cross products), prefixing
    /// duplicate names from the right side with `prefix`.
    pub fn concat(&self, other: &Schema, prefix: &str) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let name = if fields.iter().any(|g| g.name == f.name) {
                format!("{prefix}.{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.data_type));
        }
        Schema { fields }
    }

    /// Projects this schema onto the named columns (in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let idx = self
                .index_of(name)
                .ok_or_else(|| StorageError::UnknownColumn {
                    column: (*name).to_string(),
                    relation: "<schema>".to_string(),
                })?;
            fields.push(self.fields[idx].clone());
        }
        Ok(Schema { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("c", DataType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn index_of_and_field() {
        let s = abc();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field(2).data_type, DataType::Str);
        assert_eq!(s.names(), vec!["a", "b", "c"]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("a", DataType::Float),
        ]);
        assert_eq!(err, Err(StorageError::DuplicateColumn("a".into())));
    }

    #[test]
    fn concat_prefixes_duplicates() {
        let left = abc();
        let right = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("d", DataType::Int),
        ])
        .unwrap();
        let joined = left.concat(&right, "right");
        assert_eq!(joined.names(), vec!["a", "b", "c", "right.a", "d"]);
    }

    #[test]
    fn project_preserves_order() {
        let s = abc();
        let p = s.project(&["c", "a"]).unwrap();
        assert_eq!(p.names(), vec!["c", "a"]);
        assert!(s.project(&["nope"]).is_err());
    }
}
