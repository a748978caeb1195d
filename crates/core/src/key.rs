//! Hashable composite keys for group-by and join hash tables.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use smoke_storage::{Column, Relation, Value};

use crate::error::{EngineError, Result};

/// One component of a hash key. Floats are stored by their bit pattern so the
/// key is `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// Integer component.
    Int(i64),
    /// Float component (bit pattern).
    FloatBits(u64),
    /// String component.
    Str(String),
}

impl KeyPart {
    fn from_value(v: &Value) -> KeyPart {
        match v {
            Value::Int(x) => KeyPart::Int(*x),
            Value::Float(x) => KeyPart::FloatBits(x.to_bits()),
            Value::Str(s) => KeyPart::Str(s.clone()),
        }
    }

    /// Converts the key part back to a [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            KeyPart::Int(x) => Value::Int(*x),
            KeyPart::FloatBits(b) => Value::Float(f64::from_bits(*b)),
            KeyPart::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// A hashable key over one or more columns.
///
/// Single-column integer keys (by far the most common case in the paper's
/// microbenchmarks: group-by `z`, join on `id`/`z`) avoid any allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// Single integer column key.
    Int(i64),
    /// Single string column key.
    Str(String),
    /// Composite or non-integer key.
    Composite(Vec<KeyPart>),
}

impl HashKey {
    /// The key's components as values (used to emit group-by output columns).
    pub fn to_values(&self) -> Vec<Value> {
        match self {
            HashKey::Int(x) => vec![Value::Int(*x)],
            HashKey::Str(s) => vec![Value::Str(s.clone())],
            HashKey::Composite(parts) => parts.iter().map(KeyPart::to_value).collect(),
        }
    }

    /// The key's components, one per key column.
    pub(crate) fn into_parts(self) -> Vec<KeyPart> {
        match self {
            HashKey::Int(x) => vec![KeyPart::Int(x)],
            HashKey::Str(s) => vec![KeyPart::Str(s)],
            HashKey::Composite(parts) => parts,
        }
    }

    /// A 64-bit hash of the key (used by the external-store baseline to build
    /// byte keys).
    pub fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Extracts hash keys for a set of key columns of a relation, resolved once
/// per operator.
#[derive(Debug, Clone)]
pub struct KeyExtractor<'a> {
    columns: Vec<&'a Column>,
}

impl<'a> KeyExtractor<'a> {
    /// Resolves the named key columns against `relation`.
    pub fn new(relation: &'a Relation, key_columns: &[String]) -> Result<Self> {
        let mut columns = Vec::with_capacity(key_columns.len());
        for name in key_columns {
            let idx = relation
                .column_index(name)
                .map_err(|_| EngineError::UnknownColumn(name.clone()))?;
            columns.push(relation.column(idx));
        }
        Ok(KeyExtractor { columns })
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The resolved key columns, in key order (consumed by the vectorized
    /// typed key-extraction kernels in [`smoke_storage::kernels`]).
    pub fn columns(&self) -> &[&'a Column] {
        &self.columns
    }

    /// Builds the key for the row at `rid`.
    #[inline]
    pub fn key(&self, rid: usize) -> HashKey {
        if self.columns.len() == 1 {
            match self.columns[0] {
                Column::Int(v) => return HashKey::Int(v[rid]),
                Column::Str(v) => return HashKey::Str(v[rid].clone()),
                Column::Float(v) => {
                    return HashKey::Composite(vec![KeyPart::FloatBits(v[rid].to_bits())])
                }
            }
        }
        HashKey::Composite(
            self.columns
                .iter()
                .map(|c| KeyPart::from_value(&c.value(rid)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        Relation::builder("t")
            .column("z", DataType::Int)
            .column("name", DataType::Str)
            .column("v", DataType::Float)
            .row(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Float(0.5),
            ])
            .row(vec![
                Value::Int(2),
                Value::Str("b".into()),
                Value::Float(0.5),
            ])
            .row(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Float(1.5),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn single_int_key_fast_path() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["z".to_string()]).unwrap();
        assert_eq!(ex.key(0), HashKey::Int(1));
        assert_eq!(ex.key(1), HashKey::Int(2));
        assert_eq!(ex.key(0), ex.key(2));
        assert_eq!(ex.arity(), 1);
    }

    #[test]
    fn composite_keys_distinguish_rows() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["name".to_string(), "v".to_string()]).unwrap();
        assert_eq!(ex.key(0), ex.key(0));
        assert_ne!(ex.key(0), ex.key(2)); // same name, different v
        assert_ne!(ex.key(0), ex.key(1));
    }

    #[test]
    fn key_round_trips_to_values() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["z".to_string(), "name".to_string()]).unwrap();
        assert_eq!(
            ex.key(1).to_values(),
            vec![Value::Int(2), Value::Str("b".into())]
        );
        let single = KeyExtractor::new(&r, &["name".to_string()]).unwrap();
        assert_eq!(single.key(0).to_values(), vec![Value::Str("a".into())]);
    }

    #[test]
    fn float_keys_use_bit_patterns() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["v".to_string()]).unwrap();
        assert_eq!(ex.key(0), ex.key(1));
        assert_ne!(ex.key(0), ex.key(2));
    }

    #[test]
    fn unknown_key_column_errors() {
        let r = rel();
        assert!(KeyExtractor::new(&r, &["missing".to_string()]).is_err());
    }

    #[test]
    fn hash64_is_stable() {
        let k = HashKey::Int(42);
        assert_eq!(k.hash64(), HashKey::Int(42).hash64());
        assert_ne!(k.hash64(), HashKey::Int(43).hash64());
    }
}
