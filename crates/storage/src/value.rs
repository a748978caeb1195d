//! Scalar values and data types.

use std::cmp::Ordering;
use std::fmt;

/// The data type of a column or scalar expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "STRING"),
        }
    }
}

/// A dynamically-typed scalar value.
///
/// Hot loops (predicate kernels, group-by and join keys) avoid `Value` and
/// work directly on the typed column vectors; plan construction, literals in
/// predicates and result presentation use `Value`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer value.
    Int(i64),
    /// 64-bit float value.
    Float(f64),
    /// String value.
    Str(String),
}

impl Value {
    /// The data type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, coercing integers, if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Total ordering used by comparison predicates. Numeric types compare by
    /// numeric value (ints coerce to floats when mixed); strings compare
    /// lexicographically; mixed string/numeric comparisons order strings last.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(_), _) => Ordering::Greater,
            (_, Value::Str(_)) => Ordering::Less,
        }
    }

    /// A stable string used as a grouping/partitioning key for this value.
    ///
    /// Floats are formatted with full precision; this is only used for
    /// low-cardinality partitioning attributes (paper §4.2 notes partitioning
    /// attributes are categorical or discretized).
    pub fn group_key(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v:?}"),
            Value::Str(v) => v.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_of_values() {
        assert_eq!(Value::Int(1).data_type(), DataType::Int);
        assert_eq!(Value::Float(1.0).data_type(), DataType::Float);
        assert_eq!(Value::Str("a".into()).data_type(), DataType::Str);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Value::Str("x".into()).as_int(), None);
    }

    #[test]
    fn ordering_mixed_numeric() {
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn ordering_strings_after_numbers() {
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(100)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int(100).total_cmp(&Value::Str("a".into())),
            Ordering::Less
        );
    }

    #[test]
    fn group_keys_are_distinct_per_value() {
        assert_ne!(Value::Int(1).group_key(), Value::Int(2).group_key());
        assert_ne!(Value::Float(1.0).group_key(), Value::Float(1.5).group_key());
    }

    #[test]
    fn conversions() {
        let v: Value = 3i64.into();
        assert_eq!(v, Value::Int(3));
        let v: Value = 3.5f64.into();
        assert_eq!(v, Value::Float(3.5));
        let v: Value = "hi".into();
        assert_eq!(v, Value::Str("hi".into()));
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("abc".into()).to_string(), "abc");
        assert_eq!(DataType::Int.to_string(), "INT");
    }
}
