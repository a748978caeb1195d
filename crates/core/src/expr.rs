//! Scalar expressions and predicates.
//!
//! An [`Expr`] is a tree; it has one evaluator,
//! [`KernelPlan`](crate::kernels::KernelPlan), which compiles it against a
//! relation's schema (column names resolved to positions, types checked)
//! before any row is read, and then runs column kernels over ranges or
//! gathered rid lists.

use smoke_storage::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Column(String),
    /// A literal constant.
    Literal(Value),
    /// Comparison of two sub-expressions.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Arithmetic over two numeric sub-expressions.
    Arith {
        /// Arithmetic operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Membership in a literal list.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Value>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal value.
    pub fn lit(value: impl Into<Value>) -> Expr {
        Expr::Literal(value.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Ne,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Lt,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Le,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Ge,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }

    fn arith(self, op: ArithOp, other: Expr) -> Expr {
        Expr::Arith {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// All column names referenced by this expression.
    pub fn referenced_columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column(name) => {
                if !out.contains(&name.as_str()) {
                    out.push(name);
                }
            }
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::Not(e) => e.collect_columns(out),
            Expr::InList { expr, .. } => expr.collect_columns(out),
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;

    /// `self + other`.
    fn add(self, other: Expr) -> Expr {
        self.arith(ArithOp::Add, other)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;

    /// `self - other`.
    fn sub(self, other: Expr) -> Expr {
        self.arith(ArithOp::Sub, other)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;

    /// `self * other`.
    fn mul(self, other: Expr) -> Expr {
        self.arith(ArithOp::Mul, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::kernels::predicate_rids;
    use smoke_storage::{DataType, Relation};

    fn rel() -> Relation {
        Relation::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .column("s", DataType::Str)
            .row(vec![
                Value::Int(1),
                Value::Float(0.5),
                Value::Str("x".into()),
            ])
            .row(vec![
                Value::Int(5),
                Value::Float(2.0),
                Value::Str("y".into()),
            ])
            .row(vec![
                Value::Int(9),
                Value::Float(4.5),
                Value::Str("x".into()),
            ])
            .build()
            .unwrap()
    }

    fn selects(e: &Expr) -> Vec<u32> {
        predicate_rids(&rel(), e).unwrap()
    }

    #[test]
    fn comparisons() {
        assert_eq!(selects(&Expr::col("a").gt(Expr::lit(3))), vec![1, 2]);
        assert_eq!(selects(&Expr::col("s").eq(Expr::lit("x"))), vec![0, 2]);
    }

    #[test]
    fn boolean_connectives() {
        let e = Expr::col("a")
            .gt(Expr::lit(3))
            .and(Expr::col("s").eq(Expr::lit("x")));
        assert_eq!(selects(&e), vec![2]);
        let e = Expr::col("a")
            .lt(Expr::lit(2))
            .or(Expr::col("a").ge(Expr::lit(9)));
        assert_eq!(selects(&e), vec![0, 2]);
        assert_eq!(selects(&Expr::col("a").le(Expr::lit(1)).not()), vec![1, 2]);
    }

    #[test]
    fn arithmetic_and_in_list() {
        // b * 2 + a is 2.0, 9.0, 18.0.
        let e = (Expr::col("b") * Expr::lit(2.0) + Expr::col("a")).eq(Expr::lit(9.0));
        assert_eq!(selects(&e), vec![1]);
        let e = Expr::col("a").in_list(vec![Value::Int(1), Value::Int(9)]);
        assert_eq!(selects(&e), vec![0, 2]);
        // a - 1 is 0.0 on the first row, so falsy there.
        assert_eq!(selects(&(Expr::col("a") - Expr::lit(1))), vec![1, 2]);
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let err = predicate_rids(&rel(), &Expr::col("missing").eq(Expr::lit(1)));
        assert!(matches!(err, Err(EngineError::UnknownColumn(_))));
    }

    #[test]
    fn string_as_predicate_is_an_error() {
        let err = predicate_rids(&rel(), &Expr::col("s"));
        assert!(matches!(err, Err(EngineError::Expression(_))));
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("a").lt(Expr::col("b")));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }
}
