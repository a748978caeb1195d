//! Scalar expressions and predicates.
//!
//! Expressions are evaluated row-at-a-time against a relation, mirroring the
//! paper's row-oriented execution model. The engine resolves column names to
//! positions once per operator (not per row), so hot predicate loops only pay
//! for the comparison itself.

use std::cmp::Ordering;

use smoke_storage::{Relation, Value};

use crate::error::{EngineError, Result};

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

impl CmpOp {
    fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
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

    /// Binds this expression to a relation's schema, producing an evaluator
    /// whose column lookups are resolved to positions.
    pub fn bind(&self, relation: &Relation) -> Result<BoundExpr> {
        let node = self.bind_node(relation)?;
        Ok(BoundExpr { node })
    }

    fn bind_node(&self, relation: &Relation) -> Result<BoundNode> {
        Ok(match self {
            Expr::Column(name) => BoundNode::Column(
                relation
                    .column_index(name)
                    .map_err(|_| EngineError::UnknownColumn(name.clone()))?,
            ),
            Expr::Literal(v) => BoundNode::Literal(v.clone()),
            Expr::Cmp { op, left, right } => BoundNode::Cmp {
                op: *op,
                left: Box::new(left.bind_node(relation)?),
                right: Box::new(right.bind_node(relation)?),
            },
            Expr::Arith { op, left, right } => BoundNode::Arith {
                op: *op,
                left: Box::new(left.bind_node(relation)?),
                right: Box::new(right.bind_node(relation)?),
            },
            Expr::And(l, r) => BoundNode::And(
                Box::new(l.bind_node(relation)?),
                Box::new(r.bind_node(relation)?),
            ),
            Expr::Or(l, r) => BoundNode::Or(
                Box::new(l.bind_node(relation)?),
                Box::new(r.bind_node(relation)?),
            ),
            Expr::Not(e) => BoundNode::Not(Box::new(e.bind_node(relation)?)),
            Expr::InList { expr, list } => BoundNode::InList {
                expr: Box::new(expr.bind_node(relation)?),
                list: list.clone(),
            },
        })
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

#[derive(Debug, Clone)]
enum BoundNode {
    Column(usize),
    Literal(Value),
    Cmp {
        op: CmpOp,
        left: Box<BoundNode>,
        right: Box<BoundNode>,
    },
    Arith {
        op: ArithOp,
        left: Box<BoundNode>,
        right: Box<BoundNode>,
    },
    And(Box<BoundNode>, Box<BoundNode>),
    Or(Box<BoundNode>, Box<BoundNode>),
    Not(Box<BoundNode>),
    InList {
        expr: Box<BoundNode>,
        list: Vec<Value>,
    },
}

/// An expression bound to a specific relation schema.
#[derive(Debug, Clone)]
pub struct BoundExpr {
    node: BoundNode,
}

impl BoundExpr {
    /// Evaluates the expression for the row at `rid`, returning a value.
    pub fn eval(&self, relation: &Relation, rid: usize) -> Result<Value> {
        Self::eval_node(&self.node, relation, rid)
    }

    /// Evaluates the expression as a boolean predicate for the row at `rid`.
    pub fn eval_bool(&self, relation: &Relation, rid: usize) -> Result<bool> {
        Self::eval_bool_node(&self.node, relation, rid)
    }

    fn eval_node(node: &BoundNode, relation: &Relation, rid: usize) -> Result<Value> {
        Ok(match node {
            BoundNode::Column(idx) => relation.value(rid, *idx),
            BoundNode::Literal(v) => v.clone(),
            BoundNode::Cmp { op, left, right } => {
                let l = Self::eval_node(left, relation, rid)?;
                let r = Self::eval_node(right, relation, rid)?;
                Value::Int(op.matches(l.total_cmp(&r)) as i64)
            }
            BoundNode::Arith { op, left, right } => {
                let l = Self::eval_node(left, relation, rid)?
                    .as_float()
                    .ok_or_else(|| EngineError::Expression("non-numeric arithmetic".into()))?;
                let r = Self::eval_node(right, relation, rid)?
                    .as_float()
                    .ok_or_else(|| EngineError::Expression("non-numeric arithmetic".into()))?;
                let v = match op {
                    ArithOp::Add => l + r,
                    ArithOp::Sub => l - r,
                    ArithOp::Mul => l * r,
                    ArithOp::Div => l / r,
                };
                Value::Float(v)
            }
            BoundNode::And(l, r) => {
                let lv = Self::eval_bool_node(l, relation, rid)?;
                Value::Int((lv && Self::eval_bool_node(r, relation, rid)?) as i64)
            }
            BoundNode::Or(l, r) => {
                let lv = Self::eval_bool_node(l, relation, rid)?;
                Value::Int((lv || Self::eval_bool_node(r, relation, rid)?) as i64)
            }
            BoundNode::Not(e) => Value::Int(!Self::eval_bool_node(e, relation, rid)? as i64),
            BoundNode::InList { expr, list } => {
                let v = Self::eval_node(expr, relation, rid)?;
                Value::Int(list.iter().any(|x| v.total_cmp(x) == Ordering::Equal) as i64)
            }
        })
    }

    fn eval_bool_node(node: &BoundNode, relation: &Relation, rid: usize) -> Result<bool> {
        match Self::eval_node(node, relation, rid)? {
            Value::Int(v) => Ok(v != 0),
            Value::Float(v) => Ok(v != 0.0),
            Value::Str(s) => Err(EngineError::Expression(format!(
                "string `{s}` used as a boolean predicate"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::DataType;

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

    #[test]
    fn comparisons() {
        let r = rel();
        let e = Expr::col("a").gt(Expr::lit(3)).bind(&r).unwrap();
        assert!(!e.eval_bool(&r, 0).unwrap());
        assert!(e.eval_bool(&r, 1).unwrap());
        assert!(e.eval_bool(&r, 2).unwrap());

        let e = Expr::col("s").eq(Expr::lit("x")).bind(&r).unwrap();
        assert!(e.eval_bool(&r, 0).unwrap());
        assert!(!e.eval_bool(&r, 1).unwrap());
    }

    #[test]
    fn boolean_connectives() {
        let r = rel();
        let e = Expr::col("a")
            .gt(Expr::lit(3))
            .and(Expr::col("s").eq(Expr::lit("x")))
            .bind(&r)
            .unwrap();
        assert!(!e.eval_bool(&r, 0).unwrap());
        assert!(!e.eval_bool(&r, 1).unwrap());
        assert!(e.eval_bool(&r, 2).unwrap());

        let e = Expr::col("a")
            .lt(Expr::lit(2))
            .or(Expr::col("a").ge(Expr::lit(9)))
            .bind(&r)
            .unwrap();
        assert!(e.eval_bool(&r, 0).unwrap());
        assert!(!e.eval_bool(&r, 1).unwrap());
        assert!(e.eval_bool(&r, 2).unwrap());

        let e = Expr::col("a").le(Expr::lit(1)).not().bind(&r).unwrap();
        assert!(!e.eval_bool(&r, 0).unwrap());
        assert!(e.eval_bool(&r, 1).unwrap());
    }

    #[test]
    fn arithmetic_and_in_list() {
        let r = rel();
        let e = (Expr::col("b") * Expr::lit(2.0) + Expr::col("a"))
            .bind(&r)
            .unwrap();
        assert_eq!(e.eval(&r, 1).unwrap(), Value::Float(9.0));

        let e = Expr::col("a")
            .in_list(vec![Value::Int(1), Value::Int(9)])
            .bind(&r)
            .unwrap();
        assert!(e.eval_bool(&r, 0).unwrap());
        assert!(!e.eval_bool(&r, 1).unwrap());
        assert!(e.eval_bool(&r, 2).unwrap());

        let e = (Expr::col("a") - Expr::lit(1)).bind(&r).unwrap();
        assert_eq!(e.eval(&r, 0).unwrap(), Value::Float(0.0));
    }

    #[test]
    fn unknown_column_fails_at_bind_time() {
        let r = rel();
        let err = Expr::col("missing").eq(Expr::lit(1)).bind(&r);
        assert!(matches!(err, Err(EngineError::UnknownColumn(_))));
    }

    #[test]
    fn string_as_predicate_is_an_error() {
        let r = rel();
        let e = Expr::col("s").bind(&r).unwrap();
        assert!(e.eval_bool(&r, 0).is_err());
    }

    #[test]
    fn referenced_columns_deduplicated() {
        let e = Expr::col("a")
            .gt(Expr::lit(1))
            .and(Expr::col("a").lt(Expr::col("b")));
        assert_eq!(e.referenced_columns(), vec!["a", "b"]);
    }
}
