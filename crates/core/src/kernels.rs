//! Vectorized predicate evaluation: compiling expressions to column-kernel
//! pipelines.
//!
//! [`KernelPlan::compile`] turns a [`Expr`] into a pipeline of typed column
//! kernels (see [`smoke_storage::kernels`]) when the expression shape allows
//! it: comparison / boolean trees whose leaves are column references and
//! literals (including `IN` lists over a column). Arithmetic, columns used as
//! raw booleans inside comparisons, and any other shape return `None`, and
//! callers fall back to the row-at-a-time [`BoundExpr`](crate::expr::BoundExpr)
//! interpreter — the fallback is transparent: kernel evaluation is
//! bit-for-bit equivalent to the interpreter on every shape it accepts.
//!
//! The helpers [`predicate_rids`], [`predicate_mask`], and [`filter_rids`]
//! bundle the compile-or-fallback decision so operators, the lazy rewriter,
//! and the lineage planner all route predicate scans through one place.
//!
//! A compiled plan can also evaluate any sub-range of the relation
//! ([`KernelPlan::eval_range`]); the morsel-parallel drivers in
//! [`crate::parallel`] use this to run one plan over many morsels at once and
//! stitch the per-morsel masks back together.

use smoke_storage::kernels as sk;
use smoke_storage::{KernelCmp, Relation, Rid, SelectionMask, Value};

use crate::error::Result;
use crate::expr::{CmpOp, Expr};

pub(crate) fn kernel_cmp(op: CmpOp) -> KernelCmp {
    match op {
        CmpOp::Eq => KernelCmp::Eq,
        CmpOp::Ne => KernelCmp::Ne,
        CmpOp::Lt => KernelCmp::Lt,
        CmpOp::Le => KernelCmp::Le,
        CmpOp::Gt => KernelCmp::Gt,
        CmpOp::Ge => KernelCmp::Ge,
    }
}

/// One node of a compiled kernel pipeline.
#[derive(Debug, Clone)]
enum Node {
    /// `column OP literal` (flipped at compile time when the literal is on
    /// the left).
    CmpLit {
        col: usize,
        op: KernelCmp,
        lit: Value,
    },
    /// `column OP column`.
    CmpCols {
        left: usize,
        op: KernelCmp,
        right: usize,
    },
    /// `column IN (list)`.
    InList { col: usize, list: Vec<Value> },
    /// A numeric column used as a boolean (`v != 0`), or a type-determined /
    /// literal-folded constant.
    Const(bool),
    /// Conjunction.
    And(Box<Node>, Box<Node>),
    /// Disjunction.
    Or(Box<Node>, Box<Node>),
    /// Negation.
    Not(Box<Node>),
}

/// A predicate compiled into a pipeline of typed column kernels over one
/// relation's schema.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    node: Node,
    len: usize,
}

impl KernelPlan {
    /// Compiles `expr` against `relation`'s schema. Returns `None` when the
    /// expression contains a shape the kernels cannot evaluate (arithmetic,
    /// unknown columns, string columns as booleans, …); callers then fall
    /// back to the interpreter, which also surfaces any bind errors.
    pub fn compile(expr: &Expr, relation: &Relation) -> Option<KernelPlan> {
        Some(KernelPlan {
            node: compile_bool(expr, relation)?,
            len: relation.len(),
        })
    }

    /// Evaluates the pipeline over the whole relation into a selection mask.
    pub fn eval(&self, relation: &Relation) -> SelectionMask {
        debug_assert_eq!(self.len, relation.len());
        self.eval_range(relation, 0, relation.len())
    }

    /// Evaluates the pipeline over rows `start..end` only (one morsel), into
    /// a morsel-local mask: bit `i` of the result is row `start + i`. This is
    /// the per-worker entry point of the parallel drivers; stitching the
    /// morsel masks back together in morsel order reproduces [`eval`]'s
    /// mask bit for bit.
    ///
    /// [`eval`]: KernelPlan::eval
    pub fn eval_range(&self, relation: &Relation, start: usize, end: usize) -> SelectionMask {
        debug_assert!(start <= end && end <= relation.len());
        eval_node_range(&self.node, relation, start, end)
    }
}

/// Compiles an expression appearing in boolean position.
fn compile_bool(expr: &Expr, relation: &Relation) -> Option<Node> {
    match expr {
        Expr::Cmp { op, left, right } => {
            let op = kernel_cmp(*op);
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(v)) => Some(Node::CmpLit {
                    col: relation.column_index(c).ok()?,
                    op,
                    lit: v.clone(),
                }),
                (Expr::Literal(v), Expr::Column(c)) => Some(Node::CmpLit {
                    col: relation.column_index(c).ok()?,
                    op: op.flip(),
                    lit: v.clone(),
                }),
                (Expr::Column(a), Expr::Column(b)) => Some(Node::CmpCols {
                    left: relation.column_index(a).ok()?,
                    op,
                    right: relation.column_index(b).ok()?,
                }),
                (Expr::Literal(a), Expr::Literal(b)) => {
                    Some(Node::Const(op.matches(a.total_cmp(b))))
                }
                _ => None,
            }
        }
        Expr::And(l, r) => Some(Node::And(
            Box::new(compile_bool(l, relation)?),
            Box::new(compile_bool(r, relation)?),
        )),
        Expr::Or(l, r) => Some(Node::Or(
            Box::new(compile_bool(l, relation)?),
            Box::new(compile_bool(r, relation)?),
        )),
        Expr::Not(e) => Some(Node::Not(Box::new(compile_bool(e, relation)?))),
        Expr::InList { expr, list } => match expr.as_ref() {
            Expr::Column(c) => Some(Node::InList {
                col: relation.column_index(c).ok()?,
                list: list.clone(),
            }),
            Expr::Literal(v) => Some(Node::Const(
                list.iter()
                    .any(|x| v.total_cmp(x) == std::cmp::Ordering::Equal),
            )),
            _ => None,
        },
        // A numeric column in boolean position means `v != 0`; string columns
        // are a type error the interpreter must surface, so don't compile.
        Expr::Column(c) => {
            let idx = relation.column_index(c).ok()?;
            match relation.column(idx).data_type() {
                smoke_storage::DataType::Int => Some(Node::CmpLit {
                    col: idx,
                    op: KernelCmp::Ne,
                    lit: Value::Int(0),
                }),
                // The interpreter coerces with IEEE `v != 0.0`, under which
                // -0.0 is falsy; `total_cmp` would distinguish -0.0 from 0.0,
                // so express truthiness as NOT IN (0.0, -0.0) — the in-list
                // kernel's bit-pattern equality matches exactly those two.
                smoke_storage::DataType::Float => Some(Node::Not(Box::new(Node::InList {
                    col: idx,
                    list: vec![Value::Float(0.0), Value::Float(-0.0)],
                }))),
                smoke_storage::DataType::Str => None,
            }
        }
        Expr::Literal(v) => match v {
            Value::Int(x) => Some(Node::Const(*x != 0)),
            Value::Float(x) => Some(Node::Const(*x != 0.0)),
            Value::Str(_) => None,
        },
        Expr::Arith { .. } => None,
    }
}

fn eval_node_range(node: &Node, relation: &Relation, start: usize, end: usize) -> SelectionMask {
    match node {
        Node::CmpLit { col, op, lit } => {
            sk::cmp_col_lit_range(relation.column(*col), *op, lit, start, end)
        }
        Node::CmpCols { left, op, right } => sk::cmp_col_col_range(
            relation.column(*left),
            *op,
            relation.column(*right),
            start,
            end,
        ),
        Node::InList { col, list } => sk::in_list_range(relation.column(*col), list, start, end),
        Node::Const(b) => SelectionMask::constant(end - start, *b),
        Node::And(l, r) => {
            let mut mask = eval_node_range(l, relation, start, end);
            mask.and_assign(&eval_node_range(r, relation, start, end));
            mask
        }
        Node::Or(l, r) => {
            let mut mask = eval_node_range(l, relation, start, end);
            mask.or_assign(&eval_node_range(r, relation, start, end));
            mask
        }
        Node::Not(e) => {
            let mut mask = eval_node_range(e, relation, start, end);
            mask.not_assign();
            mask
        }
    }
}

/// Evaluates a predicate over the whole relation into a selection mask,
/// through kernels when the shape allows it and the interpreter otherwise.
pub fn predicate_mask(relation: &Relation, expr: &Expr) -> Result<SelectionMask> {
    predicate_mask_range(relation, expr, 0..relation.len())
}

/// [`predicate_mask`] restricted to rows `range` (one operator-core ingest):
/// bit `i` of the result is row `range.start + i`.
pub(crate) fn predicate_mask_range(
    relation: &Relation,
    expr: &Expr,
    range: std::ops::Range<usize>,
) -> Result<SelectionMask> {
    if let Some(plan) = KernelPlan::compile(expr, relation) {
        return Ok(plan.eval_range(relation, range.start, range.end));
    }
    let bound = expr.bind(relation)?;
    let mut mask = SelectionMask::all_false(range.len());
    for rid in range.clone() {
        if bound.eval_bool(relation, rid)? {
            mask.set(rid - range.start);
        }
    }
    Ok(mask)
}

/// Evaluates a predicate over the whole relation into the matching rid list
/// (ascending), through kernels when possible.
pub fn predicate_rids(relation: &Relation, expr: &Expr) -> Result<Vec<Rid>> {
    if let Some(plan) = KernelPlan::compile(expr, relation) {
        return Ok(plan.eval(relation).to_rids());
    }
    let bound = expr.bind(relation)?;
    let mut out = Vec::new();
    for rid in 0..relation.len() {
        if bound.eval_bool(relation, rid)? {
            out.push(rid as Rid);
        }
    }
    Ok(out)
}

/// Restricts a rid set to the rows satisfying `expr`, preserving order.
///
/// Kernels evaluate whole columns, so the full-column mask is only worth
/// building when the rid set covers a reasonable fraction of the relation;
/// small sets are filtered row-at-a-time through the interpreter.
pub fn filter_rids(relation: &Relation, expr: &Expr, rids: &[Rid]) -> Result<Vec<Rid>> {
    if rids.len() * 8 >= relation.len() {
        if let Some(plan) = KernelPlan::compile(expr, relation) {
            let mask = plan.eval(relation);
            return Ok(rids
                .iter()
                .copied()
                .filter(|&r| mask.get(r as usize))
                .collect());
        }
    }
    let bound = expr.bind(relation)?;
    let mut kept = Vec::with_capacity(rids.len());
    for &rid in rids {
        if bound.eval_bool(relation, rid as usize)? {
            kept.push(rid);
        }
    }
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        let mut b = Relation::builder("t")
            .column("a", DataType::Int)
            .column("b", DataType::Float)
            .column("s", DataType::Str);
        for i in 0..10i64 {
            b = b.row(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                Value::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
            ]);
        }
        b.build().unwrap()
    }

    /// Kernel mask must agree with the interpreter on every row.
    fn assert_equivalent(expr: &Expr, r: &Relation) {
        let plan = KernelPlan::compile(expr, r).expect("expression should compile to kernels");
        let mask = plan.eval(r);
        let bound = expr.bind(r).unwrap();
        for rid in 0..r.len() {
            assert_eq!(
                mask.get(rid),
                bound.eval_bool(r, rid).unwrap(),
                "row {rid} of {expr:?}"
            );
        }
    }

    #[test]
    fn comparison_and_boolean_trees_compile_and_agree() {
        let r = rel();
        let exprs = [
            Expr::col("a").gt(Expr::lit(4)),
            Expr::lit(4).gt(Expr::col("a")),
            Expr::col("a").le(Expr::col("b")),
            Expr::col("s").eq(Expr::lit("even")),
            Expr::col("a")
                .ge(Expr::lit(2))
                .and(Expr::col("b").lt(Expr::lit(4.0))),
            Expr::col("a")
                .lt(Expr::lit(1))
                .or(Expr::col("s").ne(Expr::lit("odd"))),
            Expr::col("a").gt(Expr::lit(3)).not(),
            Expr::col("a").in_list(vec![Value::Int(1), Value::Int(7)]),
            Expr::col("s").eq(Expr::lit(3)), // type-determined constant
            Expr::lit(2).lt(Expr::lit(3)),   // literal folding
            Expr::col("a").and(Expr::col("b").gt(Expr::lit(1.0))), // column as bool
        ];
        for e in &exprs {
            assert_equivalent(e, &r);
        }
    }

    #[test]
    fn float_column_truthiness_matches_ieee_coercion() {
        // -0.0 is falsy under the interpreter's IEEE `v != 0.0` coercion; the
        // kernel path must agree even though total_cmp distinguishes -0.0.
        let r = Relation::builder("f")
            .column("x", DataType::Float)
            .row(vec![Value::Float(0.0)])
            .row(vec![Value::Float(-0.0)])
            .row(vec![Value::Float(1.5)])
            .row(vec![Value::Float(f64::NAN)])
            .build()
            .unwrap();
        let e = Expr::col("x").and(Expr::lit(1));
        assert_equivalent(&e, &r);
        let mask = KernelPlan::compile(&e, &r).unwrap().eval(&r);
        assert_eq!(mask.to_rids(), vec![2, 3]);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let r = rel();
        // Arithmetic inside a comparison.
        let e = (Expr::col("a") + Expr::lit(1)).gt(Expr::lit(3));
        assert!(KernelPlan::compile(&e, &r).is_none());
        // Unknown column.
        let e = Expr::col("zzz").eq(Expr::lit(1));
        assert!(KernelPlan::compile(&e, &r).is_none());
        // String column as boolean (the interpreter must surface the error).
        let e = Expr::col("s").and(Expr::col("a").gt(Expr::lit(0)));
        assert!(KernelPlan::compile(&e, &r).is_none());
        // String literal in boolean position.
        assert!(KernelPlan::compile(&Expr::lit("x"), &r).is_none());
    }

    #[test]
    fn predicate_helpers_agree_with_interpreter() {
        let r = rel();
        // A kernelizable predicate and a fallback-only predicate.
        let kernel = Expr::col("a").ge(Expr::lit(6));
        let fallback = (Expr::col("a") * Expr::lit(2)).gt(Expr::lit(11.0));
        for e in [&kernel, &fallback] {
            let rids = predicate_rids(&r, e).unwrap();
            let bound = e.bind(&r).unwrap();
            let expect: Vec<Rid> = (0..r.len())
                .filter(|&rid| bound.eval_bool(&r, rid).unwrap())
                .map(|rid| rid as Rid)
                .collect();
            assert_eq!(rids, expect, "{e:?}");

            let mask = predicate_mask(&r, e).unwrap();
            assert_eq!(mask.to_rids(), expect);

            // filter_rids over the full set and over a small subset.
            assert_eq!(filter_rids(&r, e, &r.all_rids()).unwrap(), expect);
            let small = filter_rids(&r, e, &[9, 0]).unwrap();
            let expect_small: Vec<Rid> = [9u32, 0]
                .into_iter()
                .filter(|&rid| bound.eval_bool(&r, rid as usize).unwrap())
                .collect();
            assert_eq!(small, expect_small);
        }
    }

    #[test]
    fn eval_range_stitches_back_to_whole_mask() {
        let r = rel();
        let exprs = [
            Expr::col("a").gt(Expr::lit(4)),
            Expr::col("a")
                .ge(Expr::lit(2))
                .and(Expr::col("b").lt(Expr::lit(4.0))),
            Expr::col("a")
                .in_list(vec![Value::Int(1), Value::Int(7)])
                .not(),
            Expr::col("s").eq(Expr::lit(3)), // constant node
        ];
        for e in &exprs {
            let plan = KernelPlan::compile(e, &r).unwrap();
            let whole = plan.eval(&r);
            for split in [0, 3, 7, r.len()] {
                let mut stitched = plan.eval_range(&r, 0, split);
                stitched.append(&plan.eval_range(&r, split, r.len()));
                assert_eq!(stitched.to_rids(), whole.to_rids(), "{e:?} split {split}");
            }
        }
    }

    #[test]
    fn errors_still_surface_through_fallback() {
        let r = rel();
        // Unknown column: compile declines, interpreter reports the error.
        assert!(predicate_rids(&r, &Expr::col("zzz").eq(Expr::lit(1))).is_err());
        // String column as boolean predicate.
        assert!(predicate_mask(&r, &Expr::col("s")).is_err());
    }

    #[test]
    fn empty_relation() {
        let r = Relation::builder("e")
            .column("a", DataType::Int)
            .build()
            .unwrap();
        let e = Expr::col("a").lt(Expr::lit(5));
        assert_eq!(predicate_rids(&r, &e).unwrap(), Vec::<Rid>::new());
        assert_eq!(predicate_mask(&r, &e).unwrap().count_ones(), 0);
    }
}
