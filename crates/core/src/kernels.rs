//! The predicate evaluator: expressions compiled to column-kernel pipelines.
//!
//! [`KernelPlan::compile`] turns any [`Expr`] into a pipeline of typed column
//! kernels (see [`smoke_storage::kernels`]), or fails with a typed error
//! before any row is read: [`EngineError::UnknownColumn`] for a name the
//! relation lacks, [`EngineError::Expression`] for a `Str` in boolean
//! position or under arithmetic. The error therefore depends only on the
//! expression and the schema — not on the data, the rows evaluated or the
//! order of `AND` / `OR` operands.
//!
//! Comparisons, `IN` lists and the boolean connectives map to kernels
//! directly. A computed operand — arithmetic, or a boolean used as a value
//! (`(a > 1) = 1`) — is evaluated into a `Float` column over the rows being
//! evaluated and fed to the same kernels. Arithmetic runs in `f64`; a boolean
//! becomes `0.0` / `1.0`, which compares and matches `IN` lists exactly like
//! the integers `0` / `1` under [`Value::total_cmp`]. A computed operand in
//! boolean position is true unless it is `0.0` or `-0.0`, the same
//! `NOT IN (0.0, -0.0)` node a `Float` column uses.
//!
//! A plan evaluates rows densely, in one of three shapes:
//! * the whole relation ([`KernelPlan::eval`]);
//! * one morsel or ingest range ([`KernelPlan::eval_range`]), which the
//!   morsel-parallel and page-run drivers in [`crate::parallel`] and
//!   [`crate::paged`] stitch back together;
//! * a rid list ([`KernelPlan::eval_rids`]): the referenced columns are
//!   gathered at those rids into a chunk, and the pipeline runs over it.
//!
//! [`predicate_rids`], [`predicate_mask`] and [`filter_rids`] are one compile
//! plus one evaluation each. Selection, the group-by push-down, lazy
//! rewrites and the lineage planner's residual filters all go through them.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

use smoke_storage::kernels as sk;
use smoke_storage::{Column, DataType, KernelCmp, Relation, Rid, SelectionMask, Value};

use crate::error::{EngineError, Result};
use crate::expr::{ArithOp, CmpOp, Expr};

fn kernel_cmp(op: CmpOp) -> KernelCmp {
    match op {
        CmpOp::Eq => KernelCmp::Eq,
        CmpOp::Ne => KernelCmp::Ne,
        CmpOp::Lt => KernelCmp::Lt,
        CmpOp::Le => KernelCmp::Le,
        CmpOp::Gt => KernelCmp::Gt,
        CmpOp::Ge => KernelCmp::Ge,
    }
}

/// One node of a compiled pipeline; it evaluates to a selection mask.
#[derive(Debug, Clone)]
enum Node {
    /// `values OP literal` (flipped at compile time when the literal is on
    /// the left).
    CmpLit { src: Src, op: KernelCmp, lit: Value },
    /// `values OP values`.
    CmpCols {
        left: Src,
        op: KernelCmp,
        right: Src,
    },
    /// `values IN (list)`.
    InList { src: Src, list: Vec<Value> },
    /// A literal-folded constant.
    Const(bool),
    /// Conjunction.
    And(Box<Node>, Box<Node>),
    /// Disjunction.
    Or(Box<Node>, Box<Node>),
    /// Negation.
    Not(Box<Node>),
}

/// The per-row values a comparison or `IN` list reads.
#[derive(Debug, Clone)]
enum Src {
    /// A referenced column, by slot (its position in `KernelPlan::cols`).
    Col(usize),
    /// Arithmetic, computed in `f64` into a `Float` column.
    Arith {
        op: ArithOp,
        left: Box<Num>,
        right: Box<Num>,
    },
    /// A boolean used as a value: a `Float` column holding `1.0` where the
    /// node holds and `0.0` elsewhere.
    Bool(Box<Node>),
}

/// An arithmetic operand; compilation checks that it is numeric.
#[derive(Debug, Clone)]
enum Num {
    Lit(f64),
    Src(Src),
}

/// A compiled operand in value position.
enum Operand {
    Lit(Value),
    Src(Src),
}

/// A computed operand in boolean position: `NOT IN (0.0, -0.0)`. This is
/// IEEE `v != 0.0` (`-0.0` is falsy, `NaN` truthy), which `total_cmp`
/// equality alone would not give; the in-list kernel's bit-pattern equality
/// matches exactly those two zeros.
fn truthy(src: Src) -> Node {
    Node::Not(Box::new(Node::InList {
        src,
        list: vec![Value::Float(0.0), Value::Float(-0.0)],
    }))
}

/// A predicate compiled into a pipeline of typed column kernels over one
/// relation's schema.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    /// The relation columns the plan reads: slot `i` is column `cols[i]`.
    cols: Vec<usize>,
    node: Node,
}

impl KernelPlan {
    /// Compiles `expr` against `relation`'s schema. Every column name is
    /// resolved first, so an unknown one is [`EngineError::UnknownColumn`]
    /// whatever else the expression holds; a `Str` column or literal in
    /// boolean position or under arithmetic is [`EngineError::Expression`].
    pub fn compile(expr: &Expr, relation: &Relation) -> Result<KernelPlan> {
        let names = expr.referenced_columns();
        let cols = names
            .iter()
            .map(|&name| {
                relation
                    .column_index(name)
                    .map_err(|_| EngineError::UnknownColumn(name.to_string()))
            })
            .collect::<Result<Vec<usize>>>()?;
        let types = cols
            .iter()
            .map(|&c| relation.column(c).data_type())
            .collect();
        let node = Compiler { names, types }.boolean(expr)?;
        Ok(KernelPlan { cols, node })
    }

    /// Evaluates the pipeline over the whole relation into a selection mask.
    pub fn eval(&self, relation: &Relation) -> SelectionMask {
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
        let cols = self.cols.iter().map(|&c| relation.column(c)).collect();
        Chunk {
            cols,
            rows: start..end,
        }
        .mask(&self.node)
    }

    /// Evaluates the pipeline over the rows `rids`, in the given order and
    /// duplicates included: bit `i` of the result is row `rids[i]`. The
    /// referenced columns are gathered at `rids` into a chunk, which the
    /// pipeline then evaluates densely.
    pub fn eval_rids(&self, relation: &Relation, rids: &[Rid]) -> SelectionMask {
        let gathered: Vec<Column> = self
            .cols
            .iter()
            .map(|&c| relation.column(c).gather(rids))
            .collect();
        Chunk {
            cols: gathered.iter().collect(),
            rows: 0..rids.len(),
        }
        .mask(&self.node)
    }
}

/// Compiles against one schema: `names[i]` is slot `i`, of type `types[i]`.
struct Compiler<'e> {
    names: Vec<&'e str>,
    types: Vec<DataType>,
}

impl Compiler<'_> {
    fn slot(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|&n| n == name)
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
    }

    /// Compiles an expression in boolean position.
    fn boolean(&self, expr: &Expr) -> Result<Node> {
        Ok(match expr {
            Expr::Cmp { op, left, right } => {
                let op = kernel_cmp(*op);
                match (self.operand(left)?, self.operand(right)?) {
                    (Operand::Lit(a), Operand::Lit(b)) => Node::Const(op.matches(a.total_cmp(&b))),
                    (Operand::Src(src), Operand::Lit(lit)) => Node::CmpLit { src, op, lit },
                    (Operand::Lit(lit), Operand::Src(src)) => Node::CmpLit {
                        src,
                        op: op.flip(),
                        lit,
                    },
                    (Operand::Src(left), Operand::Src(right)) => Node::CmpCols { left, op, right },
                }
            }
            Expr::And(l, r) => Node::And(Box::new(self.boolean(l)?), Box::new(self.boolean(r)?)),
            Expr::Or(l, r) => Node::Or(Box::new(self.boolean(l)?), Box::new(self.boolean(r)?)),
            Expr::Not(e) => Node::Not(Box::new(self.boolean(e)?)),
            Expr::InList { expr, list } => match self.operand(expr)? {
                Operand::Lit(v) => {
                    Node::Const(list.iter().any(|x| v.total_cmp(x) == Ordering::Equal))
                }
                Operand::Src(src) => Node::InList {
                    src,
                    list: list.clone(),
                },
            },
            Expr::Column(name) => {
                let slot = self.slot(name)?;
                match self.types[slot] {
                    DataType::Int => Node::CmpLit {
                        src: Src::Col(slot),
                        op: KernelCmp::Ne,
                        lit: Value::Int(0),
                    },
                    DataType::Float => truthy(Src::Col(slot)),
                    DataType::Str => {
                        return Err(EngineError::Expression(format!(
                            "string column `{name}` used as a boolean predicate"
                        )))
                    }
                }
            }
            Expr::Literal(v) => match v {
                Value::Int(x) => Node::Const(*x != 0),
                Value::Float(x) => Node::Const(*x != 0.0),
                Value::Str(s) => {
                    return Err(EngineError::Expression(format!(
                        "string `{s}` used as a boolean predicate"
                    )))
                }
            },
            Expr::Arith { op, left, right } => truthy(self.arith(*op, left, right)?),
        })
    }

    /// Compiles an expression in value position.
    fn operand(&self, expr: &Expr) -> Result<Operand> {
        Ok(match expr {
            Expr::Literal(v) => Operand::Lit(v.clone()),
            Expr::Column(name) => Operand::Src(Src::Col(self.slot(name)?)),
            Expr::Arith { op, left, right } => Operand::Src(self.arith(*op, left, right)?),
            // Comparisons, connectives and `IN` evaluate to 0 / 1.
            _ => Operand::Src(Src::Bool(Box::new(self.boolean(expr)?))),
        })
    }

    fn arith(&self, op: ArithOp, left: &Expr, right: &Expr) -> Result<Src> {
        Ok(Src::Arith {
            op,
            left: Box::new(self.number(left)?),
            right: Box::new(self.number(right)?),
        })
    }

    /// Compiles an arithmetic operand; a `Str` one is a type error.
    fn number(&self, expr: &Expr) -> Result<Num> {
        let non_numeric = || EngineError::Expression("non-numeric arithmetic".into());
        match self.operand(expr)? {
            Operand::Lit(v) => v.as_float().map(Num::Lit).ok_or_else(non_numeric),
            Operand::Src(Src::Col(slot)) if self.types[slot] == DataType::Str => Err(non_numeric()),
            Operand::Src(src) => Ok(Num::Src(src)),
        }
    }
}

/// The rows one evaluation reads: slot `i` is `cols[i]`, restricted to
/// `rows`. Every mask it produces has bit `i` for row `rows.start + i`.
struct Chunk<'c> {
    cols: Vec<&'c Column>,
    rows: Range<usize>,
}

impl<'c> Chunk<'c> {
    fn mask(&self, node: &Node) -> SelectionMask {
        match node {
            Node::CmpLit { src, op, lit } => {
                let (col, rows) = self.values(src);
                sk::cmp_col_lit_range(&col, *op, lit, rows.start, rows.end)
            }
            Node::CmpCols { left, op, right } => {
                let (l, l_rows) = self.values(left);
                let (r, r_rows) = self.values(right);
                if l_rows == r_rows && l.len() == r.len() {
                    sk::cmp_col_col_range(&l, *op, &r, l_rows.start, l_rows.end)
                } else {
                    // A computed side is exactly the chunk's rows, a column
                    // side holds them at `rows`: copy both out to align them.
                    sk::cmp_col_col(&slice(&l, l_rows), *op, &slice(&r, r_rows))
                }
            }
            Node::InList { src, list } => {
                let (col, rows) = self.values(src);
                sk::in_list_range(&col, list, rows.start, rows.end)
            }
            Node::Const(b) => SelectionMask::constant(self.rows.len(), *b),
            Node::And(l, r) => {
                let mut mask = self.mask(l);
                mask.and_assign(&self.mask(r));
                mask
            }
            Node::Or(l, r) => {
                let mut mask = self.mask(l);
                mask.or_assign(&self.mask(r));
                mask
            }
            Node::Not(e) => {
                let mut mask = self.mask(e);
                mask.not_assign();
                mask
            }
        }
    }

    /// `src`'s values as a column plus the rows of it to read: a referenced
    /// column is borrowed at the chunk's rows, a computed operand is a fresh
    /// `Float` column covering exactly those rows.
    fn values(&self, src: &Src) -> (Cow<'c, Column>, Range<usize>) {
        let computed = |v: Vec<f64>| (Cow::Owned(Column::Float(v)), 0..self.rows.len());
        match src {
            Src::Col(slot) => (Cow::Borrowed(self.cols[*slot]), self.rows.clone()),
            Src::Arith { op, left, right } => {
                let (l, r) = (self.floats(left), self.floats(right));
                computed(
                    l.iter()
                        .zip(&r)
                        .map(|(&a, &b)| match op {
                            ArithOp::Add => a + b,
                            ArithOp::Sub => a - b,
                            ArithOp::Mul => a * b,
                            ArithOp::Div => a / b,
                        })
                        .collect(),
                )
            }
            Src::Bool(node) => {
                let mask = self.mask(node);
                computed(
                    (0..mask.len())
                        .map(|i| if mask.get(i) { 1.0 } else { 0.0 })
                        .collect(),
                )
            }
        }
    }

    /// An arithmetic operand over the chunk's rows, coerced to `f64`.
    fn floats(&self, num: &Num) -> Vec<f64> {
        match num {
            Num::Lit(x) => vec![*x; self.rows.len()],
            Num::Src(src) => {
                let (col, rows) = self.values(src);
                match col.as_ref() {
                    Column::Int(v) => v[rows].iter().map(|&x| x as f64).collect(),
                    Column::Float(v) => v[rows].to_vec(),
                    // `Compiler::number` refuses `Str` operands.
                    Column::Str(_) => vec![f64::NAN; self.rows.len()],
                }
            }
        }
    }
}

/// Copies rows `rows` of `col` into a column of their own.
fn slice(col: &Column, rows: Range<usize>) -> Column {
    match col {
        Column::Int(v) => Column::Int(v[rows].to_vec()),
        Column::Float(v) => Column::Float(v[rows].to_vec()),
        Column::Str(v) => Column::Str(v[rows].to_vec()),
    }
}

/// Evaluates a predicate over the whole relation into a selection mask.
pub fn predicate_mask(relation: &Relation, expr: &Expr) -> Result<SelectionMask> {
    predicate_mask_range(relation, expr, 0..relation.len())
}

/// [`predicate_mask`] restricted to rows `range` (one operator-core ingest):
/// bit `i` of the result is row `range.start + i`.
pub(crate) fn predicate_mask_range(
    relation: &Relation,
    expr: &Expr,
    range: Range<usize>,
) -> Result<SelectionMask> {
    Ok(KernelPlan::compile(expr, relation)?.eval_range(relation, range.start, range.end))
}

/// Evaluates a predicate over the whole relation into the matching rid list
/// (ascending).
pub fn predicate_rids(relation: &Relation, expr: &Expr) -> Result<Vec<Rid>> {
    Ok(KernelPlan::compile(expr, relation)?
        .eval(relation)
        .to_rids())
}

/// Restricts a rid list to the rows satisfying `expr`, preserving order and
/// duplicates. Only the rows in `rids` are read, at any width: the
/// predicate's columns are gathered at `rids` and evaluated densely.
pub fn filter_rids(relation: &Relation, expr: &Expr, rids: &[Rid]) -> Result<Vec<Rid>> {
    let mask = KernelPlan::compile(expr, relation)?.eval_rids(relation, rids);
    let mut kept = Vec::with_capacity(mask.count_ones());
    mask.for_each_one(|i| kept.push(rids[i]));
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn rows(range: Range<Rid>) -> Vec<Rid> {
        range.collect()
    }

    /// Every expression shape, with the rows it selects from `rel()` (where
    /// `a = i`, `b = i / 2` and `s` alternates "even" / "odd").
    fn cases() -> Vec<(Expr, Vec<Rid>)> {
        vec![
            (Expr::col("a").gt(Expr::lit(4)), rows(5..10)),
            (Expr::lit(4).gt(Expr::col("a")), rows(0..4)),
            (Expr::col("a").le(Expr::col("b")), vec![0]),
            (Expr::col("s").eq(Expr::lit("even")), vec![0, 2, 4, 6, 8]),
            (
                Expr::col("a")
                    .ge(Expr::lit(2))
                    .and(Expr::col("b").lt(Expr::lit(4.0))),
                rows(2..8),
            ),
            (
                Expr::col("a")
                    .lt(Expr::lit(1))
                    .or(Expr::col("s").ne(Expr::lit("odd"))),
                vec![0, 2, 4, 6, 8],
            ),
            (Expr::col("a").gt(Expr::lit(3)).not(), rows(0..4)),
            (
                Expr::col("a").in_list(vec![Value::Int(1), Value::Int(7)]),
                vec![1, 7],
            ),
            // Type-determined constant and literal folding.
            (Expr::col("s").eq(Expr::lit(3)), vec![]),
            (Expr::lit(2).lt(Expr::lit(3)), rows(0..10)),
            // Numeric columns as booleans.
            (
                Expr::col("a").and(Expr::col("b").gt(Expr::lit(1.0))),
                rows(3..10),
            ),
            // Arithmetic operands.
            (
                (Expr::col("a") + Expr::lit(1)).gt(Expr::lit(3)),
                rows(3..10),
            ),
            (
                (Expr::col("a") * Expr::lit(2)).gt(Expr::lit(11.0)),
                rows(6..10),
            ),
            (
                (Expr::col("a") + Expr::lit(1)).gt(Expr::col("b")),
                rows(0..10),
            ),
            // Division by zero at a = 2 gives +inf; a = 0 gives -0.0 < 0.
            (
                Expr::Arith {
                    op: ArithOp::Div,
                    left: Box::new(Expr::col("b")),
                    right: Box::new(Expr::col("a") - Expr::lit(2)),
                }
                .gt(Expr::lit(0)),
                rows(2..10),
            ),
            // Arithmetic in boolean position: true unless zero.
            (
                Expr::col("a") - Expr::lit(3),
                vec![0, 1, 2, 4, 5, 6, 7, 8, 9],
            ),
            // Booleans used as values.
            (
                Expr::col("a").gt(Expr::lit(4)).eq(Expr::lit(1)),
                rows(5..10),
            ),
            (
                (Expr::col("a").gt(Expr::lit(4)) + Expr::col("b").ge(Expr::lit(4.0)))
                    .eq(Expr::lit(2)),
                vec![8, 9],
            ),
            (
                Expr::col("a").gt(Expr::lit(4)).in_list(vec![Value::Int(0)]),
                rows(0..5),
            ),
        ]
    }

    #[test]
    fn every_shape_compiles_and_selects_the_expected_rows() {
        let r = rel();
        for (e, expect) in cases() {
            assert_eq!(predicate_rids(&r, &e).unwrap(), expect, "{e:?}");
            assert_eq!(predicate_mask(&r, &e).unwrap().to_rids(), expect, "{e:?}");
        }
    }

    #[test]
    fn float_column_truthiness_matches_ieee_coercion() {
        // -0.0 is falsy and NaN truthy under `v != 0.0`, even though
        // total_cmp distinguishes -0.0 from 0.0.
        let r = Relation::builder("f")
            .column("x", DataType::Float)
            .row(vec![Value::Float(0.0)])
            .row(vec![Value::Float(-0.0)])
            .row(vec![Value::Float(1.5)])
            .row(vec![Value::Float(f64::NAN)])
            .build()
            .unwrap();
        let e = Expr::col("x").and(Expr::lit(1));
        assert_eq!(predicate_rids(&r, &e).unwrap(), vec![2, 3]);
        // The same holds for a computed operand.
        let e = Expr::col("x") * Expr::lit(1.0);
        assert_eq!(predicate_rids(&r, &e).unwrap(), vec![2, 3]);
    }

    #[test]
    fn compile_errors_are_typed_and_independent_of_the_rows() {
        let r = rel();
        let empty = r.gather(&[], "empty");
        let unknown = Expr::col("zzz").eq(Expr::lit(1));
        let string_col = Expr::col("s").and(Expr::col("a").gt(Expr::lit(0)));
        let string_lit = Expr::col("a").lt(Expr::lit(0)).and(Expr::lit("x"));
        let string_lit_first = Expr::lit("x").and(Expr::col("a").lt(Expr::lit(0)));
        let string_arith = (Expr::col("s") + Expr::lit(1)).gt(Expr::lit(0));
        let arith_string = (Expr::col("a") * Expr::lit("2")).gt(Expr::lit(0));
        for rel in [&r, &empty] {
            assert!(matches!(
                KernelPlan::compile(&unknown, rel),
                Err(EngineError::UnknownColumn(c)) if c == "zzz"
            ));
            // An unknown column wins over a type error, in either order.
            let both = Expr::lit("x").and(Expr::col("zzz").gt(Expr::lit(0)));
            assert!(matches!(
                KernelPlan::compile(&both, rel),
                Err(EngineError::UnknownColumn(_))
            ));
            for e in [
                &string_col,
                &string_lit,
                &string_lit_first,
                &string_arith,
                &arith_string,
            ] {
                assert!(
                    matches!(KernelPlan::compile(e, rel), Err(EngineError::Expression(_))),
                    "{e:?}"
                );
                assert!(filter_rids(rel, e, &[]).is_err(), "{e:?}");
            }
        }
    }

    #[test]
    fn filter_rids_keeps_order_and_duplicates() {
        let r = rel();
        let rid_lists: [&[Rid]; 4] = [
            &[],
            &[9, 0, 4, 9, 3, 3],
            &[7],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        ];
        for (e, all) in cases() {
            for &rids in &rid_lists {
                let expect: Vec<Rid> = rids
                    .iter()
                    .copied()
                    .filter(|rid| all.contains(rid))
                    .collect();
                assert_eq!(filter_rids(&r, &e, rids).unwrap(), expect, "{e:?} {rids:?}");
            }
        }
    }

    #[test]
    fn eval_range_stitches_back_to_whole_mask() {
        let r = rel();
        for (e, _) in cases() {
            let plan = KernelPlan::compile(&e, &r).unwrap();
            let whole = plan.eval(&r);
            for split in [0, 3, 7, r.len()] {
                let mut stitched = plan.eval_range(&r, 0, split);
                stitched.append(&plan.eval_range(&r, split, r.len()));
                assert_eq!(stitched.to_rids(), whole.to_rids(), "{e:?} split {split}");
            }
        }
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
        assert_eq!(filter_rids(&r, &Expr::lit(1), &[]).unwrap(), vec![]);
    }
}
