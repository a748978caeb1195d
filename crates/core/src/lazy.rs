//! Lazy lineage query evaluation (paper §2.1, Appendix C).
//!
//! Lazy approaches capture nothing during the base query and instead rewrite
//! lineage (and lineage-consuming) queries into relational queries over the
//! base relations. For a group-by base query `O = γ_{g1..gn,F}(I)`, the
//! backward lineage of an output record `o` is the selection
//! `σ_{o.g1 = I.g1 ∧ … ∧ o.gn = I.gn}(I)`, with the base query's own
//! selections re-applied.

use smoke_storage::{Relation, Rid, Value};

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::query::consume_aggregate;

/// Builds the lazy rewrite predicate for the backward lineage of one output
/// group of a group-by query: equality on every group-by key plus the base
/// query's own selection predicate (if any).
pub fn backward_predicate(
    keys: &[String],
    key_values: &[Value],
    base_selection: Option<&Expr>,
) -> Expr {
    let mut pred: Option<Expr> = base_selection.cloned();
    for (key, value) in keys.iter().zip(key_values) {
        let eq = Expr::col(key.clone()).eq(Expr::Literal(value.clone()));
        pred = Some(match pred {
            Some(p) => p.and(eq),
            None => eq,
        });
    }
    pred.unwrap_or_else(|| Expr::lit(1))
}

/// The disjunction of `terms` as a balanced tree of depth ⌈log₂ n⌉ (`None`
/// when there are no terms). A lazy rewrite ORs one term per selected output
/// group; a left-deep chain of that many terms would make compiling,
/// evaluating and dropping the predicate recurse once per term, and a long
/// selection would overflow the stack.
pub fn disjunction(terms: Vec<Expr>) -> Option<Expr> {
    let mut level = terms;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut pairs = level.into_iter();
        while let Some(left) = pairs.next() {
            next.push(match pairs.next() {
                Some(right) => left.or(right),
                None => left,
            });
        }
        level = next;
    }
    level.pop()
}

/// Evaluates a backward lineage query lazily: a full selection scan of the
/// base relation with the rewrite predicate, batch-at-a-time through the
/// column kernels.
pub fn lazy_backward(relation: &Relation, predicate: &Expr) -> Result<Vec<Rid>> {
    crate::kernels::predicate_rids(relation, predicate)
}

/// Evaluates a lineage-consuming aggregation lazily: a full table scan with
/// the rewrite predicate (plus any extra consuming-query predicate), followed
/// by grouping — no lineage indexes are used.
pub fn lazy_consume(
    relation: &Relation,
    rewrite_predicate: &Expr,
    extra_predicate: Option<&Expr>,
    keys: &[String],
    aggs: &[AggExpr],
) -> Result<Relation> {
    let combined = match extra_predicate {
        Some(extra) => rewrite_predicate.clone().and(extra.clone()),
        None => rewrite_predicate.clone(),
    };
    consume_aggregate(relation, &lazy_backward(relation, &combined)?, keys, aggs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float);
        for (z, v) in [(1, 10.0), (2, 20.0), (1, 30.0), (3, 40.0), (1, 50.0)] {
            b = b.row(vec![Value::Int(z), Value::Float(v)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn backward_predicate_builds_key_equalities() {
        let pred = backward_predicate(&["z".to_string()], &[Value::Int(1)], None);
        let r = rel();
        let rids = lazy_backward(&r, &pred).unwrap();
        assert_eq!(rids, vec![0, 2, 4]);
    }

    #[test]
    fn backward_predicate_includes_base_selection() {
        let base_sel = Expr::col("v").lt(Expr::lit(40.0));
        let pred = backward_predicate(&["z".to_string()], &[Value::Int(1)], Some(&base_sel));
        let rids = lazy_backward(&rel(), &pred).unwrap();
        assert_eq!(rids, vec![0, 2]);
    }

    #[test]
    fn lazy_consume_scans_and_aggregates() {
        let pred = backward_predicate(&["z".to_string()], &[Value::Int(1)], None);
        let out = lazy_consume(
            &rel(),
            &pred,
            None,
            &["z".to_string()],
            &[AggExpr::sum("v", "total")],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.value(0, 1), Value::Float(90.0));
    }

    #[test]
    fn lazy_consume_with_extra_predicate() {
        let pred = backward_predicate(&["z".to_string()], &[Value::Int(1)], None);
        let extra = Expr::col("v").gt(Expr::lit(15.0));
        let out = lazy_consume(
            &rel(),
            &pred,
            Some(&extra),
            &["z".to_string()],
            &[AggExpr::count("cnt")],
        )
        .unwrap();
        assert_eq!(out.value(0, 1), Value::Int(2));
    }

    #[test]
    fn disjunction_is_balanced_and_matches_a_chain() {
        assert_eq!(disjunction(Vec::new()), None);
        let one = Expr::col("z").eq(Expr::lit(1));
        assert_eq!(disjunction(vec![one.clone()]), Some(one));
        let terms: Vec<Expr> = [3, 2, 9].map(|z| Expr::col("z").eq(Expr::lit(z))).into();
        let pred = disjunction(terms).unwrap();
        assert_eq!(lazy_backward(&rel(), &pred).unwrap(), vec![1, 3]);
    }

    /// A 100k-term disjunction over a 64-row relation compiles, evaluates
    /// and drops on an 8 MiB stack (a left-deep chain of that length
    /// overflowed it).
    #[test]
    fn long_disjunction_fits_a_session_stack() {
        let worker = std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(|| {
                let mut b = Relation::builder("r").column("z", DataType::Int);
                for z in 0..64 {
                    b = b.row(vec![Value::Int(z)]);
                }
                let r = b.build().unwrap();
                let terms = (0..100_000i64)
                    .map(|z| Expr::col("z").eq(Expr::lit(z * 7)))
                    .collect();
                lazy_backward(&r, &disjunction(terms).unwrap()).unwrap()
            })
            .unwrap();
        let expect: Vec<Rid> = (0..64).filter(|z| z % 7 == 0).collect();
        assert_eq!(worker.join().unwrap(), expect);
    }

    #[test]
    fn empty_keys_predicate_matches_everything() {
        let pred = backward_predicate(&[], &[], None);
        let rids = lazy_backward(&rel(), &pred).unwrap();
        assert_eq!(rids.len(), 5);
    }
}
