//! Aggregate functions and their incremental state.
//!
//! The paper's microbenchmark query computes several statistics per group
//! (`COUNT(*), SUM(v), SUM(v*v), SUM(sqrt(v)), MIN(v), MAX(v)`); all of these
//! are algebraic/distributive and can be maintained incrementally, which is
//! also what makes the group-by push-down optimization (§4.2) possible.

use smoke_storage::{DataType, Value};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `SUM(col * col)`.
    SumSq,
    /// `SUM(sqrt(col))`.
    SumSqrt,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
    /// `COUNT(DISTINCT col)` (used by the data-profiling application).
    CountDistinct,
}

/// An aggregate expression: a function over a column, with an output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The aggregated column (ignored for `COUNT(*)`).
    pub column: Option<String>,
    /// Name of the output column.
    pub alias: String,
}

impl AggExpr {
    /// `COUNT(*) AS alias`.
    pub fn count(alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Count,
            column: None,
            alias: alias.into(),
        }
    }

    /// `SUM(column) AS alias`.
    pub fn sum(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Sum,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `SUM(column * column) AS alias`.
    pub fn sum_sq(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::SumSq,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `SUM(sqrt(column)) AS alias`.
    pub fn sum_sqrt(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::SumSqrt,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `MIN(column) AS alias`.
    pub fn min(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Min,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `MAX(column) AS alias`.
    pub fn max(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Max,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `AVG(column) AS alias`.
    pub fn avg(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::Avg,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// `COUNT(DISTINCT column) AS alias`.
    pub fn count_distinct(column: impl Into<String>, alias: impl Into<String>) -> Self {
        AggExpr {
            func: AggFunc::CountDistinct,
            column: Some(column.into()),
            alias: alias.into(),
        }
    }

    /// The output data type of this aggregate.
    pub fn output_type(&self) -> DataType {
        match self.func {
            AggFunc::Count | AggFunc::CountDistinct => DataType::Int,
            _ => DataType::Float,
        }
    }

    /// Creates a fresh accumulator for this aggregate.
    pub fn new_state(&self) -> AggState {
        match self.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::SumSq => AggState::SumSq(0.0),
            AggFunc::SumSqrt => AggState::SumSqrt(0.0),
            AggFunc::Min => AggState::Min(f64::INFINITY),
            AggFunc::Max => AggState::Max(f64::NEG_INFINITY),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::CountDistinct => AggState::CountDistinct(std::collections::BTreeSet::new()),
        }
    }
}

/// Incremental aggregation state for one group and one aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Running count.
    Count(u64),
    /// Running sum.
    Sum(f64),
    /// Running sum of squares.
    SumSq(f64),
    /// Running sum of square roots.
    SumSqrt(f64),
    /// Running minimum.
    Min(f64),
    /// Running maximum.
    Max(f64),
    /// Running sum and count, finalized as the mean.
    Avg {
        /// Sum of observed values.
        sum: f64,
        /// Number of observed values.
        count: u64,
    },
    /// Distinct string keys observed.
    CountDistinct(std::collections::BTreeSet<String>),
}

impl AggState {
    /// Folds a numeric value into the state. `COUNT(*)` ignores the value.
    ///
    /// The group-by's batch fold (`AggInputs::fold`) runs its own typed
    /// loop per numeric function and steps through this only for its
    /// fallbacks; the physical baselines fold row by row through it. Inlined
    /// by force, as it is called from several instantiated loops and would
    /// otherwise be left out of line.
    #[inline(always)]
    pub fn update(&mut self, value: f64) {
        match self {
            AggState::Count(c) => *c += 1,
            AggState::Sum(s) => *s += value,
            AggState::SumSq(s) => *s += value * value,
            AggState::SumSqrt(s) => *s += value.abs().sqrt(),
            AggState::Min(m) => {
                if value < *m {
                    *m = value;
                }
            }
            AggState::Max(m) => {
                if value > *m {
                    *m = value;
                }
            }
            AggState::Avg { sum, count } => {
                *sum += value;
                *count += 1;
            }
            AggState::CountDistinct(_) => {
                // Numeric path: values folded via their canonical key.
                self.update_key(&format!("{value:?}"));
            }
        }
    }

    /// Folds a categorical key into a `COUNT(DISTINCT)` state (no-op for the
    /// numeric states, which should use [`AggState::update`]).
    ///
    /// Out of line on purpose: the set insertion dwarfs a call, and inlined
    /// into the fold it would bloat the loop every other aggregate runs in.
    #[inline(never)]
    pub fn update_key(&mut self, key: &str) {
        if let AggState::CountDistinct(set) = self {
            if !set.contains(key) {
                set.insert(key.to_string());
            }
        }
    }

    /// Finalizes the state into an output value.
    pub fn finalize(&self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(*c as i64),
            AggState::Sum(s) | AggState::SumSq(s) | AggState::SumSqrt(s) => Value::Float(*s),
            AggState::Min(m) => Value::Float(if m.is_finite() { *m } else { 0.0 }),
            AggState::Max(m) => Value::Float(if m.is_finite() { *m } else { 0.0 }),
            AggState::Avg { sum, count } => {
                Value::Float(if *count > 0 { sum / *count as f64 } else { 0.0 })
            }
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
        }
    }

    /// Merges another state of the same kind into this one (used when
    /// combining partial aggregates, e.g. cube partitions).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::SumSq(a), AggState::SumSq(b)) => *a += b,
            (AggState::SumSqrt(a), AggState::SumSqrt(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => *a = a.min(*b),
            (AggState::Max(a), AggState::Max(b)) => *a = a.max(*b),
            (AggState::Avg { sum: a, count: ac }, AggState::Avg { sum: b, count: bc }) => {
                *a += b;
                *ac += bc;
            }
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => {
                a.extend(b.iter().cloned());
            }
            (a, b) => panic!("cannot merge mismatched aggregate states {a:?} and {b:?}"),
        }
    }
}

/// The standard multi-statistic aggregate list used by the paper's group-by
/// microbenchmark (§6.1.1).
pub fn microbenchmark_aggs(value_column: &str) -> Vec<AggExpr> {
    vec![
        AggExpr::count("cnt"),
        AggExpr::sum(value_column, "sum_v"),
        AggExpr::sum_sq(value_column, "sum_v2"),
        AggExpr::sum_sqrt(value_column, "sum_sqrt_v"),
        AggExpr::min(value_column, "min_v"),
        AggExpr::max(value_column, "max_v"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_sum() {
        let mut c = AggExpr::count("c").new_state();
        let mut s = AggExpr::sum("v", "s").new_state();
        for v in [1.0, 2.0, 3.0] {
            c.update(v);
            s.update(v);
        }
        assert_eq!(c.finalize(), Value::Int(3));
        assert_eq!(s.finalize(), Value::Float(6.0));
    }

    #[test]
    fn min_max_avg() {
        let mut mn = AggExpr::min("v", "mn").new_state();
        let mut mx = AggExpr::max("v", "mx").new_state();
        let mut av = AggExpr::avg("v", "av").new_state();
        for v in [4.0, -1.0, 7.5] {
            mn.update(v);
            mx.update(v);
            av.update(v);
        }
        assert_eq!(mn.finalize(), Value::Float(-1.0));
        assert_eq!(mx.finalize(), Value::Float(7.5));
        assert_eq!(av.finalize(), Value::Float(3.5));
    }

    #[test]
    fn empty_states_finalize_to_neutral_values() {
        assert_eq!(
            AggExpr::min("v", "m").new_state().finalize(),
            Value::Float(0.0)
        );
        assert_eq!(
            AggExpr::avg("v", "a").new_state().finalize(),
            Value::Float(0.0)
        );
        assert_eq!(AggExpr::count("c").new_state().finalize(), Value::Int(0));
    }

    #[test]
    fn sum_sq_and_sqrt() {
        let mut sq = AggExpr::sum_sq("v", "sq").new_state();
        let mut sr = AggExpr::sum_sqrt("v", "sr").new_state();
        for v in [4.0, 9.0] {
            sq.update(v);
            sr.update(v);
        }
        assert_eq!(sq.finalize(), Value::Float(16.0 + 81.0));
        assert_eq!(sr.finalize(), Value::Float(2.0 + 3.0));
    }

    #[test]
    fn count_distinct_over_keys() {
        let mut cd = AggExpr::count_distinct("b", "cd").new_state();
        for k in ["x", "y", "x", "z"] {
            cd.update_key(k);
        }
        assert_eq!(cd.finalize(), Value::Int(3));
    }

    #[test]
    fn merge_combines_partial_states() {
        let mut a = AggExpr::sum("v", "s").new_state();
        a.update(1.0);
        let mut b = AggExpr::sum("v", "s").new_state();
        b.update(2.0);
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Float(3.0));

        let mut a = AggExpr::avg("v", "a").new_state();
        a.update(2.0);
        let mut b = AggExpr::avg("v", "a").new_state();
        b.update(4.0);
        a.merge(&b);
        assert_eq!(a.finalize(), Value::Float(3.0));
    }

    #[test]
    fn microbenchmark_agg_list_matches_paper() {
        let aggs = microbenchmark_aggs("v");
        assert_eq!(aggs.len(), 6);
        assert_eq!(aggs[0].func, AggFunc::Count);
        assert_eq!(aggs[0].output_type(), DataType::Int);
        assert_eq!(aggs[1].output_type(), DataType::Float);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn merge_rejects_mismatched_states() {
        let mut a = AggExpr::sum("v", "s").new_state();
        let b = AggExpr::count("c").new_state();
        a.merge(&b);
    }
}
