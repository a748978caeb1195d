//! Vectorized column kernels.
//!
//! Batch-at-a-time primitives over typed column vectors: comparisons against
//! a literal or another column into a [`SelectionMask`] bitmap, `IN`-list
//! membership, bitmap combinators, and typed group/join-key extraction. The
//! kernels operate on whole columns so the per-row cost is a typed compare —
//! no dynamic [`Value`] allocation, no enum dispatch inside the loop.
//!
//! Comparison semantics match [`Value::total_cmp`] exactly (ints coerce to
//! floats when mixed, floats order by `f64::total_cmp`, strings order after
//! numbers), so a kernel evaluation of a predicate is bit-for-bit what a
//! per-row comparison of [`Value`]s would give.
//!
//! Every comparison kernel has a `*_range` variant evaluating only the rows
//! of one [`Morsel`](crate::Morsel) into a morsel-local mask (bit `i` of the
//! result is row `start + i`); the whole-column kernels are the `0..len`
//! special case. Morsel-local masks reassemble with [`SelectionMask::append`],
//! which is a word-level `memcpy` whenever the running mask's length is a
//! multiple of 64 — the invariant morsel iteration guarantees.

use crate::{Column, Rid, Value};
use std::cmp::Ordering;

/// Comparison operators understood by the kernels (the storage-level mirror
/// of the engine's comparison ops, so the storage crate stays dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCmp {
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

impl KernelCmp {
    /// Whether an [`Ordering`] satisfies this operator.
    #[inline]
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            KernelCmp::Eq => ord == Ordering::Equal,
            KernelCmp::Ne => ord != Ordering::Equal,
            KernelCmp::Lt => ord == Ordering::Less,
            KernelCmp::Le => ord != Ordering::Greater,
            KernelCmp::Gt => ord == Ordering::Greater,
            KernelCmp::Ge => ord != Ordering::Less,
        }
    }

    /// The operator with its operands swapped: `a OP b` ⟺ `b OP.flip() a`.
    #[inline]
    pub fn flip(self) -> KernelCmp {
        match self {
            KernelCmp::Eq => KernelCmp::Eq,
            KernelCmp::Ne => KernelCmp::Ne,
            KernelCmp::Lt => KernelCmp::Gt,
            KernelCmp::Le => KernelCmp::Ge,
            KernelCmp::Gt => KernelCmp::Lt,
            KernelCmp::Ge => KernelCmp::Le,
        }
    }
}

/// A selection bitmap over the rows of a relation.
///
/// One bit per row, packed into 64-bit words; bits beyond `len` are always
/// zero so popcounts and combinators need no tail special-casing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionMask {
    words: Vec<u64>,
    len: usize,
}

impl SelectionMask {
    /// An all-false mask over `len` rows.
    pub fn all_false(len: usize) -> Self {
        SelectionMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-true mask over `len` rows.
    pub fn all_true(len: usize) -> Self {
        let mut mask = SelectionMask {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        mask.clear_tail();
        mask
    }

    /// A constant mask (used when a comparison's outcome is type-determined,
    /// e.g. a string column compared to a numeric literal).
    pub fn constant(len: usize, value: bool) -> Self {
        if value {
            SelectionMask::all_true(len)
        } else {
            SelectionMask::all_false(len)
        }
    }

    /// Zeroes the bits beyond `len` in the last word (the invariant every
    /// combinator relies on).
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit for `row`.
    #[inline]
    pub fn set(&mut self, row: usize) {
        debug_assert!(row < self.len);
        self.words[row / 64] |= 1u64 << (row % 64);
    }

    /// The bit for `row` (`false` when out of bounds).
    #[inline]
    pub fn get(&self, row: usize) -> bool {
        row < self.len && (self.words[row / 64] >> (row % 64)) & 1 == 1
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other` (both masks must cover the same rows).
    pub fn and_assign(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self |= other` (both masks must cover the same rows).
    pub fn or_assign(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= !other` (both masks must cover the same rows).
    pub fn and_not_assign(&mut self, other: &SelectionMask) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self = !self`.
    pub fn not_assign(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Calls `f` with every selected row index, in ascending order.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Materializes the selected rows as a rid list, allocated exactly.
    pub fn to_rids(&self) -> Vec<Rid> {
        let mut out = Vec::with_capacity(self.count_ones());
        self.for_each_one(|row| out.push(row as Rid));
        out
    }

    /// Appends `other`'s bits after this mask's rows (mask stitching): bit `i`
    /// of `other` becomes bit `self.len() + i` of `self`.
    ///
    /// When `self.len()` is a multiple of 64 — always the case when stitching
    /// morsel-local masks back together, because morsel boundaries are
    /// 64-aligned (see [`crate::morsel`]) — the append is a straight word
    /// copy. Unaligned lengths take a bit-shifting slow path.
    pub fn append(&mut self, other: &SelectionMask) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            for &w in &other.words {
                *self.words.last_mut().expect("len % 64 != 0 implies a word") |= w << shift;
                self.words.push(w >> (64 - shift));
            }
        }
        self.len += other.len;
        // The shifting path can push one word more than the new length needs;
        // both paths preserve the cleared-tail invariant after the trim.
        self.words.truncate(self.len.div_ceil(64));
        self.clear_tail();
    }
}

/// Compares every row of `col` against a literal, producing a selection mask.
///
/// Mixed string/numeric comparisons have a type-determined outcome (strings
/// order after numbers under [`Value::total_cmp`]), so they produce a
/// constant mask rather than touching the data.
pub fn cmp_col_lit(col: &Column, op: KernelCmp, lit: &Value) -> SelectionMask {
    cmp_col_lit_range(col, op, lit, 0, col.len())
}

/// [`cmp_col_lit`] restricted to rows `start..end`: bit `i` of the result is
/// row `start + i`.
pub fn cmp_col_lit_range(
    col: &Column,
    op: KernelCmp,
    lit: &Value,
    start: usize,
    end: usize,
) -> SelectionMask {
    let len = end - start;
    match (col, lit) {
        (Column::Int(v), Value::Int(x)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if op.matches(a.cmp(x)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Int(v), Value::Float(x)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, &a) in v[start..end].iter().enumerate() {
                if op.matches((a as f64).total_cmp(x)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Float(v), Value::Float(x)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if op.matches(a.total_cmp(x)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Float(v), Value::Int(x)) => {
            let x = *x as f64;
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if op.matches(a.total_cmp(&x)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Str(v), Value::Str(x)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if op.matches(a.as_str().cmp(x.as_str())) {
                    mask.set(i);
                }
            }
            mask
        }
        // Strings order after numbers: the per-row ordering is constant.
        (Column::Str(_), _) => SelectionMask::constant(len, op.matches(Ordering::Greater)),
        (_, Value::Str(_)) => SelectionMask::constant(len, op.matches(Ordering::Less)),
    }
}

/// Compares two columns row-wise, producing a selection mask. The columns
/// must have the same length.
pub fn cmp_col_col(left: &Column, op: KernelCmp, right: &Column) -> SelectionMask {
    cmp_col_col_range(left, op, right, 0, left.len())
}

/// [`cmp_col_col`] restricted to rows `start..end`: bit `i` of the result is
/// row `start + i`.
pub fn cmp_col_col_range(
    left: &Column,
    op: KernelCmp,
    right: &Column,
    start: usize,
    end: usize,
) -> SelectionMask {
    let len = end - start;
    debug_assert_eq!(left.len(), right.len(), "column length mismatch");
    match (left, right) {
        (Column::Int(a), Column::Int(b)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, (x, y)) in a[start..end].iter().zip(&b[start..end]).enumerate() {
                if op.matches(x.cmp(y)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Int(a), Column::Float(b)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, (&x, y)) in a[start..end].iter().zip(&b[start..end]).enumerate() {
                if op.matches((x as f64).total_cmp(y)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Float(a), Column::Int(b)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, (x, &y)) in a[start..end].iter().zip(&b[start..end]).enumerate() {
                if op.matches(x.total_cmp(&(y as f64))) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Float(a), Column::Float(b)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, (x, y)) in a[start..end].iter().zip(&b[start..end]).enumerate() {
                if op.matches(x.total_cmp(y)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Str(a), Column::Str(b)) => {
            let mut mask = SelectionMask::all_false(len);
            for (i, (x, y)) in a[start..end].iter().zip(&b[start..end]).enumerate() {
                if op.matches(x.cmp(y)) {
                    mask.set(i);
                }
            }
            mask
        }
        (Column::Str(_), _) => SelectionMask::constant(len, op.matches(Ordering::Greater)),
        (_, Column::Str(_)) => SelectionMask::constant(len, op.matches(Ordering::Less)),
    }
}

/// `IN`-list membership over a column, producing a selection mask.
///
/// A row matches when any list element compares [`Ordering::Equal`] under
/// [`Value::total_cmp`]. Int–Int
/// comparisons are exact (no float round-trip); Int–Float and Float–Float
/// equality holds iff the coerced bit patterns coincide (`f64::total_cmp`
/// distinguishes `0.0` from `-0.0`); string/numeric pairs never match.
pub fn in_list(col: &Column, list: &[Value]) -> SelectionMask {
    in_list_range(col, list, 0, col.len())
}

/// [`in_list`] restricted to rows `start..end`: bit `i` of the result is row
/// `start + i`.
pub fn in_list_range(col: &Column, list: &[Value], start: usize, end: usize) -> SelectionMask {
    let len = end - start;
    match col {
        Column::Int(v) => {
            let int_targets: Vec<i64> = list.iter().filter_map(Value::as_int).collect();
            let float_bits: Vec<u64> = list
                .iter()
                .filter_map(|x| match x {
                    Value::Float(f) => Some(f.to_bits()),
                    _ => None,
                })
                .collect();
            let mut mask = SelectionMask::all_false(len);
            for (i, &a) in v[start..end].iter().enumerate() {
                let hit = int_targets.contains(&a)
                    || (!float_bits.is_empty() && float_bits.contains(&(a as f64).to_bits()));
                if hit {
                    mask.set(i);
                }
            }
            mask
        }
        Column::Float(v) => {
            // `total_cmp == Equal` iff identical bit patterns, so numeric list
            // elements reduce to a bit-pattern membership test.
            let bits: Vec<u64> = list
                .iter()
                .filter_map(|x| x.as_float().map(f64::to_bits))
                .collect();
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if bits.contains(&a.to_bits()) {
                    mask.set(i);
                }
            }
            mask
        }
        Column::Str(v) => {
            let strs: Vec<&str> = list.iter().filter_map(Value::as_str).collect();
            let mut mask = SelectionMask::all_false(len);
            for (i, a) in v[start..end].iter().enumerate() {
                if strs.contains(&a.as_str()) {
                    mask.set(i);
                }
            }
            mask
        }
    }
}

/// Typed single-column group/join-key extraction: the key column viewed as a
/// plain `i64` slice, when the key is exactly one integer column.
pub fn int_keys<'a>(columns: &[&'a Column]) -> Option<&'a [i64]> {
    match columns {
        [Column::Int(v)] => Some(v),
        _ => None,
    }
}

/// Typed two-column group/join-key extraction: the key columns zipped into
/// `(i64, i64)` pairs, when both key columns are integers.
pub fn int_key_pairs(columns: &[&Column]) -> Option<Vec<(i64, i64)>> {
    match columns {
        [Column::Int(a), Column::Int(b)] => {
            Some(a.iter().copied().zip(b.iter().copied()).collect())
        }
        _ => None,
    }
}

/// Typed single-column string-key extraction (borrowed, so hash-join build
/// and probe phases can key without cloning strings).
pub fn str_keys<'a>(columns: &[&'a Column]) -> Option<&'a [String]> {
    match columns {
        [Column::Str(v)] => Some(v),
        _ => None,
    }
}

/// `(min, max)` of an integer key slice in one pass; `None` when empty.
pub fn int_min_max(keys: &[i64]) -> Option<(i64, i64)> {
    let mut it = keys.iter();
    let first = *it.next()?;
    let mut min = first;
    let mut max = first;
    for &k in it {
        if k < min {
            min = k;
        }
        if k > max {
            max = k;
        }
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_col() -> Column {
        Column::Int(vec![3, -1, 7, 3, 0])
    }

    fn float_col() -> Column {
        Column::Float(vec![0.5, -2.0, 7.0, f64::NAN, -0.0])
    }

    fn str_col() -> Column {
        Column::Str(vec!["b".into(), "a".into(), "c".into()])
    }

    /// Reference row-wise evaluation through `Value::total_cmp`.
    fn reference(col: &Column, op: KernelCmp, lit: &Value) -> Vec<bool> {
        (0..col.len())
            .map(|i| op.matches(col.value(i).total_cmp(lit)))
            .collect()
    }

    fn mask_bits(mask: &SelectionMask) -> Vec<bool> {
        (0..mask.len()).map(|i| mask.get(i)).collect()
    }

    #[test]
    fn mask_basics_and_tail_invariant() {
        let mut m = SelectionMask::all_false(70);
        assert_eq!(m.count_ones(), 0);
        m.set(0);
        m.set(69);
        assert_eq!(m.count_ones(), 2);
        assert!(m.get(69) && !m.get(68));
        assert!(!m.get(700), "out of bounds reads are false");
        assert_eq!(m.to_rids(), vec![0, 69]);

        let t = SelectionMask::all_true(70);
        assert_eq!(t.count_ones(), 70);
        m.not_assign();
        assert_eq!(m.count_ones(), 68, "tail bits stay clear through NOT");
        let empty = SelectionMask::all_true(0);
        assert_eq!(empty.count_ones(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn mask_combinators() {
        let mut a = SelectionMask::all_false(10);
        let mut b = SelectionMask::all_false(10);
        for i in [1, 3, 5] {
            a.set(i);
        }
        for i in [3, 5, 7] {
            b.set(i);
        }
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(and.to_rids(), vec![3, 5]);
        let mut or = a.clone();
        or.or_assign(&b);
        assert_eq!(or.to_rids(), vec![1, 3, 5, 7]);
        a.and_not_assign(&b);
        assert_eq!(a.to_rids(), vec![1]);
        b.not_assign();
        assert_eq!(b.to_rids(), vec![0, 1, 2, 4, 6, 8, 9]);
    }

    #[test]
    fn cmp_col_lit_matches_value_semantics() {
        let cases: Vec<(Column, Value)> = vec![
            (int_col(), Value::Int(3)),
            (int_col(), Value::Float(2.5)),
            (float_col(), Value::Float(0.5)),
            (float_col(), Value::Int(0)),
            (str_col(), Value::Str("b".into())),
            (str_col(), Value::Int(100)),
            (int_col(), Value::Str("a".into())),
        ];
        for (col, lit) in &cases {
            for op in [
                KernelCmp::Eq,
                KernelCmp::Ne,
                KernelCmp::Lt,
                KernelCmp::Le,
                KernelCmp::Gt,
                KernelCmp::Ge,
            ] {
                let mask = cmp_col_lit(col, op, lit);
                assert_eq!(
                    mask_bits(&mask),
                    reference(col, op, lit),
                    "col {col:?} {op:?} {lit:?}"
                );
            }
        }
    }

    #[test]
    fn cmp_col_col_matches_value_semantics() {
        let pairs: Vec<(Column, Column)> = vec![
            (Column::Int(vec![1, 5, 3]), Column::Int(vec![2, 5, 1])),
            (
                Column::Int(vec![1, 5, 3]),
                Column::Float(vec![1.0, 4.5, 9.0]),
            ),
            (
                Column::Float(vec![1.0, f64::NAN, -0.0]),
                Column::Float(vec![1.0, f64::NAN, 0.0]),
            ),
            (
                Column::Float(vec![2.0, 0.5, -3.0]),
                Column::Int(vec![2, 0, 1]),
            ),
            (
                Column::Str(vec!["a".into(), "b".into()]),
                Column::Str(vec!["b".into(), "b".into()]),
            ),
            (
                Column::Str(vec!["a".into(), "b".into()]),
                Column::Int(vec![1, 2]),
            ),
            (
                Column::Int(vec![1, 2]),
                Column::Str(vec!["a".into(), "b".into()]),
            ),
        ];
        for (l, r) in &pairs {
            for op in [
                KernelCmp::Eq,
                KernelCmp::Ne,
                KernelCmp::Lt,
                KernelCmp::Le,
                KernelCmp::Gt,
                KernelCmp::Ge,
            ] {
                let mask = cmp_col_col(l, op, r);
                let expect: Vec<bool> = (0..l.len())
                    .map(|i| op.matches(l.value(i).total_cmp(&r.value(i))))
                    .collect();
                assert_eq!(mask_bits(&mask), expect, "{l:?} {op:?} {r:?}");
            }
        }
    }

    #[test]
    fn flip_is_consistent_with_swapped_operands() {
        let a = Value::Int(3);
        let col = int_col();
        for op in [
            KernelCmp::Eq,
            KernelCmp::Ne,
            KernelCmp::Lt,
            KernelCmp::Le,
            KernelCmp::Gt,
            KernelCmp::Ge,
        ] {
            // lit OP col[i]  ==  col[i] OP.flip() lit
            let flipped = cmp_col_lit(&col, op.flip(), &a);
            let expect: Vec<bool> = (0..col.len())
                .map(|i| op.matches(a.total_cmp(&col.value(i))))
                .collect();
            assert_eq!(mask_bits(&flipped), expect, "{op:?}");
        }
    }

    #[test]
    fn in_list_semantics() {
        // Int column: exact int matches, float matches only on exact coercion.
        let col = Column::Int(vec![1, 2, 3, i64::MAX]);
        let mask = in_list(
            &col,
            &[Value::Int(2), Value::Float(3.0), Value::Str("2".into())],
        );
        assert_eq!(mask.to_rids(), vec![1, 2]);

        // i64::MAX is not representable as f64 exactly; `Value::total_cmp`
        // compares the coerced float, so mirror it.
        let reference: Vec<bool> = (0..col.len())
            .map(|i| {
                [Value::Int(2), Value::Float(3.0), Value::Str("2".into())]
                    .iter()
                    .any(|x| col.value(i).total_cmp(x) == Ordering::Equal)
            })
            .collect();
        assert_eq!(mask_bits(&mask), reference);

        // Float column distinguishes -0.0 from 0.0 (total_cmp semantics).
        let col = Column::Float(vec![0.0, -0.0, 2.0]);
        let mask = in_list(&col, &[Value::Float(0.0), Value::Int(2)]);
        assert_eq!(mask.to_rids(), vec![0, 2]);

        // String column.
        let mask = in_list(&str_col(), &[Value::Str("a".into()), Value::Int(1)]);
        assert_eq!(mask.to_rids(), vec![1]);
    }

    #[test]
    fn append_stitches_morsel_masks() {
        // Word-aligned path: 64-row first mask, arbitrary second.
        let mut acc = SelectionMask::all_false(64);
        acc.set(0);
        acc.set(63);
        let mut tail = SelectionMask::all_false(70);
        tail.set(1);
        tail.set(69);
        acc.append(&tail);
        assert_eq!(acc.len(), 134);
        assert_eq!(acc.to_rids(), vec![0, 63, 65, 133]);

        // Unaligned path: first mask not a multiple of 64.
        let mut acc = SelectionMask::all_false(10);
        acc.set(9);
        let tail = tail_mask(&(0..130).filter(|&i| i != 64).collect::<Vec<_>>(), 130);
        acc.append(&tail);
        assert_eq!(acc.len(), 140);
        let expect: Vec<Rid> = std::iter::once(9)
            .chain((10..140).filter(|&i| i != 74))
            .collect();
        assert_eq!(acc.to_rids(), expect);

        // Appending an empty mask is a no-op; appending to empty copies.
        let mut acc = SelectionMask::all_false(0);
        acc.append(&tail_mask(&[0, 2], 3));
        acc.append(&SelectionMask::all_false(0));
        assert_eq!(acc.to_rids(), vec![0, 2]);
        assert_eq!(acc.len(), 3);
    }

    fn tail_mask(bits: &[usize], len: usize) -> SelectionMask {
        let mut m = SelectionMask::all_false(len);
        for &b in bits {
            m.set(b);
        }
        m
    }

    #[test]
    fn range_kernels_agree_with_whole_column() {
        let cases: Vec<(Column, Value)> = vec![
            (int_col(), Value::Int(3)),
            (float_col(), Value::Float(0.5)),
            (str_col(), Value::Str("b".into())),
            (int_col(), Value::Str("a".into())),
        ];
        for (col, lit) in &cases {
            let whole = cmp_col_lit(col, KernelCmp::Ge, lit);
            for start in 0..col.len() {
                for end in start..=col.len() {
                    let part = cmp_col_lit_range(col, KernelCmp::Ge, lit, start, end);
                    assert_eq!(part.len(), end - start);
                    for i in 0..part.len() {
                        assert_eq!(part.get(i), whole.get(start + i), "{col:?} {start}..{end}");
                    }
                }
            }
        }

        let a = Column::Int(vec![1, 5, 3, 2, 2]);
        let b = Column::Float(vec![1.0, 4.5, 9.0, 2.0, -1.0]);
        let whole = cmp_col_col(&a, KernelCmp::Lt, &b);
        let part = cmp_col_col_range(&a, KernelCmp::Lt, &b, 1, 4);
        for i in 0..3 {
            assert_eq!(part.get(i), whole.get(1 + i));
        }

        let list = [Value::Int(3), Value::Float(0.5)];
        let whole = in_list(&int_col(), &list);
        let part = in_list_range(&int_col(), &list, 2, 5);
        for i in 0..3 {
            assert_eq!(part.get(i), whole.get(2 + i));
        }
    }

    #[test]
    fn typed_key_extraction() {
        let a = Column::Int(vec![1, 2, 3]);
        let b = Column::Int(vec![9, 8, 7]);
        let s = Column::Str(vec!["x".into()]);
        assert_eq!(int_keys(&[&a]), Some(&[1, 2, 3][..]));
        assert_eq!(int_keys(&[&s]), None);
        assert_eq!(int_keys(&[&a, &b]), None);
        assert_eq!(int_key_pairs(&[&a, &b]), Some(vec![(1, 9), (2, 8), (3, 7)]));
        assert_eq!(int_key_pairs(&[&a]), None);
        assert_eq!(str_keys(&[&s]).map(|v| v.len()), Some(1));
        assert_eq!(str_keys(&[&a]), None);
        assert_eq!(int_min_max(&[3, -1, 7]), Some((-1, 7)));
        assert_eq!(int_min_max(&[]), None);
    }
}
