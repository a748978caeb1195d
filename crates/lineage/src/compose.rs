//! Composition of lineage indexes across operators (multi-operator
//! propagation, paper §3.3).
//!
//! For a two-operator plan `op_p(op_c(R))`, the parent's lineage maps parent
//! output rids to the *intermediate* relation `op_c(R)`. Composing the
//! parent's backward index through the child's backward index produces an
//! index that maps parent output rids directly to rids of the base relation
//! `R`; the child's indexes can then be garbage collected.
//!
//! Two kernels do every composition that is not an `Identity` rule. A 1-to-1
//! chain (`Array∘Array`) is one gather over the two rid slices. Every other
//! pair of `Array`, `Index` and `Csr` views both sides as per-position rid
//! slices and runs one count-then-fill pass: the first pass sums each
//! position's composed cardinality, the second copies the child's slices
//! into two exactly-sized CSR buffers. The representation pair is matched
//! once per call, into one of nine monomorphic instances of that kernel;
//! no per-edge dispatch, no growing per-position arrays.

use crate::csr::CsrRidIndex;
use crate::index::LineageIndex;
use crate::rid_array::{RidArray, NO_RID};
use crate::rid_index::RidIndex;
use smoke_storage::Rid;

/// Composes a parent backward index (parent-output → intermediate) with a
/// child backward index (intermediate → base) into a backward index from
/// parent output rids to base rids.
///
/// The composed index always covers exactly `parent.len()` positions, and its
/// targets are always rids the child actually maps — identity indexes are
/// truncated/filtered to their declared length rather than blindly cloned
/// through. Per position, rids come out in the parent's order, each mid
/// expanded in the child's order. `Array∘Array` stays an `Array` (a missing
/// link is [`NO_RID`]); any other non-identity pair becomes an exactly-sized
/// `Csr`.
pub fn compose_backward(parent: &LineageIndex, child: &LineageIndex) -> LineageIndex {
    // Identity parent: the result is the child's mapping over exactly the
    // parent's `n` positions.
    let parent = match Slices::of(parent) {
        Ok(slices) => slices,
        Err(n) => return restrict_positions(child, n),
    };
    // Identity child: the result is the parent's mapping, minus any target
    // outside the identity's domain `0..n`.
    let child = match Slices::of(child) {
        Ok(slices) => slices,
        Err(n) => return restrict_targets(parent, n),
    };
    match (parent, child) {
        // 1-to-1 chain stays an array: one gather.
        (Slices::Array(p), Slices::Array(c)) => {
            let c = c.as_slice();
            let gathered =
                (p.as_slice().iter()).map(|&mid| c.get(mid as usize).copied().unwrap_or(NO_RID));
            LineageIndex::Array(gathered.collect())
        }
        (parent, child) => LineageIndex::Csr(parent.compose(child)),
    }
}

/// Composes a child forward index (base → intermediate) with a parent forward
/// index (intermediate → parent output) into a forward index from base rids to
/// parent output rids.
///
/// This is the same composition as [`compose_backward`] with the roles of the
/// arguments swapped: the traversal starts from base rids.
pub fn compose_forward(child: &LineageIndex, parent: &LineageIndex) -> LineageIndex {
    compose_backward(child, parent)
}

/// A non-identity index viewed as its per-position rid slices.
#[derive(Clone, Copy)]
enum Slices<'a> {
    Array(&'a RidArray),
    Index(&'a RidIndex),
    Csr(&'a CsrRidIndex),
}

impl<'a> Slices<'a> {
    /// The slices of `index`, or the length of an `Identity` index.
    fn of(index: &'a LineageIndex) -> Result<Self, usize> {
        match index {
            LineageIndex::Array(a) => Ok(Slices::Array(a)),
            LineageIndex::Index(i) => Ok(Slices::Index(i)),
            LineageIndex::Csr(c) => Ok(Slices::Csr(c)),
            LineageIndex::Identity(n) => Err(*n),
        }
    }

    /// `self ∘ child` by [`count_then_fill`], with the parent accessor bound
    /// here and the child's in [`Slices::compose_into`].
    fn compose(self, child: Slices<'_>) -> CsrRidIndex {
        match self {
            // An array's 1-to-(0|1) entry is a sub-slice of its buffer, empty
            // at a NO_RID gap.
            Slices::Array(p) => child.compose_into(p.len(), |pos| p.slice_checked(pos)),
            Slices::Index(p) => child.compose_into(p.len(), |pos| p.get(pos)),
            Slices::Csr(p) => child.compose_into(p.len(), |pos| p.get(pos)),
        }
    }

    /// `parent ∘ self` over `len` parent positions; a mid this index does not
    /// cover expands to nothing.
    fn compose_into<'p>(self, len: usize, parent: impl Fn(usize) -> &'p [Rid]) -> CsrRidIndex {
        match self {
            Slices::Array(c) => count_then_fill(len, parent, |mid| c.slice_checked(mid as usize)),
            Slices::Index(c) => count_then_fill(len, parent, |mid| c.get_checked(mid as usize)),
            Slices::Csr(c) => count_then_fill(len, parent, |mid| c.get_checked(mid as usize)),
        }
    }
}

/// The composition kernel: a count pass sums every position's composed
/// cardinality into the offsets, then a fill pass copies each mid's child
/// slice into the one exactly-sized rid buffer. Both passes read the same
/// two accessors, so they cannot disagree on a count.
fn count_then_fill<'p, 'c>(
    len: usize,
    parent: impl Fn(usize) -> &'p [Rid],
    child: impl Fn(Rid) -> &'c [Rid],
) -> CsrRidIndex {
    let mut offsets = Vec::with_capacity(len + 1);
    offsets.push(0u32);
    let mut total = 0u64;
    for pos in 0..len {
        for &mid in parent(pos) {
            total += child(mid).len() as u64;
        }
        offsets.push(crate::csr::checked_offset(total));
    }
    let mut rids: Vec<Rid> = Vec::with_capacity(total as usize);
    for pos in 0..len {
        for &mid in parent(pos) {
            rids.extend_from_slice(child(mid));
        }
    }
    CsrRidIndex::from_parts(offsets, rids)
}

/// `Identity(n) ∘ child`: the child's mapping restricted (or extended with
/// empty entries) to exactly `n` positions.
fn restrict_positions(child: &LineageIndex, n: usize) -> LineageIndex {
    if n == child.len() {
        return child.clone();
    }
    match child {
        LineageIndex::Array(a) => {
            let mut data: Vec<Rid> = a.iter().take(n).collect();
            data.resize(n, NO_RID);
            LineageIndex::Array(RidArray::from_vec(data))
        }
        LineageIndex::Index(i) => LineageIndex::Index(RidIndex::from_entries(
            (0..n).map(|p| i.get_checked(p).to_vec()).collect(),
        )),
        LineageIndex::Csr(c) => {
            let (offsets, rids) = if n < c.len() {
                let offsets: Vec<u32> = c.offsets()[..=n].to_vec();
                let end = offsets[n] as usize;
                (offsets, c.rids()[..end].to_vec())
            } else {
                let mut offsets = Vec::with_capacity(n + 1);
                offsets.extend_from_slice(c.offsets());
                offsets.resize(n + 1, c.edge_count() as u32);
                (offsets, c.rids().to_vec())
            };
            LineageIndex::Csr(CsrRidIndex::from_parts(offsets, rids))
        }
        LineageIndex::Identity(m) => {
            if n <= *m {
                LineageIndex::Identity(n)
            } else {
                // The child covers fewer positions: the tail has no lineage.
                let mut data: Vec<Rid> = (0..*m as Rid).collect();
                data.resize(n, NO_RID);
                LineageIndex::Array(RidArray::from_vec(data))
            }
        }
    }
}

/// `parent ∘ Identity(n)`: the parent's mapping with every target outside the
/// identity's domain `0..n` dropped.
fn restrict_targets(parent: Slices<'_>, n: usize) -> LineageIndex {
    let in_domain = |r: Rid| (r as usize) < n;
    match parent {
        Slices::Array(a) => {
            let clean = a.iter().all(|r| r == NO_RID || in_domain(r));
            if clean {
                LineageIndex::Array(a.clone())
            } else {
                LineageIndex::Array(RidArray::from_vec(
                    a.iter()
                        .map(|r| {
                            if r != NO_RID && in_domain(r) {
                                r
                            } else {
                                NO_RID
                            }
                        })
                        .collect(),
                ))
            }
        }
        Slices::Index(i) => {
            let clean = i
                .iter()
                .all(|(_, rids)| rids.iter().copied().all(in_domain));
            if clean {
                LineageIndex::Index(i.clone())
            } else {
                LineageIndex::Index(RidIndex::from_entries(
                    i.iter()
                        .map(|(_, rids)| rids.iter().copied().filter(|&r| in_domain(r)).collect())
                        .collect(),
                ))
            }
        }
        Slices::Csr(c) => {
            let survivors = c.rids().iter().copied().filter(|&r| in_domain(r)).count();
            if survivors == c.edge_count() {
                LineageIndex::Csr(c.clone())
            } else {
                // Pre-counted so both buffers stay exactly sized, preserving
                // the CSR contract that `heap_bytes` carries no slack.
                let mut offsets = Vec::with_capacity(c.len() + 1);
                offsets.push(0u32);
                let mut rids = Vec::with_capacity(survivors);
                for (_, entry) in c.iter() {
                    rids.extend(entry.iter().copied().filter(|&r| in_domain(r)));
                    offsets.push(crate::csr::checked_offset(rids.len() as u64));
                }
                LineageIndex::Csr(CsrRidIndex::from_parts(offsets, rids))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::Rid;

    #[test]
    fn backward_through_selection_then_groupby() {
        // Child: selection over 6 base rows keeping rids [1,3,5]
        // (intermediate rid i -> base rid).
        let child = LineageIndex::Array(RidArray::from_vec(vec![1, 3, 5]));
        // Parent: group-by over the 3 intermediate rows producing 2 groups.
        let parent = LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 2], vec![1]]));

        let composed = compose_backward(&parent, &child);
        assert_eq!(composed.lookup(0), vec![1, 5]);
        assert_eq!(composed.lookup(1), vec![3]);
    }

    #[test]
    fn forward_through_selection_then_groupby() {
        // Child forward: base rid -> intermediate rid (NO_RID for filtered).
        let mut fwd = RidArray::filled(6);
        fwd.set(1, 0);
        fwd.set(3, 1);
        fwd.set(5, 2);
        let child = LineageIndex::Array(fwd);
        // Parent forward: intermediate rid -> output group.
        let parent = LineageIndex::Array(RidArray::from_vec(vec![0, 1, 0]));

        let composed = compose_forward(&child, &parent);
        assert_eq!(composed.lookup(1), vec![0]);
        assert_eq!(composed.lookup(3), vec![1]);
        assert_eq!(composed.lookup(5), vec![0]);
        assert_eq!(composed.lookup(0), Vec::<Rid>::new());
    }

    #[test]
    fn identity_is_neutral() {
        let idx = LineageIndex::Index(RidIndex::from_entries(vec![vec![2, 3], vec![4]]));
        let through_identity = compose_backward(&idx, &LineageIndex::Identity(10));
        assert_eq!(through_identity.lookup(0), vec![2, 3]);
        let identity_first = compose_backward(&LineageIndex::Identity(2), &idx);
        assert_eq!(identity_first.lookup(1), vec![4]);
    }

    #[test]
    fn identity_parent_truncates_longer_child() {
        // Identity(2) parent over a child covering 4 positions: the composed
        // index must cover exactly 2 positions.
        let child = LineageIndex::Array(RidArray::from_vec(vec![7, 8, 9, 10]));
        let composed = compose_backward(&LineageIndex::Identity(2), &child);
        assert_eq!(composed.len(), 2);
        assert_eq!(composed.lookup(0), vec![7]);
        assert_eq!(composed.lookup(1), vec![8]);
        assert_eq!(composed.lookup(2), Vec::<Rid>::new());

        let child_idx = LineageIndex::Index(RidIndex::from_entries(vec![
            vec![1, 2],
            vec![3],
            vec![4, 5],
        ]));
        let composed = compose_backward(&LineageIndex::Identity(1), &child_idx);
        assert_eq!(composed.len(), 1);
        assert_eq!(composed.lookup(0), vec![1, 2]);
        assert_eq!(composed.edge_count(), 2);

        let child_csr = child_idx.finalize();
        let composed_csr = compose_backward(&LineageIndex::Identity(1), &child_csr);
        assert_eq!(composed_csr.len(), 1);
        assert_eq!(composed_csr.lookup(0), vec![1, 2]);
    }

    #[test]
    fn identity_parent_extends_shorter_child_with_empty_lineage() {
        let child = LineageIndex::Array(RidArray::from_vec(vec![7, 8]));
        let composed = compose_backward(&LineageIndex::Identity(4), &child);
        assert_eq!(composed.len(), 4);
        assert_eq!(composed.lookup(1), vec![8]);
        assert_eq!(composed.lookup(2), Vec::<Rid>::new());
        assert_eq!(composed.lookup(3), Vec::<Rid>::new());
    }

    #[test]
    fn identity_child_drops_out_of_domain_targets() {
        // Parent maps to intermediate rids {0,1,2,5}; Identity(3) child only
        // covers intermediate rids 0..3, so target 5 must be dropped.
        let parent = LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 5], vec![1, 2]]));
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert_eq!(composed.len(), 2);
        assert_eq!(composed.lookup(0), vec![0]);
        assert_eq!(composed.lookup(1), vec![1, 2]);
        assert_eq!(composed.edge_count(), 3);

        // Same through an array parent: out-of-domain becomes NO_RID.
        let parent = LineageIndex::Array(RidArray::from_vec(vec![2, 9, 0]));
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert_eq!(composed.len(), 3);
        assert_eq!(composed.lookup(0), vec![2]);
        assert_eq!(composed.lookup(1), Vec::<Rid>::new());
        assert_eq!(composed.lookup(2), vec![0]);

        // And through a CSR parent.
        let parent =
            LineageIndex::Index(RidIndex::from_entries(vec![vec![0, 5], vec![1, 2]])).finalize();
        let composed = compose_backward(&parent, &LineageIndex::Identity(3));
        assert!(matches!(composed, LineageIndex::Csr(_)));
        assert_eq!(composed.lookup(0), vec![0]);
        assert_eq!(composed.lookup(1), vec![1, 2]);
    }

    #[test]
    fn csr_parent_fast_paths_match_general_composition() {
        let parent_entries = vec![vec![0, 2], vec![1], vec![], vec![2, 0, 1]];
        let parent_idx = LineageIndex::Index(RidIndex::from_entries(parent_entries));
        let parent_csr = parent_idx.clone().finalize();

        // CSR×Array.
        let mut child_arr = RidArray::filled(3);
        child_arr.set(0, 10);
        child_arr.set(2, 12);
        let child = LineageIndex::Array(child_arr);
        let general = compose_backward(&parent_idx, &child);
        let fast = compose_backward(&parent_csr, &child);
        assert!(matches!(fast, LineageIndex::Csr(_)));
        assert_eq!(fast.len(), general.len());
        for pos in 0..general.len() as Rid {
            assert_eq!(fast.lookup(pos), general.lookup(pos));
        }

        // CSR×CSR.
        let child_n =
            LineageIndex::Index(RidIndex::from_entries(vec![vec![5, 6], vec![], vec![7]]));
        let child_csr = child_n.clone().finalize();
        let general = compose_backward(&parent_idx, &child_n);
        let fast = compose_backward(&parent_csr, &child_csr);
        assert!(matches!(fast, LineageIndex::Csr(_)));
        for pos in 0..general.len() as Rid {
            assert_eq!(fast.lookup(pos), general.lookup(pos));
        }
        assert_eq!(fast.edge_count(), general.edge_count());
    }

    #[test]
    fn one_to_one_chain_stays_array() {
        let child = LineageIndex::Array(RidArray::from_vec(vec![5, 6, 7]));
        let parent = LineageIndex::Array(RidArray::from_vec(vec![2, 0]));
        let composed = compose_backward(&parent, &child);
        assert!(matches!(composed, LineageIndex::Array(_)));
        assert_eq!(composed.lookup(0), vec![7]);
        assert_eq!(composed.lookup(1), vec![5]);
    }

    #[test]
    fn missing_links_propagate_as_empty() {
        let mut child = RidArray::filled(3);
        child.set(0, 9);
        let child = LineageIndex::Array(child);
        let parent = LineageIndex::Array(RidArray::from_vec(vec![0, 1]));
        let composed = compose_backward(&parent, &child);
        assert_eq!(composed.lookup(0), vec![9]);
        assert_eq!(composed.lookup(1), Vec::<Rid>::new());
    }

    mod against_a_nested_loop {
        use super::*;
        use proptest::prelude::*;

        /// Positions per generated index, and rids per 1-to-N entry.
        const POSITIONS: usize = 12;
        const FANOUT: usize = 4;
        #[cfg(not(miri))]
        const CASES: u32 = 512;
        #[cfg(miri)]
        const CASES: u32 = 8;

        /// `(representation, entries, identity length selector)`. The
        /// representation is 0 `Array` (an empty entry is a `NO_RID` gap,
        /// a longer one keeps its first rid), 1 `Index`, 2 `Csr` or
        /// 3 `Identity`, whose length is shorter than, equal to or longer
        /// than the other side's, by the selector.
        type Spec = (u32, Vec<Vec<Rid>>, u32);

        fn spec(targets: u32) -> impl Strategy<Value = Spec> {
            let entries =
                prop::collection::vec(prop::collection::vec(0..targets, 0..FANOUT), 0..POSITIONS);
            (0u32..4, entries, 0u32..3)
        }

        fn build((kind, entries, _): &Spec, identity: usize) -> LineageIndex {
            match kind {
                0 => LineageIndex::Array(
                    entries
                        .iter()
                        .map(|e| e.first().copied().unwrap_or(NO_RID))
                        .collect(),
                ),
                1 => LineageIndex::Index(RidIndex::from_entries(entries.clone())),
                2 => LineageIndex::Index(RidIndex::from_entries(entries.clone())).finalize(),
                _ => LineageIndex::Identity(identity),
            }
        }

        /// An `Identity`'s length against the `other` side's: one shorter,
        /// equal or three longer.
        fn identity_len(selector: u32, other: usize) -> usize {
            match selector {
                0 => other.saturating_sub(1),
                1 => other,
                _ => other + 3,
            }
        }

        /// The rids of position `pos`, read without any representation
        /// logic beyond the definitions.
        fn rids(index: &LineageIndex, pos: usize) -> Vec<Rid> {
            match index {
                LineageIndex::Array(a) => match a.as_slice().get(pos) {
                    Some(&r) if r != NO_RID => vec![r],
                    _ => vec![],
                },
                LineageIndex::Index(i) => i.get_checked(pos).to_vec(),
                LineageIndex::Csr(c) => c.get_checked(pos).to_vec(),
                LineageIndex::Identity(n) => (pos < *n).then_some(pos as Rid).into_iter().collect(),
            }
        }

        fn kind(index: &LineageIndex) -> &'static str {
            match index {
                LineageIndex::Array(_) => "Array",
                LineageIndex::Index(_) => "Index",
                LineageIndex::Csr(_) => "Csr",
                LineageIndex::Identity(_) => "Identity",
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(CASES))]

            #[test]
            fn compose_matches_the_nested_loop(
                parent_spec in spec(POSITIONS as u32 + 3),
                child_spec in spec(1_000),
            ) {
                // Parent targets run past the child's positions, so some mids
                // are out of range.
                let child_len = match child_spec.0 {
                    3 => identity_len(child_spec.2, POSITIONS),
                    _ => child_spec.1.len(),
                };
                let child = build(&child_spec, child_len);
                let parent = build(&parent_spec, identity_len(parent_spec.2, child.len()));
                let composed = compose_backward(&parent, &child);

                prop_assert_eq!(composed.len(), parent.len());
                for pos in 0..parent.len() + 2 {
                    let mut expected = Vec::new();
                    if pos < parent.len() {
                        for mid in rids(&parent, pos) {
                            expected.extend(rids(&child, mid as usize));
                        }
                    }
                    prop_assert_eq!(composed.lookup(pos as Rid), expected, "position {}", pos);
                }

                let want = match (&parent, &child) {
                    (LineageIndex::Identity(n), LineageIndex::Identity(m)) => {
                        if n <= m { "Identity" } else { "Array" }
                    }
                    (LineageIndex::Identity(_), other) | (other, LineageIndex::Identity(_)) => {
                        kind(other)
                    }
                    (LineageIndex::Array(_), LineageIndex::Array(_)) => "Array",
                    _ => "Csr",
                };
                prop_assert_eq!(kind(&composed), want);
                if let LineageIndex::Csr(c) = &composed {
                    let exact = 4 * (c.len() + 1) + 4 * c.edge_count();
                    prop_assert_eq!(composed.heap_bytes(), exact);
                }
                prop_assert_eq!(composed.resizes(), 0);
            }
        }
    }
}
