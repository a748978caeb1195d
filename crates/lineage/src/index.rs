//! Direction-agnostic lineage index wrapper: the read side every operator
//! hands out. Capture's write-side structures (growable rid arrays, paper
//! §3.1–3.2) are sealed inside each operator's finish, so no reader,
//! composer or driver sees them.

use smoke_storage::Rid;

use crate::csr::CsrRidIndex;
use crate::rid_array::{RidArray, NO_RID};

/// A lineage mapping from positions (rids of one relation) to rids of another
/// relation, in either the backward or forward direction.
///
/// The representation mirrors paper §3.1:
/// * [`LineageIndex::Array`] — 1-to-(0|1) relationships (rid array);
/// * [`LineageIndex::Csr`] — 1-to-N relationships in compressed-sparse-row
///   form: two contiguous exactly-sized buffers, built directly by Defer
///   capture (cardinalities known up front) or sealed from Inject's
///   write-side [`crate::RidIndex`] when the operator finishes;
/// * [`LineageIndex::Identity`] — the identity mapping used by bag-semantics
///   projection where input and output rids coincide, stored without any
///   materialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageIndex {
    /// One (or zero, via the [`NO_RID`] sentinel) related rid per position.
    Array(RidArray),
    /// Many related rids per position, in compressed-sparse-row form.
    Csr(CsrRidIndex),
    /// Identity mapping over `len` positions.
    Identity(usize),
}

impl LineageIndex {
    /// Number of positions covered by this index.
    pub fn len(&self) -> usize {
        match self {
            LineageIndex::Array(a) => a.len(),
            LineageIndex::Csr(c) => c.len(),
            LineageIndex::Identity(n) => *n,
        }
    }

    /// Whether the index covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rids related to position `pos`, as an owned vector.
    pub fn lookup(&self, pos: Rid) -> Vec<Rid> {
        match self {
            LineageIndex::Array(a) => match a.get_checked(pos as usize) {
                Some(r) => vec![r],
                None => vec![],
            },
            LineageIndex::Csr(c) => c.get_checked(pos as usize).to_vec(),
            LineageIndex::Identity(n) => {
                if (pos as usize) < *n {
                    vec![pos]
                } else {
                    vec![]
                }
            }
        }
    }

    /// Calls `f` for every rid related to position `pos` without allocating.
    #[inline]
    pub fn for_each(&self, pos: Rid, mut f: impl FnMut(Rid)) {
        match self {
            LineageIndex::Array(a) => {
                if let Some(r) = a.get_checked(pos as usize) {
                    f(r);
                }
            }
            LineageIndex::Csr(c) => {
                for &r in c.get_checked(pos as usize) {
                    f(r);
                }
            }
            LineageIndex::Identity(n) => {
                if (pos as usize) < *n {
                    f(pos);
                }
            }
        }
    }

    /// The single rid related to `pos`, if the relationship is 1-to-1.
    pub fn single(&self, pos: Rid) -> Option<Rid> {
        match self {
            LineageIndex::Array(a) => a.get_checked(pos as usize),
            LineageIndex::Identity(n) => ((pos as usize) < *n).then_some(pos),
            LineageIndex::Csr(c) => {
                let rids = c.get_checked(pos as usize);
                if rids.len() == 1 {
                    Some(rids[0])
                } else {
                    None
                }
            }
        }
    }

    /// Traces a set of positions and returns the union (with duplicates
    /// removed, order of first appearance) of their related rids.
    pub fn trace_set(&self, positions: &[Rid]) -> Vec<Rid> {
        let mut seen = vec![];
        let mut out = Vec::new();
        for &p in positions {
            self.for_each(p, |r| {
                // Deduplicate with a bitmap sized lazily; positions sets are
                // usually small, fall back to linear scan for tiny results.
                if out.len() < 64 {
                    if !out.contains(&r) {
                        out.push(r);
                    }
                } else {
                    if seen.is_empty() {
                        // The bitmap must cover every rid already recorded in
                        // `out`, not just the hint and the current rid —
                        // otherwise large early rids are never marked and get
                        // emitted again on their next occurrence.
                        let mut size = self.max_target_hint().max(r as usize + 1);
                        for &o in &out {
                            size = size.max(o as usize + 1);
                        }
                        seen = vec![false; size];
                        for &o in &out {
                            seen[o as usize] = true;
                        }
                    }
                    if (r as usize) >= seen.len() {
                        seen.resize(r as usize + 1, false);
                    }
                    if !seen[r as usize] {
                        seen[r as usize] = true;
                        out.push(r);
                    }
                }
            });
        }
        out
    }

    /// Traces a set of positions and returns all related rids *with*
    /// duplicates (multiset semantics, needed by why/how provenance and by
    /// aggregate refresh).
    pub fn trace_multiset(&self, positions: &[Rid]) -> Vec<Rid> {
        let mut out = Vec::new();
        for &p in positions {
            self.for_each(p, |r| out.push(r));
        }
        out
    }

    /// Total number of lineage edges represented by this index.
    pub fn edge_count(&self) -> usize {
        match self {
            LineageIndex::Array(a) => a.iter().filter(|&r| r != NO_RID).count(),
            LineageIndex::Csr(c) => c.edge_count(),
            LineageIndex::Identity(n) => *n,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        match self {
            LineageIndex::Array(a) => a.heap_bytes(),
            LineageIndex::Csr(c) => c.heap_bytes(),
            LineageIndex::Identity(_) => 0,
        }
    }

    fn max_target_hint(&self) -> usize {
        match self {
            LineageIndex::Identity(n) => *n,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid_index::RidIndex;

    fn array_index() -> LineageIndex {
        let mut a = RidArray::filled(4);
        a.set(0, 10);
        a.set(1, 11);
        a.set(3, 13);
        LineageIndex::Array(a)
    }

    fn csr(entries: Vec<Vec<Rid>>) -> LineageIndex {
        LineageIndex::Csr(RidIndex::from_entries(entries).finalize())
    }

    fn csr_index() -> LineageIndex {
        csr(vec![vec![1, 2, 3], vec![], vec![3, 4]])
    }

    #[test]
    fn array_lookup() {
        let idx = array_index();
        assert_eq!(idx.lookup(0), vec![10]);
        assert_eq!(idx.lookup(2), Vec::<Rid>::new()); // NO_RID sentinel
        assert_eq!(idx.single(3), Some(13));
        assert_eq!(idx.single(2), None);
        assert_eq!(idx.edge_count(), 3);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn index_lookup() {
        let idx = csr_index();
        assert_eq!(idx.lookup(0), vec![1, 2, 3]);
        assert_eq!(idx.lookup(1), Vec::<Rid>::new());
        assert_eq!(idx.single(2), None);
        assert_eq!(idx.edge_count(), 5);
    }

    #[test]
    fn identity_lookup() {
        let idx = LineageIndex::Identity(3);
        assert_eq!(idx.lookup(2), vec![2]);
        assert_eq!(idx.lookup(3), Vec::<Rid>::new());
        assert_eq!(idx.single(1), Some(1));
        assert_eq!(idx.edge_count(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn trace_set_deduplicates() {
        let idx = csr_index();
        let traced = idx.trace_set(&[0, 2]);
        assert_eq!(traced, vec![1, 2, 3, 4]);
    }

    #[test]
    fn trace_multiset_keeps_duplicates() {
        let idx = csr_index();
        let traced = idx.trace_multiset(&[0, 2]);
        assert_eq!(traced, vec![1, 2, 3, 3, 4]);
    }

    #[test]
    fn trace_set_handles_large_results() {
        // Force the bitmap path (> 64 distinct results).
        let entries: Vec<Vec<Rid>> = (0..10).map(|i| (i * 20..(i + 1) * 20).collect()).collect();
        let idx = csr(entries);
        let positions: Vec<Rid> = (0..10).collect();
        let mut traced = idx.trace_set(&positions);
        // Trace again including duplicates of the same positions.
        let doubled: Vec<Rid> = positions.iter().chain(positions.iter()).copied().collect();
        let traced2 = idx.trace_set(&doubled);
        traced.sort_unstable();
        let mut t2 = traced2.clone();
        t2.sort_unstable();
        assert_eq!(traced, (0..200).collect::<Vec<Rid>>());
        assert_eq!(t2, (0..200).collect::<Vec<Rid>>());
    }

    #[test]
    fn trace_set_keeps_large_early_rids_marked() {
        // Regression: rid 5000 shows up among the first 64 distinct results
        // (while dedup is still the linear scan) and again after the bitmap
        // path engages. The bitmap used to be sized from the hint (0 for
        // Csr) and the current rid only, so 5000 was never marked and its
        // second occurrence was emitted twice.
        let mut entries: Vec<Vec<Rid>> = vec![vec![5000]];
        entries.extend((0..70).map(|i| vec![i as Rid]));
        entries.push(vec![5000]);
        let idx = csr(entries);
        let positions: Vec<Rid> = (0..idx.len() as Rid).collect();
        let traced = idx.trace_set(&positions);
        assert_eq!(
            traced.iter().filter(|&&r| r == 5000).count(),
            1,
            "rid 5000 must be emitted exactly once"
        );
        assert_eq!(traced.len(), 71);
        assert_eq!(traced[0], 5000); // order of first appearance
    }

    #[test]
    fn for_each_matches_lookup() {
        for idx in [array_index(), csr_index(), LineageIndex::Identity(5)] {
            for pos in 0..idx.len() as Rid {
                let mut collected = Vec::new();
                idx.for_each(pos, |r| collected.push(r));
                assert_eq!(collected, idx.lookup(pos));
            }
        }
    }
}
