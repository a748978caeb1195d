//! Compressed-sparse-row rid indexes: the read side of 1-to-N lineage.
//!
//! A [`crate::RidIndex`] stores one heap-allocated [`crate::RidArray`] per
//! entry, which is what the write path wants (entries grow independently
//! while the operator runs). Read back, that pointer-chasing layout would
//! cost on every lookup: each dereferences a `Vec` header, entries are
//! scattered across the heap, and each entry pays its own allocation
//! slack. `CsrRidIndex` packs the same mapping into two contiguous,
//! exactly-sized buffers:
//!
//! * `offsets[i]..offsets[i + 1]` delimits the rids of entry `i`;
//! * `rids` holds every lineage edge back to back.
//!
//! Lookups are two adjacent `u32` reads plus one slice; a full traversal is
//! one linear scan. Every capture path that knows each row's entry before
//! it writes a rid — the Defer re-probe, a sealed morsel fragment or finer
//! γ, the join's deferred left side, a join's merged output runs — holds
//! that knowledge as a slot array (row → entry) and builds the CSR from it
//! with [`CsrRidIndex::from_slots`], a counting sort that counts and fills
//! from the same slice, so no entry can be miscounted and nothing is
//! resized. Inject paths write a [`crate::RidIndex`], and the operator's
//! finish seals it with [`CsrRidIndex::from`] (or
//! [`crate::RidIndex::finalize`]) in one pass before lineage is handed out.

use smoke_storage::Rid;

use crate::rid_array::NO_RID;
use crate::rid_index::RidIndex;

/// A 1-to-N lineage index stored in compressed-sparse-row form.
///
/// Invariant: `offsets` has `len + 1` entries, is non-decreasing, starts at
/// `0`, and ends at `rids.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrRidIndex {
    offsets: Vec<u32>,
    rids: Vec<Rid>,
}

impl Default for CsrRidIndex {
    fn default() -> Self {
        CsrRidIndex::new()
    }
}

impl CsrRidIndex {
    /// Creates an empty CSR index.
    pub fn new() -> Self {
        CsrRidIndex {
            offsets: vec![0],
            rids: Vec::new(),
        }
    }

    /// Assembles a CSR index from raw parts, for the kernels of this crate
    /// that compute both buffers in one pass (composition, a compressed
    /// index read back).
    pub(crate) fn from_parts(offsets: Vec<u32>, rids: Vec<Rid>) -> Self {
        // Debug only: no write follows, and `get` slices `rids` with
        // bounds checks, so a broken invariant panics, never misreads.
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, rids.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrRidIndex { offsets, rids }
    }

    /// Inverts a slot array by counting sort: entry `slots[i]` receives rid
    /// `base + i`, in ascending `i`, and a [`NO_RID`] slot is skipped. Both
    /// passes read the same slice, so no entry can be miscounted, and
    /// `offsets` (`entries + 1`) and `rids` are allocated once, exactly.
    ///
    /// Panics when a slot other than [`NO_RID`] is not below `entries`, or
    /// when `base + slots.len()` passes the `u32` rid space (which also
    /// bounds every offset: the total is at most `slots.len()`).
    pub fn from_slots(slots: &[u32], entries: usize, base: usize) -> CsrRidIndex {
        assert!(
            base.checked_add(slots.len())
                .is_some_and(|end| end <= Rid::MAX as usize),
            "a slot array past the u32 rid space"
        );
        let mut offsets = vec![0u32; entries + 1];
        for &slot in slots.iter().filter(|&&slot| slot != NO_RID) {
            offsets[slot as usize + 1] += 1;
        }
        let mut rids = vec![0; counts_to_cursors(&mut offsets)];
        for (i, &slot) in slots.iter().enumerate() {
            if slot != NO_RID {
                let cursor = &mut offsets[slot as usize + 1];
                rids[*cursor as usize] = (base + i) as Rid;
                *cursor += 1;
            }
        }
        CsrRidIndex { offsets, rids }
    }

    /// The two buffers, for a caller that reuses them as its own layout.
    pub(crate) fn into_parts(self) -> (Vec<u32>, Vec<Rid>) {
        (self.offsets, self.rids)
    }

    /// Number of entries (e.g. number of output groups).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The rids at entry `pos`. Panics when `pos` is out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> &[Rid] {
        let lo = self.offsets[pos] as usize;
        let hi = self.offsets[pos + 1] as usize;
        &self.rids[lo..hi]
    }

    /// The rids at entry `pos`, or an empty slice when out of bounds.
    #[inline]
    pub fn get_checked(&self, pos: usize) -> &[Rid] {
        if pos + 1 < self.offsets.len() {
            self.get(pos)
        } else {
            &[]
        }
    }

    /// Calls `f` for every rid at entry `pos` without allocating.
    #[inline]
    pub fn for_each(&self, pos: usize, mut f: impl FnMut(Rid)) {
        for &r in self.get_checked(pos) {
            f(r);
        }
    }

    /// Iterates over `(position, rids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Rid])> + '_ {
        (0..self.len()).map(|i| (i, self.get(i)))
    }

    /// Total number of rids stored (number of lineage edges represented).
    pub fn edge_count(&self) -> usize {
        self.rids.len()
    }

    /// The flat rid buffer (every edge, entry after entry).
    pub fn rids(&self) -> &[Rid] {
        &self.rids
    }

    /// The offsets buffer (`len + 1` entries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Approximate heap footprint in bytes: two exactly-sized flat buffers,
    /// with none of the per-entry `Vec` headers or allocation slack a
    /// [`RidIndex`] pays.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.rids.capacity() * std::mem::size_of::<Rid>()
    }

    /// Maps every rid through `f` in place, dropping those it maps to
    /// `None`; every entry keeps its position.
    pub fn filter_map_rids(mut self, mut f: impl FnMut(Rid) -> Option<Rid>) -> CsrRidIndex {
        let (mut kept, mut lo) = (0, 0);
        for end in self.offsets.iter_mut().skip(1) {
            for at in lo..*end as usize {
                if let Some(rid) = f(self.rids[at]) {
                    self.rids[kept] = rid;
                    kept += 1;
                }
            }
            (lo, *end) = (*end as usize, kept as u32);
        }
        self.rids.truncate(kept);
        self
    }

    /// Merges per-partition CSR indexes into one global index — the
    /// merge step of parallel lineage capture.
    ///
    /// Each worker of a morsel-parallel operator captures lineage into its
    /// own private CSR whose entries are numbered in a partition-local id
    /// space. `maps[p][local]` rebases partition `p`'s local entry id to the
    /// global entry id (`0..entries`); several partitions may map onto the
    /// same global entry (a group whose rows straddle morsel boundaries).
    ///
    /// Because CSR stores every edge in one flat buffer, the merge is a
    /// *memcpy-with-rebase*: a counting pass sums per-global-entry
    /// cardinalities into the offsets, then each partition's per-entry rid
    /// slice is copied verbatim into its window — no per-edge hashing or
    /// re-bucketing. Both passes walk the same `(part, map)` pairs, so every
    /// window is filled exactly. Partitions are drained in slice order, so
    /// when callers pass partitions in morsel order the rids within each
    /// global entry stay in ascending rid order, matching sequential capture
    /// bit for bit.
    pub fn merge_remapped(parts: &[CsrRidIndex], maps: &[Vec<u32>], entries: usize) -> CsrRidIndex {
        // The merged total is at most the parts' total, so one check up
        // front bounds every offset below.
        let edges: usize = parts.iter().map(CsrRidIndex::edge_count).sum();
        assert!(
            edges <= u32::MAX as usize,
            "merged lineage exceeds the u32 edge capacity of CSR offsets"
        );
        // Debug only: a length mismatch makes both passes skip the same
        // edges, so no window is over- or under-filled.
        debug_assert_eq!(parts.len(), maps.len());
        let pairs = || parts.iter().zip(maps);
        let mut offsets = vec![0u32; entries + 1];
        for (part, map) in pairs() {
            debug_assert_eq!(part.len(), map.len());
            for (local, &global) in map.iter().enumerate() {
                offsets[global as usize + 1] += part.get(local).len() as u32;
            }
        }
        let mut rids = vec![0; counts_to_cursors(&mut offsets)];
        for (part, map) in pairs() {
            for (local, &global) in map.iter().enumerate() {
                let (cursor, slice) = (&mut offsets[global as usize + 1], part.get(local));
                let at = *cursor as usize;
                rids[at..at + slice.len()].copy_from_slice(slice);
                *cursor += slice.len() as u32;
            }
        }
        CsrRidIndex { offsets, rids }
    }
}

/// Turns the offsets of a count pass — entry `e`'s count at `offsets[e +
/// 1]` — into write cursors, each at its entry's start, and returns the
/// total. Filling entry `e` through cursor `offsets[e + 1]` leaves it at the
/// entry's end, which is where a finished CSR's offset sits.
fn counts_to_cursors(offsets: &mut [u32]) -> usize {
    let mut total = 0;
    for at in offsets.iter_mut().skip(1) {
        (*at, total) = (total, total + *at);
    }
    total as usize
}

/// Asserts (in release builds too) that an edge total fits the `u32` offset
/// space; a silently wrapped offset buffer would corrupt every lookup. Only
/// composition and the seal of a [`RidIndex`] call it: their totals are
/// known only once counted, while [`CsrRidIndex::from_slots`] (at most its
/// slot count) and [`CsrRidIndex::merge_remapped`] (at most its parts'
/// edges) check a bound once, up front. It stays a panic rather than a
/// typed error because the frozen benchmark names those functions' return
/// types.
#[inline]
pub(crate) fn checked_offset(total: u64) -> u32 {
    assert!(
        total <= u32::MAX as u64,
        "lineage index exceeds the u32 edge capacity of CSR offsets"
    );
    total as u32
}

impl From<&RidIndex> for CsrRidIndex {
    /// Seals a written rid index into CSR in one pass over its entries.
    fn from(index: &RidIndex) -> Self {
        let entries = index.entries();
        let mut offsets = Vec::with_capacity(entries.len() + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for entry in entries {
            total += entry.len() as u64;
            offsets.push(checked_offset(total));
        }
        let mut rids = Vec::with_capacity(total as usize);
        for entry in entries {
            rids.extend_from_slice(entry.as_slice());
        }
        CsrRidIndex { offsets, rids }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> RidIndex {
        RidIndex::from_entries(vec![vec![1, 2, 3], vec![], vec![3, 4]])
    }

    #[test]
    fn conversion_preserves_entries() {
        let idx = sample();
        let csr = CsrRidIndex::from(&idx);
        assert_eq!(csr.len(), 3);
        assert_eq!(csr.edge_count(), 5);
        assert_eq!(csr.get(0), &[1, 2, 3]);
        assert_eq!(csr.get(1), &[] as &[Rid]);
        assert_eq!(csr.get(2), &[3, 4]);
        assert_eq!(csr.get_checked(99), &[] as &[Rid]);
        assert_eq!(csr.offsets(), &[0, 3, 3, 5]);
        assert_eq!(csr.rids(), &[1, 2, 3, 3, 4]);
    }

    #[test]
    fn for_each_and_iter_match_get() {
        let csr = CsrRidIndex::from(&sample());
        for (pos, slice) in csr.iter() {
            let mut collected = Vec::new();
            csr.for_each(pos, |r| collected.push(r));
            assert_eq!(collected, slice.to_vec());
        }
    }

    #[test]
    fn merge_remapped_rebases_partition_local_entries() {
        // Two partitions over morsels [0,4) and [4,8); three global groups.
        // Partition 0 saw groups A(=0) and B(=1) locally as 0 and 1;
        // partition 1 saw B and C first, so locally B=0, C=1, A=2.
        let p0 = CsrRidIndex::from_slots(&[0, 1, 1, 0], 2, 0); // A [0, 3], B [1, 2]
        let p1 = CsrRidIndex::from_slots(&[1, 0, 2, 1], 3, 4); // B [5], C [4, 7], A [6]
        assert_eq!((p0.get(0), p1.get(1)), (&[0, 3][..], &[4, 7][..]));

        let merged = CsrRidIndex::merge_remapped(&[p0, p1], &[vec![0, 1], vec![1, 2, 0]], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.get(0), &[0, 3, 6], "A: ascending across morsels");
        assert_eq!(merged.get(1), &[1, 2, 5], "B: straddles the boundary");
        assert_eq!(merged.get(2), &[4, 7], "C: second morsel only");
    }

    #[test]
    fn merge_remapped_handles_empty_partitions() {
        let merged = CsrRidIndex::merge_remapped(&[], &[], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.get(0), &[] as &[Rid]);
        let empty = CsrRidIndex::new();
        let merged = CsrRidIndex::merge_remapped(&[empty], &[vec![]], 0);
        assert!(merged.is_empty());
    }

    /// Cases per property: a Miri-sized count under Miri, whose CI job runs
    /// this crate's unit suite.
    #[cfg(not(miri))]
    const CASES: u32 = 256;
    #[cfg(miri)]
    const CASES: u32 = 4;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// `from_slots` agrees with a nested-loop inversion of the slot
        /// array — over `NO_RID` holes, entries no slot names, entries past
        /// the largest slot and a nonzero base — and carries no slack.
        #[test]
        fn from_slots_matches_the_nested_loops(
            raw in prop::collection::vec(0u32..64, 0..300),
            domain in 1u32..16,
            extra in 0usize..4,
            base in 0usize..1 << 20,
        ) {
            let slots: Vec<u32> = raw
                .iter()
                .map(|&r| if r % 4 == 0 { NO_RID } else { r % domain })
                .collect();
            let entries = domain as usize + extra;
            let csr = CsrRidIndex::from_slots(&slots, entries, base);
            prop_assert_eq!(csr.len(), entries);
            for entry in 0..entries {
                let want: Vec<Rid> = (0..slots.len())
                    .filter(|&i| slots[i] == entry as u32)
                    .map(|i| (base + i) as Rid)
                    .collect();
                prop_assert_eq!(csr.get(entry), &want[..], "entry {entry}");
            }
            let holes = slots.iter().filter(|&&s| s == NO_RID).count();
            prop_assert_eq!(csr.edge_count(), slots.len() - holes);
            prop_assert_eq!(csr.heap_bytes(), 4 * (entries + 1) + 4 * csr.edge_count());
        }
    }

    #[test]
    fn sealed_heap_bytes_are_exact() {
        // 100 entries of 10 rids each: two flat buffers, with no per-entry
        // header, allocation or slack.
        let entries: Vec<Vec<Rid>> = (0..100).map(|i| (i * 10..(i + 1) * 10).collect()).collect();
        let csr = CsrRidIndex::from(&RidIndex::from_entries(entries));
        assert_eq!(csr.edge_count(), 1000);
        assert_eq!(csr.heap_bytes(), 4 * (csr.len() + 1) + 4 * csr.edge_count());
    }

    #[test]
    fn empty_index() {
        let csr = CsrRidIndex::new();
        assert!(csr.is_empty());
        assert_eq!(csr.len(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.get_checked(0), &[] as &[Rid]);
        let from_empty = CsrRidIndex::from(&RidIndex::with_len(0));
        assert_eq!(from_empty, csr);
    }
}
