//! Compressed-sparse-row rid indexes: the cache-friendly 1-to-N
//! representation.
//!
//! A [`crate::RidIndex`] stores one heap-allocated [`crate::RidArray`] per
//! entry, which is what the write path wants (entries grow independently
//! while the operator runs). Once an index is *finished*, however, the
//! pointer-chasing layout costs on every read: each lookup dereferences a
//! `Vec` header, entries are scattered across the heap, and each entry pays
//! its own allocation slack. `CsrRidIndex` packs the same mapping into two
//! contiguous, exactly-sized buffers:
//!
//! * `offsets[i]..offsets[i + 1]` delimits the rids of entry `i`;
//! * `rids` holds every lineage edge back to back.
//!
//! Lookups are two adjacent `u32` reads plus one slice; a full traversal is
//! one linear scan. The Defer capture paths, which know per-entry
//! cardinalities before writing a single rid, build CSR directly through
//! [`CsrBuilder`] with zero resizes; Inject paths build a [`crate::RidIndex`]
//! and convert with [`CsrRidIndex::from`] (or [`crate::RidIndex::finalize`])
//! in one pass.

use smoke_storage::Rid;

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

    /// Assembles a CSR index from raw parts (used by the composition kernel,
    /// which computes both buffers itself).
    ///
    /// Panics (in debug builds) when the offsets invariant does not hold.
    pub fn from_parts(offsets: Vec<u32>, rids: Vec<Rid>) -> Self {
        debug_assert!(!offsets.is_empty() && offsets[0] == 0);
        debug_assert_eq!(*offsets.last().unwrap() as usize, rids.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrRidIndex { offsets, rids }
    }

    /// Number of entries (e.g. number of output groups).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// The rids at entry `pos`. Panics when `pos` is out of bounds, matching
    /// [`RidIndex::get`].
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
    /// finalize step of parallel lineage capture.
    ///
    /// Each worker of a morsel-parallel operator captures lineage into its
    /// own private CSR whose entries are numbered in a partition-local id
    /// space. `maps[p][local]` rebases partition `p`'s local entry id to the
    /// global entry id (`0..entries`); several partitions may map onto the
    /// same global entry (a group whose rows straddle morsel boundaries).
    ///
    /// Because CSR stores every edge in one flat buffer, the merge is a
    /// *memcpy-with-rebase*: a counting pass sums per-global-entry
    /// cardinalities, then each partition's per-entry rid slice is copied
    /// verbatim into its pre-computed window — no per-edge hashing or
    /// re-bucketing. Partitions are drained in slice order, so when callers
    /// pass partitions in morsel order the rids within each global entry
    /// stay in ascending rid order, matching sequential capture bit for bit.
    pub fn merge_remapped(parts: &[CsrRidIndex], maps: &[Vec<u32>], entries: usize) -> CsrRidIndex {
        debug_assert_eq!(parts.len(), maps.len());
        let mut counts = vec![0usize; entries];
        for (part, map) in parts.iter().zip(maps) {
            debug_assert_eq!(part.len(), map.len());
            for (local, &global) in map.iter().enumerate() {
                counts[global as usize] += part.get(local).len();
            }
        }
        let mut builder = CsrBuilder::with_counts(counts);
        for (part, map) in parts.iter().zip(maps) {
            for (local, &global) in map.iter().enumerate() {
                builder.append_slice(global as usize, part.get(local));
            }
        }
        builder.finish()
    }
}

/// Asserts (in release builds too) that an edge total fits the `u32` offset
/// space; a silently wrapped offset buffer would corrupt every lookup.
#[inline]
pub(crate) fn checked_offset(total: u64) -> u32 {
    assert!(
        total <= u32::MAX as u64,
        "lineage index exceeds the u32 edge capacity of CSR offsets"
    );
    total as u32
}

impl From<&RidIndex> for CsrRidIndex {
    /// Converts a built rid index into CSR in one pass over its entries.
    fn from(index: &RidIndex) -> Self {
        let mut offsets = Vec::with_capacity(index.len() + 1);
        offsets.push(0u32);
        let mut total = 0u64;
        for (_, entry) in index.iter() {
            total += entry.len() as u64;
            offsets.push(checked_offset(total));
        }
        let mut rids = Vec::with_capacity(total as usize);
        for (_, entry) in index.iter() {
            rids.extend_from_slice(entry);
        }
        CsrRidIndex { offsets, rids }
    }
}

/// Direct builder for capture paths that know every entry's cardinality up
/// front (group-by / join Defer): the two flat buffers are allocated exactly
/// once and filled through per-entry write cursors — zero resizes, no
/// intermediate `Vec<RidArray>`.
#[derive(Debug)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    cursors: Vec<u32>,
    rids: Vec<Rid>,
}

impl CsrBuilder {
    /// Starts a builder from exact per-entry cardinalities.
    pub fn with_counts(counts: impl IntoIterator<Item = usize>) -> Self {
        let mut offsets = vec![0u32];
        let mut total = 0u64;
        for c in counts {
            total += c as u64;
            offsets.push(checked_offset(total));
        }
        let cursors = offsets[..offsets.len() - 1].to_vec();
        CsrBuilder {
            offsets,
            cursors,
            rids: vec![0; total as usize],
        }
    }

    /// Appends `rid` to entry `pos`. Entries may be filled in any interleaved
    /// order; each must receive exactly the count it was declared with.
    #[inline]
    pub fn append(&mut self, pos: usize, rid: Rid) {
        let cursor = self.cursors[pos];
        debug_assert!(
            cursor < self.offsets[pos + 1],
            "entry {pos} overflows its declared cardinality"
        );
        self.rids[cursor as usize] = rid;
        self.cursors[pos] = cursor + 1;
    }

    /// Appends `rid` to entry `pos` if the entry has room left, checked in
    /// release builds too: `false`, with nothing written, when `pos` is not
    /// an entry or the entry already holds its declared count. For counts
    /// that come from an earlier pass over data that may have changed since
    /// (the Defer re-probe), where [`CsrBuilder::append`]'s debug-only check
    /// would let a miscount write into the next entry's slots.
    #[inline]
    pub fn try_append(&mut self, pos: usize, rid: Rid) -> bool {
        let (Some(cursor), Some(&end)) = (self.cursors.get_mut(pos), self.offsets.get(pos + 1))
        else {
            return false;
        };
        match self.rids.get_mut(*cursor as usize) {
            Some(slot) if *cursor < end => {
                *slot = rid;
                *cursor += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether every entry has received exactly its declared count — what
    /// [`CsrBuilder::finish`] asserts, for a caller that reports an
    /// under-filled build as an error instead.
    pub fn is_full(&self) -> bool {
        (self.cursors.iter())
            .zip(self.offsets.get(1..).unwrap_or_default())
            .all(|(c, end)| c == end)
    }

    /// Appends a whole rid slice to entry `pos` in one `copy_from_slice` —
    /// the per-entry unit of the parallel merge in
    /// [`CsrRidIndex::merge_remapped`]. Counts toward the entry's declared
    /// cardinality exactly like `rids.len()` calls to [`CsrBuilder::append`].
    #[inline]
    pub fn append_slice(&mut self, pos: usize, rids: &[Rid]) {
        let cursor = self.cursors[pos] as usize;
        debug_assert!(
            cursor + rids.len() <= self.offsets[pos + 1] as usize,
            "entry {pos} overflows its declared cardinality"
        );
        self.rids[cursor..cursor + rids.len()].copy_from_slice(rids);
        self.cursors[pos] = (cursor + rids.len()) as u32;
    }

    /// Finishes the build. Panics when any entry received a different number
    /// of rids than declared: `rids` is pre-filled with rid 0, so letting an
    /// undercounted build through would silently attribute outputs to base
    /// row 0. The check is O(entries), off the per-edge hot path.
    pub fn finish(self) -> CsrRidIndex {
        assert!(
            self.is_full(),
            "an entry received a different number of rids than its declared cardinality"
        );
        CsrRidIndex {
            offsets: self.offsets,
            rids: self.rids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn builder_fills_interleaved_entries_without_resizes() {
        let mut b = CsrBuilder::with_counts([2usize, 0, 3]);
        b.append(2, 10);
        b.append(0, 5);
        b.append(2, 11);
        b.append(0, 6);
        b.append(2, 12);
        let csr = b.finish();
        assert_eq!(csr.get(0), &[5, 6]);
        assert_eq!(csr.get(1), &[] as &[Rid]);
        assert_eq!(csr.get(2), &[10, 11, 12]);
    }

    #[test]
    fn append_slice_matches_per_rid_appends() {
        let mut a = CsrBuilder::with_counts([3usize, 2]);
        a.append_slice(1, &[7, 8]);
        a.append_slice(0, &[1]);
        a.append_slice(0, &[2, 3]);
        let mut b = CsrBuilder::with_counts([3usize, 2]);
        for r in [7, 8] {
            b.append(1, r);
        }
        for r in [1, 2, 3] {
            b.append(0, r);
        }
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn merge_remapped_rebases_partition_local_entries() {
        // Two partitions over morsels [0,4) and [4,8); three global groups.
        // Partition 0 saw groups A(=0) and B(=1) locally as 0 and 1;
        // partition 1 saw B and C first, so locally B=0, C=1, A=2.
        let p0 = CsrBuilder::with_counts([2usize, 2]);
        let mut p0 = p0;
        p0.append_slice(0, &[0, 3]); // A
        p0.append_slice(1, &[1, 2]); // B
        let p0 = p0.finish();
        let mut p1 = CsrBuilder::with_counts([1usize, 2, 1]);
        p1.append_slice(0, &[5]); // B
        p1.append_slice(1, &[4, 7]); // C
        p1.append_slice(2, &[6]); // A
        let p1 = p1.finish();

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

    #[test]
    fn heap_bytes_is_strictly_below_vec_of_vecs() {
        // 100 entries of 10 rids each: the Vec<RidArray> layout pays one
        // header + allocation per entry, CSR pays two flat buffers.
        let entries: Vec<Vec<Rid>> = (0..100).map(|i| (i * 10..(i + 1) * 10).collect()).collect();
        let idx = RidIndex::from_entries(entries);
        let csr = CsrRidIndex::from(&idx);
        assert!(csr.heap_bytes() < idx.heap_bytes());
        assert_eq!(csr.edge_count(), idx.edge_count());
    }

    #[test]
    fn try_append_refuses_a_full_or_unknown_entry() {
        let mut b = CsrBuilder::with_counts([1usize, 2]);
        assert!(b.try_append(0, 7));
        assert!(!b.try_append(0, 8), "entry 0 is full");
        assert!(!b.try_append(2, 9), "there is no entry 2");
        assert!(b.try_append(1, 10));
        assert!(!b.is_full(), "entry 1 holds 1 of 2");
        assert!(b.try_append(1, 11));
        assert!(b.is_full());
        let csr = b.finish();
        assert_eq!(csr.get(0), &[7]);
        assert_eq!(csr.get(1), &[10, 11]);
    }

    #[test]
    fn empty_index() {
        let csr = CsrRidIndex::new();
        assert!(csr.is_empty());
        assert_eq!(csr.len(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.get_checked(0), &[] as &[Rid]);
        let from_empty = CsrRidIndex::from(&RidIndex::new());
        assert_eq!(from_empty, csr);
    }
}
