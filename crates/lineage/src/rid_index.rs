//! Rid indexes: the write side of 1-to-N lineage.

use smoke_storage::Rid;

use crate::csr::CsrRidIndex;
use crate::rid_array::RidArray;

/// An inverted index whose `i`-th entry holds the rids related to position
/// `i` (paper §3.1), as one growable [`RidArray`] per entry.
///
/// This is capture's write-efficient structure: entries grow independently
/// while an Inject operator runs. It is never read. The operator's finish
/// seals it into a [`CsrRidIndex`] with [`RidIndex::finalize`], after taking
/// its [`RidIndex::resizes`] and [`RidIndex::heap_bytes`] as the capture
/// statistics of what the write side cost.
///
/// For the backward lineage of a group-by, entry `i` holds the input rids of
/// the `i`-th output group; for the forward lineage of a join, entry `i`
/// holds the output rids produced by input rid `i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RidIndex {
    entries: Vec<RidArray>,
}

impl RidIndex {
    /// Creates a rid index with `len` empty entries.
    pub fn with_len(len: usize) -> Self {
        RidIndex {
            entries: vec![RidArray::new(); len],
        }
    }

    /// Builds a rid index directly from per-entry rid vectors.
    pub fn from_entries(entries: Vec<Vec<Rid>>) -> Self {
        RidIndex {
            entries: entries.into_iter().map(RidArray::from_vec).collect(),
        }
    }

    /// Builds a rid index from already-constructed rid arrays, preserving
    /// their resize accounting (used by operators that assemble per-position
    /// arrays out of order and wrap them at the end).
    pub fn from_arrays(entries: Vec<RidArray>) -> Self {
        RidIndex { entries }
    }

    /// Number of entries (e.g. number of output groups).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an already-built rid array as the next entry and returns its
    /// position. This is the "reuse" path: group-by Inject moves the i_rids
    /// array out of the hash table entry instead of copying it.
    pub fn push_entry(&mut self, entry: RidArray) -> usize {
        self.entries.push(entry);
        self.entries.len() - 1
    }

    /// Appends `rid` to the entry at `pos`, extending the index if needed.
    #[inline]
    pub fn append(&mut self, pos: usize, rid: Rid) {
        if pos >= self.entries.len() {
            self.entries.resize(pos + 1, RidArray::new());
        }
        self.entries[pos].push(rid);
    }

    /// The per-entry arrays, for the seal.
    pub(crate) fn entries(&self) -> &[RidArray] {
        &self.entries
    }

    /// Total resizes across all entries.
    pub fn resizes(&self) -> u64 {
        self.entries.iter().map(|e| e.resizes() as u64).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.iter().map(RidArray::heap_bytes).sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<RidArray>()
    }

    /// Seals this write-side index into read-side compressed-sparse-row form
    /// in one pass over its entries.
    pub fn finalize(&self) -> CsrRidIndex {
        CsrRidIndex::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appends_and_pushed_entries_seal_in_position_order() {
        let mut idx = RidIndex::with_len(3);
        idx.append(0, 5);
        idx.append(0, 6);
        idx.append(2, 9);
        // Past the end: the index extends with empty entries.
        idx.append(4, 1);
        assert_eq!(idx.push_entry((0..4).collect()), 5);
        let csr = idx.finalize();
        assert_eq!(csr.len(), 6);
        let entries: Vec<&[Rid]> = (0..6).map(|pos| csr.get(pos)).collect();
        assert_eq!(entries, [&[5, 6][..], &[], &[9], &[], &[1], &[0, 1, 2, 3]]);
        assert_eq!(csr.edge_count(), 8);
    }

    #[test]
    fn from_entries_seals_to_the_same_entries() {
        let entries = vec![vec![1, 2], vec![], vec![3]];
        let idx = RidIndex::from_entries(entries.clone());
        assert_eq!(idx.len(), 3);
        assert!(idx.heap_bytes() > 0);
        assert_eq!(idx.resizes(), 0);
        let csr = idx.finalize();
        let sealed: Vec<Vec<Rid>> = csr.iter().map(|(_, rids)| rids.to_vec()).collect();
        assert_eq!(sealed, entries);
        assert!(RidIndex::with_len(0).finalize().is_empty());
    }
}
