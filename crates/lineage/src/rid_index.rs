//! Rid indexes: the 1-to-N lineage representation.

use smoke_storage::Rid;

use crate::rid_array::RidArray;

/// An inverted index whose `i`-th entry holds the rids related to position
/// `i` (paper §3.1).
///
/// For the backward lineage of a group-by, entry `i` holds the input rids of
/// the `i`-th output group; for the forward lineage of a join, entry `i`
/// holds the output rids produced by input rid `i`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RidIndex {
    entries: Vec<RidArray>,
}

impl RidIndex {
    /// Creates an empty rid index.
    pub fn new() -> Self {
        RidIndex {
            entries: Vec::new(),
        }
    }

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

    /// Ensures the index covers position `pos`, extending with empty entries.
    pub fn ensure_len(&mut self, len: usize) {
        if self.entries.len() < len {
            self.entries.resize(len, RidArray::new());
        }
    }

    /// Appends `rid` to the entry at `pos`, extending the index if needed.
    #[inline]
    pub fn append(&mut self, pos: usize, rid: Rid) {
        if pos >= self.entries.len() {
            self.entries.resize(pos + 1, RidArray::new());
        }
        self.entries[pos].push(rid);
    }

    /// The rids at entry `pos`.
    #[inline]
    pub fn get(&self, pos: usize) -> &[Rid] {
        self.entries[pos].as_slice()
    }

    /// The rids at entry `pos`, or an empty slice when out of bounds.
    #[inline]
    pub fn get_checked(&self, pos: usize) -> &[Rid] {
        self.entries.get(pos).map(RidArray::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(position, rids)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[Rid])> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (i, e.as_slice()))
    }

    /// Total number of rids stored across all entries (number of lineage
    /// edges represented).
    pub fn edge_count(&self) -> usize {
        self.entries.iter().map(RidArray::len).sum()
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

    /// Converts this write-optimized index into read-optimized
    /// compressed-sparse-row form in one pass over its entries.
    pub fn finalize(&self) -> crate::CsrRidIndex {
        crate::CsrRidIndex::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_get() {
        let mut idx = RidIndex::with_len(3);
        idx.append(0, 5);
        idx.append(0, 6);
        idx.append(2, 9);
        assert_eq!(idx.get(0), &[5, 6]);
        assert_eq!(idx.get(1), &[] as &[Rid]);
        assert_eq!(idx.get(2), &[9]);
        assert_eq!(idx.edge_count(), 3);
    }

    #[test]
    fn append_beyond_len_extends() {
        let mut idx = RidIndex::new();
        idx.append(4, 1);
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.get_checked(4), &[1]);
        assert_eq!(idx.get_checked(99), &[] as &[Rid]);
    }

    #[test]
    fn push_entry_reuses_arrays() {
        let mut idx = RidIndex::new();
        let entry: RidArray = (0..4).collect();
        let pos = idx.push_entry(entry);
        assert_eq!(pos, 0);
        assert_eq!(idx.get(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn from_entries_and_iter() {
        let idx = RidIndex::from_entries(vec![vec![1, 2], vec![], vec![3]]);
        let collected: Vec<(usize, Vec<Rid>)> = idx.iter().map(|(i, r)| (i, r.to_vec())).collect();
        assert_eq!(collected, vec![(0, vec![1, 2]), (1, vec![]), (2, vec![3])]);
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn ensure_len_only_grows() {
        let mut idx = RidIndex::with_len(2);
        idx.ensure_len(5);
        assert_eq!(idx.len(), 5);
        idx.ensure_len(1);
        assert_eq!(idx.len(), 5);
    }
}
