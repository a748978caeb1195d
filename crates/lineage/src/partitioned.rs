//! Partitioned rid indexes: the physical design behind the data-skipping and
//! group-by push-down optimizations (paper §4.2).
//!
//! A [`PartitionedRidIndex`] is a backward rid index whose per-output rid
//! arrays are further split by the value of a *partition attribute* (the
//! templated predicate attribute for data skipping, or the extra group-by
//! attribute for aggregation push-down). A lineage-consuming query with a
//! parameterized predicate `attr = :p` then scans only the partition matching
//! `:p` instead of the whole rid array.

use std::collections::btree_map::{BTreeMap, Entry};

use smoke_storage::Rid;

/// The value of a partition attribute, normalized to a string key.
///
/// Partition attributes are categorical or discretized (the paper notes
/// user-facing output is ultimately discretized at pixel granularity), so a
/// string key over a bounded domain is an appropriate representation.
pub type PartitionKey = String;

/// A backward rid index partitioned by an attribute value.
#[derive(Debug, Clone, Default)]
pub struct PartitionedRidIndex {
    /// `entries[out_rid]` maps partition key → rids of the input records in
    /// that partition that contributed to output `out_rid`.
    entries: Vec<BTreeMap<PartitionKey, Vec<Rid>>>,
    attribute: String,
}

impl PartitionedRidIndex {
    /// Creates a partitioned index with `len` output entries.
    pub fn with_len(attribute: impl Into<String>, len: usize) -> Self {
        PartitionedRidIndex {
            entries: vec![BTreeMap::new(); len],
            attribute: attribute.into(),
        }
    }

    /// The partition attribute this index was built on.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Number of output entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index has no output entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The partitions of output `out_rid`, growing the index as necessary.
    fn entry_mut(&mut self, out_rid: usize) -> &mut BTreeMap<PartitionKey, Vec<Rid>> {
        if out_rid >= self.entries.len() {
            self.entries.resize(out_rid + 1, BTreeMap::new());
        }
        &mut self.entries[out_rid]
    }

    /// Appends an input rid to the partition `key` of output `out_rid`,
    /// growing the index as necessary.
    pub fn append(&mut self, out_rid: usize, key: &str, rid: Rid) {
        let partitions = self.entry_mut(out_rid);
        partitions.entry(key.to_string()).or_default().push(rid);
    }

    /// Hangs a finished partition under output `out_rid`, growing the index
    /// as necessary: `rids` is stored as handed over, so an exactly sized
    /// array stays exactly sized.
    pub fn insert(&mut self, out_rid: usize, key: PartitionKey, rids: Vec<Rid>) {
        match self.entry_mut(out_rid).entry(key) {
            Entry::Vacant(slot) => drop(slot.insert(rids)),
            Entry::Occupied(mut slot) => slot.get_mut().extend(rids),
        }
    }

    /// The rids of output `out_rid` whose partition attribute equals `key`.
    pub fn partition(&self, out_rid: usize, key: &str) -> &[Rid] {
        self.entries
            .get(out_rid)
            .and_then(|m| m.get(key))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All partition keys present for output `out_rid`.
    pub fn keys(&self, out_rid: usize) -> Vec<&str> {
        self.entries
            .get(out_rid)
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Iterates over `(partition key, rids)` pairs for output `out_rid`.
    pub fn partitions(&self, out_rid: usize) -> impl Iterator<Item = (&str, &[Rid])> + '_ {
        self.entries
            .get(out_rid)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), v.as_slice())))
    }

    /// All rids of output `out_rid` across partitions (equivalent to the
    /// unpartitioned backward rid array entry).
    pub fn all(&self, out_rid: usize) -> Vec<Rid> {
        let mut out = Vec::new();
        for (_, rids) in self.partitions(out_rid) {
            out.extend_from_slice(rids);
        }
        out
    }

    /// Total number of lineage edges stored.
    pub fn edge_count(&self) -> usize {
        self.entries
            .iter()
            .map(|m| m.values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| k.capacity() + v.capacity() * std::mem::size_of::<Rid>() + 48)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Flattens the partitioned index into an unpartitioned CSR backward
    /// index: entry `i` holds all rids of output `i` across its partitions
    /// (in partition-key order), equivalent to calling [`Self::all`] for
    /// every output but stored in two exactly-sized flat buffers.
    pub fn finalize(&self) -> crate::CsrRidIndex {
        let mut offsets = Vec::with_capacity(self.entries.len() + 1);
        offsets.push(0u32);
        let mut rids = Vec::with_capacity(self.edge_count());
        for entry in &self.entries {
            for v in entry.values() {
                rids.extend_from_slice(v);
            }
            offsets.push(crate::csr::checked_offset(rids.len() as u64));
        }
        crate::CsrRidIndex::from_parts(offsets, rids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PartitionedRidIndex {
        let mut idx = PartitionedRidIndex::with_len("l_shipmode", 2);
        idx.append(0, "AIR", 1);
        idx.append(0, "AIR", 3);
        idx.append(0, "MAIL", 2);
        idx.append(1, "MAIL", 4);
        idx
    }

    #[test]
    fn partition_scans_only_matching_rids() {
        let idx = sample();
        assert_eq!(idx.partition(0, "AIR"), &[1, 3]);
        assert_eq!(idx.partition(0, "MAIL"), &[2]);
        assert_eq!(idx.partition(0, "SHIP"), &[] as &[Rid]);
        assert_eq!(idx.partition(1, "MAIL"), &[4]);
        assert_eq!(idx.attribute(), "l_shipmode");
    }

    #[test]
    fn all_reconstructs_full_backward_entry() {
        let idx = sample();
        let mut all = idx.all(0);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
        assert_eq!(idx.edge_count(), 4);
    }

    #[test]
    fn append_extends_index() {
        let mut idx = PartitionedRidIndex::with_len("attr", 0);
        assert!(idx.is_empty());
        idx.append(3, "x", 9);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.partition(3, "x"), &[9]);
        assert_eq!(idx.partition(0, "x"), &[] as &[Rid]);
        // A finished partition is stored as handed over.
        let before = idx.heap_bytes();
        idx.insert(5, "y".to_string(), vec![1, 2, 3]);
        assert_eq!(idx.len(), 6);
        assert_eq!(idx.partition(5, "y"), &[1, 2, 3]);
        assert_eq!(idx.heap_bytes() - before, 1 + 3 * 4 + 48);
    }

    #[test]
    fn finalize_flattens_to_csr() {
        let idx = sample();
        let csr = idx.finalize();
        assert_eq!(csr.len(), 2);
        assert_eq!(csr.edge_count(), idx.edge_count());
        for out_rid in 0..idx.len() {
            let mut expected = idx.all(out_rid);
            expected.sort_unstable();
            let mut got = csr.get(out_rid).to_vec();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn keys_and_partitions_enumerate_consistently() {
        let idx = sample();
        assert_eq!(idx.keys(0), vec!["AIR", "MAIL"]);
        let collected: Vec<(String, usize)> = idx
            .partitions(0)
            .map(|(k, v)| (k.to_string(), v.len()))
            .collect();
        assert_eq!(collected, vec![("AIR".into(), 2), ("MAIL".into(), 1)]);
        assert!(idx.heap_bytes() > 0);
    }
}
