//! Partitioned rid indexes: the physical design behind the data-skipping and
//! group-by push-down optimizations (paper §4.2).
//!
//! Both artifacts are the groups — *cells* — of a finer group-by keyed by
//! `(coarse gid, partition attributes)`. A [`CellDirectory`] lists each
//! coarse gid's cells sorted by typed key ([`Value::total_cmp`],
//! lexicographic over the attributes); a [`PartitionedRidIndex`] is that
//! directory over the finer group-by's sealed backward CSR. A consuming
//! query with a templated predicate `attr = :p` binary-searches `:p` and
//! scans one CSR slice instead of the whole rid array.

use std::cmp::Ordering;
use std::sync::Arc;

use smoke_storage::{Rid, Value};

use crate::CsrRidIndex;

/// Per coarse gid, that gid's cells sorted by typed key.
#[derive(Debug, Clone)]
pub struct CellDirectory {
    /// `starts[gid]..starts[gid + 1]` delimits gid's cells in `order`.
    starts: Vec<u32>,
    /// Cells, gid-major and in ascending key order within a gid.
    order: Vec<u32>,
    /// Cell `c`'s attribute values: `keys[c * arity..][..arity]`.
    keys: Vec<Value>,
    arity: usize,
}

/// Lexicographic [`Value::total_cmp`] over two keys.
fn cmp_keys(a: &[Value], b: &[Value]) -> Ordering {
    let mut pairs = a.iter().zip(b).map(|(x, y)| x.total_cmp(y));
    pairs
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

impl CellDirectory {
    /// The directory of cells `0..gids.len()`: cell `c` belongs to coarse
    /// gid `gids[c]` and is keyed by `keys[c * arity..][..arity]`, a key no
    /// other cell of that gid shares. Covers gids up to the last with a cell.
    pub fn new(arity: usize, gids: &[u32], keys: Vec<Value>) -> Self {
        let len = gids.iter().max().map_or(0, |&g| g as usize + 1);
        let mut starts = vec![0u32; len + 1];
        for &gid in gids {
            starts[gid as usize + 1] += 1;
        }
        for g in 0..len {
            starts[g + 1] += starts[g];
        }
        let key = |c: u32| &keys[c as usize * arity..][..arity];
        let mut order: Vec<u32> = (0..gids.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let by_gid = gids[a as usize].cmp(&gids[b as usize]);
            by_gid.then_with(|| cmp_keys(key(a), key(b)))
        });
        CellDirectory {
            starts,
            order,
            keys,
            arity,
        }
    }

    /// Number of coarse gids covered.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Whether the directory covers no gid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.order.len()
    }

    fn key(&self, cell: u32) -> &[Value] {
        &self.keys[cell as usize * self.arity..][..self.arity]
    }

    /// The cells of `gid`, in key order; none past the covered gids.
    fn span(&self, gid: usize) -> &[u32] {
        let bounds = self.starts.get(gid).zip(self.starts.get(gid + 1));
        &self.order[bounds.map_or(0..0, |(&lo, &hi)| lo as usize..hi as usize)]
    }

    /// The cell of `gid` keyed by `key` under [`Value::total_cmp`].
    pub(crate) fn find(&self, gid: usize, key: &[Value]) -> Option<usize> {
        let span = self.span(gid);
        let at = span.binary_search_by(|&c| cmp_keys(self.key(c), key));
        at.ok().map(|i| span[i] as usize)
    }

    /// `(key, cell)` for every cell of `gid`, in ascending typed key order.
    pub fn cells(&self, gid: usize) -> impl ExactSizeIterator<Item = (&[Value], usize)> + '_ {
        self.span(gid).iter().map(|&c| (self.key(c), c as usize))
    }

    /// Heap footprint in bytes: every buffer, string keys' bytes included.
    pub(crate) fn heap_bytes(&self) -> usize {
        let strings: usize = self
            .keys
            .iter()
            .filter_map(Value::as_str)
            .map(str::len)
            .sum();
        (self.starts.capacity() + self.order.capacity()) * std::mem::size_of::<u32>()
            + self.keys.capacity() * std::mem::size_of::<Value>()
            + strings
    }
}

/// A backward rid index partitioned by attribute values: a [`CellDirectory`]
/// over a CSR whose entry `c` holds the rids of cell `c`.
#[derive(Debug, Clone)]
pub struct PartitionedRidIndex {
    attribute: String,
    directory: Arc<CellDirectory>,
    cells: CsrRidIndex,
}

impl PartitionedRidIndex {
    /// An index on `attribute`: `directory` over the cell CSR `cells`.
    pub fn new(attribute: String, directory: Arc<CellDirectory>, cells: CsrRidIndex) -> Self {
        debug_assert_eq!(directory.cell_count(), cells.len());
        PartitionedRidIndex {
            attribute,
            directory,
            cells,
        }
    }

    /// The partition attribute this index was built on.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Number of output entries.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the index has no output entries.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// The rids of output `out_rid` whose partition attributes equal `key`
    /// under [`Value::total_cmp`]: a binary search, then one CSR slice.
    pub fn partition(&self, out_rid: usize, key: &[Value]) -> &[Rid] {
        (self.directory.find(out_rid, key)).map_or(&[], |cell| self.cells.get(cell))
    }

    /// Number of partitions of output `out_rid`.
    pub fn partition_count(&self, out_rid: usize) -> usize {
        self.directory.cells(out_rid).len()
    }

    /// `(key, rids)` per partition of output `out_rid`, in typed key order.
    pub fn partitions(&self, out_rid: usize) -> impl Iterator<Item = (&[Value], &[Rid])> + '_ {
        (self.directory.cells(out_rid)).map(|(key, cell)| (key, self.cells.get(cell)))
    }

    /// Total number of lineage edges stored.
    pub fn edge_count(&self) -> usize {
        self.cells.edge_count()
    }

    /// Heap footprint in bytes: the cell CSR, the directory, the name.
    pub fn heap_bytes(&self) -> usize {
        self.cells.heap_bytes() + self.directory.heap_bytes() + self.attribute.capacity()
    }

    /// Maps every rid through `f` in place, dropping those it maps to `None`.
    pub fn map_rids(self, f: impl FnMut(Rid) -> Option<Rid>) -> Self {
        let cells = self.cells.filter_map_rids(f);
        PartitionedRidIndex { cells, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cells 0..4: gid 0 holds `"MAIL"` (cell 0) and `"AIR"` (cell 2),
    /// gid 1 nothing, gid 2 `"MAIL"` (cell 1) and `""` (cell 3).
    fn sample() -> PartitionedRidIndex {
        let keys = ["MAIL", "MAIL", "AIR", ""].map(|s| Value::Str(s.into()));
        let directory = CellDirectory::new(1, &[0, 2, 0, 2], keys.to_vec());
        let cells = CsrRidIndex::from_parts(vec![0, 1, 2, 4, 5], vec![2, 4, 1, 3, 5]);
        PartitionedRidIndex::new("l_shipmode".into(), Arc::new(directory), cells)
    }

    fn s(text: &str) -> [Value; 1] {
        [Value::Str(text.into())]
    }

    #[test]
    fn partition_is_one_directory_probe_and_one_slice() {
        let idx = sample();
        assert_eq!(idx.attribute(), "l_shipmode");
        assert_eq!((idx.len(), idx.edge_count()), (3, 5));
        assert_eq!(idx.partition(0, &s("AIR")), &[1, 3]);
        assert_eq!(idx.partition(0, &s("MAIL")), &[2]);
        assert_eq!(idx.partition(0, &s("SHIP")), &[] as &[Rid]);
        assert_eq!(idx.partition(1, &s("MAIL")), &[] as &[Rid]);
        assert_eq!(idx.partition(2, &s("MAIL")), &[4]);
        assert_eq!(idx.partition(2, &s("")), &[5]);
        // Past the covered gids, and a key of the wrong arity or type.
        assert_eq!(idx.partition(3, &s("MAIL")), &[] as &[Rid]);
        assert_eq!(idx.partition(0, &[]), &[] as &[Rid]);
        assert_eq!(idx.partition(0, &[Value::Int(0)]), &[] as &[Rid]);
    }

    #[test]
    fn partitions_enumerate_in_typed_key_order() {
        let idx = sample();
        let counts: Vec<usize> = (0..4).map(|g| idx.partition_count(g)).collect();
        assert_eq!(counts, vec![2, 0, 2, 0]);
        let of = |gid| -> Vec<(Vec<Value>, Vec<Rid>)> {
            (idx.partitions(gid))
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        };
        assert_eq!(
            of(0),
            vec![
                (s("AIR").to_vec(), vec![1, 3]),
                (s("MAIL").to_vec(), vec![2])
            ]
        );
        assert_eq!(
            of(2),
            vec![(s("").to_vec(), vec![5]), (s("MAIL").to_vec(), vec![4])]
        );
        assert!(of(1).is_empty());
    }

    #[test]
    fn keys_order_by_total_cmp_lexicographically() {
        // Two attributes; the numeric one carries both zeros and 2^53
        // neighbours, which a rendering would not order numerically.
        let big = 1i64 << 53;
        let rows = [
            (Value::Int(big + 1), "b"),
            (Value::Int(-2), "a"),
            (Value::Int(big), "a|b"),
            (Value::Int(10), "a"),
            (Value::Int(2), "z"),
            (Value::Int(2), "\\"),
        ];
        let keys = (rows.iter()).flat_map(|(v, t)| [v.clone(), Value::Str(t.to_string())]);
        let directory = CellDirectory::new(2, &[0; 6], keys.collect());
        let cells: Vec<usize> = directory.cells(0).map(|(_, c)| c).collect();
        assert_eq!(cells, vec![1, 5, 4, 3, 2, 0]);
        assert_eq!(
            directory.find(0, &[Value::Int(2), Value::Str("z".into())]),
            Some(4)
        );
        assert_eq!(directory.find(0, &[Value::Int(2)]), None);

        let floats = [0.0, -0.0, 1.5, -1.5].map(Value::Float);
        let directory = CellDirectory::new(1, &[0; 4], floats.to_vec());
        let cells: Vec<usize> = directory.cells(0).map(|(_, c)| c).collect();
        assert_eq!(cells, vec![3, 1, 0, 2]);
        assert_eq!(directory.find(0, &[Value::Float(-0.0)]), Some(1));
        assert_eq!(directory.find(0, &[Value::Float(0.0)]), Some(0));
    }

    #[test]
    fn gids_without_cells_are_empty_and_trailing_ones_uncovered() {
        let directory = CellDirectory::new(1, &[3, 1], vec![Value::Int(0), Value::Int(1)]);
        assert_eq!((directory.len(), directory.cell_count()), (4, 2));
        let counts: Vec<usize> = (0..5).map(|g| directory.cells(g).len()).collect();
        assert_eq!(counts, vec![0, 1, 0, 1, 0]);
        assert_eq!(directory.find(3, &[Value::Int(0)]), Some(0));
        let empty = CellDirectory::new(1, &[], Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.find(0, &[Value::Int(0)]), None);
    }

    #[test]
    fn map_rids_rewrites_the_flat_buffer_in_place() {
        let idx = sample().map_rids(|rid| (rid != 3).then_some(rid * 10));
        assert_eq!(idx.partition(0, &s("AIR")), &[10]);
        assert_eq!(idx.partition(0, &s("MAIL")), &[20]);
        assert_eq!(idx.partition(2, &s("")), &[50]);
        assert_eq!(idx.edge_count(), 4);
    }

    #[test]
    fn heap_bytes_counts_every_buffer() {
        let idx = sample();
        let csr = 5 * 4 + 5 * 4;
        let directory = (4 + 4) * 4 + 4 * std::mem::size_of::<Value>() + "MAILMAILAIR".len();
        assert_eq!(idx.heap_bytes(), csr + directory + "l_shipmode".len());
    }
}
