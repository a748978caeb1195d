//! Out-of-core compressed CSR lineage: delta + bit-packed rid blocks behind
//! a buffer pool.
//!
//! A [`CsrRidIndex`] holds every lineage edge in one flat in-RAM buffer —
//! 4 bytes per edge. For the out-of-core engine that buffer is the dominant
//! lineage cost at scale, so [`CompressedCsrIndex`] spills it to the pool's
//! segment store in self-contained **blocks** of [`EDGES_PER_BLOCK`] edges,
//! one page per block:
//!
//! * the `offsets` buffer (4 bytes per *entry*, typically orders of
//!   magnitude smaller than the edge buffer for skewed workloads) stays
//!   resident, so locating an entry's edges never touches a page;
//! * each block encodes its slice of the rid buffer as **zigzag deltas**
//!   bit-packed to the block's widest delta. Backward lineage rids are
//!   ascending within an entry (capture order), so deltas are small and
//!   skewed group-by indexes compress far below 4 bytes/edge;
//! * a block whose packed form would not beat raw layout falls back to
//!   verbatim little-endian `u32`s — the per-block `tag` byte makes every
//!   block self-describing, so adversarial rid patterns cost at most raw
//!   size plus the 4-byte header;
//! * [`CompressedCsrIndex::lookup`] pins and decodes **only the blocks the
//!   requested entry overlaps** — a backward trace of one group touches
//!   `O(edges(group) / EDGES_PER_BLOCK)` pages, not the whole index.
//!
//! [`CompressedCsrIndex::compressed_bytes`] vs
//! [`CompressedCsrIndex::raw_bytes`] is the compressed-vs-raw `lineage_bytes`
//! comparison the paged benchmarks report.

use std::sync::Arc;

use smoke_pager::{BufferPool, PageId, PagerError, PAGE_SIZE};
use smoke_storage::Rid;

use crate::csr::CsrRidIndex;

/// Edges per compressed block. Raw fallback needs `4 + 4 * 1024` bytes and
/// the widest possible packed form `4 + ceil(1024 * 33 / 8)` bytes — both
/// comfortably under [`PAGE_SIZE`], so every block always fits its page.
pub const EDGES_PER_BLOCK: usize = 1024;

/// Block header byte for raw (verbatim `u32`) payloads.
const TAG_RAW: u8 = 0;
/// Block header byte for zigzag-delta bit-packed payloads.
const TAG_PACKED: u8 = 1;

/// A 1-to-N lineage index whose offsets stay in RAM while the edge buffer
/// lives compressed in a [`BufferPool`]-backed segment store.
#[derive(Debug, Clone)]
pub struct CompressedCsrIndex {
    offsets: Vec<u32>,
    first_page: PageId,
    blocks: u32,
    edge_count: usize,
    compressed_bytes: usize,
    pool: Arc<BufferPool>,
}

impl CompressedCsrIndex {
    /// Spills `csr`'s edge buffer into `pool`'s segment store, one encoded
    /// block per page. Pages are written directly to the store (bypassing
    /// pool frames) so spilling an index cannot evict a query's working set.
    pub fn spill(csr: &CsrRidIndex, pool: &Arc<BufferPool>) -> Result<Self, PagerError> {
        let rids = csr.rids();
        let blocks = rids.len().div_ceil(EDGES_PER_BLOCK) as u32;
        let first_page = pool.allocate(blocks);
        let mut page_buf = vec![0u8; PAGE_SIZE];
        let mut compressed_bytes = 0usize;
        for (b, block) in rids.chunks(EDGES_PER_BLOCK).enumerate() {
            let used = encode_block(block, &mut page_buf);
            compressed_bytes += used;
            for slot in page_buf.iter_mut().skip(used) {
                *slot = 0;
            }
            pool.store()
                .write_page(PageId(first_page.0 + b as u32), &page_buf)?;
        }
        Ok(CompressedCsrIndex {
            offsets: csr.offsets().to_vec(),
            first_page,
            blocks,
            edge_count: rids.len(),
            compressed_bytes,
            pool: Arc::clone(pool),
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of edges stored.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of pages the edge buffer occupies.
    pub fn pages(&self) -> u32 {
        self.blocks
    }

    /// Encoded size of the edge blocks in bytes (headers included).
    pub fn compressed_bytes(&self) -> usize {
        self.compressed_bytes
    }

    /// What the same edges cost in raw (in-RAM CSR) form: 4 bytes per edge.
    pub fn raw_bytes(&self) -> usize {
        self.edge_count * std::mem::size_of::<Rid>()
    }

    /// Resident footprint: the offsets buffer plus metadata. The edge pages
    /// live in the segment store, bounded by the pool budget.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
    }

    /// The distinct blocks (pages) entry `pos` overlaps — what a backward
    /// trace of that entry must pin and decode.
    pub fn blocks_touched(&self, pos: usize) -> usize {
        let (lo, hi) = match self.entry_range(pos) {
            Some(range) => range,
            None => return 0,
        };
        if lo == hi {
            return 0;
        }
        (hi - 1) / EDGES_PER_BLOCK - lo / EDGES_PER_BLOCK + 1
    }

    fn entry_range(&self, pos: usize) -> Option<(usize, usize)> {
        let lo = *self.offsets.get(pos)? as usize;
        let hi = *self.offsets.get(pos + 1)? as usize;
        Some((lo, hi))
    }

    /// The rids of entry `pos` (empty when out of bounds), pinning and
    /// decoding only the blocks the entry overlaps.
    pub fn lookup(&self, pos: usize) -> Result<Vec<Rid>, PagerError> {
        let Some((lo, hi)) = self.entry_range(pos) else {
            return Ok(Vec::new());
        };
        if lo >= hi {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(hi - lo);
        let mut edge = lo;
        let mut decoded = Vec::with_capacity(EDGES_PER_BLOCK);
        while edge < hi {
            let block = edge / EDGES_PER_BLOCK;
            let block_end = ((block + 1) * EDGES_PER_BLOCK).min(hi);
            {
                let guard = self.pool.pin(PageId(self.first_page.0 + block as u32))?;
                decode_block(&guard, &mut decoded)?;
            }
            let base = block * EDGES_PER_BLOCK;
            out.extend_from_slice(
                decoded
                    .get(edge - base..block_end - base)
                    .unwrap_or_default(),
            );
            edge = block_end;
        }
        Ok(out)
    }

    /// Reads every block back into an in-RAM [`CsrRidIndex`] — the inverse
    /// of [`CompressedCsrIndex::spill`], used by round-trip tests.
    pub fn materialize(&self) -> Result<CsrRidIndex, PagerError> {
        let mut rids = Vec::with_capacity(self.edge_count);
        let mut decoded = Vec::with_capacity(EDGES_PER_BLOCK);
        for b in 0..self.blocks {
            let guard = self.pool.pin(PageId(self.first_page.0 + b))?;
            decode_block(&guard, &mut decoded)?;
            rids.extend_from_slice(&decoded);
        }
        rids.truncate(self.edge_count);
        Ok(CsrRidIndex::from_parts(self.offsets.clone(), rids))
    }
}

#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[inline]
fn unzigzag(zz: u64) -> i64 {
    ((zz >> 1) as i64) ^ -((zz & 1) as i64)
}

/// Encodes one block of rids into `buf`, returning the number of bytes
/// used.
///
/// Packed layout: `[tag=1, width, count u16 LE, first u32 LE, bits...]` —
/// the first rid is stored verbatim and the remaining `count - 1` values as
/// zigzag deltas bit-packed to the block's widest delta, so a block that
/// starts mid-entry (large absolute rid, small strides) still packs to the
/// stride width. Raw layout: `[tag=0, 0, count u16 LE, u32 LE...]`.
fn encode_block(rids: &[Rid], buf: &mut [u8]) -> usize {
    let count = rids.len() as u16;
    let raw_len = 4 + rids.len() * 4;
    let (first, rest) = match rids.split_first() {
        Some((&first, rest)) => (first, rest),
        None => (0, rids),
    };
    let mut width = 0u32;
    let mut prev = first as i64;
    for &rid in rest {
        let zz = zigzag(rid as i64 - prev);
        width = width.max(64 - zz.leading_zeros());
        prev = rid as i64;
    }
    let packed_len = 8 + (rest.len() * width as usize).div_ceil(8);
    if !rids.is_empty() && packed_len < raw_len {
        if let Some(h) = buf.get_mut(..4) {
            h.copy_from_slice(&[TAG_PACKED, width as u8, count as u8, (count >> 8) as u8]);
        }
        if let Some(h) = buf.get_mut(4..8) {
            h.copy_from_slice(&first.to_le_bytes());
        }
        // LSB-first bit packing. `width <= 33` and the accumulator is
        // drained below 8 bits each step, so `acc` never overflows.
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut at = 8usize;
        let mut prev = first as i64;
        for &rid in rest {
            acc |= zigzag(rid as i64 - prev) << nbits;
            nbits += width;
            prev = rid as i64;
            while nbits >= 8 {
                if let Some(slot) = buf.get_mut(at) {
                    *slot = acc as u8;
                }
                at += 1;
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            if let Some(slot) = buf.get_mut(at) {
                *slot = acc as u8;
            }
            at += 1;
        }
        at
    } else {
        if let Some(h) = buf.get_mut(..4) {
            h.copy_from_slice(&[TAG_RAW, 0, count as u8, (count >> 8) as u8]);
        }
        let mut at = 4usize;
        for &rid in rids {
            if let Some(slot) = buf.get_mut(at..at + 4) {
                slot.copy_from_slice(&rid.to_le_bytes());
            }
            at += 4;
        }
        at
    }
}

/// Decodes one block page into `out` (cleared first).
fn decode_block(page: &[u8], out: &mut Vec<Rid>) -> Result<(), PagerError> {
    out.clear();
    let corrupt = || {
        PagerError::io(
            "decode compressed lineage block",
            &std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed block header"),
        )
    };
    let [tag, width, count_lo, count_hi] = *page.get(..4).ok_or_else(corrupt)? else {
        return Err(corrupt());
    };
    let count = u16::from_le_bytes([count_lo, count_hi]) as usize;
    if count > EDGES_PER_BLOCK {
        return Err(corrupt());
    }
    let payload = page.get(4..).ok_or_else(corrupt)?;
    match tag {
        TAG_RAW => {
            let bytes = payload.get(..count * 4).ok_or_else(corrupt)?;
            for quad in bytes.chunks_exact(4) {
                let [a, b, c, d] = *quad else {
                    return Err(corrupt());
                };
                out.push(u32::from_le_bytes([a, b, c, d]));
            }
            Ok(())
        }
        TAG_PACKED => {
            let width = width as u32;
            if width > 33 || count == 0 {
                return Err(corrupt());
            }
            let first_bytes = payload.get(..4).ok_or_else(corrupt)?;
            let [a, b, c, d] = *first_bytes else {
                return Err(corrupt());
            };
            let first = u32::from_le_bytes([a, b, c, d]);
            out.push(first);
            let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
            let mut acc = 0u64;
            let mut nbits = 0u32;
            let mut at = 4usize;
            let mut prev = first as i64;
            for _ in 1..count {
                while nbits < width {
                    let byte = *payload.get(at).ok_or_else(corrupt)?;
                    acc |= (byte as u64) << nbits;
                    at += 1;
                    nbits += 8;
                }
                let zz = acc & mask;
                acc >>= width;
                nbits -= width;
                let value = prev + unzigzag(zz);
                if !(0..=u32::MAX as i64).contains(&value) {
                    return Err(corrupt());
                }
                out.push(value as u32);
                prev = value;
            }
            Ok(())
        }
        _ => Err(corrupt()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use smoke_pager::{ReplacementPolicy, SegmentStore};

    fn pool(budget: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            SegmentStore::in_memory(),
            budget,
            ReplacementPolicy::Sieve,
        ))
    }

    /// A skewed group-by-shaped CSR: entry g holds the ascending rids
    /// congruent to g modulo the group count.
    fn skewed_csr(groups: usize, rows: usize) -> CsrRidIndex {
        let counts: Vec<usize> = (0..groups)
            .map(|g| rows / groups + usize::from(g < rows % groups))
            .collect();
        let mut b = CsrBuilder::with_counts(counts);
        for rid in 0..rows {
            b.append(rid % groups, rid as Rid);
        }
        b.finish()
    }

    #[test]
    fn round_trip_equals_source() {
        let csr = skewed_csr(7, 5000);
        let p = pool(2);
        let comp = CompressedCsrIndex::spill(&csr, &p).unwrap();
        assert_eq!(comp.len(), csr.len());
        assert_eq!(comp.edge_count(), csr.edge_count());
        assert_eq!(comp.materialize().unwrap(), csr);
        for g in 0..csr.len() {
            assert_eq!(comp.lookup(g).unwrap(), csr.get(g), "entry {g}");
        }
        assert_eq!(comp.lookup(99).unwrap(), Vec::<Rid>::new());
    }

    #[test]
    fn skewed_index_compresses_below_half_raw() {
        // Constant stride 7 within each entry → tiny zigzag deltas.
        let csr = skewed_csr(7, 100_000);
        let comp = CompressedCsrIndex::spill(&csr, &pool(2)).unwrap();
        assert!(
            comp.compressed_bytes() * 2 <= comp.raw_bytes(),
            "compressed {} vs raw {}",
            comp.compressed_bytes(),
            comp.raw_bytes()
        );
    }

    #[test]
    fn adversarial_rids_fall_back_to_raw() {
        // Alternating extremes make every delta ~2^32: packing would need 33
        // bits/edge, worse than raw, so blocks must fall back.
        let rids: Vec<Rid> = (0..3000)
            .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
            .collect();
        let n = rids.len();
        let mut b = CsrBuilder::with_counts([n]);
        for r in rids {
            b.append(0, r);
        }
        let csr = b.finish();
        let comp = CompressedCsrIndex::spill(&csr, &pool(2)).unwrap();
        assert!(comp.compressed_bytes() <= comp.raw_bytes() + 4 * comp.pages() as usize);
        assert_eq!(comp.materialize().unwrap(), csr);
    }

    #[test]
    fn lookup_touches_only_overlapping_blocks() {
        let csr = skewed_csr(10, 20_480); // 2048 edges per entry, 20 blocks
        let p = pool(4);
        let comp = CompressedCsrIndex::spill(&csr, &p).unwrap();
        assert_eq!(comp.pages(), 20);
        p.reset_stats();
        let got = comp.lookup(0).unwrap();
        assert_eq!(got.len(), 2048);
        // Entry 0 occupies edges [0, 2048): exactly blocks 0 and 1.
        assert_eq!(comp.blocks_touched(0), 2);
        assert_eq!(p.stats().disk_reads, 2);
    }

    #[test]
    fn empty_and_single_edge_indexes() {
        let p = pool(1);
        let empty = CompressedCsrIndex::spill(&CsrRidIndex::new(), &p).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.pages(), 0);
        assert_eq!(empty.materialize().unwrap(), CsrRidIndex::new());

        let mut b = CsrBuilder::with_counts([1usize]);
        b.append(0, 42);
        let one = b.finish();
        let comp = CompressedCsrIndex::spill(&one, &p).unwrap();
        assert_eq!(comp.lookup(0).unwrap(), vec![42]);
        assert_eq!(comp.blocks_touched(0), 1);
    }

    #[test]
    fn u32_extremes_survive() {
        let mut b = CsrBuilder::with_counts([5usize]);
        for r in [0, u32::MAX, 0, 1, u32::MAX - 1] {
            b.append(0, r);
        }
        let csr = b.finish();
        let comp = CompressedCsrIndex::spill(&csr, &pool(1)).unwrap();
        assert_eq!(comp.materialize().unwrap(), csr);
    }
}
