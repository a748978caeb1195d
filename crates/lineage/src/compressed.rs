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
//!   `O(edges(group) / EDGES_PER_BLOCK)` pages, not the whole index;
//! * a packed block decodes **one 64-bit word per value**: its payload
//!   length is checked once, then each delta is an unaligned little-endian
//!   load, a shift and a mask, written straight into the lookup's result
//!   (no per-byte loop, no scratch block). The encoder and the block bytes
//!   are unchanged.
//!
//! [`CompressedCsrIndex::compressed_bytes`] vs
//! [`CompressedCsrIndex::raw_bytes`] is the compressed-vs-raw `lineage_bytes`
//! comparison the paged benchmarks report.

use std::ops::Range;
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
            if let Some(tail) = page_buf.get_mut(used..) {
                tail.fill(0);
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

    /// How many rids block `block` holds, by the resident offsets: all
    /// [`EDGES_PER_BLOCK`], or what is left in the last block.
    fn block_len(&self, block: usize) -> usize {
        (self.edge_count)
            .saturating_sub(block * EDGES_PER_BLOCK)
            .min(EDGES_PER_BLOCK)
    }

    /// Pins block `block` and appends its rids `range` to `out`. The block
    /// must hold exactly the rids the resident offsets place in it, so a
    /// corrupt count is an error, not a shorter or longer trace.
    fn read_block(
        &self,
        block: usize,
        range: Range<usize>,
        out: &mut Vec<Rid>,
    ) -> Result<(), PagerError> {
        let guard = self.pool.pin(PageId(self.first_page.0 + block as u32))?;
        decode_block(&guard, self.block_len(block), range, out)
    }

    fn entry_range(&self, pos: usize) -> Option<(usize, usize)> {
        let lo = *self.offsets.get(pos)? as usize;
        let hi = *self.offsets.get(pos + 1)? as usize;
        Some((lo, hi))
    }

    /// The rids of entry `pos` (empty when out of bounds), pinning and
    /// decoding only the blocks the entry overlaps, each straight into the
    /// result.
    pub fn lookup(&self, pos: usize) -> Result<Vec<Rid>, PagerError> {
        let Some((lo, hi)) = self.entry_range(pos) else {
            return Ok(Vec::new());
        };
        if lo >= hi {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(hi - lo);
        let mut edge = lo;
        while edge < hi {
            let block = edge / EDGES_PER_BLOCK;
            let base = block * EDGES_PER_BLOCK;
            let block_end = (base + EDGES_PER_BLOCK).min(hi);
            self.read_block(block, edge - base..block_end - base, &mut out)?;
            edge = block_end;
        }
        Ok(out)
    }

    /// Reads every block back into an in-RAM [`CsrRidIndex`] — the inverse
    /// of [`CompressedCsrIndex::spill`], used by round-trip tests.
    pub fn materialize(&self) -> Result<CsrRidIndex, PagerError> {
        let mut rids = Vec::with_capacity(self.edge_count);
        for b in 0..self.blocks as usize {
            self.read_block(b, 0..self.block_len(b), &mut rids)?;
        }
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
        // LSB-first bit packing, flushed 32 bits per store. Fewer than 32
        // bits are pending before each value and `width <= 33`, so `acc`
        // holds at most 64 bits and never overflows.
        let mut acc = 0u64;
        let mut nbits = 0u32;
        let mut at = 8usize;
        let mut prev = first as i64;
        for &rid in rest {
            acc |= zigzag(rid as i64 - prev) << nbits;
            nbits += width;
            prev = rid as i64;
            while nbits >= 32 {
                if let Some(word) = buf.get_mut(at..at + 4) {
                    word.copy_from_slice(&(acc as u32).to_le_bytes());
                }
                at += 4;
                acc >>= 32;
                nbits -= 32;
            }
        }
        // The pending bits, fewer than 32, end the block in whole bytes.
        let tail = nbits.div_ceil(8) as usize;
        let word = (acc as u32).to_le_bytes();
        if let (Some(dst), Some(src)) = (buf.get_mut(at..at + tail), word.get(..tail)) {
            dst.copy_from_slice(src);
        }
        at + tail
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

/// A malformed block: typed [`std::io::ErrorKind::InvalidData`], never a
/// panic or a silently short trace.
fn invalid_data(what: String) -> PagerError {
    PagerError::io(
        "decode compressed lineage block",
        &std::io::Error::new(std::io::ErrorKind::InvalidData, what),
    )
}

/// Decodes rids `range` of one block page, which must hold exactly
/// `expected` rids, and appends them to `out`.
///
/// A packed block is read one 64-bit word per value: the payload length,
/// `4 + ceil((count - 1) * width / 8)` bytes, is checked once, and value
/// `k` is the unaligned little-endian word at byte `bit / 8` of the bit
/// stream, shifted right by `bit % 8` and masked to `width` bits (`bit =
/// (k - 1) * width`). With `width <= 33` and a shift of at most 7, the 40
/// bits needed always fit one word. Values are decoded from the block's
/// first rid up to `range.end`, since each delta needs its predecessor, and
/// every one of them is checked to lie within `u32` before the block
/// returns.
fn decode_block(
    page: &[u8],
    expected: usize,
    range: Range<usize>,
    out: &mut Vec<Rid>,
) -> Result<(), PagerError> {
    let corrupt = || invalid_data("malformed block header".to_string());
    let [tag, width, count_lo, count_hi] = *page.get(..4).ok_or_else(corrupt)? else {
        return Err(corrupt());
    };
    let count = u16::from_le_bytes([count_lo, count_hi]) as usize;
    if count != expected {
        return Err(invalid_data(format!(
            "block holds {count} rids, the offsets place {expected} in it"
        )));
    }
    if range.start > range.end || range.end > count {
        return Err(invalid_data(format!(
            "rids {range:?} overrun a block of {count}"
        )));
    }
    let payload = page.get(4..).ok_or_else(corrupt)?;
    match tag {
        TAG_RAW => {
            let bytes = payload.get(..count * 4).ok_or_else(corrupt)?;
            let (quads, _) = bytes.as_chunks::<4>();
            let quads = quads.get(range).ok_or_else(corrupt)?;
            out.extend(quads.iter().map(|q| u32::from_le_bytes(*q)));
            Ok(())
        }
        TAG_PACKED => {
            let width = width as usize;
            if width > 33 || count == 0 {
                return Err(corrupt());
            }
            let first = *payload.first_chunk::<4>().ok_or_else(corrupt)?;
            let stream_len = ((count - 1) * width).div_ceil(8);
            let bits = payload.get(4..4 + stream_len).ok_or_else(corrupt)?;
            let mask = (1u64 << width) - 1;
            let first = u32::from_le_bytes(first);
            // Every decoded value is OR-ed into `seen`, whose high half must
            // stay clear: a value below 0 or past `u32::MAX` is reported once,
            // after the loop. A delta moves `prev` by less than 2^33, so 1,023
            // of them cannot overflow the `i64`.
            let (mut prev, mut seen, mut bit) = (first as i64, 0u64, 0);
            // Windows are read from the rest of the page: the bits past the
            // stream are masked off, and only a window that would run past
            // the page's end is read zero-padded.
            let words = payload.get(4..).unwrap_or_default();
            let mut next = || {
                let byte = bit / 8;
                let word = match words.get(byte..byte + 8).map(<[u8; 8]>::try_from) {
                    Some(Ok(word)) => u64::from_le_bytes(word),
                    _ => padded_word(bits, byte),
                };
                prev += unzigzag((word >> (bit % 8)) & mask);
                seen |= prev as u64;
                bit += width;
                prev as u32
            };
            let at = out.len();
            out.resize(at + range.len(), 0);
            let mut slots = out.get_mut(at..).unwrap_or_default().iter_mut();
            if range.start == 0 {
                if let Some(slot) = slots.next() {
                    *slot = first;
                }
            }
            for _ in 1..range.start {
                next();
            }
            for slot in slots {
                *slot = next();
            }
            let bad = seen >> 32;
            if bad != 0 {
                out.truncate(at);
                return Err(corrupt());
            }
            Ok(())
        }
        _ => Err(corrupt()),
    }
}

/// The little-endian word at byte `at` of `bits`, zero-padded past its end:
/// the read of a window that would run past the end of its page.
#[cold]
fn padded_word(bits: &[u8], at: usize) -> u64 {
    let rest = bits.get(at..).unwrap_or_default();
    match rest.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut word = [0u8; 8];
            if let Some(head) = word.get_mut(..rest.len()) {
                head.copy_from_slice(rest);
            }
            u64::from_le_bytes(word)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        let slots: Vec<u32> = (0..rows).map(|rid| (rid % groups) as u32).collect();
        CsrRidIndex::from_slots(&slots, groups, 0)
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
        let csr = CsrRidIndex::from_parts(vec![0, rids.len() as u32], rids);
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

        let one = CsrRidIndex::from_slots(&[0], 1, 42);
        let comp = CompressedCsrIndex::spill(&one, &p).unwrap();
        assert_eq!(comp.lookup(0).unwrap(), vec![42]);
        assert_eq!(comp.blocks_touched(0), 1);
    }

    /// The byte-at-a-time encoder [`encode_block`] replaced, kept verbatim
    /// as the reference its bytes must match.
    fn encode_block_bytewise(rids: &[Rid], buf: &mut [u8]) -> usize {
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
            buf[..4].copy_from_slice(&[TAG_PACKED, width as u8, count as u8, (count >> 8) as u8]);
            buf[4..8].copy_from_slice(&first.to_le_bytes());
            let mut acc = 0u64;
            let mut nbits = 0u32;
            let mut at = 8usize;
            let mut prev = first as i64;
            for &rid in rest {
                acc |= zigzag(rid as i64 - prev) << nbits;
                nbits += width;
                prev = rid as i64;
                while nbits >= 8 {
                    buf[at] = acc as u8;
                    at += 1;
                    acc >>= 8;
                    nbits -= 8;
                }
            }
            if nbits > 0 {
                buf[at] = acc as u8;
                at += 1;
            }
            at
        } else {
            buf[..4].copy_from_slice(&[TAG_RAW, 0, count as u8, (count >> 8) as u8]);
            let mut at = 4usize;
            for &rid in rids {
                buf[at..at + 4].copy_from_slice(&rid.to_le_bytes());
                at += 4;
            }
            at
        }
    }

    /// `len` rids shaped by `shape`: a walk whose zigzag deltas are at most
    /// `width` bits wide (reflected at the `u32` bounds), or one of the
    /// extreme patterns.
    fn block_rids(len: usize, width: u32, shape: u8, start: u32, mut seed: u64) -> Vec<Rid> {
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        match shape {
            0 => {
                let mut rid = start as i64;
                (0..len)
                    .map(|i| {
                        if i > 0 && width > 0 {
                            let zz = next() & ((1u64 << width) - 1);
                            let delta = unzigzag(zz);
                            rid = match rid + delta {
                                r if (0..=u32::MAX as i64).contains(&r) => r,
                                _ => (rid - delta).clamp(0, u32::MAX as i64),
                            };
                        }
                        rid as Rid
                    })
                    .collect()
            }
            1 => (0..len)
                .map(|i| if i % 2 == 0 { 0 } else { u32::MAX })
                .collect(),
            2 => vec![u32::MAX; len],
            _ => (0..len).map(|i| u32::MAX - i as u32).collect(),
        }
    }

    /// The byte-at-a-time decoder [`decode_block`] replaced, kept verbatim
    /// as the reference its rids and errors must match: it decodes the
    /// whole block into `out` (cleared first).
    fn decode_block_bytewise(
        page: &[u8],
        expected: usize,
        out: &mut Vec<Rid>,
    ) -> Result<(), PagerError> {
        out.clear();
        let corrupt = || invalid_data("malformed block header".to_string());
        let [tag, width, count_lo, count_hi] = *page.get(..4).ok_or_else(corrupt)? else {
            return Err(corrupt());
        };
        let count = u16::from_le_bytes([count_lo, count_hi]) as usize;
        if count != expected {
            return Err(invalid_data(format!(
                "block holds {count} rids, the offsets place {expected} in it"
            )));
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

    /// Cases per property: a Miri-sized count under Miri, whose CI job runs
    /// this crate's unit suite.
    #[cfg(not(miri))]
    const CASES: u32 = 256;
    #[cfg(miri)]
    const CASES: u32 = 4;

    /// Corrupts an encoded block page in place by `damage`, and returns the
    /// rid count to decode it against: 0 leaves it whole; 1 cuts the page
    /// short at `at` bytes; 2 misstates the count; 3 sets a packed width
    /// past 33; 4 overwrites the first rid with `at`, which can walk a
    /// packed block's later values out of `u32`, or with a value within 64
    /// of either end of `u32`, which makes that likelier.
    fn damage_block(page: &mut Vec<u8>, len: usize, damage: u8, at: u32) -> usize {
        match damage {
            1 => {
                page.truncate(at as usize % (4 + 4 * len + 1));
                len
            }
            2 => len + 1 - 2 * usize::from(at.is_multiple_of(2) && len > 1),
            3 if page.first() == Some(&TAG_PACKED) => {
                if let Some(width) = page.get_mut(1) {
                    *width = 34 + (at % 222) as u8;
                }
                len
            }
            4 => {
                let rid = match at % 3 {
                    0 => at,
                    1 => at % 64,
                    _ => u32::MAX - at % 64,
                };
                if let Some(first) = page.get_mut(4..8) {
                    first.copy_from_slice(&rid.to_le_bytes());
                }
                len
            }
            _ => len,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// The word-at-a-time encoder writes the same bytes, and nothing past
        /// them, as the byte-at-a-time one: for every block length, every
        /// delta width up to 33 bits, the raw fallback and the `u32`
        /// extremes. The word-at-a-time decoder returns the rids the
        /// byte-at-a-time one does, over the whole block and over any
        /// sub-range of it.
        #[test]
        fn encoder_is_byte_identical(
            len in 1usize..EDGES_PER_BLOCK + 1,
            width in 0u32..34,
            shape in 0u8..5,
            start in 0u32..u32::MAX,
            seed in 1u64..u64::MAX,
            cut in 0u32..u32::MAX,
        ) {
            let rids = block_rids(len, width, shape.min(3), start, seed);
            let (mut want, mut got) = (vec![0xA5u8; PAGE_SIZE], vec![0xA5u8; PAGE_SIZE]);
            let used = encode_block_bytewise(&rids, &mut want);
            prop_assert_eq!(encode_block(&rids, &mut got), used);
            prop_assert!(want == got, "len {len} width {width} shape {shape}");
            let mut reference = Vec::new();
            decode_block_bytewise(&got, len, &mut reference).unwrap();
            prop_assert_eq!(&reference, &rids);
            let mut back = vec![7];
            decode_block(&got, len, 0..len, &mut back).unwrap();
            prop_assert_eq!(back.get(1..), Some(&rids[..]));
            let (lo, hi) = (cut as usize % len, (cut as usize / len) % len);
            let range = lo.min(hi)..lo.max(hi) + 1;
            back.clear();
            decode_block(&got, len, range.clone(), &mut back).unwrap();
            prop_assert_eq!(&back[..], &rids[range]);
        }

        /// On a damaged block (a truncated payload, a wrong count, a width
        /// past 33, a first rid that walks a later value out of `u32`) the
        /// word-at-a-time decoder fails exactly when the byte-at-a-time one
        /// does, with the same error, and otherwise agrees with it.
        #[test]
        fn decoder_errs_like_the_bytewise_one(
            len in 1usize..EDGES_PER_BLOCK + 1,
            width in 0u32..34,
            shape in 0u8..5,
            start in 0u32..u32::MAX,
            seed in 1u64..u64::MAX,
            damage in 0u8..5,
            at in 0u32..u32::MAX,
        ) {
            let rids = block_rids(len, width, shape.min(3), start, seed);
            let mut page = vec![0u8; PAGE_SIZE];
            let used = encode_block(&rids, &mut page);
            page.truncate(used);
            let expected = damage_block(&mut page, len, damage, at);
            let mut want = Vec::new();
            let want = decode_block_bytewise(&page, expected, &mut want).map(|()| want);
            let mut got = Vec::new();
            let got = decode_block(&page, expected, 0..expected, &mut got).map(|()| got);
            prop_assert_eq!(got, want, "len {len} width {width} damage {damage}");
        }
    }

    #[test]
    fn a_delta_below_zero_or_past_u32_is_invalid_data() {
        // Packed, width 2, two rids: the first verbatim, then zigzag 1
        // (a delta of -1) from 0, or zigzag 2 (+1) from `u32::MAX`.
        for (first, zz) in [(0u32, 1u8), (u32::MAX, 2)] {
            let mut page = vec![TAG_PACKED, 2, 2, 0];
            page.extend_from_slice(&first.to_le_bytes());
            page.push(zz);
            let mut out = vec![9];
            let got = decode_block(&page, 2, 0..2, &mut out);
            let mut want = Vec::new();
            assert_eq!(got, decode_block_bytewise(&page, 2, &mut want));
            let Err(PagerError::Io { cause, .. }) = got else {
                panic!("first {first}, zigzag {zz}: {got:?}");
            };
            assert!(cause.contains("malformed block"), "{cause}");
            assert_eq!(out, vec![9], "a failed decode appends nothing");
        }
    }

    #[test]
    fn encoder_covers_every_width_and_the_raw_fallback() {
        // Full blocks at each width: 32 and 33 bits do not beat raw.
        for width in 0..34 {
            let rids = block_rids(EDGES_PER_BLOCK, width, 0, 1 << 31, 0x9E37_79B9);
            let (mut want, mut got) = (vec![0u8; PAGE_SIZE], vec![0u8; PAGE_SIZE]);
            let used = encode_block_bytewise(&rids, &mut want);
            assert_eq!(encode_block(&rids, &mut got), used, "width {width}");
            assert_eq!(want, got, "width {width}");
            let tag = if width >= 32 { TAG_RAW } else { TAG_PACKED };
            assert_eq!(got[0], tag, "width {width}");
        }
    }

    /// One entry of 3,000 ascending rids: blocks of 1024, 1024 and 952.
    fn three_block_index(p: &Arc<BufferPool>) -> (CsrRidIndex, CompressedCsrIndex) {
        let csr = skewed_csr(1, 3000);
        let comp = CompressedCsrIndex::spill(&csr, p).unwrap();
        assert_eq!(comp.pages(), 3);
        (csr, comp)
    }

    #[test]
    fn a_corrupt_block_count_is_an_error_not_a_short_trace() {
        // A block that claims fewer rids than the offsets place in it (block
        // 1: 10 of 1024), or more (block 2: 1000 of 952), must fail both the
        // entry lookup and the full read-back.
        for (block, count) in [(1u32, 10u16), (2, 1000)] {
            let p = pool(4);
            let (csr, comp) = three_block_index(&p);
            assert_eq!(comp.lookup(0).unwrap(), csr.get(0));
            p.with_page_mut(PageId(comp.first_page.0 + block), |page| {
                page[2..4].copy_from_slice(&count.to_le_bytes());
            })
            .unwrap();
            for got in [comp.lookup(0).map(drop), comp.materialize().map(drop)] {
                let Err(PagerError::Io { cause, .. }) = got else {
                    panic!("block {block} with count {count}: {got:?}");
                };
                assert!(cause.contains(&format!("holds {count} rids")), "{cause}");
            }
        }
    }

    #[test]
    fn u32_extremes_survive() {
        let csr = CsrRidIndex::from_parts(vec![0, 5], vec![0, u32::MAX, 0, 1, u32::MAX - 1]);
        let comp = CompressedCsrIndex::spill(&csr, &pool(1)).unwrap();
        assert_eq!(comp.materialize().unwrap(), csr);
    }
}
