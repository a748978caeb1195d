//! The budgeted buffer pool: at most `capacity` pages resident at once.
//!
//! [`BufferPool::pin`] returns a [`PageGuard`] — an RAII pin whose `Deref`
//! is the page's bytes. A pinned frame is never evicted; dropping the guard
//! unpins it. Reads off a guard take no lock (the guard holds an `Arc` to
//! the frame's buffer); all pool bookkeeping happens under one internal
//! mutex at pin/unpin time. Writes go through [`BufferPool::with_page_mut`],
//! which marks the frame dirty; dirty pages are written back to the
//! [`SegmentStore`] on eviction or [`BufferPool::flush`].
//!
//! A pool owns no threads: every page enters a frame through a demand pin
//! on the caller's thread.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::PagerError;
use crate::page::{PageId, PAGE_SIZE};
use crate::replacer::{ReplacementPolicy, Sieve};
use crate::store::SegmentStore;

/// Counter snapshot of a pool's behaviour since creation (or the last
/// [`BufferPool::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Pins that had to load the page from the store.
    pub misses: u64,
    /// Resident pages pushed out to make room.
    pub evictions: u64,
    /// Physical page reads issued to the store (one per demand miss).
    pub disk_reads: u64,
    /// Physical page writes issued to the store (write-back + flush).
    pub disk_writes: u64,
    /// Always 0: the pool has no prefetcher. Kept only because the frozen
    /// benchmark names every field (ROADMAP 11(g)).
    pub prefetch_loads: u64,
    /// Always 0; kept for the frozen benchmark (ROADMAP 11(g)).
    pub prefetch_hits: u64,
    /// Always 0; kept for the frozen benchmark (ROADMAP 11(g)).
    pub prefetch_wasted: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]`. A zero-access window has hit nothing, so
    /// an untouched pool reports `0.0` (never `NaN`).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    page: Option<PageId>,
    data: Arc<Vec<u8>>,
    dirty: bool,
    pins: u32,
}

impl Frame {
    /// Holds a page that no guard pins, so the replacer may take it.
    fn evictable(&self) -> bool {
        self.page.is_some() && self.pins == 0
    }
}

/// Every frame is in exactly one of two places: on `free` (empty) or in
/// `replacer`'s queue (holding a page), so `free.len() + replacer.len()`
/// is always the pool's capacity.
struct PoolInner {
    frames: Vec<Frame>,
    /// page id → frame index for resident pages.
    table: HashMap<u32, usize>,
    replacer: Sieve,
    stats: PoolStats,
    /// Empty frames, popped in O(1) by a miss before it asks the replacer
    /// for a victim. Built in reverse, so a filling pool fills frame 0 first.
    free: Vec<usize>,
}

impl PoolInner {
    /// A frame to load a page into: a free one if any, else SIEVE's victim
    /// among the unpinned frames.
    fn claim_frame(&mut self) -> Option<usize> {
        self.free.pop().or_else(|| {
            self.replacer
                .victim(|f| self.frames.get(f).is_some_and(Frame::evictable))
        })
    }
}

/// A fixed-budget page cache over a [`SegmentStore`].
pub struct BufferPool {
    store: SegmentStore,
    inner: Mutex<PoolInner>,
    capacity: usize,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the pool mutex can only come from a replacer or
    // allocator bug; the bookkeeping it protects is still structurally
    // valid, so recover the guard rather than poisoning every future pin.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl BufferPool {
    /// A pool of `budget_pages` frames over `store`, with SIEVE replacement.
    /// The budget is a hard cap: the pool allocates exactly
    /// `budget_pages × PAGE_SIZE` bytes of frame memory up front and never
    /// more. The policy argument has one variant and is kept only because
    /// the frozen benchmark passes it (ROADMAP 11(c), 11(g)).
    pub fn new(store: SegmentStore, budget_pages: usize, _policy: ReplacementPolicy) -> Self {
        let capacity = budget_pages.max(1);
        let frames = (0..capacity)
            .map(|_| Frame {
                page: None,
                data: Arc::new(vec![0u8; PAGE_SIZE]),
                dirty: false,
                pins: 0,
            })
            .collect();
        BufferPool {
            store,
            inner: Mutex::new(PoolInner {
                frames,
                table: HashMap::with_capacity(capacity),
                replacer: Sieve::new(capacity),
                stats: PoolStats::default(),
                free: (0..capacity).rev().collect(),
            }),
            capacity,
        }
    }

    /// The pool's page-count budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The backing store (for allocation and raw-size queries).
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// Allocates a contiguous run of `n` fresh pages in the backing store.
    pub fn allocate(&self, n: u32) -> PageId {
        self.store.allocate(n)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        relock(&self.inner).stats
    }

    /// Zeroes the counters (the benches do this between cold and warm runs).
    pub fn reset_stats(&self) {
        relock(&self.inner).stats = PoolStats::default();
    }

    /// Whether `page` is currently resident (no pin taken).
    pub fn is_resident(&self, page: PageId) -> bool {
        relock(&self.inner).table.contains_key(&page.0)
    }

    /// Fraction of `pages` currently resident, in `[0, 1]`. The planner's
    /// I/O cost term uses this to discount already-cached reads. An empty
    /// page set has no resident pages, so it reports `0.0` (never `NaN`).
    pub fn resident_fraction(&self, pages: &[PageId]) -> f64 {
        if pages.is_empty() {
            return 0.0;
        }
        let inner = relock(&self.inner);
        let hits = pages
            .iter()
            .filter(|p| inner.table.contains_key(&p.0))
            .count();
        hits as f64 / pages.len() as f64
    }

    /// Ensures `page` is resident and returns its frame index with the pin
    /// count already incremented. Caller holds the lock.
    fn pin_frame(&self, inner: &mut PoolInner, page: PageId) -> Result<usize, PagerError> {
        if let Some(&f) = inner.table.get(&page.0) {
            inner.stats.hits += 1;
            inner.replacer.on_access(f);
            if let Some(frame) = inner.frames.get_mut(f) {
                frame.pins += 1;
            }
            return Ok(f);
        }
        // A bad id must fail before it costs another page its frame.
        let allocated = self.store.page_count();
        if page.0 >= allocated {
            return Err(PagerError::PageOutOfBounds { page, allocated });
        }
        inner.stats.misses += 1;
        let f = inner.claim_frame().ok_or(PagerError::PoolExhausted {
            capacity: self.capacity,
        })?;
        self.evict(inner, f)?;
        // Load the requested page. The frame's buffer is exclusively owned
        // here (pins == 0 and no live guards), so `make_mut` is in-place.
        if let Some(frame) = inner.frames.get_mut(f) {
            let buf = Arc::make_mut(&mut frame.data);
            if let Err(e) = self.store.read_page(page, buf) {
                inner.free.push(f);
                return Err(e);
            }
            inner.stats.disk_reads += 1;
            frame.page = Some(page);
            frame.pins += 1;
        }
        inner.table.insert(page.0, f);
        inner.replacer.on_admit(f);
        // Debug only: frame accounting that no write reads.
        debug_assert_eq!(inner.free.len() + inner.replacer.len(), self.capacity);
        Ok(f)
    }

    /// Writes back and unmaps the page in frame `f`, if it holds one. A
    /// failed write-back leaves the page where it is and re-admits the
    /// frame to the replacer (`victim` dequeued it), so the error neither
    /// loses a frame nor leaves the page mapped to a frame that is refilled.
    fn evict(&self, inner: &mut PoolInner, f: usize) -> Result<(), PagerError> {
        let Some(frame) = inner.frames.get_mut(f) else {
            return Ok(());
        };
        let Some(old) = frame.page else {
            return Ok(());
        };
        if frame.dirty {
            if let Err(e) = self.store.write_page(old, &frame.data) {
                inner.replacer.on_admit(f);
                return Err(e);
            }
            inner.stats.disk_writes += 1;
            frame.dirty = false;
        }
        frame.page = None;
        inner.table.remove(&old.0);
        inner.stats.evictions += 1;
        Ok(())
    }

    fn unpin(&self, frame: usize) {
        let mut inner = relock(&self.inner);
        if let Some(fr) = inner.frames.get_mut(frame) {
            fr.pins = fr.pins.saturating_sub(1);
        }
    }

    /// Pins `page`, loading it from the store on a miss (evicting an
    /// unpinned frame if the pool is full). Fails with
    /// [`PagerError::PoolExhausted`] when every frame is pinned.
    pub fn pin(&self, page: PageId) -> Result<PageGuard<'_>, PagerError> {
        let mut inner = relock(&self.inner);
        let f = self.pin_frame(&mut inner, page)?;
        let data = inner
            .frames
            .get(f)
            .map(|fr| Arc::clone(&fr.data))
            .unwrap_or_default();
        Ok(PageGuard {
            pool: self,
            frame: f,
            page,
            data,
        })
    }

    /// Runs `mutate` over the bytes of `page` (loading it first if needed)
    /// and marks the frame dirty. Readers holding guards on the same page
    /// keep their pre-mutation snapshot; new pins observe the mutation.
    pub fn with_page_mut<R>(
        &self,
        page: PageId,
        mutate: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, PagerError> {
        let mut inner = relock(&self.inner);
        let f = self.pin_frame(&mut inner, page)?;
        match inner.frames.get_mut(f) {
            Some(frame) => {
                frame.dirty = true;
                let r = mutate(Arc::make_mut(&mut frame.data).as_mut_slice());
                frame.pins = frame.pins.saturating_sub(1);
                Ok(r)
            }
            None => Err(PagerError::PageOutOfBounds {
                page,
                allocated: self.store.page_count(),
            }),
        }
    }

    /// Writes every dirty resident page back to the store.
    pub fn flush(&self) -> Result<(), PagerError> {
        let mut inner = relock(&self.inner);
        let mut writes = 0u64;
        for frame in inner.frames.iter_mut() {
            if let (Some(page), true) = (frame.page, frame.dirty) {
                self.store.write_page(page, &frame.data)?;
                frame.dirty = false;
                writes += 1;
            }
        }
        inner.stats.disk_writes += writes;
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// An RAII pin on one page. Deref yields the page's `PAGE_SIZE` bytes;
/// dropping the guard unpins the frame. Holding a guard pins real budget —
/// never hold one across blocking I/O or another long-lived acquisition
/// (the `pin-guard-no-io` lint enforces this on the server's request path).
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    frame: usize,
    page: PageId,
    data: Arc<Vec<u8>>,
}

impl PageGuard<'_> {
    /// The pinned page's id.
    pub fn page(&self) -> PageId {
        self.page
    }
}

impl Deref for PageGuard<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

impl std::fmt::Debug for PageGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGuard")
            .field("page", &self.page)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(pool: &BufferPool, pages: u32) {
        let first = pool.allocate(pages);
        assert_eq!(first, PageId(0));
        for p in 0..pages {
            pool.with_page_mut(PageId(p), |buf| buf.fill(p as u8))
                .unwrap();
        }
        pool.flush().unwrap();
        pool.reset_stats();
    }

    fn pool(pages: u32, budget: usize) -> BufferPool {
        let pool = BufferPool::new(SegmentStore::in_memory(), budget, ReplacementPolicy::Sieve);
        fill(&pool, pages);
        pool
    }

    #[test]
    fn pins_read_page_contents() {
        let pool = pool(4, 2);
        for p in 0..4u32 {
            let g = pool.pin(PageId(p)).unwrap();
            assert_eq!(g.len(), PAGE_SIZE);
            assert!(g.iter().all(|&b| b == p as u8), "page {p}");
            assert_eq!(g.page(), PageId(p));
        }
    }

    #[test]
    fn budget_is_a_hard_cap_with_eviction() {
        let pool = pool(8, 2);
        for p in 0..8u32 {
            pool.pin(PageId(p)).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.hits, 0);
        // The fill loop left the pool full, so every miss evicts.
        assert_eq!(s.evictions, 8);
        // Re-touch the two resident pages: hits, no I/O.
        pool.pin(PageId(6)).unwrap();
        pool.pin(PageId(7)).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert!(pool.is_resident(PageId(7)));
        assert!(!pool.is_resident(PageId(0)));
    }

    #[test]
    fn pinned_frames_are_never_evicted() {
        let pool = pool(3, 2);
        let g0 = pool.pin(PageId(0)).unwrap();
        let g1 = pool.pin(PageId(1)).unwrap();
        // Both frames pinned: a third pin must fail, not evict.
        assert_eq!(
            pool.pin(PageId(2)).map(|_| ()),
            Err(PagerError::PoolExhausted { capacity: 2 })
        );
        drop(g1);
        // Now one frame is evictable.
        let g2 = pool.pin(PageId(2)).unwrap();
        assert!(g2.iter().all(|&b| b == 2));
        assert!(g0.iter().all(|&b| b == 0));
    }

    #[test]
    fn out_of_bounds_pin_evicts_nothing() {
        // After the fill loop the pool is full (pages 2 and 3 resident), so
        // a miss would have to evict; a bad id must fail before it does.
        let pool = pool(4, 2);
        let before = pool.stats();
        assert_eq!(
            pool.pin(PageId(4)).map(|_| ()),
            Err(PagerError::PageOutOfBounds {
                page: PageId(4),
                allocated: 4
            })
        );
        assert_eq!(pool.stats().evictions, before.evictions);
        let resident: Vec<bool> = (0..4).map(|p| pool.is_resident(PageId(p))).collect();
        assert_eq!(resident, [false, false, true, true]);
        for p in 0..4u32 {
            let g = pool.pin(PageId(p)).unwrap();
            assert!(g.iter().all(|&b| b == p as u8), "page {p}");
        }
    }

    #[test]
    fn dirty_pages_write_back_on_eviction() {
        let store = SegmentStore::in_memory();
        store.allocate(3);
        let pool = BufferPool::new(store, 1, ReplacementPolicy::Sieve);
        pool.with_page_mut(PageId(0), |buf| buf.fill(0xAA)).unwrap();
        // Budget of one page: pinning page 1 evicts dirty page 0.
        pool.pin(PageId(1)).unwrap();
        assert_eq!(pool.stats().disk_writes, 1);
        let g = pool.pin(PageId(0)).unwrap();
        assert!(g.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn concurrent_readers_share_frames() {
        let pool = std::sync::Arc::new(pool(4, 4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for round in 0..50u32 {
                    let p = (t + round) % 4;
                    let g = pool.pin(PageId(p)).unwrap();
                    assert!(g.iter().all(|&b| b == p as u8));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 200);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn stats_reset_and_hit_rate() {
        // After the fill loop only pages 2 and 3 are resident.
        let pool = pool(4, 2);
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(0)).unwrap();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        pool.reset_stats();
        assert_eq!(pool.stats(), PoolStats::default());
        // A zero-access window is a well-defined 0.0, not NaN and not a
        // phantom perfect score.
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
        assert!(!PoolStats::default().hit_rate().is_nan());
    }

    #[test]
    fn resident_fraction_discounts_cached_pages() {
        let pool = pool(4, 2);
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(1)).unwrap();
        let all: Vec<PageId> = (0..4).map(PageId).collect();
        assert!((pool.resident_fraction(&all) - 0.5).abs() < 1e-9);
        // An empty page set is a well-defined 0.0, never NaN.
        assert_eq!(pool.resident_fraction(&[]), 0.0);
        assert!(!pool.resident_fraction(&[]).is_nan());
    }

    #[test]
    fn looping_scan_with_a_hot_page_sees_identical_page_contents() {
        let pool = pool(16, 4);
        // A looping scan with a hot page mixed in.
        for round in 0..3 {
            for p in 0..16u32 {
                let g = pool.pin(PageId(p)).unwrap();
                assert!(g.iter().all(|&b| b == p as u8), "round {round}");
                drop(g);
                let hot = pool.pin(PageId(0)).unwrap();
                assert!(hot.iter().all(|&b| b == 0));
            }
        }
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 96);
        assert!(s.misses >= 16, "{s:?}");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pin / hold / drop / write / flush steps against a model
        /// holding each page's last written byte.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn pool_agrees_with_a_model_of_page_contents(
            frames in 1usize..9,
            pages in 1u32..33,
            steps in prop::collection::vec((0u8..5, 0u32..32, 0u8..255), 1..80),
        ) {
            let store = SegmentStore::in_memory();
            store.allocate(pages);
            let pool = BufferPool::new(store, frames, ReplacementPolicy::Sieve);
            let mut model = vec![0u8; pages as usize];
            let mut held: Vec<PageGuard<'_>> = Vec::new();
            for (op, p, byte) in steps {
                let page = PageId(p % pages);
                let want = model[page.0 as usize];
                let mut pinned: Vec<PageId> = held.iter().map(PageGuard::page).collect();
                pinned.sort_unstable();
                pinned.dedup();
                let exhausted = PagerError::PoolExhausted { capacity: frames };
                match op {
                    0 | 1 => match pool.pin(page) {
                        Ok(g) => {
                            prop_assert!(g.iter().all(|&b| b == want), "page {page}");
                            if op == 1 {
                                held.push(g);
                            }
                        }
                        Err(e) => {
                            prop_assert_eq!(e, exhausted);
                            prop_assert_eq!(pinned.len(), frames);
                        }
                    },
                    2 => {
                        if !held.is_empty() {
                            held.swap_remove(p as usize % held.len());
                        }
                    }
                    3 => match pool.with_page_mut(page, |buf| buf.fill(byte)) {
                        Ok(()) => model[page.0 as usize] = byte,
                        Err(e) => {
                            prop_assert_eq!(e, exhausted);
                            prop_assert_eq!(pinned.len(), frames);
                        }
                    },
                    _ => prop_assert_eq!(pool.flush(), Ok(())),
                }
                let resident = (0..pages).filter(|&q| pool.is_resident(PageId(q))).count();
                prop_assert!(resident <= frames, "{resident} pages in {frames} frames");
                prop_assert!(held.iter().all(|g| pool.is_resident(g.page())));
            }
        }
    }
}
