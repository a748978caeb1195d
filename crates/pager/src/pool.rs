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
//! Pools built with [`BufferPool::with_prefetch`] additionally own a small
//! background `prefetch` worker pool: [`BufferPool::prefetch`]
//! accepts advisory page hints, which the workers coalesce into contiguous
//! runs, read with one batched store read each, and install into unpinned
//! frames ahead of the demand pins. Prefetching never evicts a pinned frame
//! and never fails a query: every prefetch error is swallowed and the next
//! demand pin simply pays the read itself.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::PagerError;
use crate::page::{PageId, PAGE_SIZE};
use crate::prefetch::Prefetcher;
use crate::replacer::{ReplacementPolicy, Sieve};
use crate::store::SegmentStore;

/// Worker threads a [`BufferPool::with_prefetch`] pool spawns by default.
pub const DEFAULT_PREFETCH_THREADS: usize = 2;

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
    /// Physical page reads issued to the store (demand misses and
    /// prefetcher batch reads alike).
    pub disk_reads: u64,
    /// Physical page writes issued to the store (write-back + flush).
    pub disk_writes: u64,
    /// Pages the background prefetcher installed into frames.
    pub prefetch_loads: u64,
    /// Pins served from a frame the prefetcher loaded (counted once, on the
    /// first demand pin that touches the prefetched page).
    pub prefetch_hits: u64,
    /// Prefetched pages evicted before any demand pin touched them.
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
    /// Loaded by the prefetcher and not yet touched by a demand pin.
    prefetched: bool,
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
    /// among the unpinned frames not in `keep`.
    fn claim_frame(&mut self, keep: &[usize]) -> Option<usize> {
        self.free.pop().or_else(|| {
            self.replacer
                .victim(|f| !keep.contains(&f) && self.frames.get(f).is_some_and(Frame::evictable))
        })
    }
}

/// The part of the pool shared between the owning [`BufferPool`] handle and
/// the background prefetch workers.
pub(crate) struct PoolCore {
    store: SegmentStore,
    inner: Mutex<PoolInner>,
    capacity: usize,
}

/// A fixed-budget page cache over a [`SegmentStore`].
pub struct BufferPool {
    core: Arc<PoolCore>,
    prefetcher: Option<Prefetcher>,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the pool mutex can only come from a replacer or
    // allocator bug; the bookkeeping it protects is still structurally
    // valid, so recover the guard rather than poisoning every future pin.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl PoolCore {
    /// Ensures `page` is resident and returns its frame index with the pin
    /// count already incremented. Caller holds the lock.
    fn pin_frame(&self, inner: &mut PoolInner, page: PageId) -> Result<usize, PagerError> {
        if let Some(&f) = inner.table.get(&page.0) {
            inner.stats.hits += 1;
            inner.replacer.on_access(f);
            let mut was_prefetched = false;
            if let Some(frame) = inner.frames.get_mut(f) {
                frame.pins += 1;
                was_prefetched = std::mem::take(&mut frame.prefetched);
            }
            if was_prefetched {
                inner.stats.prefetch_hits += 1;
            }
            return Ok(f);
        }
        // A bad id must fail before it costs another page its frame.
        let allocated = self.store.page_count();
        if page.0 >= allocated {
            return Err(PagerError::PageOutOfBounds { page, allocated });
        }
        inner.stats.misses += 1;
        let f = inner.claim_frame(&[]).ok_or(PagerError::PoolExhausted {
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
        if std::mem::take(&mut frame.prefetched) {
            inner.stats.prefetch_wasted += 1;
        }
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

    /// Reads the run `[first, first + len)` from the store with one batched
    /// read and installs the non-resident pages into unpinned frames.
    /// Best-effort on behalf of the prefetch workers: every failure mode
    /// (out-of-bounds hint, I/O error, fully pinned pool) silently drops the
    /// run — a demand pin will pay the read instead.
    pub(crate) fn prefetch_run(&self, first: PageId, len: u32, scratch: &mut [Vec<u8>]) {
        let allocated = self.store.page_count();
        if first.0 >= allocated || len == 0 {
            return;
        }
        let len = len.min(allocated - first.0);
        {
            // Fully resident runs need no I/O at all.
            let inner = relock(&self.inner);
            if (0..len).all(|i| inner.table.contains_key(&(first.0 + i))) {
                return;
            }
        }
        let Some(bufs) = scratch.get_mut(..len as usize) else {
            return;
        };
        if self.store.read_run_pages(first, len, bufs).is_err() {
            return;
        }
        let mut inner = relock(&self.inner);
        inner.stats.disk_reads += u64::from(len);
        // Frames this run has filled are never its victims, which stops a
        // run larger than the pool from cycling through its own pages. Pins
        // cannot change mid-run (the lock is held throughout), so every
        // other frame's evictability is what it was when the run began.
        let mut filled: Vec<usize> = Vec::with_capacity(bufs.len());
        for (i, buf) in bufs.iter_mut().enumerate() {
            let page = PageId(first.0 + i as u32);
            if inner.table.contains_key(&page.0) {
                continue;
            }
            let Some(f) = inner.claim_frame(&filled) else {
                break;
            };
            if self.install_prefetched(&mut inner, f, page, buf).is_err() {
                break; // a dirty victim failed to write back and stays resident
            }
            filled.push(f);
        }
        inner.stats.prefetch_loads += filled.len() as u64;
        debug_assert_eq!(inner.free.len() + inner.replacer.len(), self.capacity);
    }

    /// Installs one prefetched page into frame `f` without pinning it,
    /// swapping `buf` — the page's freshly read bytes, `PAGE_SIZE` long as
    /// `read_run_pages` checked — into the frame and leaving the frame's
    /// displaced buffer in `buf` for the worker to recycle. The run's bytes
    /// therefore move exactly once (store → buf); the demand path's second
    /// copy into the frame never happens. Caller holds the lock and
    /// guarantees `f` is unpinned — a free frame or a victim the replacer
    /// just surrendered. Fails only when a dirty victim cannot be written
    /// back: an advisory read never loses a dirty page.
    fn install_prefetched(
        &self,
        inner: &mut PoolInner,
        f: usize,
        page: PageId,
        buf: &mut Vec<u8>,
    ) -> Result<(), PagerError> {
        self.evict(inner, f)?;
        if let Some(frame) = inner.frames.get_mut(f) {
            let fresh = Arc::new(std::mem::take(buf));
            let old = Arc::try_unwrap(std::mem::replace(&mut frame.data, fresh));
            // Recycle the displaced allocation as the worker's next scratch
            // buffer. A guard mid-drop (unpinned, `Arc` not yet released)
            // can keep the old buffer alive; that rare race costs one fresh
            // allocation, never a stale read.
            *buf = old.unwrap_or_else(|_| vec![0u8; PAGE_SIZE]);
            frame.page = Some(page);
            frame.prefetched = true;
        }
        inner.table.insert(page.0, f);
        inner.replacer.on_admit(f);
        Ok(())
    }
}

impl BufferPool {
    /// A pool of `budget_pages` frames over `store`, with SIEVE replacement
    /// (the only [`ReplacementPolicy`]). The budget is a hard cap: the pool
    /// allocates exactly `budget_pages × PAGE_SIZE` bytes of frame memory up
    /// front and never more. No prefetcher is spawned;
    /// [`BufferPool::prefetch`] is a no-op.
    pub fn new(store: SegmentStore, budget_pages: usize, _policy: ReplacementPolicy) -> Self {
        Self::build(store, budget_pages, 0)
    }

    /// Like [`BufferPool::new`], plus a background prefetcher of `threads`
    /// workers (at least one) serving [`BufferPool::prefetch`] hints.
    pub fn with_prefetch(
        store: SegmentStore,
        budget_pages: usize,
        _policy: ReplacementPolicy,
        threads: usize,
    ) -> Self {
        Self::build(store, budget_pages, threads.max(1))
    }

    fn build(store: SegmentStore, budget_pages: usize, prefetch_threads: usize) -> Self {
        let capacity = budget_pages.max(1);
        let frames = (0..capacity)
            .map(|_| Frame {
                page: None,
                data: Arc::new(vec![0u8; PAGE_SIZE]),
                dirty: false,
                pins: 0,
                prefetched: false,
            })
            .collect();
        let core = Arc::new(PoolCore {
            store,
            inner: Mutex::new(PoolInner {
                frames,
                table: HashMap::with_capacity(capacity),
                replacer: Sieve::new(capacity),
                stats: PoolStats::default(),
                free: (0..capacity).rev().collect(),
            }),
            capacity,
        });
        let prefetcher =
            (prefetch_threads > 0).then(|| Prefetcher::spawn(Arc::clone(&core), prefetch_threads));
        BufferPool { core, prefetcher }
    }

    /// The pool's page-count budget.
    pub fn capacity(&self) -> usize {
        self.core.capacity
    }

    /// The backing store (for allocation and raw-size queries).
    pub fn store(&self) -> &SegmentStore {
        &self.core.store
    }

    /// Allocates a contiguous run of `n` fresh pages in the backing store.
    pub fn allocate(&self, n: u32) -> PageId {
        self.core.store.allocate(n)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        relock(&self.core.inner).stats
    }

    /// Zeroes the counters (the benches do this between cold and warm runs).
    pub fn reset_stats(&self) {
        relock(&self.core.inner).stats = PoolStats::default();
    }

    /// Whether this pool was built with a background prefetcher.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetcher.is_some()
    }

    /// Hints that `pages` are about to be read. Advisory and non-blocking:
    /// the hints are coalesced into contiguous runs and served by the
    /// background workers; without a prefetcher (or for already-resident
    /// pages) this is a no-op. Prefetching never evicts a pinned frame.
    pub fn prefetch(&self, pages: &[PageId]) {
        if let Some(pf) = &self.prefetcher {
            pf.enqueue(pages);
        }
    }

    /// Blocks until every queued prefetch hint has been processed. Tests
    /// and cold/warm bench transitions use this to make the asynchronous
    /// prefetcher deterministic; a pool without one returns immediately.
    pub fn prefetch_quiesce(&self) {
        if let Some(pf) = &self.prefetcher {
            pf.quiesce();
        }
    }

    /// Whether `page` is currently resident (no pin taken).
    pub fn is_resident(&self, page: PageId) -> bool {
        relock(&self.core.inner).table.contains_key(&page.0)
    }

    /// Fraction of `pages` currently resident, in `[0, 1]`. The planner's
    /// I/O cost term uses this to discount already-cached reads. An empty
    /// page set has no resident pages, so it reports `0.0` (never `NaN`).
    pub fn resident_fraction(&self, pages: &[PageId]) -> f64 {
        if pages.is_empty() {
            return 0.0;
        }
        let inner = relock(&self.core.inner);
        let hits = pages
            .iter()
            .filter(|p| inner.table.contains_key(&p.0))
            .count();
        hits as f64 / pages.len() as f64
    }

    /// Pins `page`, loading it from the store on a miss (evicting an
    /// unpinned frame if the pool is full). Fails with
    /// [`PagerError::PoolExhausted`] when every frame is pinned.
    pub fn pin(&self, page: PageId) -> Result<PageGuard<'_>, PagerError> {
        let mut inner = relock(&self.core.inner);
        let f = self.core.pin_frame(&mut inner, page)?;
        let data = inner
            .frames
            .get(f)
            .map(|fr| Arc::clone(&fr.data))
            .unwrap_or_default();
        Ok(PageGuard {
            core: &self.core,
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
        let mut inner = relock(&self.core.inner);
        let f = self.core.pin_frame(&mut inner, page)?;
        match inner.frames.get_mut(f) {
            Some(frame) => {
                frame.dirty = true;
                let r = mutate(Arc::make_mut(&mut frame.data).as_mut_slice());
                frame.pins = frame.pins.saturating_sub(1);
                Ok(r)
            }
            None => Err(PagerError::PageOutOfBounds {
                page,
                allocated: self.core.store.page_count(),
            }),
        }
    }

    /// Writes every dirty resident page back to the store.
    pub fn flush(&self) -> Result<(), PagerError> {
        let mut inner = relock(&self.core.inner);
        let mut writes = 0u64;
        for frame in inner.frames.iter_mut() {
            if let (Some(page), true) = (frame.page, frame.dirty) {
                self.core.store.write_page(page, &frame.data)?;
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
            .field("capacity", &self.core.capacity)
            .field("prefetch", &self.prefetch_enabled())
            .field("stats", &self.stats())
            .finish()
    }
}

/// An RAII pin on one page. Deref yields the page's `PAGE_SIZE` bytes;
/// dropping the guard unpins the frame. Holding a guard pins real budget —
/// never hold one across blocking I/O or another long-lived acquisition
/// (the `pin-guard-no-io` lint enforces this on the server's request path).
pub struct PageGuard<'a> {
    core: &'a PoolCore,
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
        self.core.unpin(self.frame);
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

    fn prefetch_pool(pages: u32, budget: usize) -> BufferPool {
        let pool = BufferPool::with_prefetch(
            SegmentStore::in_memory(),
            budget,
            ReplacementPolicy::Sieve,
            2,
        );
        fill(&pool, pages);
        pool
    }

    #[test]
    fn oversized_prefetch_run_never_wedges_demand_eviction() {
        // A run larger than the pool trips the self-cycling guard after the
        // first install. SIEVE's `victim` dequeues the chosen frame, so the
        // guard must re-register it — otherwise the replacer believes the
        // pool is empty and every later demand miss is a spurious
        // `PoolExhausted`. Regression test for exactly that wedge.
        let pool = prefetch_pool(8, 1);
        let ids: Vec<PageId> = (0..8).map(PageId).collect();
        for _ in 0..3 {
            pool.prefetch(&ids);
            pool.prefetch_quiesce();
        }
        for p in 0..8u32 {
            let g = pool
                .pin(PageId(p))
                .unwrap_or_else(|e| panic!("demand pin of page {p} wedged: {e}"));
            assert!(g.iter().all(|&b| b == p as u8));
        }
    }

    #[test]
    fn oversized_prefetch_run_stops_instead_of_cycling() {
        // Two frames, an eight-page run: the run fills both frames and
        // stops, rather than evicting the pages it just installed.
        let pool = prefetch_pool(8, 2);
        pool.prefetch(&(0..8).map(PageId).collect::<Vec<_>>());
        pool.prefetch_quiesce();
        assert_eq!(pool.stats().prefetch_loads, 2);
        let resident: Vec<u32> = (0..8).filter(|&p| pool.is_resident(PageId(p))).collect();
        assert_eq!(resident, [0, 1]);
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

    #[test]
    fn prefetched_pages_are_resident_and_hit() {
        // Budget 4 of 8 pages: after the fill loop pages 4..8 are resident,
        // so the prefetched run 0..4 does real loads.
        let pool = prefetch_pool(8, 4);
        let hints: Vec<PageId> = (0..4).map(PageId).collect();
        pool.prefetch(&hints);
        pool.prefetch_quiesce();
        let s = pool.stats();
        assert_eq!(s.prefetch_loads, 4, "{s:?}");
        assert_eq!(s.disk_reads, 4);
        for p in 0..4u32 {
            assert!(pool.is_resident(PageId(p)));
            let g = pool.pin(PageId(p)).unwrap();
            assert!(g.iter().all(|&b| b == p as u8), "page {p}");
        }
        let s = pool.stats();
        assert_eq!(s.hits, 4);
        assert_eq!(s.misses, 0);
        assert_eq!(s.prefetch_hits, 4);
        // Re-pinning is a plain hit: prefetch_hits counts first touches only.
        pool.pin(PageId(0)).unwrap();
        assert_eq!(pool.stats().prefetch_hits, 4);
    }

    #[test]
    fn prefetcher_never_victimizes_a_pinned_frame() {
        // One frame, and it is pinned: the prefetcher must skip, not evict
        // and not error.
        let pool = prefetch_pool(4, 1);
        let guard = pool.pin(PageId(0)).unwrap();
        pool.prefetch(&[PageId(1), PageId(2)]);
        pool.prefetch_quiesce();
        assert!(pool.is_resident(PageId(0)));
        assert!(!pool.is_resident(PageId(1)));
        assert!(!pool.is_resident(PageId(2)));
        assert_eq!(pool.stats().prefetch_loads, 0);
        // The pinned guard still reads its original page.
        assert!(guard.iter().all(|&b| b == 0));
        drop(guard);
        // Unpinned, the same hints land.
        pool.prefetch(&[PageId(1)]);
        pool.prefetch_quiesce();
        assert!(pool.is_resident(PageId(1)));
        assert_eq!(pool.stats().prefetch_loads, 1);
    }

    #[test]
    fn untouched_prefetched_pages_count_as_wasted_on_eviction() {
        let pool = prefetch_pool(8, 2);
        pool.prefetch(&[PageId(0), PageId(1)]);
        pool.prefetch_quiesce();
        assert_eq!(pool.stats().prefetch_loads, 2);
        // Demand-pin two other pages: both prefetched frames are evicted
        // before any pin touched them.
        pool.pin(PageId(6)).unwrap();
        pool.pin(PageId(7)).unwrap();
        let s = pool.stats();
        assert_eq!(s.prefetch_wasted, 2, "{s:?}");
        assert_eq!(s.prefetch_hits, 0);
    }

    #[test]
    fn prefetch_hints_coalesce_across_small_gaps() {
        let pool = prefetch_pool(8, 4);
        // Pages 0 and 2: the gap page 1 rides along in one batched read.
        pool.prefetch(&[PageId(2), PageId(0)]);
        pool.prefetch_quiesce();
        assert!(pool.is_resident(PageId(0)));
        assert!(pool.is_resident(PageId(1)));
        assert!(pool.is_resident(PageId(2)));
        let g = pool.pin(PageId(1)).unwrap();
        assert!(g.iter().all(|&b| b == 1));
    }

    #[test]
    fn prefetch_out_of_bounds_hints_are_dropped() {
        let pool = prefetch_pool(2, 2);
        pool.prefetch(&[PageId(1000)]);
        pool.prefetch_quiesce();
        assert_eq!(pool.stats().prefetch_loads, 0);
        // The pool still works.
        let g = pool.pin(PageId(0)).unwrap();
        assert!(g.iter().all(|&b| b == 0));
    }

    #[test]
    fn prefetch_is_a_noop_without_a_prefetcher() {
        let pool = pool(4, 2);
        assert!(!pool.prefetch_enabled());
        pool.prefetch(&[PageId(0)]);
        pool.prefetch_quiesce();
        assert_eq!(pool.stats(), PoolStats::default());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pin / hold / drop / write / flush / prefetch steps against
        /// a model holding each page's last written byte.
        #[test]
        #[cfg_attr(miri, ignore)]
        fn pool_agrees_with_a_model_of_page_contents(
            frames in 1usize..9,
            pages in 1u32..33,
            steps in prop::collection::vec((0u8..6, 0u32..32, 0u8..255), 1..80),
        ) {
            let store = SegmentStore::in_memory();
            store.allocate(pages);
            let pool = BufferPool::with_prefetch(store, frames, ReplacementPolicy::Sieve, 1);
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
                    4 => prop_assert_eq!(pool.flush(), Ok(())),
                    _ => {
                        let end = pages.min(page.0 + 1 + u32::from(byte % 8));
                        let run: Vec<PageId> = (page.0..end).map(PageId).collect();
                        pool.prefetch(&run);
                        pool.prefetch_quiesce();
                    }
                }
                let resident = (0..pages).filter(|&q| pool.is_resident(PageId(q))).count();
                prop_assert!(resident <= frames, "{resident} pages in {frames} frames");
                prop_assert!(held.iter().all(|g| pool.is_resident(g.page())));
            }
        }
    }
}
