//! The segment store: a flat array of fixed-size pages on disk (or in
//! memory for tests and Miri runs).
//!
//! The store owns allocation (a bump counter of page ids) and raw page I/O;
//! caching, pinning, and replacement live in [`crate::BufferPool`]. Pages
//! that were allocated but never written read back as zeroes, so callers can
//! allocate contiguous runs up front and fill them lazily.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::process;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::error::PagerError;
use crate::page::{PageId, PAGE_SIZE};

/// Monotonic counter so concurrently created temp segments get distinct
/// file names within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Recovers a mutex guard even if a previous holder panicked; the protected
/// state is a plain file handle / byte buffer, valid regardless.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One read of the still-unread tail of `bufs` (the first `skip` bytes
/// across the run are already filled), returning the byte count read. The
/// native build issues a single vectored read over every unfinished page;
/// Miri has no `readv` shim, so under Miri this degrades to one plain read
/// into the first unfinished page (same bytes, one page per call).
#[cfg(not(miri))]
fn read_tail(f: &mut File, bufs: &mut [Vec<u8>], skip: usize) -> std::io::Result<usize> {
    let mut slices: Vec<std::io::IoSliceMut<'_>> = Vec::with_capacity(bufs.len());
    let mut skip = skip;
    for buf in bufs.iter_mut() {
        if skip >= buf.len() {
            skip -= buf.len();
            continue;
        }
        slices.push(std::io::IoSliceMut::new(&mut buf[skip..]));
        skip = 0;
    }
    f.read_vectored(&mut slices)
}

#[cfg(miri)]
fn read_tail(f: &mut File, bufs: &mut [Vec<u8>], skip: usize) -> std::io::Result<usize> {
    let page = skip / PAGE_SIZE;
    let off = skip % PAGE_SIZE;
    match bufs.get_mut(page) {
        Some(buf) => f.read(&mut buf[off..]),
        None => Ok(0),
    }
}

enum Backend {
    /// A real file. Seek-based I/O (not `pread`) keeps the store portable
    /// and Miri-friendly; the mutex serializes the shared cursor.
    File {
        file: Mutex<File>,
        path: PathBuf,
        delete_on_drop: bool,
    },
    /// An in-memory byte vector with file semantics. Used by unit tests,
    /// property tests, and Miri runs where temp-file churn is unwanted.
    Mem(Mutex<Vec<u8>>),
}

/// A file-backed (or memory-backed) array of fixed-size pages.
pub struct SegmentStore {
    backend: Backend,
    next_page: AtomicU32,
    reads: AtomicU64,
    writes: AtomicU64,
}

impl SegmentStore {
    /// Opens a store over a fresh temporary file under the OS temp
    /// directory. The file is deleted when the store is dropped.
    pub fn temp(label: &str) -> Result<Self, PagerError> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let name = format!("smoke-pager-{}-{n}-{label}.seg", process::id());
        let path = std::env::temp_dir().join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| PagerError::io(format!("create segment {}", path.display()), &e))?;
        Ok(SegmentStore {
            backend: Backend::File {
                file: Mutex::new(file),
                path,
                delete_on_drop: true,
            },
            next_page: AtomicU32::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// Opens a store backed by an in-memory buffer. Behaves exactly like a
    /// file-backed store (including the read/write counters) without
    /// touching the filesystem.
    pub fn in_memory() -> Self {
        SegmentStore {
            backend: Backend::Mem(Mutex::new(Vec::new())),
            next_page: AtomicU32::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// Allocates a contiguous run of `n` pages, returning the first id.
    /// Allocation only bumps a counter; pages materialize on first write.
    pub fn allocate(&self, n: u32) -> PageId {
        PageId(self.next_page.fetch_add(n, Ordering::Relaxed))
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u32 {
        self.next_page.load(Ordering::Relaxed)
    }

    /// Physical page reads served since creation.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page writes since creation.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn check_page(&self, page: PageId) -> Result<(), PagerError> {
        let allocated = self.page_count();
        if page.0 >= allocated {
            return Err(PagerError::PageOutOfBounds { page, allocated });
        }
        Ok(())
    }

    /// Reads page `page` into `buf` (which must be exactly `PAGE_SIZE`
    /// bytes). Allocated-but-never-written pages read back as zeroes.
    pub fn read_page(&self, page: PageId, buf: &mut [u8]) -> Result<(), PagerError> {
        if buf.len() != PAGE_SIZE {
            return Err(PagerError::BadBufferLength { actual: buf.len() });
        }
        self.check_page(page)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        match &self.backend {
            Backend::File { file, path, .. } => {
                let mut f = relock(file);
                let ctx = || format!("read page {page} of {}", path.display());
                f.seek(SeekFrom::Start(page.offset()))
                    .map_err(|e| PagerError::io(ctx(), &e))?;
                // The file may be shorter than the page's extent (allocated
                // but unwritten tail): read what exists, zero the rest.
                let mut filled = 0usize;
                loop {
                    let n = f
                        .read(&mut buf[filled..])
                        .map_err(|e| PagerError::io(ctx(), &e))?;
                    if n == 0 {
                        break;
                    }
                    filled += n;
                    if filled == PAGE_SIZE {
                        break;
                    }
                }
                buf[filled..].fill(0);
                Ok(())
            }
            Backend::Mem(bytes) => {
                let bytes = relock(bytes);
                let start = page.offset() as usize;
                let have = bytes.len().saturating_sub(start).min(PAGE_SIZE);
                if have > 0 {
                    buf[..have].copy_from_slice(&bytes[start..start + have]);
                }
                buf[have..].fill(0);
                Ok(())
            }
        }
    }

    /// Reads the `len`-page run starting at `first` into `buf` (which must
    /// be exactly `len × PAGE_SIZE` bytes) with a single backend read —
    /// one seek instead of one per page. This is the batched read behind
    /// the buffer pool's background prefetcher. Allocated-but-unwritten
    /// tails read back as zeroes, exactly like [`SegmentStore::read_page`].
    pub fn read_run(&self, first: PageId, len: u32, buf: &mut [u8]) -> Result<(), PagerError> {
        let expected = len as usize * PAGE_SIZE;
        if buf.len() != expected {
            return Err(PagerError::BadBufferLength { actual: buf.len() });
        }
        if len == 0 {
            return Ok(());
        }
        let last = PageId(first.0.saturating_add(len - 1));
        self.check_page(first)?;
        self.check_page(last)?;
        self.reads.fetch_add(u64::from(len), Ordering::Relaxed);
        match &self.backend {
            Backend::File { file, path, .. } => {
                let mut f = relock(file);
                let ctx = || format!("read run [{first}; {len} pages] of {}", path.display());
                f.seek(SeekFrom::Start(first.offset()))
                    .map_err(|e| PagerError::io(ctx(), &e))?;
                let mut filled = 0usize;
                loop {
                    let n = f
                        .read(&mut buf[filled..])
                        .map_err(|e| PagerError::io(ctx(), &e))?;
                    if n == 0 {
                        break;
                    }
                    filled += n;
                    if filled == expected {
                        break;
                    }
                }
                buf[filled..].fill(0);
                Ok(())
            }
            Backend::Mem(bytes) => {
                let bytes = relock(bytes);
                let start = first.offset() as usize;
                let have = bytes.len().saturating_sub(start).min(expected);
                if have > 0 {
                    buf[..have].copy_from_slice(&bytes[start..start + have]);
                }
                buf[have..].fill(0);
                Ok(())
            }
        }
    }

    /// Reads the `len`-page run starting at `first` into `len` per-page
    /// buffers (each exactly `PAGE_SIZE` bytes) with one seek plus one
    /// vectored read — the zero-extra-copy variant of
    /// [`SegmentStore::read_run`]. The buffer pool's prefetcher reads into
    /// page-sized buffers it can move into frames wholesale, instead of
    /// copying pages out of a flat scratch slab a second time.
    /// Allocated-but-unwritten tails read back as zeroes.
    pub fn read_run_pages(
        &self,
        first: PageId,
        len: u32,
        bufs: &mut [Vec<u8>],
    ) -> Result<(), PagerError> {
        let expected = len as usize * PAGE_SIZE;
        if bufs.len() != len as usize || bufs.iter().any(|b| b.len() != PAGE_SIZE) {
            let actual = bufs.iter().map(Vec::len).sum();
            return Err(PagerError::BadBufferLength { actual });
        }
        if len == 0 {
            return Ok(());
        }
        let last = PageId(first.0.saturating_add(len - 1));
        self.check_page(first)?;
        self.check_page(last)?;
        self.reads.fetch_add(u64::from(len), Ordering::Relaxed);
        match &self.backend {
            Backend::File { file, path, .. } => {
                let mut f = relock(file);
                let ctx = || format!("read run [{first}; {len} pages] of {}", path.display());
                f.seek(SeekFrom::Start(first.offset()))
                    .map_err(|e| PagerError::io(ctx(), &e))?;
                let mut filled = 0usize;
                while filled < expected {
                    let n =
                        read_tail(&mut f, bufs, filled).map_err(|e| PagerError::io(ctx(), &e))?;
                    if n == 0 {
                        break;
                    }
                    filled += n;
                }
                // The file may be shorter than the run's extent (allocated
                // but unwritten tail): zero everything past what it held.
                for (i, buf) in bufs.iter_mut().enumerate() {
                    let done = filled.saturating_sub(i * PAGE_SIZE).min(PAGE_SIZE);
                    buf[done..].fill(0);
                }
                Ok(())
            }
            Backend::Mem(bytes) => {
                let bytes = relock(bytes);
                // A run may start past everything written so far.
                let tail = bytes.get(first.offset() as usize..).unwrap_or_default();
                let have = tail.len().min(expected);
                for (i, buf) in bufs.iter_mut().enumerate() {
                    let lo = (i * PAGE_SIZE).min(have);
                    let hi = ((i + 1) * PAGE_SIZE).min(have);
                    buf[..hi - lo].copy_from_slice(&tail[lo..hi]);
                    buf[hi - lo..].fill(0);
                }
                Ok(())
            }
        }
    }

    /// Writes `buf` (exactly `PAGE_SIZE` bytes) as page `page`.
    pub fn write_page(&self, page: PageId, buf: &[u8]) -> Result<(), PagerError> {
        if buf.len() != PAGE_SIZE {
            return Err(PagerError::BadBufferLength { actual: buf.len() });
        }
        self.check_page(page)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        match &self.backend {
            Backend::File { file, path, .. } => {
                let mut f = relock(file);
                let ctx = || format!("write page {page} of {}", path.display());
                f.seek(SeekFrom::Start(page.offset()))
                    .map_err(|e| PagerError::io(ctx(), &e))?;
                f.write_all(buf).map_err(|e| PagerError::io(ctx(), &e))
            }
            Backend::Mem(bytes) => {
                let mut bytes = relock(bytes);
                let start = page.offset() as usize;
                if bytes.len() < start + PAGE_SIZE {
                    bytes.resize(start + PAGE_SIZE, 0);
                }
                bytes[start..start + PAGE_SIZE].copy_from_slice(buf);
                Ok(())
            }
        }
    }

    /// Total bytes the backing segment occupies (pages allocated × page
    /// size) — the "raw data on disk" figure benchmarks report against.
    pub fn allocated_bytes(&self) -> u64 {
        u64::from(self.page_count()) * PAGE_SIZE as u64
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        if let Backend::File {
            path,
            delete_on_drop: true,
            ..
        } = &self.backend
        {
            // Best-effort cleanup; a leaked temp file is not worth a panic
            // in a destructor.
            let _ = std::fs::remove_file(path);
        }
    }
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.backend {
            Backend::File { path, .. } => format!("file:{}", path.display()),
            Backend::Mem(_) => "mem".to_string(),
        };
        f.debug_struct("SegmentStore")
            .field("backend", &kind)
            .field("pages", &self.page_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(store: &SegmentStore) {
        let first = store.allocate(3);
        assert_eq!(first, PageId(0));
        assert_eq!(store.page_count(), 3);

        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        store.write_page(PageId(1), &page).unwrap();

        let mut back = vec![0xFFu8; PAGE_SIZE];
        store.read_page(PageId(1), &mut back).unwrap();
        assert_eq!(back, page);

        // Allocated but never written: reads back as zeroes.
        store.read_page(PageId(2), &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));

        assert_eq!(store.reads(), 2);
        assert_eq!(store.writes(), 1);
    }

    #[test]
    fn memory_store_round_trips() {
        round_trip(&SegmentStore::in_memory());
    }

    #[test]
    fn file_store_round_trips() {
        round_trip(&SegmentStore::temp("round-trip").unwrap());
    }

    #[test]
    fn out_of_bounds_and_bad_buffers_are_typed_errors() {
        let store = SegmentStore::in_memory();
        store.allocate(1);
        let mut buf = vec![0u8; PAGE_SIZE];
        assert_eq!(
            store.read_page(PageId(5), &mut buf),
            Err(PagerError::PageOutOfBounds {
                page: PageId(5),
                allocated: 1
            })
        );
        let mut short = vec![0u8; 16];
        assert_eq!(
            store.read_page(PageId(0), &mut short),
            Err(PagerError::BadBufferLength { actual: 16 })
        );
        assert_eq!(
            store.write_page(PageId(0), &short),
            Err(PagerError::BadBufferLength { actual: 16 })
        );
    }

    #[test]
    fn temp_files_are_deleted_on_drop() {
        let store = SegmentStore::temp("drop-test").unwrap();
        let path = match &store.backend {
            Backend::File { path, .. } => path.clone(),
            Backend::Mem(_) => unreachable!(),
        };
        store.allocate(1);
        store.write_page(PageId(0), &vec![1u8; PAGE_SIZE]).unwrap();
        assert!(path.exists());
        drop(store);
        assert!(!path.exists());
    }

    fn run_round_trip(store: &SegmentStore) {
        store.allocate(4);
        for p in 0..3u32 {
            store
                .write_page(PageId(p), &vec![p as u8 + 1; PAGE_SIZE])
                .unwrap();
        }
        // Page 3 stays unwritten: the run's tail reads back as zeroes.
        let mut buf = vec![0xFFu8; 3 * PAGE_SIZE];
        store.read_run(PageId(1), 3, &mut buf).unwrap();
        assert!(buf[..PAGE_SIZE].iter().all(|&b| b == 2));
        assert!(buf[PAGE_SIZE..2 * PAGE_SIZE].iter().all(|&b| b == 3));
        assert!(buf[2 * PAGE_SIZE..].iter().all(|&b| b == 0));
        // One logical call, `len` physical page reads counted.
        assert_eq!(store.reads(), 3);
    }

    #[test]
    fn memory_store_reads_runs() {
        run_round_trip(&SegmentStore::in_memory());
    }

    #[test]
    fn file_store_reads_runs() {
        run_round_trip(&SegmentStore::temp("run-read").unwrap());
    }

    fn paged_run_round_trip(store: &SegmentStore) {
        store.allocate(5);
        for p in 0..3u32 {
            store
                .write_page(PageId(p), &vec![p as u8 + 1; PAGE_SIZE])
                .unwrap();
        }
        // Page 3 stays unwritten: the run's tail pages read back as zeroes.
        let mut bufs = vec![vec![0xFFu8; PAGE_SIZE]; 3];
        store.read_run_pages(PageId(1), 3, &mut bufs).unwrap();
        assert!(bufs[0].iter().all(|&b| b == 2));
        assert!(bufs[1].iter().all(|&b| b == 3));
        assert!(bufs[2].iter().all(|&b| b == 0));
        assert_eq!(store.reads(), 3);
        // Per-page results match the flat-slab variant byte for byte.
        let mut flat = vec![0u8; 3 * PAGE_SIZE];
        store.read_run(PageId(1), 3, &mut flat).unwrap();
        assert_eq!(bufs.concat(), flat);
        // A run that starts past every written byte reads back as zeroes.
        let mut past = vec![vec![0xFFu8; PAGE_SIZE]];
        store.read_run_pages(PageId(4), 1, &mut past).unwrap();
        assert!(past[0].iter().all(|&b| b == 0));
    }

    #[test]
    fn memory_store_reads_runs_into_page_buffers() {
        paged_run_round_trip(&SegmentStore::in_memory());
    }

    #[test]
    fn file_store_reads_runs_into_page_buffers() {
        paged_run_round_trip(&SegmentStore::temp("run-read-pages").unwrap());
    }

    #[test]
    fn paged_run_reads_validate_bounds_and_buffers() {
        let store = SegmentStore::in_memory();
        store.allocate(2);
        let mut bufs = vec![vec![0u8; PAGE_SIZE]; 2];
        assert_eq!(
            store.read_run_pages(PageId(1), 2, &mut bufs),
            Err(PagerError::PageOutOfBounds {
                page: PageId(2),
                allocated: 2
            })
        );
        // Wrong buffer count and wrong per-buffer length are both typed
        // errors, not partial reads.
        assert_eq!(
            store.read_run_pages(PageId(0), 1, &mut bufs),
            Err(PagerError::BadBufferLength {
                actual: 2 * PAGE_SIZE
            })
        );
        let mut short = vec![vec![0u8; 16]];
        assert_eq!(
            store.read_run_pages(PageId(0), 1, &mut short),
            Err(PagerError::BadBufferLength { actual: 16 })
        );
        // Zero-length runs are trivially fine and cost no reads.
        assert_eq!(store.read_run_pages(PageId(0), 0, &mut []), Ok(()));
        assert_eq!(store.reads(), 0);
    }

    #[test]
    fn run_reads_validate_bounds_and_buffers() {
        let store = SegmentStore::in_memory();
        store.allocate(2);
        let mut buf = vec![0u8; 2 * PAGE_SIZE];
        assert_eq!(
            store.read_run(PageId(1), 2, &mut buf),
            Err(PagerError::PageOutOfBounds {
                page: PageId(2),
                allocated: 2
            })
        );
        assert_eq!(
            store.read_run(PageId(0), 1, &mut buf),
            Err(PagerError::BadBufferLength {
                actual: 2 * PAGE_SIZE
            })
        );
        // Zero-length runs are trivially fine and cost no reads.
        assert_eq!(store.read_run(PageId(0), 0, &mut []), Ok(()));
        assert_eq!(store.reads(), 0);
    }

    #[test]
    fn allocated_bytes_tracks_page_count() {
        let store = SegmentStore::in_memory();
        store.allocate(4);
        assert_eq!(store.allocated_bytes(), 4 * PAGE_SIZE as u64);
    }
}
