//! The segment store: a flat array of fixed-size pages on disk (or in
//! memory for tests and Miri runs).
//!
//! The store owns allocation (a bump counter of page ids) and raw page I/O,
//! one page per call; caching, pinning, and replacement live in
//! [`crate::BufferPool`]. Pages that were allocated but never written read
//! back as zeroes, so callers can allocate contiguous runs up front and fill
//! them lazily.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::process;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::error::PagerError;
use crate::page::{PageId, PAGE_SIZE};

/// Monotonic counter so concurrently created temp segments get distinct
/// file names within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Names [`SegmentStore::temp`] tries before it gives up with
/// [`PagerError::TempNamesTaken`].
const MAX_TEMP_ATTEMPTS: u32 = 16;

/// Recovers a mutex guard even if a previous holder panicked; the protected
/// state is a plain file handle / byte buffer, valid regardless.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum Backend {
    /// A temp file, deleted on drop. Seek-based I/O (not `pread`) keeps the
    /// store portable and Miri-friendly; the mutex serializes the shared
    /// cursor.
    File { file: Mutex<File>, path: PathBuf },
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
    ///
    /// The file is created exclusively (`O_EXCL`), so a file or symlink
    /// already at the chosen name is never reused or truncated: the next
    /// counter value is tried instead, for a bounded number of names.
    pub fn temp(label: &str) -> Result<Self, PagerError> {
        for _ in 0..MAX_TEMP_ATTEMPTS {
            let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
            let name = format!("smoke-pager-{}-{n}-{label}.seg", process::id());
            let path = std::env::temp_dir().join(name);
            let file = match OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => file,
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => {
                    let ctx = format!("create segment {}", path.display());
                    return Err(PagerError::io(ctx, &e));
                }
            };
            return Ok(SegmentStore {
                backend: Backend::File {
                    file: Mutex::new(file),
                    path,
                },
                next_page: AtomicU32::new(0),
                reads: AtomicU64::new(0),
                writes: AtomicU64::new(0),
            });
        }
        Err(PagerError::TempNamesTaken {
            attempts: MAX_TEMP_ATTEMPTS,
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
        if let Backend::File { path, .. } = &self.backend {
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

    /// A victim file plus symlinks to it at the next names
    /// [`SegmentStore::temp`] will try for one label; all removed on drop,
    /// so a failing test leaves nothing behind.
    #[cfg(unix)]
    struct Planted {
        victim: PathBuf,
        links: Vec<PathBuf>,
    }

    #[cfg(unix)]
    impl Planted {
        const BYTES: &'static [u8] = b"precious bytes";

        fn new(label: &str, n: u64) -> Planted {
            let pid = process::id();
            let victim = std::env::temp_dir().join(format!("smoke-pager-victim-{pid}-{label}"));
            std::fs::write(&victim, Self::BYTES).unwrap();
            let next = TEMP_COUNTER.load(Ordering::Relaxed);
            let mut planted = Planted {
                victim,
                links: Vec::new(),
            };
            for k in next..next + n {
                let name = format!("smoke-pager-{pid}-{k}-{label}.seg");
                let link = std::env::temp_dir().join(name);
                std::os::unix::fs::symlink(&planted.victim, &link).unwrap();
                planted.links.push(link);
            }
            planted
        }

        fn victim_intact(&self) -> bool {
            std::fs::read(&self.victim).is_ok_and(|b| b == Self::BYTES)
        }
    }

    #[cfg(unix)]
    impl Drop for Planted {
        fn drop(&mut self) {
            for path in self.links.iter().chain([&self.victim]) {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    #[cfg(unix)]
    #[cfg_attr(miri, ignore)]
    fn temp_never_follows_a_planted_symlink() {
        let planted = Planted::new("planted", 4);
        let store = SegmentStore::temp("planted").unwrap();
        round_trip(&store);
        drop(store);
        assert!(planted.victim_intact());
    }

    #[test]
    #[cfg(unix)]
    #[cfg_attr(miri, ignore)]
    fn temp_gives_up_typed_when_every_name_is_taken() {
        // Other tests in this process may take a few counter values between
        // the planting and the open; the margin keeps every try planted.
        let planted = Planted::new("crowded", u64::from(MAX_TEMP_ATTEMPTS) + 32);
        assert_eq!(
            SegmentStore::temp("crowded").map(drop),
            Err(PagerError::TempNamesTaken {
                attempts: MAX_TEMP_ATTEMPTS
            })
        );
        assert!(planted.victim_intact());
    }

    #[test]
    fn allocated_bytes_tracks_page_count() {
        let store = SegmentStore::in_memory();
        store.allocate(4);
        assert_eq!(store.allocated_bytes(), 4 * PAGE_SIZE as u64);
    }
}
