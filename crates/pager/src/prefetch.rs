//! Background read-ahead for page runs.
//!
//! [`crate::BufferPool::prefetch`] feeds advisory [`PageId`] hints to a
//! small pool of worker threads owned by the pool. Hints are sorted,
//! deduplicated, and coalesced into contiguous runs — bridging gaps of up
//! to [`MAX_COALESCE_GAP`] pages, capped at [`MAX_RUN_PAGES`] pages per run
//! — and each run is fetched from the [`crate::SegmentStore`] with one
//! vectored [`crate::SegmentStore::read_run_pages`] call into page-sized
//! buffers that are swapped into unpinned frames wholesale.
//!
//! Everything here is best-effort: a full queue drops hints, an I/O error
//! drops the run, a fully pinned pool installs nothing, and a run larger
//! than the pool stops rather than cycling through its own pages. The
//! demand path never waits on the prefetcher and never observes an error
//! from it; a dropped hint just means the next pin pays the read itself.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use crate::page::{PageId, PAGE_SIZE};
use crate::pool::PoolCore;

/// Longest run a single batched read covers, in pages (2 MiB). Every
/// per-run fixed cost — the readv syscall, the one pool-lock acquisition
/// that installs the run, queue locking, and the worker wake-up —
/// amortizes over this many pages, so longer runs directly lower the
/// per-page install cost; 2 MiB keeps a run well under any realistic pool
/// budget.
pub(crate) const MAX_RUN_PAGES: u32 = 256;

/// Hints this close together are bridged into one run: reading a few extra
/// contiguous pages is cheaper than a second seek.
pub(crate) const MAX_COALESCE_GAP: u32 = 4;

/// Queue depth bound; hints beyond it are dropped (they are advisory).
const MAX_QUEUED_RUNS: usize = 4096;

/// `(first_page, page_count)` of one coalesced run.
type Run = (u32, u32);

struct Queue {
    runs: VecDeque<Run>,
    /// Workers currently reading/installing a run.
    active: usize,
    /// Workers still running: one whose run panicked has exited.
    live: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when work arrives or shutdown begins.
    work: Condvar,
    /// Signalled when the queue drains and no worker is active.
    idle: Condvar,
}

/// Handle to the worker pool; dropping it shuts the workers down and joins
/// them.
pub(crate) struct Prefetcher {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The queue holds plain bookkeeping; recover it rather than letting one
    // panicked worker poison every future hint.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Prefetcher {
    /// Spawns `threads` (at least one) workers sharing `core`.
    pub(crate) fn spawn(core: Arc<PoolCore>, threads: usize) -> Prefetcher {
        Prefetcher::spawn_runs(threads, || {
            let core = Arc::clone(&core);
            // One page-sized buffer per run slot: the install path swaps
            // these into frames wholesale and hands back each frame's
            // displaced buffer, so steady-state prefetching recycles
            // allocations instead of copying a flat slab into frames a
            // second time.
            let mut scratch: Vec<Vec<u8>> =
                (0..MAX_RUN_PAGES).map(|_| vec![0u8; PAGE_SIZE]).collect();
            move |first, len| core.prefetch_run(first, len, &mut scratch)
        })
    }

    /// Spawns `threads` (at least one) workers, each executing runs through
    /// its own closure from `make_run`.
    fn spawn_runs<R>(threads: usize, make_run: impl Fn() -> R) -> Prefetcher
    where
        R: FnMut(PageId, u32) + Send + 'static,
    {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                runs: VecDeque::new(),
                active: 0,
                live: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers: Vec<_> = (0..threads.max(1))
            .filter_map(|_| {
                let shared = Arc::clone(&shared);
                let run = make_run();
                std::thread::Builder::new()
                    .name("smoke-prefetch".into())
                    .spawn(move || worker(&shared, run))
                    .ok()
            })
            .collect();
        // No run can be queued before `spawn_runs` returns, so no worker has
        // left yet.
        relock(&shared.queue).live = workers.len();
        Prefetcher { shared, workers }
    }

    /// Coalesces `pages` into runs and queues them. Non-blocking; excess
    /// runs beyond the queue bound are dropped.
    pub(crate) fn enqueue(&self, pages: &[PageId]) {
        if pages.is_empty() {
            return;
        }
        let mut ids: Vec<u32> = pages.iter().map(|p| p.0).collect();
        ids.sort_unstable();
        ids.dedup();
        let mut queued = false;
        {
            let mut q = relock(&self.shared.queue);
            if q.shutdown || q.live == 0 {
                return;
            }
            let mut i = 0;
            while i < ids.len() {
                let first = ids.get(i).copied().unwrap_or_default();
                let mut last = first;
                let mut j = i + 1;
                while let Some(&next) = ids.get(j) {
                    if next - last > MAX_COALESCE_GAP + 1 || next - first >= MAX_RUN_PAGES {
                        break;
                    }
                    last = next;
                    j += 1;
                }
                if q.runs.len() < MAX_QUEUED_RUNS {
                    q.runs.push_back((first, last - first + 1));
                    queued = true;
                }
                i = j;
            }
        }
        if queued {
            self.shared.work.notify_all();
        }
    }

    /// Blocks until the queue is empty and no worker is mid-run.
    pub(crate) fn quiesce(&self) {
        let mut q = relock(&self.shared.queue);
        while !(q.runs.is_empty() && q.active == 0) {
            q = self
                .shared
                .idle
                .wait(q)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        {
            let mut q = relock(&self.shared.queue);
            q.shutdown = true;
            q.runs.clear();
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Feeds queued runs to `run` until shutdown.
fn worker(shared: &Shared, mut run: impl FnMut(PageId, u32)) {
    loop {
        let (first, len) = {
            let mut q = relock(&shared.queue);
            loop {
                if let Some(next) = q.runs.pop_front() {
                    q.active += 1;
                    break next;
                }
                if q.shutdown {
                    return;
                }
                q = shared
                    .work
                    .wait(q)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let _active = ActiveRun(shared);
        run(PageId(first), len.min(MAX_RUN_PAGES));
    }
}

/// One worker's claim on [`Queue::active`], released on drop so that a run
/// which unwinds still lets [`Prefetcher::quiesce`] return. A panicking run
/// ends its worker; when the last worker is gone the queued runs are
/// dropped (hints are advisory) and later hints are ignored.
struct ActiveRun<'a>(&'a Shared);

impl Drop for ActiveRun<'_> {
    fn drop(&mut self) {
        let mut q = relock(&self.0.queue);
        q.active -= 1;
        if std::thread::panicking() {
            q.live -= 1;
            if q.live == 0 {
                q.runs.clear();
            }
        }
        if q.runs.is_empty() && q.active == 0 {
            self.0.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `quiesce` on a helper thread and fails, instead of hanging, if
    /// it has not returned within the watchdog timeout.
    fn assert_quiesces(prefetcher: Prefetcher) {
        let (tx, rx) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            prefetcher.quiesce();
            let _ = tx.send(());
        });
        let returned = rx.recv_timeout(Duration::from_secs(10)).is_ok();
        assert!(returned, "quiesce hung after a prefetch run panicked");
        waiter.join().expect("the waiter only quiesces and drops");
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn panicking_run_does_not_wedge_quiesce() {
        let prefetcher = Prefetcher::spawn_runs(1, || |_: PageId, _: u32| panic!("injected"));
        // Two runs too far apart to coalesce: the only worker dies on the
        // first, with the second still queued.
        prefetcher.enqueue(&[PageId(0), PageId(1000)]);
        assert_quiesces(prefetcher);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn surviving_worker_drains_the_queue_after_a_panic() {
        let calls = Arc::new(AtomicUsize::new(0));
        let prefetcher = Prefetcher::spawn_runs(2, || {
            let calls = Arc::clone(&calls);
            // The first run handed to either worker panics.
            move |_: PageId, _: u32| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected");
                }
            }
        });
        prefetcher.enqueue(&[PageId(0), PageId(1000), PageId(2000)]);
        assert_quiesces(prefetcher);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "every queued run was handed out"
        );
    }
}
