//! `smoke-pager`: a file-backed segment store of fixed-size pages behind a
//! budgeted buffer pool.
//!
//! This is the out-of-core foundation of the Smoke workspace: paged columns
//! ([`smoke_storage::paged`]), compressed CSR lineage blocks
//! ([`smoke_lineage`]'s paged index), and the planner's I/O cost term all
//! sit on these three pieces:
//!
//! * [`SegmentStore`] — a flat array of [`PAGE_SIZE`]-byte pages on disk
//!   (or in memory for tests/Miri), with bump allocation and physical
//!   read/write counters;
//! * [`BufferPool`] — at most `budget_pages` pages resident at once, with
//!   pin/unpin RAII [`PageGuard`]s, dirty write-back, and hit / miss /
//!   eviction counters ([`PoolStats`]);
//! * [`Sieve`] — the replacement policy behind the pool (the one variant
//!   of [`ReplacementPolicy`]).
//!
//! The pool owns no threads: a page enters a frame only through a demand
//! pin (or write) on the caller's thread, one [`SegmentStore::read_page`]
//! per miss.
//!
//! The crate is dependency-free, `unsafe`-free, and panic-free outside
//! tests (enforced by `smoke-lint`'s no-panic scope): every failure mode is
//! a typed [`PagerError`].
//!
//! ```
//! use smoke_pager::{BufferPool, PageId, ReplacementPolicy, SegmentStore, PAGE_SIZE};
//!
//! let store = SegmentStore::in_memory();
//! store.allocate(8);
//! let pool = BufferPool::new(store, 2, ReplacementPolicy::Sieve);
//! pool.with_page_mut(PageId(3), |bytes| bytes[0] = 42).unwrap();
//!
//! let guard = pool.pin(PageId(3)).unwrap(); // RAII pin
//! assert_eq!(guard[0], 42);
//! assert_eq!(guard.len(), PAGE_SIZE);
//! drop(guard); // unpin; the frame becomes evictable again
//! assert!(pool.stats().hits >= 1);
//! ```
//!
//! [`smoke_storage::paged`]: https://docs.rs/smoke-storage
//! [`smoke_lineage`]: https://docs.rs/smoke-lineage

#![warn(missing_docs)]

pub mod error;
pub mod page;
pub mod pool;
pub mod replacer;
pub mod store;

pub use error::PagerError;
pub use page::{PageId, PAGE_SIZE};
pub use pool::{BufferPool, PageGuard, PoolStats};
pub use replacer::{ReplacementPolicy, Sieve};
pub use store::SegmentStore;
