//! `smoke-server`: the concurrent serving layer over finalized lineage.
//!
//! Smoke's capture side finishes with immutable artifacts — output
//! relations, CSR lineage indexes, partitioned rid indexes, pushed-down
//! cubes. This crate puts a server in front of them:
//!
//! - [`snapshot`]: [`Snapshot`]s bundle those artifacts into named, `Arc`-
//!   shared, never-mutated [`View`]s, so every session serves one copy with
//!   no locks on the query path.
//! - [`protocol`]: length-prefixed JSON frames carrying declarative
//!   [`smoke_planner::wire::QuerySpec`] queries — the planner API *is* the
//!   wire protocol.
//! - [`server`]: sessions (one thread per connection, and a request never
//!   leaves it), a counting admission gate that caps how many queries
//!   execute and wait at once and sheds the rest with a typed `server_busy`
//!   error, and graceful drain on shutdown.
//! - [`cache`]: a normalized-query result cache (LRU, counter-instrumented)
//!   keyed on [`smoke_planner::wire::QuerySpec::cache_key`].
//! - [`client`]: a small blocking client used by benches, tests, and the CI
//!   soak harness.
//! - [`workload`]: the demo snapshot plus the zipf-skewed interactive query
//!   mix (brush / linked views / crossfilter / drilldown / forward traces).

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod workload;

pub use cache::{CacheCounters, QueryCache};
pub use client::{Client, Reply};
pub use protocol::{ErrorCode, Request, MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use snapshot::{Snapshot, View};
pub use workload::{demo_snapshot, QueryMix};
