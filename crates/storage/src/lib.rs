//! # smoke-storage
//!
//! In-memory, rid-addressable relational storage engine used by the Smoke
//! lineage system (Psallidas & Wu, VLDB 2018).
//!
//! The storage layer is deliberately simple and write-efficient:
//!
//! * relations are stored column-at-a-time (`Vec<i64>`, `Vec<f64>`,
//!   `Vec<String>`) for memory compactness,
//! * execution above this layer reads typed column vectors: predicates
//!   vectorized over [`kernels`], group-by and join keys row by row, either
//!   sequentially or partition-parallel over [`morsel`] ranges of 64-aligned
//!   rows,
//! * every tuple is addressed by its **rid** (row identifier), the position of
//!   the tuple inside its relation. Lineage indexes built by `smoke-lineage`
//!   map rids of one relation to rids of another.
//!
//! ```
//! use smoke_storage::{Relation, DataType, Value};
//!
//! let rel = Relation::builder("orders")
//!     .column("id", DataType::Int)
//!     .column("price", DataType::Float)
//!     .row(vec![Value::Int(1), Value::Float(10.0)])
//!     .row(vec![Value::Int(2), Value::Float(20.0)])
//!     .build()
//!     .unwrap();
//! assert_eq!(rel.len(), 2);
//! assert_eq!(rel.value(1, 1), Value::Float(20.0));
//! ```

#![warn(missing_docs)]

mod column;
mod database;
mod error;
pub mod kernels;
pub mod morsel;
pub mod paged;
mod relation;
mod rid;
mod schema;
mod value;

pub use column::Column;
pub use database::Database;
pub use error::StorageError;
pub use kernels::{KernelCmp, SelectionMask};
pub use morsel::{align_morsel_rows, morsels, Morsel, DEFAULT_MORSEL_ROWS};
pub use paged::{FixedRunWriter, PagedRelation, DEFAULT_CHUNK_ROWS, ROWS_PER_PAGE};
// `from_fixed_runs` / `FixedRunWriter::finish` speak in page ids; re-export
// the pager vocabulary so storage's paged API is usable without a direct
// smoke-pager dependency.
pub use relation::{Relation, RelationBuilder, RowRef};
pub use rid::{Rid, RidVec};
pub use schema::{Field, Schema};
pub use smoke_pager::{PageId, PAGE_SIZE};
pub use value::{DataType, Value};

/// Convenience result alias used across the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;
