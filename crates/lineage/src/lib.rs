//! # smoke-lineage
//!
//! Write-efficient lineage index representations used by the Smoke engine
//! (Psallidas & Wu, VLDB 2018, §3.1).
//!
//! Lineage maps *rids* (row identifiers) of an operator's (or query's) output
//! to the rids of its input(s) — the **backward** direction — and vice versa —
//! the **forward** direction. Smoke stores these mappings in two simple
//! structures:
//!
//! * [`RidArray`] — one rid per entry, for 1-to-1 relationships (e.g. the
//!   backward lineage of a selection);
//! * [`RidIndex`] — an inverted index whose `i`-th entry is a rid array, for
//!   1-to-N relationships (e.g. the backward lineage of a group-by);
//! * [`CsrRidIndex`] — the same 1-to-N mapping finalized into two contiguous
//!   exactly-sized buffers (compressed sparse row) for read-heavy tracing;
//! * [`CompressedCsrIndex`] — a finished CSR spilled out of core: resident
//!   offsets over delta + bit-packed rid blocks in a buffer-pool-backed
//!   segment store, decoding only the blocks a trace touches.
//!
//! Following the paper (and the high-performance vector libraries it cites),
//! rid arrays start with capacity 10 and grow by 1.5× on overflow; the resize
//! accounting exposed by [`CaptureStats`] is what the cardinality-statistics
//! experiments measure.
//!
//! Higher-level structures combine these representations:
//!
//! * [`LineageIndex`] — a direction-agnostic mapping with identity and
//!   single/multi variants;
//! * [`OperatorLineage`] / [`QueryLineage`] — per-operator and end-to-end
//!   (output ↔ base relation) lineage;
//! * [`CellDirectory`] / [`PartitionedRidIndex`] — per output entry, the
//!   cells of a finer group-by sorted by typed attribute values, and that
//!   directory over the cells' sealed rid CSR: the physical design used by
//!   the data-skipping and group-by push-down optimizations of §4.2;
//! * [`semantics`] — which/why/how provenance derived from backward indexes
//!   (Appendix E).

#![warn(missing_docs)]

mod compose;
mod compressed;
mod csr;
mod index;
mod operator;
mod partitioned;
mod rid_array;
mod rid_index;
pub mod semantics;
mod stats;

pub use compose::{compose_backward, compose_forward};
pub use compressed::{CompressedCsrIndex, EDGES_PER_BLOCK};
pub use csr::{CsrBuilder, CsrRidIndex};
pub use index::LineageIndex;
pub use operator::{InputLineage, OperatorLineage, QueryLineage};
pub use partitioned::{CellDirectory, PartitionedRidIndex};
pub use rid_array::{RidArray, NO_RID};
pub use rid_index::RidIndex;
pub use stats::CaptureStats;

pub use smoke_storage::Rid;
