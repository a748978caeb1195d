//! Lineage-instrumented physical operators (paper §3.2, §3.3).
//!
//! Every operator comes in an uninstrumented form (Baseline) plus the Inject
//! and — where the paper defines one — Defer instrumentation paradigms. The
//! operators return both their output relation and the captured
//! [`OperatorLineage`].
//!
//! `select`, `group_by` and `hash_join` are each written once, as a
//! crate-private *core*: an ingest seam (the operator's own loop with Inject
//! capture fused in, fed rows `range` of a `&Relation`), a Defer re-probe
//! seam where the paper has one, and a finish seam. The entry points here,
//! in [`crate::parallel`] and in [`crate::paged`] are drivers that differ
//! only in where the ingested rows come from.

pub mod groupby;
pub mod join;
pub mod project;
pub mod select;

use smoke_lineage::{CaptureStats, OperatorLineage};
use smoke_storage::{PagedRelation, Relation, Rid, Schema};

use crate::error::Result;

/// What an operator core's finish seam needs from an input, whether its rows
/// are resident or behind a buffer pool: identity to name and type the
/// output, and a rid gather to materialize it.
pub(crate) trait RowSource {
    fn name(&self) -> &str;
    fn schema(&self) -> &Schema;
    fn rows(&self) -> usize;
    fn gather_rows(&self, rids: &[Rid], name: String) -> Result<Relation>;
}

impl RowSource for Relation {
    fn name(&self) -> &str {
        self.name()
    }
    fn schema(&self) -> &Schema {
        self.schema()
    }
    fn rows(&self) -> usize {
        self.len()
    }
    fn gather_rows(&self, rids: &[Rid], name: String) -> Result<Relation> {
        Ok(self.gather(rids, name))
    }
}

impl RowSource for PagedRelation {
    fn name(&self) -> &str {
        self.name()
    }
    fn schema(&self) -> &Schema {
        self.schema()
    }
    fn rows(&self) -> usize {
        self.len()
    }
    /// Pins only the pages the requested rids touch.
    fn gather_rows(&self, rids: &[Rid], name: String) -> Result<Relation> {
        Ok(self.gather(rids, name)?)
    }
}

/// The result of executing a single instrumented physical operator.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// The operator's output relation.
    pub output: Relation,
    /// Captured lineage w.r.t. the operator's input(s); empty for Baseline.
    pub lineage: OperatorLineage,
    /// Capture statistics for this operator.
    pub stats: CaptureStats,
}

impl OpOutput {
    /// Creates an output with no lineage (Baseline mode).
    pub fn baseline(output: Relation, stats: CaptureStats) -> Self {
        OpOutput {
            output,
            lineage: OperatorLineage::none(),
            stats,
        }
    }
}
