//! Selection with lineage capture (paper §3.2.2).
//!
//! Selection emits a record whenever the predicate holds. Both lineage
//! directions are rid arrays: the backward array lists the input rid of every
//! output record, and the forward array (pre-allocated at the input
//! cardinality) maps each input rid to its output rid or to the `NO_RID`
//! sentinel when filtered. The paper finds Defer strictly inferior to Inject
//! for selection, so only Inject is implemented.
//!
//! The predicate runs batch-at-a-time through its compiled column-kernel
//! pipeline ([`KernelPlan`](crate::kernels::KernelPlan)): the kernels produce
//! a selection bitmap, and one fused loop over the bitmap emits the matching
//! rid list (which *is* the backward index, reuse principle P4) and the
//! forward rid array together — capture stays fused with the base query
//! exactly as §3.2 prescribes, and both indexes are allocated exactly (the
//! bitmap's popcount subsumes the paper's `Smoke-I+EC` selectivity
//! estimate).

use std::ops::Range;
use std::time::Instant;

use smoke_lineage::{CaptureStats, InputLineage, LineageIndex, OperatorLineage, RidArray};
use smoke_storage::{Relation, Rid};

use crate::error::Result;
use crate::expr::Expr;
use crate::instrument::DirectionFilter;
use crate::kernels::predicate_mask_range;
use crate::ops::{OpOutput, RowSource};

/// Options controlling selection instrumentation.
#[derive(Debug, Clone, Default)]
pub struct SelectOptions {
    /// Whether (and in which directions) lineage is captured.
    pub directions: DirectionFilter,
    /// Whether capture is enabled at all (Baseline when `false`).
    pub capture: bool,
}

impl SelectOptions {
    /// Baseline: no capture.
    pub fn baseline() -> Self {
        SelectOptions::default()
    }

    /// Inject capture in both directions.
    pub fn inject() -> Self {
        SelectOptions {
            capture: true,
            directions: DirectionFilter::Both,
        }
    }
}

/// Executes `SELECT * FROM input WHERE predicate` with optional lineage
/// capture: one ingest of the whole resident relation.
pub fn select(input: &Relation, predicate: &Expr, opts: &SelectOptions) -> Result<OpOutput> {
    let start = Instant::now();
    let mut core = SelectCore::new(predicate, opts, input.len());
    core.ingest(input, 0..input.len(), 0)?;
    core.finish(input, start)
}

/// Emits one match: the next output rid is the match count so far.
#[inline]
fn emit(matching: &mut Vec<Rid>, forward: &mut Option<RidArray>, rid: usize) {
    if let Some(forward) = forward {
        forward.set(rid, matching.len() as Rid);
    }
    matching.push(rid as Rid);
}

/// The selection operator, written once. [`select`], the morsel driver in
/// [`crate::parallel`] and the page-run driver in [`crate::paged`] differ
/// only in which rows they hand to [`SelectCore::ingest`].
pub(crate) struct SelectCore<'o> {
    predicate: &'o Expr,
    opts: &'o SelectOptions,
    /// Matching rids are needed to materialize the output regardless of
    /// capture; the *backward index* is exactly this array, so Smoke reuses
    /// it (reuse principle P4) and the marginal capture cost is the forward
    /// array.
    matching: Vec<Rid>,
    forward: Option<RidArray>,
}

impl<'o> SelectCore<'o> {
    /// A core that will see all `rows` input rows, in rid order.
    pub(crate) fn new(predicate: &'o Expr, opts: &'o SelectOptions, rows: usize) -> Self {
        let capture_forward = opts.capture && opts.directions.forward();
        SelectCore {
            predicate,
            opts,
            matching: Vec::new(),
            forward: capture_forward.then(|| RidArray::filled(rows)),
        }
    }

    /// The input columns this core reads, by name: its predicate's.
    pub(crate) fn columns(&self) -> Vec<&'o str> {
        self.predicate.referenced_columns()
    }

    /// A per-morsel core: it only collects matches, because output rids are
    /// unknown until the ordered merge ([`SelectCore::absorb`]).
    pub(crate) fn fragment(predicate: &'o Expr, opts: &'o SelectOptions) -> Self {
        SelectCore {
            forward: None,
            ..SelectCore::new(predicate, opts, 0)
        }
    }

    /// Scans rows `range` of `rel`, whose global rid is `rid_offset + i`, and
    /// emits both lineage directions for every match in the same pass.
    pub(crate) fn ingest(
        &mut self,
        rel: &Relation,
        range: Range<usize>,
        rid_offset: usize,
    ) -> Result<()> {
        // Evaluate the pipeline into a bitmap, then emit both lineage
        // directions in one fused pass over it. The popcount gives the exact
        // output cardinality, so a single ingest never resizes.
        let mask = predicate_mask_range(rel, self.predicate, range.clone())?;
        let SelectCore {
            matching, forward, ..
        } = self;
        matching.reserve(mask.count_ones());
        mask.for_each_one(|i| emit(matching, forward, rid_offset + range.start + i));
        Ok(())
    }

    /// Ordered merge: appends the matches of the next morsel's fragment.
    /// Fragments arrive in morsel order, so the concatenation reproduces the
    /// sequential scan's ascending rid order and output rids exactly.
    pub(crate) fn absorb(&mut self, part: SelectCore<'_>) {
        self.matching.reserve(part.matching.len());
        for rid in part.matching {
            emit(&mut self.matching, &mut self.forward, rid as usize);
        }
    }

    /// Gathers the output and assembles lineage and [`CaptureStats`].
    pub(crate) fn finish(self, input: &impl RowSource, start: Instant) -> Result<OpOutput> {
        let output = input.gather_rows(&self.matching, format!("select({})", input.name()))?;
        let mut stats = CaptureStats {
            base_query: start.elapsed(),
            ..Default::default()
        };
        if !self.opts.capture {
            return Ok(OpOutput::baseline(output, stats));
        }

        let backward_index = LineageIndex::Array(RidArray::from_vec(self.matching));
        stats.edges = output.len() as u64;
        stats.lineage_bytes = (backward_index.heap_bytes()
            + self.forward.as_ref().map_or(0, RidArray::heap_bytes))
            as u64;

        let lineage = InputLineage {
            backward: self.opts.directions.backward().then_some(backward_index),
            forward: self.forward.map(LineageIndex::Array),
        };
        Ok(OpOutput {
            output,
            lineage: OperatorLineage::unary(lineage),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::{DataType, Value};

    fn rel() -> Relation {
        let mut b = Relation::builder("t")
            .column("id", DataType::Int)
            .column("v", DataType::Float);
        for i in 0..10 {
            b = b.row(vec![Value::Int(i), Value::Float(i as f64 * 10.0)]);
        }
        b.build().unwrap()
    }

    #[test]
    fn baseline_produces_no_lineage() {
        let r = rel();
        let out = select(
            &r,
            &Expr::col("v").lt(Expr::lit(35.0)),
            &SelectOptions::baseline(),
        )
        .unwrap();
        assert_eq!(out.output.len(), 4);
        assert!(out.lineage.is_none());
    }

    #[test]
    fn inject_builds_backward_and_forward() {
        let r = rel();
        let out = select(
            &r,
            &Expr::col("id").ge(Expr::lit(7)),
            &SelectOptions::inject(),
        )
        .unwrap();
        assert_eq!(out.output.len(), 3);
        let lin = out.lineage.input(0);
        // Backward: output rid -> input rid.
        assert_eq!(lin.backward().lookup(0), vec![7]);
        assert_eq!(lin.backward().lookup(2), vec![9]);
        // Forward: input rid -> output rid; filtered rows map to nothing.
        assert_eq!(lin.forward().lookup(8), vec![1]);
        assert_eq!(lin.forward().lookup(0), Vec::<Rid>::new());
        assert_eq!(out.stats.edges, 3);
    }

    #[test]
    fn empty_selection() {
        let r = rel();
        let out = select(
            &r,
            &Expr::col("id").gt(Expr::lit(100)),
            &SelectOptions::inject(),
        )
        .unwrap();
        assert_eq!(out.output.len(), 0);
        assert_eq!(out.lineage.input(0).backward().len(), 0);
        assert_eq!(out.lineage.input(0).forward().lookup(5), Vec::<Rid>::new());
    }

    #[test]
    fn forward_and_backward_are_inverse() {
        let r = rel();
        let out = select(
            &r,
            &Expr::col("id").in_list(vec![Value::Int(2), Value::Int(5), Value::Int(8)]),
            &SelectOptions::inject(),
        )
        .unwrap();
        let lin = out.lineage.input(0);
        for o in 0..out.output.len() as Rid {
            let input = lin.backward().single(o).unwrap();
            assert_eq!(lin.forward().single(input), Some(o));
        }
    }
}
