//! Per-operator and end-to-end (query-level) lineage containers.

use std::collections::BTreeMap;

use smoke_storage::Rid;

use crate::index::LineageIndex;
use crate::stats::CaptureStats;

/// The lineage of one operator (or of an end-to-end query) with respect to a
/// single input relation: a backward index (output rid → input rids) and a
/// forward index (input rid → output rids).
///
/// Either direction may be absent when instrumentation pruning (§4.1) disabled
/// its capture.
#[derive(Debug, Clone, Default)]
pub struct InputLineage {
    /// Output rid → input rids.
    pub backward: Option<LineageIndex>,
    /// Input rid → output rids.
    pub forward: Option<LineageIndex>,
}

impl InputLineage {
    /// Creates lineage with both directions captured.
    pub fn new(backward: LineageIndex, forward: LineageIndex) -> Self {
        InputLineage {
            backward: Some(backward),
            forward: Some(forward),
        }
    }

    /// Creates lineage with only the backward direction captured.
    pub fn backward_only(backward: LineageIndex) -> Self {
        InputLineage {
            backward: Some(backward),
            forward: None,
        }
    }

    /// Creates lineage with only the forward direction captured.
    pub fn forward_only(forward: LineageIndex) -> Self {
        InputLineage {
            backward: None,
            forward: Some(forward),
        }
    }

    /// Backward index, panicking with a clear message when it was pruned.
    pub fn backward(&self) -> &LineageIndex {
        self.backward
            .as_ref()
            .expect("backward lineage was not captured (pruned)")
    }

    /// Forward index, panicking with a clear message when it was pruned.
    pub fn forward(&self) -> &LineageIndex {
        self.forward
            .as_ref()
            .expect("forward lineage was not captured (pruned)")
    }

    /// Approximate heap footprint in bytes of the captured indexes.
    pub fn heap_bytes(&self) -> usize {
        self.backward.as_ref().map_or(0, LineageIndex::heap_bytes)
            + self.forward.as_ref().map_or(0, LineageIndex::heap_bytes)
    }

    /// The identity: every operator seals its lineage into read-side form
    /// before handing it out. Kept only because the frozen benchmark calls
    /// it (ROADMAP 11(h)).
    pub fn finalize(self) -> Self {
        self
    }
}

/// The lineage captured while executing one physical operator, keyed by the
/// operator's input position (0 for unary operators; 0 = left / build side and
/// 1 = right / probe side for binary operators).
#[derive(Debug, Clone, Default)]
pub struct OperatorLineage {
    inputs: Vec<InputLineage>,
    /// Capture statistics for this operator.
    pub stats: CaptureStats,
}

impl OperatorLineage {
    /// Creates lineage for a unary operator.
    pub fn unary(lineage: InputLineage) -> Self {
        OperatorLineage {
            inputs: vec![lineage],
            stats: CaptureStats::default(),
        }
    }

    /// Creates lineage for a binary operator.
    pub fn binary(left: InputLineage, right: InputLineage) -> Self {
        OperatorLineage {
            inputs: vec![left, right],
            stats: CaptureStats::default(),
        }
    }

    /// Creates an empty container (used by the Baseline / no-capture mode).
    pub fn none() -> Self {
        OperatorLineage::default()
    }

    /// Lineage w.r.t. the input at `pos`.
    pub fn input(&self, pos: usize) -> &InputLineage {
        &self.inputs[pos]
    }

    /// Mutable lineage w.r.t. the input at `pos`.
    pub fn input_mut(&mut self, pos: usize) -> &mut InputLineage {
        &mut self.inputs[pos]
    }

    /// Number of inputs this operator captured lineage for.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Whether no lineage was captured at all.
    pub fn is_none(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Approximate heap footprint in bytes of all captured indexes.
    pub fn heap_bytes(&self) -> usize {
        self.inputs.iter().map(InputLineage::heap_bytes).sum()
    }
}

/// End-to-end lineage of an executed query: for every **base relation** the
/// query reads, a backward index (query-output rid → base rids) and a forward
/// index (base rid → query-output rids).
///
/// This is what remains after the multi-operator propagation of §3.3 — the
/// intermediate per-operator indexes have been composed and discarded.
#[derive(Debug, Clone, Default)]
pub struct QueryLineage {
    tables: BTreeMap<String, InputLineage>,
    /// Aggregated capture statistics for the whole query.
    pub stats: CaptureStats,
}

impl QueryLineage {
    /// Creates an empty query lineage.
    pub fn new() -> Self {
        QueryLineage::default()
    }

    /// Registers the lineage for a base relation.
    pub fn insert(&mut self, table: impl Into<String>, lineage: InputLineage) {
        self.tables.insert(table.into(), lineage);
    }

    /// The lineage w.r.t. the named base relation, if captured.
    pub fn table(&self, table: &str) -> Option<&InputLineage> {
        self.tables.get(table)
    }

    /// Moves out the lineage w.r.t. the named base relation, if captured.
    pub fn remove(&mut self, table: &str) -> Option<InputLineage> {
        self.tables.remove(table)
    }

    /// Names of all base relations with captured lineage.
    pub fn tables(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Whether any lineage was captured.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Evaluates a backward lineage query `Lb(output_rids, table)`: the base
    /// rids of `table` that contributed to the given output rids.
    pub fn backward(&self, output_rids: &[Rid], table: &str) -> Vec<Rid> {
        match self.tables.get(table).and_then(|l| l.backward.as_ref()) {
            Some(idx) => idx.trace_set(output_rids),
            None => Vec::new(),
        }
    }

    /// Evaluates a forward lineage query `Lf(base_rids, table)`: the output
    /// rids that depend on the given base rids of `table`.
    pub fn forward(&self, base_rids: &[Rid], table: &str) -> Vec<Rid> {
        match self.tables.get(table).and_then(|l| l.forward.as_ref()) {
            Some(idx) => idx.trace_set(base_rids),
            None => Vec::new(),
        }
    }

    /// Approximate heap footprint in bytes of all captured indexes.
    pub fn heap_bytes(&self) -> usize {
        self.tables.values().map(InputLineage::heap_bytes).sum()
    }

    /// The identity, as [`InputLineage::finalize`] is: kept only because
    /// the frozen benchmark calls it (ROADMAP 11(h)).
    pub fn finalize(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rid_array::RidArray;
    use crate::rid_index::RidIndex;

    fn groupby_like_lineage() -> InputLineage {
        // 2 output groups over 5 input rows.
        let backward = RidIndex::from_entries(vec![vec![0, 2, 4], vec![1, 3]]).finalize();
        let backward = LineageIndex::Csr(backward);
        let forward = LineageIndex::Array(RidArray::from_vec(vec![0, 1, 0, 1, 0]));
        InputLineage::new(backward, forward)
    }

    #[test]
    fn unary_operator_lineage() {
        let op = OperatorLineage::unary(groupby_like_lineage());
        assert_eq!(op.input_count(), 1);
        assert_eq!(op.input(0).backward().lookup(0), vec![0, 2, 4]);
        assert_eq!(op.input(0).forward().lookup(3), vec![1]);
        assert!(op.heap_bytes() > 0);
        assert!(!op.is_none());
        assert!(OperatorLineage::none().is_none());
    }

    #[test]
    fn query_lineage_backward_forward() {
        let mut q = QueryLineage::new();
        q.insert("zipf", groupby_like_lineage());
        assert_eq!(q.tables(), vec!["zipf"]);
        assert_eq!(q.backward(&[0], "zipf"), vec![0, 2, 4]);
        assert_eq!(q.backward(&[0, 1], "zipf"), vec![0, 2, 4, 1, 3]);
        assert_eq!(q.forward(&[1, 3], "zipf"), vec![1]);
        // Unknown table -> empty result rather than panic.
        assert!(q.backward(&[0], "nope").is_empty());
        assert!(!q.is_empty());
    }

    #[test]
    fn pruned_directions_are_absent() {
        let lin = InputLineage::backward_only(LineageIndex::Identity(3));
        assert!(lin.forward.is_none());
        assert_eq!(lin.backward().lookup(1), vec![1]);

        let lin = InputLineage::forward_only(LineageIndex::Identity(3));
        assert!(lin.backward.is_none());
        assert_eq!(lin.forward().lookup(2), vec![2]);
    }

    #[test]
    #[should_panic(expected = "backward lineage was not captured")]
    fn pruned_backward_panics_with_message() {
        let lin = InputLineage::forward_only(LineageIndex::Identity(1));
        let _ = lin.backward();
    }
}
