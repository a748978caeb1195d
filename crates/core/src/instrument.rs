//! Capture modes and capture configuration.
//!
//! The paper's two instrumentation paradigms (§3.2) are **Inject** — pay the
//! full capture cost inside operator execution — and **Defer** — postpone
//! part of index construction until after the operator, exploiting the exact
//! cardinalities known by then. `CaptureMode` selects the paradigm;
//! `CaptureConfig` adds cardinality hints and the workload-aware options of
//! §4 (pruning, push-downs).

use std::collections::HashMap;

use crate::expr::Expr;
use crate::key::HashKey;

/// Which lineage-capture paradigm instruments the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaptureMode {
    /// No lineage capture (the paper's `Baseline`).
    Baseline,
    /// Inject: capture everything during operator execution (`Smoke-I`).
    #[default]
    Inject,
    /// Defer: postpone index construction for pipeline breakers until after
    /// operator execution (`Smoke-D`).
    Defer,
    /// Defer only the forward index of the join's build side
    /// (`Smoke-D-DeferForw`, §6.1.3).
    DeferForward,
}

impl CaptureMode {
    /// Whether this mode captures any lineage at all.
    pub fn captures(self) -> bool {
        self != CaptureMode::Baseline
    }
}

/// Which lineage directions to capture for a relation (pruning, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectionFilter {
    /// Capture both backward and forward lineage.
    #[default]
    Both,
    /// Capture only backward lineage (output → input).
    BackwardOnly,
    /// Capture only forward lineage (input → output).
    ForwardOnly,
    /// Capture nothing for this relation.
    None,
}

impl DirectionFilter {
    /// Whether backward lineage should be captured.
    pub fn backward(self) -> bool {
        matches!(self, DirectionFilter::Both | DirectionFilter::BackwardOnly)
    }

    /// Whether forward lineage should be captured.
    pub fn forward(self) -> bool {
        matches!(self, DirectionFilter::Both | DirectionFilter::ForwardOnly)
    }
}

/// Cardinality statistics supplied up-front (the `+TC` variants of the
/// paper's experiments). When present, group-by rid arrays are pre-allocated
/// to the exact sizes and avoid resize costs. Selection needs no hint: its
/// kernel bitmap's popcount sizes the backward array exactly.
#[derive(Debug, Clone, Default)]
pub struct CardinalityHints {
    /// Expected number of input rows per group/join key.
    pub per_key: HashMap<HashKey, usize>,
}

impl CardinalityHints {
    /// Hints with per-key cardinalities.
    pub fn with_per_key(per_key: HashMap<HashKey, usize>) -> Self {
        CardinalityHints { per_key }
    }

    /// The expected cardinality for `key`, if known.
    pub fn cardinality(&self, key: &HashKey) -> Option<usize> {
        self.per_key.get(key).copied()
    }
}

/// Group-by push-down specification (§4.2): during capture, partition the
/// backward rid arrays by `partition_by` and incrementally maintain the given
/// aggregates per partition — an online partial data cube.
#[derive(Debug, Clone)]
pub struct AggPushdown {
    /// Extra group-by attributes of the lineage-consuming query (columns of
    /// the base relation feeding the final aggregation).
    pub partition_by: Vec<String>,
    /// Aggregates of the lineage-consuming query.
    pub aggs: Vec<crate::agg::AggExpr>,
}

/// Workload-aware capture options attached to the final aggregation operator
/// of an SPJA block (§4).
#[derive(Debug, Clone, Default)]
pub struct WorkloadOptions {
    /// Selection push-down: only input rows satisfying this predicate enter
    /// the lineage indexes (§4.2 "Selection push-down").
    pub selection_pushdown: Option<Expr>,
    /// Data skipping: partition backward rid arrays by these attributes of the
    /// input relation (§4.2 "Data skipping using lineage").
    pub skipping_partition_by: Vec<String>,
    /// Group-by push-down: materialize aggregates per partition during capture
    /// (§4.2 "Group-by push-down").
    pub agg_pushdown: Option<AggPushdown>,
}

impl WorkloadOptions {
    /// Whether any workload-aware option is active.
    pub fn is_active(&self) -> bool {
        self.selection_pushdown.is_some()
            || !self.skipping_partition_by.is_empty()
            || self.agg_pushdown.is_some()
    }
}

/// Full capture configuration for a query execution.
#[derive(Debug, Clone, Default)]
pub struct CaptureConfig {
    /// Instrumentation paradigm.
    pub mode: CaptureMode,
    /// Per-base-relation pruning. Relations not present use
    /// [`CaptureConfig::default_directions`].
    pub per_table: HashMap<String, DirectionFilter>,
    /// Directions captured for relations without an explicit entry.
    pub default_directions: DirectionFilter,
    /// Optional cardinality statistics.
    pub hints: Option<CardinalityHints>,
    /// Workload-aware options (push-downs / skipping).
    pub workload: WorkloadOptions,
}

impl CaptureConfig {
    /// A configuration with the given mode and no other options.
    pub fn new(mode: CaptureMode) -> Self {
        CaptureConfig {
            mode,
            ..Default::default()
        }
    }

    /// The paper's `Baseline`: no capture.
    pub fn baseline() -> Self {
        CaptureConfig::new(CaptureMode::Baseline)
    }

    /// `Smoke-I`.
    pub fn inject() -> Self {
        CaptureConfig::new(CaptureMode::Inject)
    }

    /// `Smoke-D`.
    pub fn defer() -> Self {
        CaptureConfig::new(CaptureMode::Defer)
    }

    /// Restricts capture for a relation to the given directions (pruning).
    pub fn prune(mut self, table: impl Into<String>, directions: DirectionFilter) -> Self {
        self.per_table.insert(table.into(), directions);
        self
    }

    /// Sets the default directions for relations without explicit pruning.
    pub fn default_directions(mut self, directions: DirectionFilter) -> Self {
        self.default_directions = directions;
        self
    }

    /// Attaches cardinality hints.
    pub fn with_hints(mut self, hints: CardinalityHints) -> Self {
        self.hints = Some(hints);
        self
    }

    /// Attaches workload-aware options.
    pub fn with_workload(mut self, workload: WorkloadOptions) -> Self {
        self.workload = workload;
        self
    }

    /// The directions to capture for `table`.
    pub fn directions_for(&self, table: &str) -> DirectionFilter {
        self.per_table
            .get(table)
            .copied()
            .unwrap_or(self.default_directions)
    }

    /// Whether any lineage should be captured for `table`.
    pub fn captures_table(&self, table: &str) -> bool {
        self.mode.captures() && self.directions_for(table) != DirectionFilter::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_captures_nothing() {
        assert!(!CaptureMode::Baseline.captures());
        assert!(CaptureMode::Inject.captures());
        assert!(!CaptureConfig::baseline().captures_table("zipf"));
        assert!(CaptureConfig::inject().captures_table("zipf"));
    }

    #[test]
    fn pruning_controls_directions() {
        let cfg = CaptureConfig::inject()
            .prune("orders", DirectionFilter::None)
            .prune("lineitem", DirectionFilter::BackwardOnly);
        assert!(!cfg.captures_table("orders"));
        assert!(cfg.captures_table("lineitem"));
        assert!(cfg.directions_for("lineitem").backward());
        assert!(!cfg.directions_for("lineitem").forward());
        assert!(cfg.directions_for("other").backward());
        assert!(cfg.directions_for("other").forward());
    }

    #[test]
    fn direction_filter_accessors() {
        assert!(DirectionFilter::Both.backward() && DirectionFilter::Both.forward());
        assert!(DirectionFilter::ForwardOnly.forward() && !DirectionFilter::ForwardOnly.backward());
        assert!(!DirectionFilter::None.backward() && !DirectionFilter::None.forward());
    }

    #[test]
    fn hints_lookup() {
        let mut per_key = HashMap::new();
        per_key.insert(HashKey::Int(7), 100usize);
        let hints = CardinalityHints::with_per_key(per_key);
        assert_eq!(hints.cardinality(&HashKey::Int(7)), Some(100));
        assert_eq!(hints.cardinality(&HashKey::Int(8)), None);
    }

    #[test]
    fn workload_options_activity() {
        assert!(!WorkloadOptions::default().is_active());
        let opts = WorkloadOptions {
            skipping_partition_by: vec!["l_shipmode".into()],
            ..Default::default()
        };
        assert!(opts.is_active());
    }
}
