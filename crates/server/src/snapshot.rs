//! Immutable, `Arc`-shareable serving snapshots.
//!
//! A [`Snapshot`] is the unit the server shares across its sessions: a set
//! of named [`View`]s, each bundling a base relation, the view's output
//! relation, and every capture-time artifact the planner can choose among
//! (backward/forward lineage indexes, a partitioned rid index, a pushed-down
//! cube, lazy-rewrite info, capture stats). All fields are owned and never
//! mutated after construction — finalized CSR indexes are read-only by
//! design — so a `Arc<Snapshot>` needs no locks on the query path.

use std::collections::BTreeMap;

use smoke_core::workload::WorkloadArtifacts;
use smoke_core::{EngineError, Result};
use smoke_lineage::{CaptureStats, InputLineage, LineageIndex};
use smoke_planner::wire::QuerySpec;
use smoke_planner::{Explain, LineagePlanner, LineageResult, RewriteInfo};
use smoke_storage::Relation;

/// One traced view inside a [`Snapshot`]: a base relation, an output
/// relation, and the capture artifacts the planner consults.
#[derive(Debug, Clone)]
pub struct View {
    base: Relation,
    output: Relation,
    backward: Option<LineageIndex>,
    forward: Option<LineageIndex>,
    artifacts: WorkloadArtifacts,
    rewrite: Option<RewriteInfo>,
    stats: Option<CaptureStats>,
}

impl View {
    /// Creates a view with no artifacts registered yet.
    pub fn new(base: Relation, output: Relation) -> Self {
        View {
            base,
            output,
            backward: None,
            forward: None,
            artifacts: WorkloadArtifacts::default(),
            rewrite: None,
            stats: None,
        }
    }

    /// Registers both directions of an [`InputLineage`] (cloned into the
    /// snapshot; the capture side keeps its own copy).
    pub fn lineage(mut self, lineage: &InputLineage) -> Self {
        self.backward = lineage.backward.clone();
        self.forward = lineage.forward.clone();
        self
    }

    /// Registers workload-aware capture artifacts (partitioned index / cube).
    pub fn artifacts(mut self, artifacts: &WorkloadArtifacts) -> Self {
        self.artifacts = artifacts.clone();
        self
    }

    /// Registers lazy-rewrite information about the base query.
    pub fn rewrite(mut self, rewrite: RewriteInfo) -> Self {
        self.rewrite = Some(rewrite);
        self
    }

    /// Registers capture statistics (a fallback cardinality source for the
    /// cost model).
    pub fn stats(mut self, stats: CaptureStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The view's base relation.
    pub fn base(&self) -> &Relation {
        &self.base
    }

    /// The view's output relation.
    pub fn output(&self) -> &Relation {
        &self.output
    }

    /// The view's forward index (base rid → output rids), used as the target
    /// of `then_through` compose chains.
    pub fn forward_index(&self) -> Option<&LineageIndex> {
        self.forward.as_ref()
    }

    /// A planner over this view's relations and artifacts. Cheap: the
    /// planner borrows, it does not copy.
    pub fn planner(&self) -> LineagePlanner<'_> {
        let mut planner = LineagePlanner::new(&self.base, &self.output).artifacts(&self.artifacts);
        if let Some(b) = &self.backward {
            planner = planner.backward_index(b);
        }
        if let Some(f) = &self.forward {
            planner = planner.forward_index(f);
        }
        if let Some(r) = &self.rewrite {
            planner = planner.rewrite(r.clone());
        }
        if let Some(s) = self.stats {
            planner = planner.stats(s);
        }
        planner
    }

    /// Approximate heap footprint of the view (relations + indexes). Walks
    /// every index entry; [`Snapshot::with_view`] calls it once.
    pub fn heap_bytes(&self) -> usize {
        let idx = |i: &Option<LineageIndex>| i.as_ref().map_or(0, |x| x.edge_count() * 4);
        self.base.heap_bytes() + self.output.heap_bytes() + idx(&self.backward) + idx(&self.forward)
    }
}

/// An immutable set of named views, shared across server sessions via `Arc`.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    views: BTreeMap<String, View>,
    heap_bytes: usize,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Adds a named view (builder style).
    pub fn with_view(mut self, name: impl Into<String>, view: View) -> Self {
        self.heap_bytes += view.heap_bytes();
        if let Some(replaced) = self.views.insert(name.into(), view) {
            self.heap_bytes -= replaced.heap_bytes();
        }
        self
    }

    /// Looks up a view by name.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.get(name)
    }

    /// The names of all views, sorted.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(|k| k.as_str()).collect()
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the snapshot holds no views.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Resolves a [`QuerySpec`]'s compose chain against this snapshot: each
    /// chain entry names a view whose *forward* index the trace continues
    /// through.
    fn resolve_chain(&self, name: &str) -> Option<&LineageIndex> {
        self.views.get(name).and_then(|v| v.forward_index())
    }

    /// Plans and executes a wire query against the named view. This is the
    /// sequential reference path: the server's sessions call exactly this,
    /// so a concurrent response is correct iff this is.
    pub fn execute(&self, view: &str, spec: &QuerySpec) -> Result<LineageResult> {
        let v = self
            .views
            .get(view)
            .ok_or_else(|| EngineError::InvalidPlan(format!("unknown view `{view}`")))?;
        let planner = v.planner();
        let query = spec.to_query(|name| self.resolve_chain(name))?;
        match spec.strategy {
            Some(strategy) => planner.execute_with(strategy, &query),
            None => planner.execute(&query),
        }
    }

    /// Plans a wire query against the named view and returns the `EXPLAIN`
    /// record.
    pub fn explain(&self, view: &str, spec: &QuerySpec) -> Result<Explain> {
        let v = self
            .views
            .get(view)
            .ok_or_else(|| EngineError::InvalidPlan(format!("unknown view `{view}`")))?;
        let query = spec.to_query(|name| self.resolve_chain(name))?;
        v.planner().explain(&query)
    }

    /// Approximate heap footprint of all views, for the STATS report. A
    /// snapshot is immutable, so this is the sum taken as the views were
    /// added.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }
}
