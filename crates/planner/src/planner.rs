//! The cost-based lineage-query planner and its executor.

use smoke_core::lazy::{backward_predicate, lazy_backward};
use smoke_core::query::consume_aggregate;
use smoke_core::workload::{LineageCube, WorkloadArtifacts};
use smoke_core::{CmpOp, EngineError, Expr, LogicalPlan, QueryOutput, Result};
use smoke_lineage::{CaptureStats, InputLineage, LineageIndex, PartitionedRidIndex};
use smoke_storage::{DataType, Relation, Rid, Value};

use std::collections::BTreeSet;

use crate::cost::{
    CandidateCost, Explain, IoModel, Strategy, COST_CUBE_CELL, COST_EDGE, COST_KEY_TERM,
    COST_ROW_CONSUME, COST_ROW_PREDICATE_SCALAR, COST_ROW_PREDICATE_VECTOR, QUERY_OVERHEAD,
};
use crate::query::{Consume, Direction, LineageQuery, Selection};

/// What the lazy-rewrite strategy needs to know about the base query: its
/// group-by keys and the selection it applied to the base relation.
///
/// Derivable from a [`LogicalPlan`] for the single-table SPJA blocks the
/// paper's lazy rewrites target (group-by root over select/project/scan).
#[derive(Debug, Clone)]
pub struct RewriteInfo {
    /// Group-by keys of the base query (must be columns of both the base and
    /// output relations).
    pub keys: Vec<String>,
    /// The base query's own selection predicate, if any.
    pub base_selection: Option<Expr>,
}

impl RewriteInfo {
    /// Creates rewrite info from explicit parts.
    pub fn new(keys: Vec<String>, base_selection: Option<Expr>) -> Self {
        RewriteInfo {
            keys,
            base_selection,
        }
    }

    /// Extracts rewrite info from a logical plan: the plan must be a group-by
    /// over a single-table chain of select/project operators. Returns `None`
    /// for joins or non-aggregation-rooted plans (no lazy rewrite exists in
    /// `smoke_core::lazy` for those shapes).
    pub fn from_plan(plan: &LogicalPlan) -> Option<RewriteInfo> {
        let LogicalPlan::GroupBy { input, keys, .. } = plan else {
            return None;
        };
        let mut selection: Option<Expr> = None;
        let mut node = input.as_ref();
        loop {
            match node {
                LogicalPlan::Scan { .. } => break,
                LogicalPlan::Select { input, predicate } => {
                    selection = Some(match selection {
                        Some(s) => s.and(predicate.clone()),
                        None => predicate.clone(),
                    });
                    node = input;
                }
                LogicalPlan::Project { input, .. } => node = input,
                _ => return None,
            }
        }
        Some(RewriteInfo {
            keys: keys.clone(),
            base_selection: selection,
        })
    }
}

/// A compiled lineage plan: the chosen strategy, the resolved starting rids,
/// and the full `EXPLAIN` record.
#[derive(Debug, Clone)]
pub struct LineagePlan {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Why it was chosen: all candidates and their cost estimates.
    pub explain: Explain,
    /// The starting rids after selection resolution.
    pub(crate) rids: Vec<Rid>,
    /// The partition key extracted from the query's equality filter, when the
    /// filter matches the partitioned index's attribute.
    pub(crate) partition_key: Option<String>,
}

/// The unified result of executing a lineage plan.
#[derive(Debug, Clone)]
pub struct LineageResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// The traced rid set, ascending and duplicate-free, restricted by the
    /// query's residual filter when one is present. Empty for
    /// [`Strategy::CubeHit`], which answers from materialized aggregates
    /// without touching base rids.
    pub rids: Vec<Rid>,
    /// The aggregated (or cube) answer relation, when the query consumes the
    /// traced rows.
    pub rows: Option<Relation>,
}

/// Plans and executes [`LineageQuery`]s over one traced view: a base
/// relation, the view's output relation, and whatever capture-time artifacts
/// exist (indexes, partitioned indexes, cubes, rewrite info, stats).
#[derive(Debug, Clone)]
pub struct LineagePlanner<'a> {
    base: &'a Relation,
    output: &'a Relation,
    backward: Option<&'a LineageIndex>,
    forward: Option<&'a LineageIndex>,
    partitioned: Option<&'a PartitionedRidIndex>,
    cube: Option<&'a LineageCube>,
    rewrite: Option<RewriteInfo>,
    stats: Option<CaptureStats>,
    io: Option<IoModel>,
}

impl<'a> LineagePlanner<'a> {
    /// Creates a planner over a base relation and a view output with no
    /// artifacts registered yet.
    pub fn new(base: &'a Relation, output: &'a Relation) -> Self {
        LineagePlanner {
            base,
            output,
            backward: None,
            forward: None,
            partitioned: None,
            cube: None,
            rewrite: None,
            stats: None,
            io: None,
        }
    }

    /// Creates a planner from an executed [`QueryOutput`], wiring up the
    /// lineage for `table` plus any workload artifacts and capture stats.
    pub fn from_query_output(out: &'a QueryOutput, base: &'a Relation, table: &str) -> Self {
        let mut planner = LineagePlanner::new(base, &out.relation)
            .artifacts(&out.artifacts)
            .stats(out.stats);
        if let Some(lin) = out.lineage.table(table) {
            if let Some(b) = &lin.backward {
                planner = planner.backward_index(b);
            }
            if let Some(f) = &lin.forward {
                planner = planner.forward_index(f);
            }
        }
        planner
    }

    /// Registers the backward lineage index (output rid → base rids).
    pub fn backward_index(mut self, index: &'a LineageIndex) -> Self {
        self.backward = Some(index);
        self
    }

    /// Registers the forward lineage index (base rid → output rids).
    pub fn forward_index(mut self, index: &'a LineageIndex) -> Self {
        self.forward = Some(index);
        self
    }

    /// Registers both directions of an [`InputLineage`].
    pub fn lineage(mut self, lineage: &'a InputLineage) -> Self {
        self.backward = lineage.backward.as_ref();
        self.forward = lineage.forward.as_ref();
        self
    }

    /// Registers workload-aware capture artifacts (partitioned index / cube).
    pub fn artifacts(mut self, artifacts: &'a WorkloadArtifacts) -> Self {
        self.partitioned = artifacts.partitioned.as_ref();
        self.cube = artifacts.cube.as_ref();
        self
    }

    /// Registers lazy-rewrite information about the base query.
    pub fn rewrite(mut self, rewrite: RewriteInfo) -> Self {
        self.rewrite = Some(rewrite);
        self
    }

    /// Registers capture statistics (used as a fallback cardinality source).
    pub fn stats(mut self, stats: CaptureStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Registers the paged layout of the base relation (see
    /// [`IoModel::from_paged`]). With an I/O model, each candidate's cost
    /// includes the segment-store pages it would read — Yao's
    /// expected-distinct-pages over the base rows it fetches, discounted by
    /// the buffer pool's current residency — and [`Explain`] carries the
    /// per-candidate page estimates. This is what makes
    /// [`Strategy::PartitionPruned`] visibly skip physical page reads (it
    /// fetches a fraction of the rows and never re-evaluates the partition
    /// filter) and lets a warm pool tip the scales toward trace-bound
    /// strategies. Only backward queries charge base-relation I/O: forward
    /// traces land in the (small, resident) view output.
    pub fn with_io(mut self, io: IoModel) -> Self {
        self.io = Some(io);
        self
    }

    /// Compiles a query into a [`LineagePlan`], choosing the cheapest
    /// feasible strategy.
    pub fn plan(&self, query: &LineageQuery) -> Result<LineagePlan> {
        self.validate(query)?;
        let rids = self.resolve_selection(query)?;
        let width = rids.len();

        let primary = self.primary_index(query.direction);
        let (edges, entries) = self.edge_stats(query.direction, primary);
        let est_fanout = edges as f64 / entries.max(1) as f64;
        let traced_est = width as f64 * est_fanout;
        let aggregates = query.consume.aggregates();
        let filtered = query.consume.filter.is_some();
        // Per-row predicate costs depend on whether the expressions compile
        // to the vectorized kernel pipeline (see `smoke_core::kernels`).
        let trace_target = match query.direction {
            Direction::Forward => self.output,
            _ => self.base,
        };
        // `filter_rids` only takes the kernel path when the traced set covers
        // a reasonable fraction of the relation (narrow sets filter
        // row-at-a-time); the cost must mirror that dispatch, not just
        // compilability.
        let wide_trace = traced_est * 8.0 >= trace_target.len() as f64;
        let filter_row_cost = match &query.consume.filter {
            Some(f) if wide_trace && smoke_core::KernelPlan::compile(f, trace_target).is_some() => {
                COST_ROW_PREDICATE_VECTOR
            }
            Some(_) => COST_ROW_PREDICATE_SCALAR,
            None => COST_ROW_PREDICATE_VECTOR,
        };
        let lazy_row_cost = {
            let base_sel_vector = self
                .rewrite
                .as_ref()
                .and_then(|r| r.base_selection.as_ref())
                .is_none_or(|sel| smoke_core::KernelPlan::compile(sel, self.base).is_some());
            let filter_vector = query
                .consume
                .filter
                .as_ref()
                .is_none_or(|f| smoke_core::KernelPlan::compile(f, self.base).is_some());
            if base_sel_vector && filter_vector {
                COST_ROW_PREDICATE_VECTOR
            } else {
                COST_ROW_PREDICATE_SCALAR
            }
        };

        // Partition-pruning applies when the residual filter is exactly an
        // equality on the partitioned index's attribute.
        let partition_key = match (self.partitioned, &query.consume.filter) {
            (Some(part), Some(filter)) => equality_literal(filter, part.attribute())
                .and_then(|v| self.coerced_partition_key(part.attribute(), v)),
            _ => None,
        };

        // With an I/O model, every candidate is additionally charged for the
        // distinct base-relation pages it would fault in, discounted by
        // current pool residency. Only the columns a consuming clause
        // touches cost pages (every column spills, a `Str` one as two runs),
        // and a pure rid trace never leaves the lineage index. Pruning
        // fetches both fewer rows (one partition's worth) and fewer columns
        // (the partition equality *is* the filter, so the filter column is
        // never re-read), which is why its page estimate sits strictly below
        // the eager trace's for any non-degenerate partitioning.
        let consume_cols: BTreeSet<&str> = query
            .consume
            .keys
            .iter()
            .map(String::as_str)
            .chain(
                query
                    .consume
                    .aggs
                    .iter()
                    .filter_map(|a| a.column.as_deref()),
            )
            .collect();
        let mut eager_cols = consume_cols.clone();
        if let Some(f) = &query.consume.filter {
            expr_columns(f, &mut eager_cols);
        }
        let io_charge = |rows: f64, cols: &BTreeSet<&str>| -> (f64, f64) {
            match &self.io {
                Some(io) if query.direction != Direction::Forward => {
                    let pages =
                        io.expected_pages(rows, self.base.len(), self.paged_column_count(cols));
                    (pages, io.read_cost(pages))
                }
                _ => (0.0, 0.0),
            }
        };

        let mut candidates = Vec::new();

        // CubeHit: a single-rid aggregate matching the cube exactly.
        candidates.push(match self.cube {
            Some(cube)
                if query.direction == Direction::Backward
                    && width == 1
                    && aggregates
                    && !filtered
                    && query.consume.keys == cube.partition_by()
                    && query.consume.aggs == cube.aggs() =>
            {
                let cells = cube.cell_count() as f64 / cube.len().max(1) as f64;
                CandidateCost {
                    strategy: Strategy::CubeHit,
                    cost: QUERY_OVERHEAD + cells * COST_CUBE_CELL,
                    est_pages: 0.0,
                    feasible: true,
                    note: format!("{cells:.1} cells/entry, zero base access"),
                }
            }
            Some(_) => infeasible(
                Strategy::CubeHit,
                "query shape does not match the materialized cube",
            ),
            None => infeasible(Strategy::CubeHit, "no cube captured"),
        });

        // PartitionPruned: scan only the partition named by the filter.
        candidates.push(match (self.partitioned, &partition_key) {
            (Some(part), Some(_)) if query.direction == Direction::Backward => {
                let frac = 1.0 / self.avg_partitions(part, &rids).max(1.0);
                let per_row = COST_EDGE + if aggregates { COST_ROW_CONSUME } else { 0.0 };
                let fetched = if aggregates { traced_est * frac } else { 0.0 };
                let (est_pages, io_cost) = io_charge(fetched, &consume_cols);
                CandidateCost {
                    strategy: Strategy::PartitionPruned,
                    cost: QUERY_OVERHEAD + traced_est * frac * per_row + io_cost,
                    est_pages,
                    feasible: true,
                    note: format!("scans ~{:.0}% of each rid array", frac * 100.0),
                }
            }
            (Some(_), _) => infeasible(
                Strategy::PartitionPruned,
                "filter is not an equality on the partition attribute",
            ),
            (None, _) => infeasible(Strategy::PartitionPruned, "no partitioned index captured"),
        });

        // EagerTrace: secondary index scan.
        candidates.push(match primary {
            Some(_) => {
                let mut cost = QUERY_OVERHEAD + traced_est * COST_EDGE;
                let mut reach = traced_est;
                for idx in &query.chain {
                    let f = idx.edge_count() as f64 / idx.len().max(1) as f64;
                    cost += reach * COST_EDGE;
                    reach *= f;
                }
                if filtered {
                    cost += traced_est * filter_row_cost;
                }
                if aggregates {
                    cost += traced_est * COST_ROW_CONSUME;
                }
                let fetched = if filtered || aggregates {
                    traced_est
                } else {
                    0.0
                };
                let (est_pages, io_cost) = io_charge(fetched, &eager_cols);
                CandidateCost {
                    strategy: Strategy::EagerTrace,
                    cost: cost + io_cost,
                    est_pages,
                    feasible: true,
                    note: format!("~{traced_est:.0} edges via index scan"),
                }
            }
            None => infeasible(
                Strategy::EagerTrace,
                "no lineage index captured for this direction",
            ),
        });

        // LazyRewrite: full scan of the base relation with the rewrite
        // predicate (one OR term per selected output group), run
        // sequentially (`lazy_backward`).
        candidates.push(match (&self.rewrite, query.direction) {
            (Some(_), Direction::Backward) => {
                let scan = self.base.len() as f64 * (lazy_row_cost + width as f64 * COST_KEY_TERM);
                let consume = if aggregates {
                    traced_est * COST_ROW_CONSUME
                } else {
                    0.0
                };
                // A chunked paged scan materializes every column of the
                // relation, so the rewrite pays the full footprint.
                let (est_pages, io_cost) = self.io.as_ref().map_or((0.0, 0.0), |io| {
                    (io.total_pages(), io.read_cost(io.total_pages()))
                });
                CandidateCost {
                    strategy: Strategy::LazyRewrite,
                    cost: QUERY_OVERHEAD + scan + consume + io_cost,
                    est_pages,
                    feasible: true,
                    note: format!("full scan of {} base rows", self.base.len()),
                }
            }
            (Some(_), _) => infeasible(
                Strategy::LazyRewrite,
                "lazy rewrites only answer backward queries",
            ),
            (None, _) => infeasible(Strategy::LazyRewrite, "no rewrite info for the base query"),
        });

        let best = candidates
            .iter()
            .filter(|c| c.feasible)
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .ok_or_else(|| {
                EngineError::InvalidPlan(
                    "no feasible lineage strategy: no index, rewrite info, or artifact can \
                     answer this query"
                        .to_string(),
                )
            })?;

        let explain = Explain {
            strategy: best.strategy,
            cost: best.cost,
            selection_width: width,
            est_fanout,
            residency: self.io.as_ref().map(|io| io.residency),
            candidates: candidates.clone(),
        };
        Ok(LineagePlan {
            strategy: best.strategy,
            explain,
            rids,
            partition_key,
        })
    }

    /// Plans the query and returns only the `EXPLAIN` record.
    pub fn explain(&self, query: &LineageQuery) -> Result<Explain> {
        Ok(self.plan(query)?.explain)
    }

    /// Plans and executes a query in one call.
    pub fn execute(&self, query: &LineageQuery) -> Result<LineageResult> {
        let plan = self.plan(query)?;
        self.execute_plan(&plan, query)
    }

    /// Plans the query, then forces the given strategy (used by benchmarks
    /// and equivalence tests). Errors when the strategy is infeasible.
    pub fn execute_with(&self, strategy: Strategy, query: &LineageQuery) -> Result<LineageResult> {
        let plan = self.plan(query)?;
        let candidate = plan
            .explain
            .candidates
            .iter()
            .find(|c| c.strategy == strategy)
            .expect("all strategies are always costed");
        if !candidate.feasible {
            return Err(EngineError::InvalidPlan(format!(
                "strategy {strategy} is infeasible here: {}",
                candidate.note
            )));
        }
        let forced = LineagePlan {
            strategy,
            ..plan.clone()
        };
        self.execute_plan(&forced, query)
    }

    /// Executes a compiled plan.
    pub fn execute_plan(&self, plan: &LineagePlan, query: &LineageQuery) -> Result<LineageResult> {
        match plan.strategy {
            Strategy::EagerTrace => self.run_eager(plan, query),
            Strategy::LazyRewrite => self.run_lazy(plan, query),
            Strategy::PartitionPruned => self.run_pruned(plan, query),
            Strategy::CubeHit => self.run_cube(plan),
        }
    }

    /// Traces many rid sets through the eager index path, fanning the sets
    /// out over `std::thread` workers when the batch is large enough. The
    /// result preserves batch order; each entry is ascending and
    /// duplicate-free. This is the serving path for sessions that brush many
    /// marks / check many violations at once.
    ///
    /// The query template supplies only the direction and compose chain: the
    /// starting rids come from `rid_sets`, so a template with its own
    /// selection, filter, or aggregation is rejected rather than silently
    /// ignored.
    pub fn execute_batch(
        &self,
        query: &LineageQuery,
        rid_sets: &[Vec<Rid>],
    ) -> Result<Vec<Vec<Rid>>> {
        self.validate(query)?;
        if query.consumes() {
            return Err(EngineError::InvalidPlan(
                "batch tracing returns raw rid sets; filter/aggregate clauses are not \
                 evaluated — drop them or issue per-set execute() calls"
                    .to_string(),
            ));
        }
        if !matches!(query.selection, Selection::All) {
            return Err(EngineError::InvalidPlan(
                "batch tracing draws its starting rids from `rid_sets`; the query template \
                 must not carry its own selection"
                    .to_string(),
            ));
        }
        let primary = self.primary_index(query.direction).ok_or_else(|| {
            EngineError::InvalidPlan(
                "batch tracing requires a captured lineage index for this direction".to_string(),
            )
        })?;
        let trace_one = |set: &Vec<Rid>| -> Vec<Rid> {
            let mut traced = primary.trace_set(set);
            for idx in &query.chain {
                traced = idx.trace_set(&traced);
            }
            traced.sort_unstable();
            traced
        };

        // Small batches are not worth a thread launch.
        const PARALLEL_THRESHOLD: usize = 4;
        if rid_sets.len() < PARALLEL_THRESHOLD {
            return Ok(rid_sets.iter().map(trace_one).collect());
        }

        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(2, 8)
            .min(rid_sets.len());
        let chunk = rid_sets.len().div_ceil(workers);
        let mut out: Vec<Vec<Rid>> = vec![Vec::new(); rid_sets.len()];
        std::thread::scope(|scope| {
            for (sets, slots) in rid_sets.chunks(chunk).zip(out.chunks_mut(chunk)) {
                let trace_one = &trace_one;
                scope.spawn(move || {
                    for (set, slot) in sets.iter().zip(slots) {
                        *slot = trace_one(set);
                    }
                });
            }
        });
        Ok(out)
    }

    // ---- planning helpers -------------------------------------------------

    fn validate(&self, query: &LineageQuery) -> Result<()> {
        match query.direction {
            Direction::MultiView if query.chain.is_empty() => Err(EngineError::InvalidPlan(
                "multi-view queries need at least one `then_through` index".to_string(),
            )),
            Direction::Backward | Direction::Forward if !query.chain.is_empty() => Err(
                EngineError::InvalidPlan("`then_through` requires a multi-view query".to_string()),
            ),
            Direction::MultiView if query.consumes() => Err(EngineError::InvalidPlan(
                "filter/aggregate over a multi-view trace is not supported: the chained rids \
                 refer to a relation the planner does not hold"
                    .to_string(),
            )),
            _ => Ok(()),
        }
    }

    fn primary_index(&self, direction: Direction) -> Option<&'a LineageIndex> {
        match direction {
            Direction::Forward => self.forward,
            Direction::Backward | Direction::MultiView => self.backward,
        }
    }

    /// `(edges, entries)` of the primary mapping, falling back to capture
    /// stats and relation cardinalities when no index was kept.
    fn edge_stats(&self, direction: Direction, primary: Option<&LineageIndex>) -> (usize, usize) {
        let entries = match direction {
            Direction::Forward => self.base.len(),
            _ => self.output.len(),
        };
        match primary {
            Some(idx) => (idx.edge_count(), idx.len().max(1)),
            None => {
                let edges = self
                    .stats
                    .map(|s| s.edges as usize)
                    .filter(|&e| e > 0)
                    .unwrap_or(self.base.len());
                (edges, entries.max(1))
            }
        }
    }

    /// Renders an equality literal as a partition key, coercing it to the
    /// partition column's data type first. Partition keys were rendered from
    /// column values during capture, so `v_bin = 3.0` over an Int column must
    /// probe key `"3"`, not `"3.0"` — predicate evaluation coerces
    /// numerically, and the key lookup must agree with it. Cross-type
    /// combinations with no numeric coercion return `None`, making pruning
    /// infeasible so the planner falls back to a strategy that evaluates the
    /// predicate itself.
    fn coerced_partition_key(&self, attr: &str, literal: Value) -> Option<String> {
        let idx = self.base.column_index(attr).ok()?;
        let coerced = match (self.base.schema().field(idx).data_type, literal) {
            (DataType::Int, Value::Int(i)) => Value::Int(i),
            (DataType::Int, Value::Float(f))
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Value::Int(f as i64)
            }
            (DataType::Float, Value::Float(f)) => Value::Float(f),
            (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
            (DataType::Str, Value::Str(s)) => Value::Str(s),
            _ => return None,
        };
        Some(coerced.group_key())
    }

    /// Number of paged base columns among `names`. Every column spills: a
    /// numeric one as one page run, a `Str` one as an offsets run plus a
    /// bytes run, counted here as one column (a lower bound). Unknown names
    /// resolve to zero pages rather than an error (the executor will surface
    /// them).
    fn paged_column_count(&self, names: &BTreeSet<&str>) -> usize {
        let known = names
            .iter()
            .filter(|name| self.base.column_index(name).is_ok());
        known.count()
    }

    /// Average number of partitions per selected entry, sampled over at most
    /// the first 8 selected rids.
    fn avg_partitions(&self, part: &PartitionedRidIndex, rids: &[Rid]) -> f64 {
        let sample: Vec<&Rid> = rids.iter().take(8).collect();
        if sample.is_empty() {
            return 1.0;
        }
        let total: usize = sample.iter().map(|&&r| part.keys(r as usize).len()).sum();
        (total as f64 / sample.len() as f64).max(1.0)
    }

    fn resolve_selection(&self, query: &LineageQuery) -> Result<Vec<Rid>> {
        let domain = match query.direction {
            Direction::Forward => self.base,
            _ => self.output,
        };
        match &query.selection {
            Selection::All => Ok((0..domain.len() as Rid).collect()),
            Selection::Rids(rids) => Ok(rids
                .iter()
                .copied()
                .filter(|&r| (r as usize) < domain.len())
                .collect()),
            // The scan routes through the kernel layer: comparison/boolean
            // predicates over columns and literals run vectorized, anything
            // else falls back to the row-at-a-time interpreter.
            Selection::Predicate(pred) => smoke_core::kernels::predicate_rids(domain, pred),
        }
    }

    // ---- execution --------------------------------------------------------

    fn run_eager(&self, plan: &LineagePlan, query: &LineageQuery) -> Result<LineageResult> {
        let primary = self.primary_index(query.direction).ok_or_else(|| {
            EngineError::InvalidPlan("eager trace without a lineage index".to_string())
        })?;
        let mut traced = primary.trace_set(&plan.rids);
        for idx in &query.chain {
            traced = idx.trace_set(&traced);
        }
        traced.sort_unstable();

        let target = match query.direction {
            Direction::Forward => self.output,
            _ => self.base,
        };
        let consume = &query.consume;
        // The residual filter restricts the traced rid set itself (so `rids`
        // means the same thing under every strategy); the aggregate then runs
        // over the restricted set. Wide traces evaluate the filter through
        // the column kernels, narrow ones row-at-a-time.
        if let Some(filter) = &consume.filter {
            traced = smoke_core::kernels::filter_rids(target, filter, &traced)?;
        }
        Ok(LineageResult {
            strategy: Strategy::EagerTrace,
            rows: reaggregate(target, &traced, consume)?,
            rids: traced,
        })
    }

    fn run_lazy(&self, plan: &LineagePlan, query: &LineageQuery) -> Result<LineageResult> {
        let rewrite = self.rewrite.as_ref().ok_or_else(|| {
            EngineError::InvalidPlan("lazy rewrite without rewrite info".to_string())
        })?;
        let key_cols: Vec<usize> = rewrite
            .keys
            .iter()
            .map(|k| self.output.column_index(k))
            .collect::<std::result::Result<_, _>>()?;
        let mut predicate: Option<Expr> = None;
        for &rid in &plan.rids {
            let key_values: Vec<Value> = key_cols
                .iter()
                .map(|&c| self.output.value(rid as usize, c))
                .collect();
            let one =
                backward_predicate(&rewrite.keys, &key_values, rewrite.base_selection.as_ref());
            predicate = Some(match predicate {
                Some(p) => p.or(one),
                None => one,
            });
        }

        let consume = &query.consume;
        // `rids` carries the residual-filtered trace under every strategy,
        // and the one scan that finds them also feeds the aggregate. An empty
        // selection scans nothing and still yields an (empty) aggregate
        // relation, matching the eager path's result shape.
        let rids = match (predicate, &consume.filter) {
            (Some(p), Some(f)) => lazy_backward(self.base, &p.and(f.clone()))?,
            (Some(p), None) => lazy_backward(self.base, &p)?,
            (None, _) => Vec::new(),
        };
        Ok(LineageResult {
            strategy: Strategy::LazyRewrite,
            rows: reaggregate(self.base, &rids, consume)?,
            rids,
        })
    }

    fn run_pruned(&self, plan: &LineagePlan, query: &LineageQuery) -> Result<LineageResult> {
        let part = self.partitioned.ok_or_else(|| {
            EngineError::InvalidPlan("partition pruning without a partitioned index".to_string())
        })?;
        let key = plan.partition_key.as_ref().ok_or_else(|| {
            EngineError::InvalidPlan(
                "partition pruning needs an equality filter on the partition attribute".to_string(),
            )
        })?;
        let mut traced = Vec::new();
        for &rid in &plan.rids {
            traced.extend_from_slice(part.partition(rid as usize, key));
        }
        traced.sort_unstable();
        traced.dedup();
        let consume = &query.consume;
        // The partition equality *is* the filter, so no residual predicate
        // remains for the consuming aggregate.
        Ok(LineageResult {
            strategy: Strategy::PartitionPruned,
            rows: reaggregate(self.base, &traced, consume)?,
            rids: traced,
        })
    }

    fn run_cube(&self, plan: &LineagePlan) -> Result<LineageResult> {
        let cube = self.cube.ok_or_else(|| {
            EngineError::InvalidPlan("cube answer without a materialized cube".to_string())
        })?;
        let rid = *plan.rids.first().ok_or_else(|| {
            EngineError::InvalidPlan("cube answers require exactly one selected rid".to_string())
        })?;
        Ok(LineageResult {
            strategy: Strategy::CubeHit,
            rids: Vec::new(),
            rows: Some(cube.query(rid as usize)?),
        })
    }
}

/// The consume step every rid-producing strategy ends with: re-groups the
/// traced rows of `target` when the query aggregates.
fn reaggregate(target: &Relation, rids: &[Rid], consume: &Consume) -> Result<Option<Relation>> {
    (consume.aggregates())
        .then(|| consume_aggregate(target, rids, &consume.keys, &consume.aggs))
        .transpose()
}

fn infeasible(strategy: Strategy, note: &str) -> CandidateCost {
    CandidateCost {
        strategy,
        cost: f64::INFINITY,
        est_pages: 0.0,
        feasible: false,
        note: note.to_string(),
    }
}

/// Collects the distinct column names an expression references.
fn expr_columns<'e>(expr: &'e Expr, out: &mut BTreeSet<&'e str>) {
    match expr {
        Expr::Column(c) => {
            out.insert(c.as_str());
        }
        Expr::Literal(_) => {}
        Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
            expr_columns(left, out);
            expr_columns(right, out);
        }
        Expr::And(l, r) | Expr::Or(l, r) => {
            expr_columns(l, out);
            expr_columns(r, out);
        }
        Expr::Not(e) => expr_columns(e, out),
        Expr::InList { expr, .. } => expr_columns(expr, out),
    }
}

/// Matches `attr = literal` (either operand order) and returns the literal.
fn equality_literal(filter: &Expr, attr: &str) -> Option<Value> {
    let Expr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = filter
    else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) if c == attr => {
            Some(v.clone())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_core::{AggExpr, PlanBuilder};

    #[test]
    fn rewrite_info_from_single_table_spja() {
        let plan = PlanBuilder::scan("zipf")
            .select(Expr::col("v").lt(Expr::lit(40.0)))
            .project(&["z", "v"])
            .group_by(&["z"], vec![AggExpr::count("cnt")])
            .build();
        let info = RewriteInfo::from_plan(&plan).unwrap();
        assert_eq!(info.keys, vec!["z"]);
        assert!(info.base_selection.is_some());
    }

    #[test]
    fn rewrite_info_rejects_joins_and_non_aggregates() {
        let join = PlanBuilder::scan("a")
            .join(PlanBuilder::scan("b"), &["x"], &["x"])
            .group_by(&["x"], vec![AggExpr::count("c")])
            .build();
        assert!(RewriteInfo::from_plan(&join).is_none());
        let scan = PlanBuilder::scan("a").build();
        assert!(RewriteInfo::from_plan(&scan).is_none());
    }

    #[test]
    fn equality_literal_matches_both_operand_orders() {
        let f = Expr::col("mode").eq(Expr::lit("AIR"));
        assert_eq!(equality_literal(&f, "mode"), Some(Value::Str("AIR".into())));
        let flipped = Expr::lit(3).eq(Expr::col("bin"));
        assert_eq!(equality_literal(&flipped, "bin"), Some(Value::Int(3)));
        let wrong_attr = Expr::col("other").eq(Expr::lit(1));
        assert!(equality_literal(&wrong_attr, "bin").is_none());
        let not_eq = Expr::col("bin").lt(Expr::lit(3));
        assert!(equality_literal(&not_eq, "bin").is_none());
    }
}
