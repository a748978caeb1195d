//! The planner's cost model and `EXPLAIN` output.
//!
//! Costs are unitless "work units" proportional to the number of memory
//! touches each strategy performs; the absolute scale is irrelevant, only the
//! ordering between candidate strategies matters. The inputs are the
//! statistics the capture side already maintains ([`smoke_lineage::CaptureStats`],
//! index `edge_count`/`len`), relation cardinalities, and the selection width
//! of the query — exactly the signals the paper argues a lineage-aware
//! optimizer should own.

use std::fmt;

/// The evaluation strategies a [`crate::LineageQuery`] can compile into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Secondary-index scan over a captured [`smoke_lineage::LineageIndex`]
    /// (rid array / rid index / CSR), §2.1 "lineage query as index scan".
    EagerTrace,
    /// Relational rewrite over the base relation with no captured index
    /// (paper §2.1, Appendix C; `smoke_core::lazy`).
    LazyRewrite,
    /// Data skipping over a [`smoke_lineage::PartitionedRidIndex`]: find the
    /// equality filter's typed value in each selected output's cell
    /// directory and scan only that cell's rids (§4.2).
    PartitionPruned,
    /// Answer straight from the [`smoke_core::LineageCube`] materialized by
    /// group-by push-down — no base-relation access at all (§4.2, Fig. 11).
    CubeHit,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Strategy::EagerTrace => "EagerTrace",
            Strategy::LazyRewrite => "LazyRewrite",
            Strategy::PartitionPruned => "PartitionPruned",
            Strategy::CubeHit => "CubeHit",
        };
        f.write_str(name)
    }
}

/// Reading one lineage edge out of an index (plus its dedup check).
///
/// The remaining constants are calibrated against this unit from measured
/// release-mode latencies on the 1M-row zipfian workload (~60 ns/edge for an
/// eager trace, ~8 ns/row for a vectorized predicate scan, ~1.8 ns/row per
/// additional OR'd key term, ~120 ns/row for hash re-aggregation).
pub(crate) const COST_EDGE: f64 = 1.0;
/// Evaluating a predicate against one base row in a dense full scan (a lazy
/// rewrite's column-kernel pipeline over the whole base relation).
pub(crate) const COST_ROW_PREDICATE_VECTOR: f64 = 0.15;
/// Evaluating an eager trace's residual filter on one traced row: gathering
/// the filter's columns at that rid, then the dense kernel pipeline over the
/// gathered chunk. Hand-set and not yet fitted: 2.5 is the per-row price the
/// model has always charged a residual filter.
pub(crate) const COST_ROW_PREDICATE_GATHER: f64 = 2.5;
/// Extra per-row cost for every OR'd key-equality term of a lazy rewrite
/// (one term per selected output group; each term is one column kernel).
pub(crate) const COST_KEY_TERM: f64 = 0.05;
/// Hashing + aggregating one traced row in a lineage-consuming aggregate.
pub(crate) const COST_ROW_CONSUME: f64 = 2.0;
/// Materializing one cube cell into the answer relation.
pub(crate) const COST_CUBE_CELL: f64 = 2.0;
/// Fixed per-query overhead (plan + result assembly), keeps tiny inputs from
/// producing degenerate zero costs.
pub(crate) const QUERY_OVERHEAD: f64 = 8.0;
/// Reading one [`smoke_storage::PAGE_SIZE`]-byte page out of the segment
/// store into the buffer pool. Calibrated against [`COST_EDGE`]: a pread of
/// an 8 KiB page that hits the OS page cache lands around 2–3 µs, roughly
/// forty edge lookups.
pub(crate) const COST_PAGE_READ: f64 = 40.0;

/// Describes the paged layout of a traced view's base relation so the cost
/// model can charge strategies for the pages they would actually read
/// (see [`smoke_storage::PagedRelation`] and `smoke_pager::BufferPool`).
///
/// The model is per-column: every column is an independent page run of
/// [`smoke_storage::ROWS_PER_PAGE`] fixed-width values (for a `Str` column,
/// its offsets run; its bytes run goes uncounted), so a strategy that
/// fetches `k` of `n` rows from `c` columns touches
/// `c * pages_per_column * (1 - (1 - k/n)^rows_per_page)` distinct pages —
/// Yao's expected-distinct-blocks formula with the usual sampling
/// approximation. Reads are then discounted by the buffer pool's current
/// residency before being charged at the fixed per-page read cost
/// ([`IoModel::read_cost`]).
#[derive(Debug, Clone, Copy)]
pub struct IoModel {
    /// Pages each paged column of the base relation occupies.
    pub pages_per_column: u64,
    /// Number of paged columns in the base relation. A `Str` column spills
    /// as an offsets run plus a bytes run and counts as one column here (a
    /// lower bound).
    pub columns: usize,
    /// Fixed-width values stored per page.
    pub rows_per_page: usize,
    /// Fraction of the relation's pages currently resident in the buffer
    /// pool, in `[0, 1]`.
    pub residency: f64,
}

impl IoModel {
    /// Builds the model straight from a spilled relation and its pool.
    pub fn from_paged(relation: &smoke_storage::PagedRelation) -> IoModel {
        IoModel {
            pages_per_column: relation.pages_per_column() as u64,
            columns: relation.schema().fields().len(),
            rows_per_page: smoke_storage::ROWS_PER_PAGE,
            residency: relation.resident_fraction(),
        }
    }

    /// Total pages across every paged column (a full scan's footprint).
    pub fn total_pages(&self) -> f64 {
        self.pages_per_column as f64 * self.columns as f64
    }

    /// Expected distinct pages touched when fetching `k` of `n` rows from
    /// `columns` paged columns (Yao's formula). Monotone in `k`: pruning a
    /// trace down to a fraction of its rids strictly shrinks the estimate
    /// until every page is touched anyway.
    pub fn expected_pages(&self, k: f64, n: usize, columns: usize) -> f64 {
        if n == 0 || k <= 0.0 || self.pages_per_column == 0 {
            return 0.0;
        }
        let miss = (1.0 - (k.min(n as f64) / n as f64)).powi(self.rows_per_page as i32);
        let frac = 1.0 - miss;
        frac * self.pages_per_column as f64 * columns.min(self.columns) as f64
    }

    /// Work units charged for reading `pages` pages, discounted by the
    /// fraction the pool already holds.
    pub fn read_cost(&self, pages: f64) -> f64 {
        pages * (1.0 - self.residency.clamp(0.0, 1.0)) * COST_PAGE_READ
    }
}

/// One costed strategy candidate.
#[derive(Debug, Clone)]
pub struct CandidateCost {
    /// The candidate strategy.
    pub strategy: Strategy,
    /// Estimated cost in work units; `f64::INFINITY` when infeasible.
    pub cost: f64,
    /// Estimated distinct base-relation pages the strategy reads. Always
    /// `0.0` when the planner has no [`IoModel`] (fully in-RAM base) and for
    /// infeasible candidates.
    pub est_pages: f64,
    /// Whether the strategy can answer this query with the artifacts at hand.
    pub feasible: bool,
    /// Why the candidate is (in)feasible / how its cost was derived.
    pub note: String,
}

/// The planner's `EXPLAIN` output: the chosen strategy, its estimated cost,
/// and every candidate that was considered.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The chosen strategy.
    pub strategy: Strategy,
    /// Estimated cost of the chosen strategy.
    pub cost: f64,
    /// Number of starting rids after selection resolution.
    pub selection_width: usize,
    /// Estimated average lineage fan-out per starting rid.
    pub est_fanout: f64,
    /// Buffer-pool residency the I/O estimates were discounted by, when the
    /// planner holds an [`IoModel`]; `None` for a fully in-RAM base.
    pub residency: Option<f64>,
    /// All candidates, in planning order.
    pub candidates: Vec<CandidateCost>,
}

impl Explain {
    /// The cost recorded for `strategy`, if it was considered.
    pub fn candidate_cost(&self, strategy: Strategy) -> Option<f64> {
        self.candidates
            .iter()
            .find(|c| c.strategy == strategy)
            .map(|c| c.cost)
    }

    /// The page estimate recorded for `strategy`, if it was considered.
    pub fn candidate_pages(&self, strategy: Strategy) -> Option<f64> {
        self.candidates
            .iter()
            .find(|c| c.strategy == strategy)
            .map(|c| c.est_pages)
    }

    /// Renders the explain output as a single human-readable line. Page
    /// estimates appear only when the planner was given an [`IoModel`].
    pub fn render(&self) -> String {
        let mut out = format!(
            "strategy={} cost={:.1} width={} fanout={:.2}",
            self.strategy, self.cost, self.selection_width, self.est_fanout
        );
        if let Some(res) = self.residency {
            out.push_str(&format!(" residency={:.0}%", res * 100.0));
        }
        out.push_str(" | candidates: ");
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if !c.feasible {
                out.push_str(&format!("{}=inf ({})", c.strategy, c.note));
            } else if self.residency.is_some() {
                out.push_str(&format!(
                    "{}={:.1}/{:.0}pg",
                    c.strategy, c.cost, c.est_pages
                ));
            } else {
                out.push_str(&format!("{}={:.1}", c.strategy, c.cost));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_explain() -> Explain {
        Explain {
            strategy: Strategy::CubeHit,
            cost: 12.0,
            selection_width: 1,
            est_fanout: 100.0,
            residency: None,
            candidates: vec![
                CandidateCost {
                    strategy: Strategy::EagerTrace,
                    cost: 308.0,
                    est_pages: 17.0,
                    feasible: true,
                    note: "index scan".into(),
                },
                CandidateCost {
                    strategy: Strategy::LazyRewrite,
                    cost: f64::INFINITY,
                    est_pages: 0.0,
                    feasible: false,
                    note: "no rewrite info".into(),
                },
                CandidateCost {
                    strategy: Strategy::CubeHit,
                    cost: 12.0,
                    est_pages: 0.0,
                    feasible: true,
                    note: "cube lookup".into(),
                },
            ],
        }
    }

    #[test]
    fn render_names_chosen_strategy_and_candidates() {
        let explain = sample_explain();
        let line = explain.render();
        assert!(line.starts_with("strategy=CubeHit cost=12.0"));
        assert!(line.contains("EagerTrace=308.0"));
        assert!(line.contains("LazyRewrite=inf (no rewrite info)"));
        assert!(!line.contains("pg"), "no page column without an IoModel");
        assert_eq!(explain.candidate_cost(Strategy::EagerTrace), Some(308.0));
        assert_eq!(explain.candidate_cost(Strategy::PartitionPruned), None);
        assert_eq!(explain.candidate_pages(Strategy::EagerTrace), Some(17.0));
    }

    #[test]
    fn render_includes_pages_when_io_modeled() {
        let mut explain = sample_explain();
        explain.residency = Some(0.25);
        let line = explain.render();
        assert!(line.contains("residency=25%"), "{line}");
        assert!(line.contains("EagerTrace=308.0/17pg"), "{line}");
        assert!(line.contains("CubeHit=12.0/0pg"), "{line}");
    }

    #[test]
    fn expected_pages_is_monotone_and_bounded() {
        let io = IoModel {
            pages_per_column: 1000,
            columns: 3,
            rows_per_page: 1024,
            residency: 0.0,
        };
        let n = 1000 * 1024;
        assert_eq!(io.expected_pages(0.0, n, 1), 0.0);
        assert_eq!(io.expected_pages(100.0, 0, 1), 0.0);
        let narrow = io.expected_pages(100.0, n, 1);
        let wide = io.expected_pages(10_000.0, n, 1);
        assert!(narrow > 0.0 && narrow < wide, "{narrow} vs {wide}");
        // Saturates at the column's full footprint, scales with columns, and
        // never exceeds the relation's layout.
        assert!(io.expected_pages(n as f64, n, 1) <= 1000.0 + 1e-9);
        assert_eq!(
            io.expected_pages(n as f64, n, 2),
            2.0 * io.expected_pages(n as f64, n, 1)
        );
        assert_eq!(
            io.expected_pages(n as f64, n, 8),
            io.expected_pages(n as f64, n, 3),
            "touched columns are capped at the layout's column count"
        );
        assert_eq!(io.total_pages(), 3000.0);
    }

    #[test]
    fn read_cost_discounts_resident_pages() {
        let cold = IoModel {
            pages_per_column: 10,
            columns: 1,
            rows_per_page: 1024,
            residency: 0.0,
        };
        let warm = IoModel {
            residency: 0.75,
            ..cold
        };
        assert_eq!(cold.read_cost(10.0), 10.0 * COST_PAGE_READ);
        assert!((warm.read_cost(10.0) - 2.5 * COST_PAGE_READ).abs() < 1e-9);
        let hot = IoModel {
            residency: 1.0,
            ..cold
        };
        assert_eq!(hot.read_cost(10.0), 0.0);
    }

    #[test]
    fn strategy_display_is_stable() {
        assert_eq!(Strategy::PartitionPruned.to_string(), "PartitionPruned");
        assert_eq!(Strategy::LazyRewrite.to_string(), "LazyRewrite");
    }
}
