//! Crossfilter visualizations over lineage (paper §6.5.1, Appendix D).
//!
//! Multiple group-by COUNT views are rendered over the same base table. When
//! the user highlights a bar in one view, every other view must be refreshed
//! to show the counts over only the subset of the base table that contributed
//! to the highlighted bar. Expressed in lineage terms:
//!
//! * `Lazy` — no capture: each interaction re-runs the group-by queries with
//!   a shared selection scan over the base table;
//! * `BT` — capture backward indexes for each view: the interaction traces
//!   the highlighted bar back to its base rids and re-runs the group-bys over
//!   that subset (an index scan, but hash tables are rebuilt);
//! * `BT+FT` — additionally capture forward indexes: each base rid in the
//!   lineage subset is mapped *directly* to its output bar in every other
//!   view, so counts are updated incrementally with no hash tables at all;
//! * `PartialCube` — precompute pairwise (dimension × dimension) count cubes
//!   during capture (the group-by push-down optimization); interactions are
//!   pure lookups, at the cost of a substantial offline construction phase.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::query::consume_aggregate;
use smoke_core::{AggExpr, CaptureMode, DirectionFilter, EngineError, Result};
use smoke_lineage::LineageIndex;
use smoke_planner::{LineagePlanner, LineageQuery};
use smoke_storage::{Column, DataType, Field, Relation, Rid, Schema, Value};

/// The crossfilter evaluation techniques compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossfilterTechnique {
    /// Re-run group-bys with a shared selection scan (no capture).
    Lazy,
    /// Backward-trace then re-aggregate over the lineage subset.
    BackwardTrace,
    /// Backward-trace then incrementally update via forward indexes.
    BackwardForwardTrace,
    /// Pairwise partial data cubes built during capture.
    PartialCube,
}

/// Pairwise sparse count cubes: `cubes[i][j][bar_i][bar_j]` is the number of
/// base tuples landing in bar `bar_i` of view `i` and bar `bar_j` of view `j`.
type PairwiseCubes = Vec<Vec<HashMap<Rid, HashMap<Rid, u64>>>>;

/// One crossfilter view: a group-by COUNT over a single dimension.
#[derive(Debug, Clone)]
pub struct View {
    /// The grouped dimension column.
    pub dimension: String,
    /// The view's rendered output: one row per bar (dimension value, count).
    pub output: Relation,
    backward: Option<LineageIndex>,
    forward: Option<LineageIndex>,
    /// Dimension value (as a group key string) → bar rid.
    bar_index: HashMap<String, Rid>,
}

impl View {
    /// Number of bars in this view.
    pub fn bars(&self) -> usize {
        self.output.len()
    }

    /// The bar rid for a dimension value, if present.
    pub fn bar_for(&self, value: &Value) -> Option<Rid> {
        self.bar_index.get(&value.group_key()).copied()
    }
}

/// A crossfilter session: the base table, its views, and whatever state the
/// chosen technique captured.
#[derive(Debug, Clone)]
pub struct CrossfilterSession {
    base: Relation,
    technique: CrossfilterTechnique,
    views: Vec<View>,
    /// Pairwise sparse cubes: `cube[i][j][bar_i]` maps bars of view `j` to
    /// counts, for `i != j`. Present only for [`CrossfilterTechnique::PartialCube`].
    cube: Option<PairwiseCubes>,
    /// Wall-clock time spent building views and capturing lineage / cubes.
    pub build_time: Duration,
}

impl CrossfilterSession {
    /// Builds the initial views over `base` for the given dimensions with the
    /// chosen technique, capturing lineage (or cubes) as required.
    pub fn build(
        base: Relation,
        dimensions: &[&str],
        technique: CrossfilterTechnique,
    ) -> Result<Self> {
        let start = Instant::now();
        let mut views = Vec::with_capacity(dimensions.len());
        for dim in dimensions {
            let mut opts = GroupByOptions {
                mode: match technique {
                    CrossfilterTechnique::Lazy => CaptureMode::Baseline,
                    _ => CaptureMode::Inject,
                },
                ..Default::default()
            };
            opts.directions = match technique {
                CrossfilterTechnique::Lazy => DirectionFilter::None,
                CrossfilterTechnique::BackwardTrace => DirectionFilter::BackwardOnly,
                CrossfilterTechnique::BackwardForwardTrace | CrossfilterTechnique::PartialCube => {
                    DirectionFilter::Both
                }
            };
            let mut result = group_by(&base, &[dim.to_string()], &[AggExpr::count("cnt")], &opts)?;
            let mut bar_index = HashMap::new();
            for rid in 0..result.output.len() {
                bar_index.insert(result.output.value(rid, 0).group_key(), rid as Rid);
            }
            let (backward, forward) = if technique == CrossfilterTechnique::Lazy {
                (None, None)
            } else {
                // Capture is done once per session: the view keeps the
                // operator's read-side indexes, moved out of the result.
                let lin = std::mem::take(result.lineage.input_mut(0));
                (lin.backward, lin.forward)
            };
            views.push(View {
                dimension: dim.to_string(),
                output: result.output,
                backward,
                forward,
                bar_index,
            });
        }

        // Partial cube construction: one pass over the base table updating
        // every ordered pair of views, using the forward indexes as perfect
        // hash functions from base rid to bar.
        let cube = if technique == CrossfilterTechnique::PartialCube {
            let n = views.len();
            let mut cube: PairwiseCubes = vec![vec![HashMap::new(); n]; n];
            for rid in 0..base.len() as Rid {
                let bars: Vec<Option<Rid>> = views
                    .iter()
                    .map(|v| v.forward.as_ref().and_then(|f| f.single(rid)))
                    .collect();
                for i in 0..n {
                    let Some(bi) = bars[i] else { continue };
                    for (j, bar_j) in bars.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let Some(bj) = bar_j else { continue };
                        *cube[i][j].entry(bi).or_default().entry(*bj).or_insert(0) += 1;
                    }
                }
            }
            Some(cube)
        } else {
            None
        };

        Ok(CrossfilterSession {
            base,
            technique,
            views,
            cube,
            build_time: start.elapsed(),
        })
    }

    /// The views of this session.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// The technique this session was built with.
    pub fn technique(&self) -> CrossfilterTechnique {
        self.technique
    }

    /// Handles a brushing interaction: the user highlights bar `bar` of view
    /// `view_idx`; returns the refreshed outputs of every *other* view (in
    /// view order), each a relation `(dimension value, cnt)` restricted to the
    /// lineage subset of the highlighted bar.
    pub fn interact(&self, view_idx: usize, bar: Rid) -> Result<Vec<Relation>> {
        if view_idx >= self.views.len() {
            return Err(EngineError::InvalidPlan(format!(
                "view index {view_idx} out of range"
            )));
        }
        // A bar that does not exist traces to nothing: refresh every other
        // view to an empty result instead of panicking on the user-supplied
        // position (consistent with out-of-bounds lineage lookups).
        if bar as usize >= self.views[view_idx].bars() {
            return self
                .other_views(view_idx)
                .map(|(_, view)| materialize_counts(view, &[]))
                .collect();
        }
        match self.technique {
            CrossfilterTechnique::Lazy => self.interact_lazy(view_idx, bar),
            CrossfilterTechnique::BackwardTrace => self.interact_bt(view_idx, bar),
            CrossfilterTechnique::BackwardForwardTrace => self.interact_btft(view_idx, bar),
            CrossfilterTechnique::PartialCube => self.interact_cube(view_idx, bar),
        }
    }

    fn other_views(&self, view_idx: usize) -> impl Iterator<Item = (usize, &View)> {
        self.views
            .iter()
            .enumerate()
            .filter(move |(i, _)| *i != view_idx)
    }

    /// Lazy: shared selection scan over the base table, updating the counts
    /// of all other views in a single pass.
    fn interact_lazy(&self, view_idx: usize, bar: Rid) -> Result<Vec<Relation>> {
        let brushed = &self.views[view_idx];
        let brushed_value = brushed.output.value(bar as usize, 0);
        let dim_idx = self.base.column_index(&brushed.dimension)?;

        let other: Vec<(usize, &View)> = self.other_views(view_idx).collect();
        let mut counts: Vec<HashMap<String, u64>> = vec![HashMap::new(); other.len()];
        let other_dim_idx: Vec<usize> = other
            .iter()
            .map(|(_, v)| self.base.column_index(&v.dimension))
            .collect::<std::result::Result<_, _>>()?;

        for rid in 0..self.base.len() {
            if self.base.value(rid, dim_idx) != brushed_value {
                continue;
            }
            for (k, &col) in other_dim_idx.iter().enumerate() {
                *counts[k]
                    .entry(self.base.value(rid, col).group_key())
                    .or_insert(0) += 1;
            }
        }
        other
            .iter()
            .zip(counts)
            .map(|((_, view), count_map)| refresh_view(view, &count_map, &self.base))
            .collect()
    }

    /// The lineage planner over the brushed view's captured indexes.
    fn planner_for<'s>(&'s self, view: &'s View, need: &str) -> Result<LineagePlanner<'s>> {
        let backward = view.backward.as_ref().ok_or_else(|| {
            EngineError::InvalidPlan(format!("{need} interaction requires backward lineage"))
        })?;
        let mut planner = LineagePlanner::new(&self.base, &view.output).backward_index(backward);
        if let Some(forward) = view.forward.as_ref() {
            planner = planner.forward_index(forward);
        }
        Ok(planner)
    }

    /// BT: one planner-compiled backward trace of the highlighted bar (an
    /// `EagerTrace` index scan), then a per-dimension re-aggregation of the
    /// shared rid set for every other view (rebuilding group-by hash tables).
    fn interact_bt(&self, view_idx: usize, bar: Rid) -> Result<Vec<Relation>> {
        let planner = self.planner_for(&self.views[view_idx], "BT")?;
        let rids = planner.execute(&LineageQuery::backward().rids([bar]))?.rids;
        self.other_views(view_idx)
            .map(|(_, view)| {
                consume_aggregate(
                    &self.base,
                    &rids,
                    std::slice::from_ref(&view.dimension),
                    &[AggExpr::count("cnt")],
                )
            })
            .collect()
    }

    /// BT+FT: backward-trace through the planner, then use forward indexes as
    /// perfect hash functions from base rids to bars — no hash tables are
    /// rebuilt.
    fn interact_btft(&self, view_idx: usize, bar: Rid) -> Result<Vec<Relation>> {
        let planner = self.planner_for(&self.views[view_idx], "BT+FT")?;
        let rids = planner.execute(&LineageQuery::backward().rids([bar]))?.rids;

        let other: Vec<(usize, &View)> = self.other_views(view_idx).collect();
        let mut counts: Vec<Vec<u64>> = other.iter().map(|(_, v)| vec![0u64; v.bars()]).collect();
        for &rid in &rids {
            for (k, (_, view)) in other.iter().enumerate() {
                if let Some(out) = view.forward.as_ref().and_then(|f| f.single(rid)) {
                    counts[k][out as usize] += 1;
                }
            }
        }
        other
            .iter()
            .zip(counts)
            .map(|((_, view), c)| materialize_counts(view, &c))
            .collect()
    }

    /// Partial cube: pure lookups.
    fn interact_cube(&self, view_idx: usize, bar: Rid) -> Result<Vec<Relation>> {
        let cube = self.cube.as_ref().ok_or_else(|| {
            EngineError::InvalidPlan("cube interaction requires a constructed cube".into())
        })?;
        self.other_views(view_idx)
            .map(|(j, view)| {
                let mut counts = vec![0u64; view.bars()];
                if let Some(per_bar) = cube[view_idx][j].get(&bar) {
                    for (&bj, &c) in per_bar {
                        counts[bj as usize] = c;
                    }
                }
                materialize_counts(view, &counts)
            })
            .collect()
    }
}

/// Builds a refreshed view relation from a dimension-value → count map,
/// keeping only non-zero bars (the paper's `remove_non_affected_groups`).
fn refresh_view(view: &View, counts: &HashMap<String, u64>, base: &Relation) -> Result<Relation> {
    let dim_idx = base.column_index(&view.dimension)?;
    let dim_type = base.schema().field(dim_idx).data_type;
    let mut builder = Relation::builder(format!("crossfilter({})", view.dimension))
        .column(view.dimension.clone(), dim_type)
        .column("cnt", DataType::Int);
    for rid in 0..view.output.len() {
        let value = view.output.value(rid, 0);
        if let Some(&c) = counts.get(&value.group_key()) {
            if c > 0 {
                builder = builder.row(vec![value, Value::Int(c as i64)]);
            }
        }
    }
    Ok(builder.build()?)
}

/// Builds a refreshed view relation from per-bar counts.
fn materialize_counts(view: &View, counts: &[u64]) -> Result<Relation> {
    let dim_type = view.output.schema().field(0).data_type;
    let schema = Schema::new(vec![
        Field::new(view.dimension.clone(), dim_type),
        Field::new("cnt", DataType::Int),
    ])?;
    let mut dim_col = Column::new(dim_type);
    let mut cnt_col: Vec<i64> = Vec::new();
    for (bar, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        dim_col.push(view.output.value(bar, 0))?;
        cnt_col.push(c as i64);
    }
    Ok(Relation::from_columns(
        format!("crossfilter({})", view.dimension),
        schema,
        vec![dim_col, Column::Int(cnt_col)],
    )?)
}

/// Sorts a refreshed view's rows into `(dimension value, count)` pairs for
/// order-insensitive comparisons in tests and benchmarks.
pub fn normalized_counts(view: &Relation) -> Vec<(String, i64)> {
    let mut rows: Vec<(String, i64)> = (0..view.len())
        .map(|rid| {
            (
                view.value(rid, 0).group_key(),
                view.value(rid, 1).as_int().unwrap_or(0),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_datagen::OntimeSpec;

    fn base() -> Relation {
        OntimeSpec {
            rows: 3_000,
            seed: 5,
        }
        .generate()
    }

    fn dims() -> Vec<&'static str> {
        vec!["delay_bin", "carrier", "date_bin"]
    }

    #[test]
    fn views_are_group_by_counts() {
        let session =
            CrossfilterSession::build(base(), &dims(), CrossfilterTechnique::Lazy).unwrap();
        assert_eq!(session.views().len(), 3);
        let delay_view = &session.views()[0];
        assert!(delay_view.bars() <= 8);
        let total: i64 = (0..delay_view.output.len())
            .map(|rid| delay_view.output.value(rid, 1).as_int().unwrap())
            .sum();
        assert_eq!(total, 3_000);
        assert!(delay_view.bar_for(&Value::Int(0)).is_some());
    }

    #[test]
    fn all_techniques_agree_on_interactions() {
        let base = base();
        let lazy =
            CrossfilterSession::build(base.clone(), &dims(), CrossfilterTechnique::Lazy).unwrap();
        let bt =
            CrossfilterSession::build(base.clone(), &dims(), CrossfilterTechnique::BackwardTrace)
                .unwrap();
        let btft = CrossfilterSession::build(
            base.clone(),
            &dims(),
            CrossfilterTechnique::BackwardForwardTrace,
        )
        .unwrap();
        let cube =
            CrossfilterSession::build(base, &dims(), CrossfilterTechnique::PartialCube).unwrap();

        // Highlight a few bars of the carrier view (index 1) and compare.
        for bar in 0..3u32 {
            let expected: Vec<_> = lazy
                .interact(1, bar)
                .unwrap()
                .iter()
                .map(normalized_counts)
                .collect();
            for session in [&bt, &btft, &cube] {
                let got: Vec<_> = session
                    .interact(1, bar)
                    .unwrap()
                    .iter()
                    .map(normalized_counts)
                    .collect();
                assert_eq!(got, expected, "technique {:?}", session.technique());
            }
        }
    }

    #[test]
    fn interaction_counts_sum_to_bar_count() {
        let session =
            CrossfilterSession::build(base(), &dims(), CrossfilterTechnique::BackwardForwardTrace)
                .unwrap();
        let brushed = &session.views()[0];
        for bar in 0..brushed.bars() as Rid {
            let bar_count = brushed.output.value(bar as usize, 1).as_int().unwrap();
            let refreshed = session.interact(0, bar).unwrap();
            for view in &refreshed {
                let total: i64 = (0..view.len())
                    .map(|rid| view.value(rid, 1).as_int().unwrap())
                    .sum();
                assert_eq!(total, bar_count);
            }
        }
    }

    #[test]
    fn cube_build_is_slower_but_interactions_work() {
        let base = base();
        let btft = CrossfilterSession::build(
            base.clone(),
            &dims(),
            CrossfilterTechnique::BackwardForwardTrace,
        )
        .unwrap();
        let cube =
            CrossfilterSession::build(base, &dims(), CrossfilterTechnique::PartialCube).unwrap();
        // The cube technique must also pay for the pairwise cube pass.
        assert!(cube.build_time >= btft.build_time / 4);
        assert!(!cube.interact(2, 0).unwrap().is_empty());
    }

    #[test]
    fn invalid_view_index_is_rejected() {
        let session =
            CrossfilterSession::build(base(), &dims(), CrossfilterTechnique::Lazy).unwrap();
        assert!(session.interact(99, 0).is_err());
    }

    #[test]
    fn out_of_range_bar_refreshes_to_empty_views() {
        // A user-supplied bar beyond the view's range must not panic in any
        // technique; it traces to nothing, so every refreshed view is empty.
        let base = base();
        for technique in [
            CrossfilterTechnique::Lazy,
            CrossfilterTechnique::BackwardTrace,
            CrossfilterTechnique::BackwardForwardTrace,
            CrossfilterTechnique::PartialCube,
        ] {
            let session = CrossfilterSession::build(base.clone(), &dims(), technique).unwrap();
            let refreshed = session.interact(0, 9_999).unwrap();
            assert_eq!(refreshed.len(), session.views().len() - 1);
            for view in &refreshed {
                assert_eq!(view.len(), 0, "technique {technique:?}");
            }
        }
    }

    #[test]
    fn captured_indexes_are_finalized_to_csr() {
        let session =
            CrossfilterSession::build(base(), &dims(), CrossfilterTechnique::BackwardTrace)
                .unwrap();
        for view in session.views() {
            assert!(matches!(view.backward, Some(LineageIndex::Csr(_))));
        }
    }
}
