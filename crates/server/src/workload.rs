//! The demo serving workload: a snapshot over the zipfian group-by tables
//! and a skewed interactive-query generator.
//!
//! [`demo_snapshot`] materializes the same instrumented workload the planner
//! and bench crates use — a zipf-distributed fact table grouped by `z` (with
//! a `v_bin`-partitioned rid index, a pushed-down cube, and lazy-rewrite
//! info) plus a second `by_bin` view over the same base so multi-view
//! compose chains have somewhere to go.
//!
//! [`QueryMix`] generates the client-side interaction mix of the paper's
//! serving scenarios — brushing, linked views, crossfiltering, drilldowns,
//! forward traces — with zipf-skewed group popularity, which is what makes
//! the result cache earn its keep.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::{AggExpr, AggPushdown, Expr};
use smoke_datagen::zipf::{zipf_table_binned, ZipfSampler, ZipfSpec};
use smoke_planner::wire::QuerySpec;
use smoke_planner::RewriteInfo;

use crate::snapshot::{Snapshot, View};

/// Number of `v_bin` partitions the demo workload templates on.
pub const BINS: usize = 8;

/// Builds the two-view demo snapshot: `by_z` (zipf group-by with every
/// workload-aware artifact) and `by_bin` (group-by on the partition column,
/// the target of compose chains). Fails only if the capture pipeline
/// rejects the generated tables — a bug, but one the embedding process
/// (server binary, bench harness) gets to report instead of panicking over.
pub fn demo_snapshot(rows: usize, groups: usize, seed: u64) -> smoke_core::Result<Snapshot> {
    let table = zipf_table_binned(
        &ZipfSpec {
            theta: 1.0,
            rows,
            groups,
            seed,
        },
        BINS,
    );
    let mut opts = GroupByOptions::inject();
    opts.workload.skipping_partition_by = vec!["v_bin".to_string()];
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: vec!["v_bin".to_string()],
        aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
    });
    let by_z = group_by(&table, &["z".to_string()], &[AggExpr::count("cnt")], &opts)?;

    let bin_opts = GroupByOptions::inject();
    let by_bin = group_by(
        &table,
        &["v_bin".to_string()],
        &[AggExpr::count("cnt")],
        &bin_opts,
    )?;

    let view_z = View::new(table.clone(), by_z.output.clone())
        .lineage(by_z.lineage.input(0))
        .artifacts(&by_z.artifacts)
        .rewrite(RewriteInfo::new(vec!["z".to_string()], None))
        .stats(by_z.stats);
    let view_bin = View::new(table, by_bin.output.clone())
        .lineage(by_bin.lineage.input(0))
        .rewrite(RewriteInfo::new(vec!["v_bin".to_string()], None))
        .stats(by_bin.stats);
    Ok(Snapshot::new()
        .with_view("by_z", view_z)
        .with_view("by_bin", view_bin))
}

/// A generated request: target view plus query.
pub type MixedQuery = (&'static str, QuerySpec);

/// A zipf-skewed generator of the interactive query mix.
///
/// Per draw: ~35% brush (backward over a hot group), ~10% linked views
/// (backward composed forward through `by_bin`), ~25% crossfilter (backward
/// with a `v_bin` filter and aggregation), ~15% drilldown (the cube-shaped
/// aggregate), ~15% forward trace from base rows.
pub struct QueryMix {
    rng: StdRng,
    groups: ZipfSampler,
    n_groups: usize,
    n_rows: usize,
}

impl QueryMix {
    /// Creates a mix over a snapshot with `n_groups` output groups in `by_z`
    /// and `n_rows` base rows. Skew mirrors the data generator (`theta=1`).
    pub fn new(n_groups: usize, n_rows: usize, seed: u64) -> Self {
        QueryMix {
            rng: StdRng::seed_from_u64(seed),
            groups: ZipfSampler::new(n_groups.max(1), 1.0),
            n_groups: n_groups.max(1),
            n_rows: n_rows.max(1),
        }
    }

    /// Draws the next query of the mix.
    pub fn next_query(&mut self) -> MixedQuery {
        // Zipf group popularity: group ids are assigned by the data
        // generator in frequency order, so sampling ranks ≡ sampling groups.
        let group = (self.groups.sample(&mut self.rng) - 1).min(self.n_groups - 1) as u32;
        let roll: f64 = self.rng.gen();
        if roll < 0.35 {
            // Brush: which inputs built this bar?
            ("by_z", QuerySpec::backward().rids([group]))
        } else if roll < 0.45 {
            // Linked views: highlight the same inputs in the binned view.
            (
                "by_z",
                QuerySpec::multi_view().rids([group]).then_through("by_bin"),
            )
        } else if roll < 0.70 {
            // Crossfilter: restrict the trace to one bin, re-aggregate.
            let bin = self.rng.gen_range(0..BINS as i64);
            (
                "by_z",
                QuerySpec::backward()
                    .rids([group])
                    .filter(Expr::col("v_bin").eq(Expr::lit(bin)))
                    .aggregate(&["v_bin"], vec![AggExpr::count("cnt")]),
            )
        } else if roll < 0.85 {
            // Drilldown: the cube-matching aggregate over the group's inputs.
            (
                "by_z",
                QuerySpec::backward().rids([group]).aggregate(
                    &["v_bin"],
                    vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
                ),
            )
        } else {
            // Forward trace: which bars does this base row feed?
            let rid = self.rng.gen_range(0..self.n_rows) as u32;
            ("by_z", QuerySpec::forward().rids([rid]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_snapshot_serves_every_mix_shape() {
        let snapshot = demo_snapshot(2_000, 50, 7).expect("demo snapshot");
        assert_eq!(snapshot.view_names(), vec!["by_bin", "by_z"]);
        let n_groups = snapshot.view("by_z").unwrap().output().len();
        let mut mix = QueryMix::new(n_groups, 2_000, 11);
        for _ in 0..200 {
            let (view, spec) = mix.next_query();
            let result = snapshot.execute(view, &spec).expect("mix query executes");
            assert!(result.rids.len() <= 2_000);
        }
    }

    #[test]
    fn mix_is_skewed_toward_hot_groups() {
        let mut mix = QueryMix::new(100, 1_000, 3);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            let (_, spec) = mix.next_query();
            if let smoke_planner::wire::SelectionSpec::Rids(rids) = &spec.selection {
                if spec.direction == smoke_planner::Direction::Backward
                    || spec.direction == smoke_planner::Direction::MultiView
                {
                    total += 1;
                    if rids.iter().all(|&r| r < 10) {
                        hot += 1;
                    }
                }
            }
        }
        // Zipf(theta=1) concentrates well over half the mass in the top 10%.
        assert!(hot * 2 > total, "hot={hot} total={total}");
    }
}
