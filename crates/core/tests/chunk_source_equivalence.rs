//! One equivalence suite for every chunk source. `select`, `group_by` and
//! `hash_join` each have one fused-capture core; the resident and page-run
//! entry points (and, for `group_by`, the morsel one) are drivers that only
//! differ in which rows they hand it. Every case below runs one operator
//! through a [`Source`] and diffs it against the resident single-ingest
//! run: output relation, group order, `pk_fk`, `output_rows`, workload
//! artifacts and the lineage indexes themselves, which every driver hands
//! out byte for byte equal — for every capture mode.
//!
//! Float columns hold dyadic rationals (multiples of 0.5) so partial-sum
//! merges are exact and aggregates compare bit-for-bit. `SumSqrt` is absent:
//! square roots are not dyadic, so it only agrees up to the last ulp.
//!
//! Rows that only the shared core makes reachable:
//! `typed_group_keys_reach_the_page_run_driver` (int-pair and `Str` keys, a
//! dense domain that widens chunk by chunk),
//! `selection_pushdown_runs_morsel_parallel`, and the morsel rows of
//! `workload_artifacts_partition_for_partition` and
//! `cardinality_hints_run_morsel_parallel`: the morsel driver delegates for
//! `dop <= 1` and nothing else.

use std::sync::Arc;

use proptest::prelude::*;
use smoke_core::ops::groupby::{group_by, true_cardinalities, GroupByOptions, GroupByResult};
use smoke_core::ops::join::{hash_join, JoinOptions, JoinResult};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::ops::OpOutput;
use smoke_core::paged::paged_grace_hash_join;
use smoke_core::parallel::{par_group_by, ParallelOptions};
use smoke_core::{paged_group_by, paged_hash_join, paged_select, AggExpr, AggPushdown, Expr};
use smoke_lineage::OperatorLineage;
use smoke_pager::{BufferPool, ReplacementPolicy, SegmentStore};
use smoke_storage::{DataType, PagedRelation, Relation, Value, ROWS_PER_PAGE};

/// Where an operator core's rows come from, besides the reference: one
/// resident ingest of the whole relation.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// `(dop, morsel_rows)`: one group-by core per morsel on `dop` workers,
    /// then an ordered merge. Selection and join have no morsel driver.
    Morsels(usize, usize),
    /// `(budget, store)`: one ingest per one-page chunk, pinned through a
    /// pool of `budget` frames over `store` — every chunk boundary is a page
    /// boundary, and a budget of 1 means every page fault evicts.
    PageRuns(usize, Store),
}

/// The segment store behind a [`Source::PageRuns`] pool.
#[derive(Debug, Clone, Copy)]
enum Store {
    /// `SegmentStore::in_memory`.
    Memory,
    /// `SegmentStore::temp`: a real file, as `Database::set_memory_budget`
    /// builds it.
    File,
}

/// 64-row morsels: any table longer than 64 rows spans several morsels, so
/// small proptest inputs already exercise boundary-straddling groups.
fn morsels(dop: usize) -> Source {
    Source::Morsels(dop, 64)
}

fn page_runs(budget: usize) -> Source {
    Source::PageRuns(budget, Store::Memory)
}

const CHUNK: usize = ROWS_PER_PAGE;

impl Source {
    fn par(self) -> ParallelOptions {
        let Source::Morsels(dop, morsel_rows) = self else {
            unreachable!("only morsel sources run on the pool")
        };
        ParallelOptions::new(dop).with_morsel_rows(morsel_rows)
    }

    fn spill(self, table: &Relation) -> PagedRelation {
        let Source::PageRuns(budget, store) = self else {
            unreachable!("only page-run sources spill")
        };
        let store = match store {
            Store::Memory => SegmentStore::in_memory(),
            Store::File => SegmentStore::temp("equivalence").unwrap(),
        };
        let pool = BufferPool::new(store, budget, ReplacementPolicy::Sieve);
        PagedRelation::spill(table, &Arc::new(pool)).unwrap()
    }

    fn select(
        self,
        t: &Relation,
        pred: &Expr,
        opts: &SelectOptions,
    ) -> smoke_core::Result<OpOutput> {
        paged_select(&self.spill(t), pred, opts, CHUNK)
    }

    fn group_by(
        self,
        t: &Relation,
        keys: &[String],
        aggs: &[AggExpr],
        opts: &GroupByOptions,
    ) -> smoke_core::Result<GroupByResult> {
        match self {
            Source::Morsels(..) => par_group_by(t, keys, aggs, opts, &self.par()),
            Source::PageRuns(..) => paged_group_by(&self.spill(t), keys, aggs, opts, CHUNK),
        }
    }

    fn join(self, l: &Relation, r: &Relation, on: &[String], opts: &JoinOptions) -> JoinResult {
        paged_hash_join(&self.spill(l), &self.spill(r), on, on, opts, CHUNK).unwrap()
    }
}

/// `t(a, b, s, c)` from `rows` tiled `reps` times, so small proptest inputs
/// still span several pages. `a` is a small-domain int so groups recur
/// across morsel and page boundaries, `b` a dyadic float, `s` a short
/// string (spilled as offsets + payload runs), `c` a second int for pair
/// keys.
fn table_from(rows: &[(i64, i64)], reps: usize) -> Relation {
    let mut b = Relation::builder("t")
        .column("a", DataType::Int)
        .column("b", DataType::Float)
        .column("s", DataType::Str)
        .column("c", DataType::Int);
    for _ in 0..reps {
        for &(x, y) in rows {
            let s = ["red", "green", "blue", "cyan"][(y % 4).unsigned_abs() as usize];
            b = b.row(vec![
                Value::Int(x),
                Value::Float(y as f64 * 0.5),
                Value::Str(s.into()),
                Value::Int(y % 3),
            ]);
        }
    }
    b.build().unwrap()
}

fn strs(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// Every aggregate whose merge is exact on dyadic-rational inputs.
fn exact_aggs(col: &str) -> Vec<AggExpr> {
    vec![
        AggExpr::count("cnt"),
        AggExpr::sum(col, "sum_v"),
        AggExpr::sum_sq(col, "sum_v2"),
        AggExpr::avg(col, "avg_v"),
        AggExpr::min(col, "min_v"),
        AggExpr::max(col, "max_v"),
        AggExpr::count_distinct(col, "dcnt_v"),
    ]
}

fn select_modes() -> [SelectOptions; 2] {
    [SelectOptions::baseline(), SelectOptions::inject()]
}

fn group_by_modes() -> [GroupByOptions; 3] {
    [
        GroupByOptions::baseline(),
        GroupByOptions::inject(),
        GroupByOptions::defer(),
    ]
}

fn join_modes() -> [JoinOptions; 4] {
    [
        JoinOptions::baseline(),
        JoinOptions::inject(),
        JoinOptions::defer(),
        JoinOptions::defer_forward(),
    ]
}

/// Group-by options with the full workload surface on: a selection
/// push-down, skipping partitions and an aggregate push-down cube.
fn workload_opts() -> GroupByOptions {
    let mut opts = GroupByOptions::inject();
    opts.workload.selection_pushdown = Some(Expr::col("b").lt(Expr::lit(20.0)));
    opts.workload.skipping_partition_by = strs(&["c"]);
    opts.workload.agg_pushdown = Some(AggPushdown {
        partition_by: strs(&["c"]),
        aggs: vec![
            AggExpr::count("cnt"),
            AggExpr::sum("b", "total"),
            AggExpr::count_distinct("s", "colours"),
        ],
    });
    opts
}

/// Lineage equality against the resident run `w`: every driver hands out
/// the same indexes, byte for byte.
fn same_lineage(src: Source, w: &OperatorLineage, g: &OperatorLineage) {
    assert_eq!(w.input_count(), g.input_count(), "{src:?}");
    for i in 0..w.input_count() {
        let (w, g) = (w.input(i), g.input(i));
        assert_eq!(w.backward, g.backward, "{src:?}: backward[{i}]");
        assert_eq!(w.forward, g.forward, "{src:?}: forward[{i}]");
    }
}

/// Proof that a morsel group-by ran on the pool instead of delegating: its
/// merged CSR cost exactly its bytes, below the resident Inject write side.
fn ran_on_the_pool(want: &GroupByResult, got: &GroupByResult) {
    assert!(got.stats.lineage_bytes < want.stats.lineage_bytes);
}

fn check_select(src: Source, table: &Relation, pred: &Expr) {
    for opts in select_modes() {
        let w = select(table, pred, &opts).unwrap();
        let g = src.select(table, pred, &opts).unwrap();
        assert_eq!(w.output, g.output, "{src:?}: output for {pred:?}");
        assert_eq!(w.stats.edges, g.stats.edges);
        same_lineage(src, &w.lineage, &g.lineage);
    }
}

/// Group-by on `keys` with every exact aggregate, under Baseline / Inject /
/// Defer and then each of `extra`.
fn check_group_by(src: Source, table: &Relation, keys: &[&str], extra: &[GroupByOptions]) {
    let (keys, aggs) = (strs(keys), exact_aggs("b"));
    for opts in group_by_modes().iter().chain(extra) {
        let w = group_by(table, &keys, &aggs, opts).unwrap();
        let g = src.group_by(table, &keys, &aggs, opts).unwrap();
        assert_eq!(w.output, g.output, "{src:?}: group-by output on {keys:?}");
        same_lineage(src, &w.lineage, &g.lineage);

        // Workload artifacts captured through any driver must match the
        // resident ones partition-for-partition and cell-for-cell.
        let (wp, gp) = (&w.artifacts.partitioned, &g.artifacts.partitioned);
        assert_eq!(wp.is_some(), gp.is_some(), "{src:?}: partitioned presence");
        if let (Some(wp), Some(gp)) = (wp, gp) {
            assert_eq!(wp.len(), gp.len());
            for out in 0..wp.len() {
                let (w, g): (Vec<_>, Vec<_>) =
                    (wp.partitions(out).collect(), gp.partitions(out).collect());
                assert_eq!(w, g, "{src:?}: partitions of {out}");
                for (key, rids) in w {
                    assert_eq!(gp.partition(out, key), rids, "{src:?}");
                }
            }
        }
        let (wc, gc) = (&w.artifacts.cube, &g.artifacts.cube);
        assert_eq!(wc.is_some(), gc.is_some(), "{src:?}: cube presence");
        if let (Some(wc), Some(gc)) = (wc, gc) {
            assert_eq!((wc.len(), wc.cell_count()), (gc.len(), gc.cell_count()));
            for out in 0..wc.len() {
                assert_eq!(wc.query(out).unwrap(), gc.query(out).unwrap(), "{src:?}");
            }
        }
    }
}

fn same_join(src: Source, w: &JoinResult, g: &JoinResult) {
    assert_eq!(w.output, g.output, "{src:?}: join output");
    assert_eq!(
        (w.output_rows, w.pk_fk),
        (g.output_rows, g.pk_fk),
        "{src:?}"
    );
    same_lineage(src, &w.lineage, &g.lineage);
}

/// Joins `left ⋈ right ON on = on` under every capture mode; returns the
/// driven results so rows can assert on `grace_partitions`.
fn check_join(src: Source, left: &Relation, right: &Relation, on: &[&str]) -> Vec<JoinResult> {
    let on = strs(on);
    let check = |opts: JoinOptions| {
        let g = src.join(left, right, &on, &opts);
        let w = hash_join(left, right, &on, &on, &opts).unwrap();
        same_join(src, &w, &g);
        g
    };
    join_modes().map(check).into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn select_is_chunk_source_invariant(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..200),
        reps in 1usize..8,
        cut in -2i64..8,
        budget in 1usize..9,
    ) {
        let table = table_from(&rows, reps);
        // A compound predicate exercising And/InList nodes over ranges, on a
        // fixed-width and a string column.
        let compound = Expr::col("a")
            .in_list(vec![Value::Int(cut), Value::Int(cut + 2)])
            .or(Expr::col("b").lt(Expr::lit(10.0)))
            .or(Expr::col("s").eq(Expr::lit("cyan")));
        let src = page_runs(budget);
        check_select(src, &table, &Expr::col("a").ge(Expr::lit(cut)));
        check_select(src, &table, &compound);
    }

    #[test]
    fn group_by_is_chunk_source_invariant(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 0..200),
        reps in 1usize..8,
        dop in 2usize..9,
        budget in 1usize..9,
    ) {
        let table = table_from(&rows, reps);
        for src in [morsels(dop), page_runs(budget)] {
            // Int key (dense fast path), string key and composite key (both
            // the generic path).
            check_group_by(src, &table, &["a"], &[]);
            check_group_by(src, &table, &["s"], &[]);
            check_group_by(src, &table, &["s", "a"], &[]);
        }
    }

    #[test]
    fn join_is_chunk_source_invariant(
        left_rows in prop::collection::vec((-2i64..8, 0i64..100), 0..40),
        right_rows in prop::collection::vec((-2i64..8, 0i64..100), 0..200),
        reps in 1usize..6,
        budget in 1usize..9,
    ) {
        // M:N on the small-domain int key (pk-fk when the generated left side
        // happens to be unique); string keys take the borrowed-`&str` path
        // resident and the generic path paged.
        let left = table_from(&left_rows, 1).with_name("L");
        let right = table_from(&right_rows, reps).with_name("R");
        let src = page_runs(budget);
        check_join(src, &left, &right, &["a"]);
        check_join(src, &left, &right, &["s"]);
    }

    /// The production store is a temp file: over it every operator must
    /// produce the same outputs and lineage as over the in-memory store —
    /// for any budget, the grace join path included (large `reps` push the
    /// build side of the self-join over budget).
    #[test]
    fn file_store_equals_memory_store(
        rows in prop::collection::vec((-2i64..8, 0i64..100), 1..100),
        reps in 1usize..8,
        cut in -2i64..8,
        budget in 1usize..9,
    ) {
        let table = table_from(&rows, reps);
        let src = Source::PageRuns(budget, Store::File);
        check_select(src, &table, &Expr::col("a").ge(Expr::lit(cut)));
        // The spilled Str offsets and payload runs read back from the file
        // too.
        check_group_by(src, &table, &["s"], &[]);
        let file = check_join(src, &table, &table, &["a"]);
        let on = strs(&["a"]);
        let memory = page_runs(budget).join(&table, &table, &on, &JoinOptions::inject());
        assert_eq!(file[1].grace_partitions, memory.grace_partitions);
    }
}

#[test]
fn groups_straddling_a_morsel_boundary() {
    // 200 rows of 3 recurring keys over 64-row morsels: every group spans
    // all four morsels.
    let rows: Vec<(i64, i64)> = (0..200).map(|i| (i % 3, i)).collect();
    check_group_by(morsels(4), &table_from(&rows, 1), &["a"], &[]);
    // One group entirely inside a single morsel, one spanning all.
    let rows: Vec<(i64, i64)> = (0..200)
        .map(|i| (if (64..128).contains(&i) { 7 } else { 0 }, i))
        .collect();
    check_group_by(morsels(4), &table_from(&rows, 1), &["a"], &[]);
}

#[test]
fn dop_exceeding_morsel_count_clamps() {
    // 100 rows / 64-row morsels = 2 morsels; DOP 32 must clamp, not hang or
    // mis-merge.
    let rows: Vec<(i64, i64)> = (0..100).map(|i| (i % 5, i)).collect();
    let table = table_from(&rows, 1);
    check_group_by(morsels(32), &table, &["a"], &[]);

    let opts = morsels(32).par();
    assert_eq!(opts.workers(2), 2);
    assert_eq!(opts.workers(0), 1);
    assert_eq!(opts.dop(), 32);
    assert_eq!(opts.morsel_rows(), 64);
}

#[test]
fn dop_one_delegates() {
    // DOP 1 *is* the sequential engine, write-side stats included.
    let rows: Vec<(i64, i64)> = (0..150).map(|i| (i % 4, i)).collect();
    let table = table_from(&rows, 1);
    check_group_by(morsels(1), &table, &["a"], &[]);
    let (keys, inject) = (strs(&["a"]), GroupByOptions::inject());
    let want = group_by(&table, &keys, &[], &inject).unwrap();
    let got = morsels(1).group_by(&table, &keys, &[], &inject).unwrap();
    assert_eq!(want.stats.lineage_bytes, got.stats.lineage_bytes);
}

#[test]
fn computed_operand_predicate_runs_on_every_driver() {
    // Arithmetic and a boolean used as a value are computed per evaluated
    // range, and a computed side compared with a column side is aligned to
    // that range: both must agree across morsel and chunk boundaries.
    let rows: Vec<(i64, i64)> = (0..1500).map(|i| (i % 4, i)).collect();
    let table = table_from(&rows, 1);
    let preds = [
        (Expr::col("a") + Expr::lit(1)).gt(Expr::lit(2)),
        (Expr::col("a") * Expr::lit(100))
            .lt(Expr::col("b"))
            .or(Expr::col("a").eq(Expr::lit(1)).eq(Expr::col("a"))),
    ];
    for pred in &preds {
        check_select(page_runs(1), &table, pred);
    }
}

#[test]
fn one_frame_pool_over_multi_page_tables() {
    // 3000 rows = 3 pages per numeric column; one single frame serves every
    // pin across spill boundaries, so progress proves no pin is ever held
    // while the next page faults.
    let rows: Vec<(i64, i64)> = (0..3000).map(|i| (i * i % 7, i % 13)).collect();
    let table = table_from(&rows, 1);
    let pred = Expr::col("a")
        .ge(Expr::lit(3))
        .and(Expr::col("b").lt(Expr::lit(600.0)));
    let src = page_runs(1);
    check_select(src, &table, &pred);
    check_group_by(src, &table, &["a"], &[workload_opts()]);
}

#[test]
fn grace_join_at_one_frame() {
    // 1500 build rows × 48 bytes ≫ a one-frame budget, so the join
    // auto-dispatches to the grace path; 7 distinct keys make it M:N. The
    // pools are file-backed: partitioning, probing and merging spill to and
    // read back from a real segment file through a single frame.
    let rows: Vec<(i64, i64)> = (0..1500).map(|i| (i % 7, i % 13)).collect();
    let left = table_from(&rows, 1).with_name("L");
    let right = table_from(&rows, 1).with_name("R");
    for got in check_join(Source::PageRuns(1, Store::File), &left, &right, &["a"]) {
        assert!(got.grace_partitions > 1, "grace must engage");
    }
}

#[test]
fn grace_eligibility_and_explicit_fan_out() {
    let rows: Vec<(i64, i64)> = (0..600).map(|i| (i % 7, i % 5)).collect();
    let left = table_from(&rows, 1).with_name("L");
    let right = table_from(&rows[..400], 1).with_name("R");
    let src = page_runs(1);
    // Float keys are numeric: over budget they partition like ints.
    for got in check_join(src, &left, &right, &["b"]) {
        assert!(got.grace_partitions > 1);
    }
    // Composite numeric keys partition too, through the int-pair core.
    for got in check_join(src, &left, &right, &["a", "c"]) {
        assert!(got.grace_partitions > 1);
    }
    // Over budget, but the key column is Str: partitions spill through
    // fixed-width runs only, so the join must stay on the resident-build
    // path (and still be correct).
    for got in check_join(src, &left, &right, &["s"]) {
        assert_eq!(got.grace_partitions, 1, "Str keys must not take grace");
    }

    // Direct invocation with a fixed fan-out on inputs far under the budget:
    // the grace machinery itself (not the dispatch heuristic) must reproduce
    // the resident join, empty partitions included.
    let tiny = |name: &str, zs: &[i64]| {
        let rows: Vec<(i64, i64)> = zs.iter().map(|&z| (z, z)).collect();
        table_from(&rows, 1).with_name(name)
    };
    let (left, right) = (tiny("A", &[1, 1, 2, 3, 1]), tiny("B", &[1, 2, 1, 3, 9]));
    let (pl, pr) = (src.spill(&left), src.spill(&right));
    let on = strs(&["a"]);
    for opts in join_modes() {
        let want = hash_join(&left, &right, &on, &on, &opts).unwrap();
        let got = paged_grace_hash_join(&pl, &pr, &on, &on, &opts, CHUNK, 3).unwrap();
        assert_eq!(got.grace_partitions, 3);
        assert!(!got.pk_fk);
        same_join(src, &want, &got);
    }
}

#[test]
fn small_build_side_stays_resident() {
    // A 7-row pk build side fits any budget: the page-run driver runs the
    // fused build/probe core chunk by chunk, never the grace path.
    let dims: Vec<(i64, i64)> = (0..7).map(|i| (i, i)).collect();
    let facts: Vec<(i64, i64)> = (0..2500).map(|i| (i * i % 7, i)).collect();
    let src = page_runs(2);
    let (left, right) = (
        table_from(&dims, 1).with_name("dims"),
        table_from(&facts, 1),
    );
    for got in check_join(src, &left, &right, &["a"]) {
        assert!(got.pk_fk);
        assert_eq!(got.grace_partitions, 1, "small build side stays resident");
    }
    // M:N with unmatched keys on both sides.
    let mn = |zs: &[i64]| table_from(&zs.iter().map(|&z| (z, z)).collect::<Vec<_>>(), 1);
    for got in check_join(src, &mn(&[1, 1, 2, 3, 1]), &mn(&[1, 2, 1, 3, 9]), &["a"]) {
        assert!(!got.pk_fk);
    }
}

#[test]
fn workload_artifacts_partition_for_partition() {
    let rows: Vec<(i64, i64)> = (0..2100).map(|i| (i * i % 7, i % 50)).collect();
    let table = table_from(&rows, 1);
    let mut skipping_only = GroupByOptions::inject();
    skipping_only.workload.skipping_partition_by = strs(&["c"]);
    let mut deferred = workload_opts();
    deferred.mode = smoke_core::CaptureMode::Defer;
    // Partitions and cube on different attribute lists (one finer group
    // table each), and a two-attribute partition keyed by `(s, c)`.
    let mut split = workload_opts();
    split.workload.skipping_partition_by = strs(&["s"]);
    let mut two_attrs = workload_opts();
    two_attrs.workload.skipping_partition_by = strs(&["s", "c"]);
    two_attrs
        .workload
        .agg_pushdown
        .as_mut()
        .unwrap()
        .partition_by = strs(&["s", "c"]);
    let modes = [workload_opts(), skipping_only, deferred, split, two_attrs];
    check_group_by(page_runs(2), &table, &["a"], &modes);
    // The finer group tables fragment and merge like the coarse one, so the
    // morsel driver runs every mode on the pool.
    check_group_by(morsels(4), &table, &["a"], &modes);
    for opts in modes
        .iter()
        .filter(|o| o.mode == smoke_core::CaptureMode::Inject)
    {
        let want = group_by(&table, &strs(&["a"]), &[], opts).unwrap();
        let got = morsels(4).group_by(&table, &strs(&["a"]), &[], opts);
        ran_on_the_pool(&want, &got.unwrap());
    }
    let two_attrs = group_by(&table, &strs(&["a"]), &[], &modes[4]).unwrap();
    let partitioned = two_attrs.artifacts.partitioned.unwrap();
    let blue_2 = [Value::Str("blue".into()), Value::Int(2)];
    assert!(!partitioned.partition(0, &blue_2).is_empty());
    assert!(partitioned.partitions(0).any(|(key, _)| key == blue_2));
}

#[test]
fn cardinality_hints_run_morsel_parallel() {
    // Hints pre-size Inject's per-key arrays; the morsel driver sizes its
    // CSR from exact counts instead, so hinted runs stay on the pool and
    // hand out the hinted resident run's indexes.
    let rows: Vec<(i64, i64)> = (0..400).map(|i| (i % 6, i)).collect();
    let right = table_from(&rows, 1);
    let (src, on) = (morsels(4), strs(&["a"]));
    let hints = true_cardinalities(&right, &on).unwrap();

    let hinted = GroupByOptions::inject_with_hints(hints);
    check_group_by(src, &right, &["a"], std::slice::from_ref(&hinted));
    let want = group_by(&right, &on, &[], &hinted).unwrap();
    ran_on_the_pool(&want, &src.group_by(&right, &on, &[], &hinted).unwrap());
}

#[test]
fn typed_group_keys_reach_the_page_run_driver() {
    // `a` climbs with the rid, so each one-page chunk widens the dense gid
    // table's domain; `a * 1000` outgrows the dense cap mid-scan and demotes
    // the table to hashing with groups already assigned.
    let rows: Vec<(i64, i64)> = (0..3000).map(|i| (i / 100, i % 11)).collect();
    let sparse: Vec<(i64, i64)> = (0..3000).map(|i| (i / 100 * 1000, i % 11)).collect();
    for src in [page_runs(1), morsels(3)] {
        for rows in [&rows, &sparse] {
            let table = table_from(rows, 1);
            check_group_by(src, &table, &["a"], &[]);
            check_group_by(src, &table, &["a", "c"], &[]);
            check_group_by(src, &table, &["s"], &[]);
        }
    }
}

#[test]
fn selection_pushdown_runs_morsel_parallel() {
    // A fallback the shared core retired: selection push-down runs on the
    // pool, under Inject and Defer.
    let rows: Vec<(i64, i64)> = (0..400).map(|i| (i % 6, i)).collect();
    let mut pushdown = GroupByOptions::inject();
    pushdown.workload.selection_pushdown = Some(Expr::col("b").lt(Expr::lit(60.0)));
    let mut deferred = pushdown.clone();
    deferred.mode = smoke_core::CaptureMode::Defer;
    let table = table_from(&rows, 1);
    check_group_by(morsels(4), &table, &["a"], &[pushdown.clone(), deferred]);
    let want = group_by(&table, &strs(&["a"]), &[], &pushdown).unwrap();
    let got = morsels(4).group_by(&table, &strs(&["a"]), &[], &pushdown);
    ran_on_the_pool(&want, &got.unwrap());
}

#[test]
fn empty_relation_through_every_driver() {
    let empty = table_from(&[], 1);
    let small = table_from(&[(1, 2), (3, 4)], 1);
    check_group_by(morsels(8), &empty, &["a"], &[]);
    let src = page_runs(1);
    check_select(src, &empty, &Expr::col("a").gt(Expr::lit(0)));
    check_group_by(src, &empty, &["a"], &[]);
    check_join(src, &empty, &small, &["a"]);
    check_join(src, &small, &empty, &["a"]);
}

#[test]
fn unknown_columns_error_through_every_driver() {
    // Every driver returns the resident operator's error, variant and
    // message alike. Page-run drivers return it before any page I/O: the
    // scan opens with a zero-row chunk that binds every column it names.
    let table = table_from(&[(1, 2), (3, 4)], 600);
    let paged = page_runs(1).spill(&table);
    let no_io = |what: &str| {
        assert_eq!(paged.pool().stats().disk_reads, 0, "{what}");
    };

    let (bad, inject) = (Expr::col("nope").lt(Expr::lit(1)), SelectOptions::inject());
    let want = select(&table, &bad, &inject).unwrap_err();
    paged.pool().reset_stats();
    assert_eq!(
        paged_select(&paged, &bad, &inject, CHUNK).unwrap_err(),
        want
    );
    no_io("select");

    let mut bad_pushdown = GroupByOptions::inject();
    bad_pushdown.workload.selection_pushdown = Some(bad.clone());
    let mut bad_partition = GroupByOptions::inject();
    bad_partition.workload.skipping_partition_by = strs(&["nope"]);
    let bad_agg = [AggExpr::sum("nope", "s")];
    let cases: [(&[&str], &[AggExpr], GroupByOptions); 4] = [
        (&["nope"], &[], GroupByOptions::inject()),
        (&["a"], &bad_agg, GroupByOptions::baseline()),
        (&["a"], &[], bad_pushdown),
        (&["a"], &[], bad_partition),
    ];
    for (keys, aggs, opts) in &cases {
        let keys = strs(keys);
        let want = group_by(&table, &keys, aggs, opts).unwrap_err();
        let got = morsels(2).group_by(&table, &keys, aggs, opts);
        assert_eq!(got.unwrap_err(), want, "{keys:?} {opts:?}");
        paged.pool().reset_stats();
        let got = paged_group_by(&paged, &keys, aggs, opts, CHUNK);
        assert_eq!(got.unwrap_err(), want, "{keys:?} {opts:?}");
        no_io("group-by");
    }

    let (on, bad_on) = (strs(&["a"]), strs(&["nope"]));
    let opts = JoinOptions::inject();
    for (l, r) in [(&bad_on, &on), (&on, &bad_on)] {
        let want = hash_join(&table, &table, l, r, &opts).unwrap_err();
        paged.pool().reset_stats();
        let got = paged_hash_join(&paged, &paged, l, r, &opts, CHUNK);
        assert_eq!(got.unwrap_err(), want, "{l:?} ⋈ {r:?}");
        no_io("join");
    }
}

#[test]
fn a_core_that_names_no_column_still_sees_every_row() {
    // `COUNT(*)` without keys and a constant predicate read no column, but a
    // chunk of no columns has no rows: the scan must still see all 5,000.
    let rows: Vec<(i64, i64)> = (0..2500).map(|i| (i % 7, i)).collect();
    let table = table_from(&rows, 2);
    let count = [AggExpr::count("n")];
    for src in [page_runs(1), page_runs(8), morsels(3)] {
        for opts in group_by_modes() {
            let want = group_by(&table, &[], &count, &opts).unwrap();
            assert_eq!(want.output.value(0, 0), Value::Int(5000));
            let got = src.group_by(&table, &[], &count, &opts).unwrap();
            assert_eq!(want.output, got.output, "{src:?} {opts:?}");
            same_lineage(src, &want.lineage, &got.lineage);
        }
    }
    for src in [page_runs(1), page_runs(8)] {
        check_select(src, &table, &Expr::lit(1).lt(Expr::lit(2)));
        check_select(src, &table, &Expr::lit(2).lt(Expr::lit(1)));
    }
}

#[test]
fn a_paged_scan_reads_only_the_columns_its_core_names() {
    // `t(a, b, s, c)` over 3,000 rows: 3 pages for each numeric column, and
    // `s` as offsets and payload runs. Each table spills into its own cold
    // pool, large enough that no page is read twice.
    let rows: Vec<(i64, i64)> = (0..3000).map(|i| (i % 7, i)).collect();
    let facts = table_from(&rows, 1);
    let dims = table_from(&(0..7).map(|i| (i, i)).collect::<Vec<_>>(), 1).with_name("dims");
    let cold = |table: &Relation| Source::PageRuns(64, Store::Memory).spill(table);
    let reads = |rel: &PagedRelation| rel.pool().stats().disk_reads;
    let on = strs(&["a"]);

    // γ on `a` with COUNT(*): `a`'s pages and no others, under Inject and
    // Baseline alike (the output is built from the groups, not gathered).
    for opts in [GroupByOptions::inject(), GroupByOptions::baseline()] {
        let paged = cold(&facts);
        assert!(paged.total_pages() > 4 * paged.pages_per_column());
        let count = [AggExpr::count("n")];
        paged_group_by(&paged, &on, &count, &opts, CHUNK).unwrap();
        assert_eq!(reads(&paged), u64::from(paged.pages_per_column()));
    }

    // A resident-build join: build and probe read only their key pages.
    let (left, right) = (cold(&dims), cold(&facts));
    let opts = JoinOptions::inject().without_output();
    let got = paged_hash_join(&left, &right, &on, &on, &opts, CHUNK).unwrap();
    assert_eq!(got.grace_partitions, 1);
    assert_eq!(reads(&left), u64::from(left.pages_per_column()));
    assert_eq!(reads(&right), u64::from(right.pages_per_column()));

    // With the output gathered: every row matches, so the gather reads
    // every other page once, and the key pages the scan left resident are
    // not read again.
    let (left, right) = (cold(&dims), cold(&facts));
    let got = paged_hash_join(&left, &right, &on, &on, &JoinOptions::inject(), CHUNK).unwrap();
    assert_eq!(got.output_rows, facts.len());
    assert_eq!(reads(&left), u64::from(left.total_pages()));
    assert_eq!(reads(&right), u64::from(right.total_pages()));
}
