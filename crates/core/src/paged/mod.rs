//! Out-of-core operator execution over [`PagedRelation`]s.
//!
//! These are page-run *drivers* over the one fused-capture core each
//! operator has in [`crate::ops`]: the input relation lives in a
//! buffer-pool-backed segment store, and the driver streams page-aligned
//! **chunks** ([`PagedRelation::chunk`]) into the same ingest the in-RAM
//! operator feeds with one whole-relation range. Only the scan is chunked —
//! hash tables, aggregation state, and lineage indexes stay in RAM (they are
//! the operator's working set; the paper's capture paradigms assume as much)
//! — so every operator here is **rid-for-rid equivalent** to its in-RAM
//! entry point: same output rows in the same order, same lineage indexes in
//! the same representations, for any pool budget down to a single page. The
//! typed key fast paths live in the cores and rebind their key slices per
//! chunk, so paged execution hashes primitive keys too.
//!
//! Lineage capture stays fused with the chunk scan exactly as §3.2
//! prescribes: Inject populates indexes while pages are pinned for the base
//! query, and Defer replays the chunk scan (re-pinning pages — the realistic
//! out-of-core cost of deferral) against the pinned hash table.
//!
//! Chunk sizes are rounded up to a whole number of pages so that no page is
//! pinned twice for one scan; [`smoke_storage::DEFAULT_CHUNK_ROWS`] (64
//! pages per column)
//! amortizes per-chunk setup while keeping the transient chunk small.

mod grace;

pub use grace::{paged_grace_hash_join, BUILD_BYTES_PER_ROW, MAX_GRACE_PARTITIONS};

use std::time::Instant;

use smoke_storage::{PagedRelation, Relation, Rid, ROWS_PER_PAGE};

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::key::KeyExtractor;
use crate::ops::groupby::{GroupByCore, GroupByOptions, GroupByResult};
use crate::ops::join::{with_join_key, JoinBuild, JoinKey, JoinOptions, JoinProbe, JoinResult};
use crate::ops::select::{SelectCore, SelectOptions};
use crate::ops::OpOutput;

/// Rounds a requested chunk size up to a whole number of pages (at least
/// one), so a chunk scan pins every covering page exactly once.
fn align_chunk(chunk_rows: usize) -> usize {
    chunk_rows.max(1).div_ceil(ROWS_PER_PAGE) * ROWS_PER_PAGE
}

/// Page-aligned `[start, end)` chunk bounds covering `len` rows.
fn chunk_bounds(len: usize, chunk_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(chunk_rows.max(1))
        .map(move |s| (s, (s + chunk_rows).min(len)))
}

/// One scan of `input` as page-aligned chunks: `ingest(chunk, cs)` sees rows
/// `cs..` of the input as a transient relation. The scan opens with the
/// zero-row chunk, which pins nothing: every core binds its columns per
/// ingest, so schema and bind errors surface before any page I/O (exactly as
/// the in-RAM operators surface them before their scan) and an empty input
/// still reaches the core once.
fn scan_chunks(
    input: &PagedRelation,
    chunk_rows: usize,
    mut ingest: impl FnMut(&Relation, usize) -> Result<()>,
) -> Result<()> {
    ingest(&input.chunk(0, 0)?, 0)?;
    for (cs, ce) in chunk_bounds(input.len(), chunk_rows) {
        ingest(&input.chunk(cs, ce)?, cs)?;
    }
    Ok(())
}

/// Executes `SELECT * FROM input WHERE predicate` over a paged relation,
/// streaming page-aligned chunks. Rid-for-rid equivalent to
/// [`crate::ops::select::select`] on the materialized relation.
pub fn paged_select(
    input: &PagedRelation,
    predicate: &Expr,
    opts: &SelectOptions,
    chunk_rows: usize,
) -> Result<OpOutput> {
    let start = Instant::now();
    let mut core = SelectCore::new(predicate, opts, input.len());
    scan_chunks(input, align_chunk(chunk_rows), |chunk, cs| {
        core.ingest(chunk, 0..chunk.len(), cs)
    })?;
    core.finish(input, start)
}

/// Executes `SELECT keys, aggs FROM input GROUP BY keys` over a paged
/// relation. Hash table, aggregation state, and lineage indexes stay in RAM;
/// the input is streamed chunk-at-a-time. Rid-for-rid equivalent to
/// [`crate::ops::groupby::group_by`], including the workload-aware artifacts
/// (selection push-down, data-skipping partitions, group-by push-down cube).
pub fn paged_group_by(
    input: &PagedRelation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
    chunk_rows: usize,
) -> Result<GroupByResult> {
    let start = Instant::now();
    let chunk_rows = align_chunk(chunk_rows);
    let mut core = GroupByCore::new(keys, aggs, opts, input.len());
    scan_chunks(input, chunk_rows, |chunk, cs| {
        core.ingest(chunk, 0..chunk.len(), cs)
    })?;
    // Defer pass: replay the chunk scan against the pinned hash table. Out
    // of core this re-pins every data page — the realistic I/O cost the
    // paged benchmarks measure for deferral.
    if core.defer {
        scan_chunks(input, chunk_rows, |chunk, cs| {
            core.ingest_defer(chunk, 0..chunk.len(), cs)
        })?;
    }
    core.finish(input, start)
}

/// Executes `left ⋈ right ON left_keys = right_keys` over two paged
/// relations: the build phase streams left chunks into an in-RAM hash table,
/// the probe phase streams right chunks against it. Rid-for-rid equivalent
/// to [`crate::ops::join::hash_join`] on the materialized relations, for
/// every capture mode.
///
/// When the estimated build table would dwarf the build side's pool budget
/// (and the keys are numeric), the join transparently switches to the
/// [grace-hash spilling path](paged_grace_hash_join) — same outputs, same
/// lineage, bounded memory; [`JoinResult::grace_partitions`] reports which
/// path ran.
pub fn paged_hash_join(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
    chunk_rows: usize,
) -> Result<JoinResult> {
    fn run<K: for<'a> JoinKey<'a>>(
        left: &PagedRelation,
        right: &PagedRelation,
        (left_keys, right_keys): (&[String], &[String]),
        opts: &JoinOptions,
        chunk_rows: usize,
    ) -> Result<JoinResult> {
        let start = Instant::now();
        let mut build = JoinBuild::<K>::new(left.len());
        scan_chunks(left, chunk_rows, |chunk, cs| {
            build.ingest(chunk, left_keys, 0..chunk.len(), |i| (cs + i) as Rid)
        })?;
        let mut probe = JoinProbe::new(opts, &build, right.len());
        scan_chunks(right, chunk_rows, |chunk, cs| {
            probe.ingest(&build, chunk, right_keys, 0..chunk.len(), |i| {
                (cs + i) as Rid
            })
        })?;
        // The deferred left-side indexes touch only the (in-RAM) hash table,
        // no pages; the output gathers from the paged inputs.
        probe.finish(&build, left, right, start)
    }

    if let Some(partitions) = grace::grace_plan(left, right, left_keys, right_keys) {
        return paged_grace_hash_join(
            left, right, left_keys, right_keys, opts, chunk_rows, partitions,
        );
    }
    let (lprobe, rprobe) = (left.chunk(0, 0)?, right.chunk(0, 0)?);
    let left_extract = KeyExtractor::new(&lprobe, left_keys)?;
    let right_extract = KeyExtractor::new(&rprobe, right_keys)?;
    // Chunk-local `&str` keys would die with their chunk, so strings take the
    // generic owned-key path.
    with_join_key!(
        [i64, (i64, i64)],
        &left_extract,
        &right_extract,
        run(
            left,
            right,
            (left_keys, right_keys),
            opts,
            align_chunk(chunk_rows)
        )
    )
}
