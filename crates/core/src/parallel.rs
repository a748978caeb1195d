//! Morsel-driven parallel operator drivers with per-thread lineage capture.
//!
//! Each operator in [`crate::ops`] is one fused-capture core; this module is
//! the driver that feeds it morsels instead of the whole relation, following
//! Leis et al.'s morsel-driven design adapted to Smoke's fused capture
//! (paper §3.2): the input relation is split into fixed-size [`Morsel`]s, a
//! scoped pool of worker threads claims morsels dynamically through an
//! atomic cursor, and *each worker runs a private core per morsel* — no
//! locks, no sharing, no atomics on the per-row hot path. A deterministic
//! merge in morsel order then folds the per-morsel cores into one, which
//! goes through the operator's ordinary finish:
//!
//! * selection fragments concatenate their matching rids;
//! * per-morsel group tables merge through [`AggState::merge`], and the
//!   per-morsel CSR lineage fragments merge by offset-shifting
//!   ([`CsrRidIndex::merge_remapped`] — a memcpy-with-rebase, since CSR is
//!   two flat buffers); the finer group tables behind data-skipping
//!   partitions and the push-down cube are group tables too, and merge
//!   through the same code;
//! * join probe outputs concatenate in morsel order, which *is* the
//!   sequential probe order.
//!
//! Because the merge order is the morsel order (not the thread completion
//! order), every driver is deterministic: output rows, group order, rid
//! order within lineage entries, and float aggregate results are identical
//! across runs and degrees of parallelism. Only `dop <= 1` (fewer than two
//! workers with morsels to claim) delegates to the single-ingest entry
//! points, so degree-of-parallelism 1 is bit-for-bit the sequential engine;
//! every option a core understands, it understands per morsel.
//!
//! [`CsrRidIndex::merge_remapped`]: smoke_lineage::CsrRidIndex::merge_remapped
//! [`AggState::merge`]: crate::agg::AggState::merge

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use smoke_storage::{morsels, Morsel, Relation, Rid, DEFAULT_MORSEL_ROWS};

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::key::KeyExtractor;
use crate::ops::groupby::{group_by, GroupByCore, GroupByOptions, GroupByResult};
use crate::ops::join::{
    finish_from_runs, hash_join, with_join_key, JoinBuild, JoinKey, JoinOptions, JoinProbe,
    JoinResult, JoinRuns,
};
use crate::ops::select::{select, SelectCore, SelectOptions};
use crate::ops::OpOutput;

/// Degree-of-parallelism and morsel-size configuration for the parallel
/// drivers.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    dop: usize,
    morsel_rows: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions::auto()
    }
}

impl ParallelOptions {
    /// A fixed degree of parallelism (clamped to at least 1).
    pub fn new(dop: usize) -> Self {
        ParallelOptions {
            dop: dop.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        ParallelOptions::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Overrides the morsel size (rounded up to the 64-row mask alignment).
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = smoke_storage::align_morsel_rows(rows);
        self
    }

    /// The configured degree of parallelism.
    pub fn dop(&self) -> usize {
        self.dop
    }

    /// The configured morsel size in rows.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Number of workers actually spawned for `n_morsels` work units: never
    /// more threads than morsels, never fewer than one.
    pub fn workers(&self, n_morsels: usize) -> usize {
        self.dop.min(n_morsels).max(1)
    }
}

/// Runs `f` over every morsel and returns the per-morsel results *in morsel
/// order*, regardless of which worker processed which morsel. Workers claim
/// morsels dynamically through a shared atomic cursor (morsel-driven
/// scheduling); each returns its `(morsel index, result)` pairs through its
/// join handle, so no worker ever writes shared state.
fn run_morsels<T, F>(ms: &[Morsel], workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Morsel) -> T + Sync,
{
    if workers <= 1 || ms.len() <= 1 {
        return ms.iter().map(|&m| f(m)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(ms.len(), || None);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= ms.len() {
                            break;
                        }
                        done.push((i, f(ms[i])));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("morsel worker panicked") {
                slots[i] = Some(t);
            }
        }
    });
    slots
        .into_iter()
        .map(|t| t.expect("every morsel is processed exactly once"))
        .collect()
}

/// Parallel `SELECT * FROM input WHERE predicate`.
///
/// Each worker ingests its morsels into a private `SelectCore` fragment
/// (kernel bitmap, then one fused pass emitting global rids); the merge
/// absorbs the fragments in morsel order, which reproduces the sequential
/// scan's ascending rid order exactly — the concatenation *is* the backward
/// index (reuse principle P4), and the forward array is filled in the same
/// walk. Delegates to [`select`] when fewer than two workers would run.
pub fn par_select(
    input: &Relation,
    predicate: &Expr,
    opts: &SelectOptions,
    par: &ParallelOptions,
) -> Result<OpOutput> {
    let ms = morsels(input.len(), par.morsel_rows);
    let workers = par.workers(ms.len());
    if workers <= 1 {
        return select(input, predicate, opts);
    }

    let start = Instant::now();
    let parts = run_morsels(&ms, workers, |m| {
        let mut part = SelectCore::fragment(predicate, opts);
        part.ingest(input, m.start..m.end, 0).map(|()| part)
    });
    let mut core = SelectCore::new(predicate, opts, input.len());
    for part in parts {
        core.absorb(part?);
    }
    core.finish(input, start)
}

/// Parallel `SELECT keys, aggs FROM input GROUP BY keys`.
///
/// Phase 1 (parallel): each worker runs an independent `GroupByCore`
/// fragment per morsel — its own γht over the typed key fast paths, partial
/// [`AggState`]s, the selection push-down applied as a per-morsel mask, a
/// morsel-local backward CSR, and the finer fragments behind data-skipping
/// partitions and the push-down cube. Phase 2 (sequential, morsel order):
/// `GroupByCore::merge` folds the fragments into one core, whose ordinary
/// finish emits the output. Scanning fragments in morsel order makes the
/// global group order the global first-occurrence order — identical to the
/// sequential operator no matter how threads were scheduled — and keeps each
/// group's rids ascending.
///
/// Delegates to [`group_by`] when fewer than two workers would run. The
/// parallel path always builds its backward index in CSR form (the Defer
/// representation, sized from exact counts, so cardinality hints have
/// nothing left to pre-allocate); lookups are equal to Inject's either way.
///
/// [`AggState`]: crate::agg::AggState
pub fn par_group_by(
    input: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
    par: &ParallelOptions,
) -> Result<GroupByResult> {
    let ms = morsels(input.len(), par.morsel_rows);
    let workers = par.workers(ms.len());
    if workers <= 1 {
        return group_by(input, keys, aggs, opts);
    }

    let start = Instant::now();
    let parts = run_morsels(&ms, workers, |m| {
        GroupByCore::fragment(keys, aggs, opts, input, m)
    });
    let parts = parts.into_iter().collect::<Result<Vec<_>>>()?;
    let mut core = GroupByCore::new(keys, aggs, opts, input.len());
    core.merge(parts);
    core.finish(input, start)
}

/// Parallel `left ⋈ right ON left_keys = right_keys` (hash equi-join).
///
/// The build phase stays sequential (the `JoinBuild` table on the left
/// relation is shared read-only by every worker); the probe phase runs
/// morsel-parallel over the right relation, each worker running a
/// capture-free `JoinProbe` that emits its own `(left rid, right rid)`
/// output run — no output counter is shared. Concatenating the runs in
/// morsel order reproduces the sequential probe's output order exactly, so
/// `finish_from_runs` takes backward lineage to be the concatenation
/// itself and rebuilds forward lineage from it in CSR form with exact counts
/// — which is the Defer representation, so every capture mode runs parallel.
///
/// Delegates to [`hash_join`] when fewer than two workers would run
/// (cardinality hints size Inject's per-key arrays; the exact-count CSR here
/// never needs them).
pub fn par_hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
    par: &ParallelOptions,
) -> Result<JoinResult> {
    fn run<'a, K: JoinKey<'a> + Sync>(
        left: &'a Relation,
        right: &'a Relation,
        (left_keys, right_keys): (&[String], &[String]),
        opts: &JoinOptions,
        (ms, workers): (&[Morsel], usize),
    ) -> Result<JoinResult> {
        let start = Instant::now();
        let mut build = JoinBuild::<K>::new(left.len());
        build.ingest(left, left_keys, 0..left.len(), |i| i as Rid)?;

        let runs_only = JoinOptions::baseline();
        let parts = run_morsels(ms, workers, |m| {
            let mut probe = JoinProbe::new(&runs_only, &build, m.len());
            probe.ingest(&build, right, right_keys, m.start..m.end, |i| i as Rid)?;
            Ok(probe.into_runs())
        });
        let parts = parts.into_iter().collect::<Result<Vec<_>>>()?;
        let (lefts, rights): (Vec<_>, Vec<_>) = parts.into_iter().unzip();
        let runs = JoinRuns {
            out_left: lefts.concat(),
            out_right: rights.concat(),
            pk_fk: build.pk_fk,
            grace_partitions: 1,
        };
        finish_from_runs(opts, left, right, runs, true, start)
    }

    let ms = morsels(right.len(), par.morsel_rows);
    let workers = par.workers(ms.len());
    if workers <= 1 {
        return hash_join(left, right, left_keys, right_keys, opts);
    }
    let left_extract = KeyExtractor::new(left, left_keys)?;
    let right_extract = KeyExtractor::new(right, right_keys)?;
    with_join_key!(
        [i64, &str, (i64, i64)],
        &left_extract,
        &right_extract,
        run(left, right, (left_keys, right_keys), opts, (&ms, workers))
    )
}
