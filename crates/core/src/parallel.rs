//! Morsel-driven parallel group-by with per-thread lineage capture.
//!
//! Each operator in [`crate::ops`] is one fused-capture core; this module is
//! the driver that feeds the group-by core morsels instead of the whole
//! relation, following Leis et al.'s morsel-driven design adapted to Smoke's
//! fused capture (paper §3.2): the input relation is split into fixed-size
//! [`Morsel`]s, a scoped pool of worker threads claims morsels dynamically
//! through an atomic cursor, and *each worker runs a private core per
//! morsel* — no locks, no sharing, no atomics on the per-row hot path. A
//! deterministic merge in morsel order then folds the per-morsel cores into
//! one, which goes through the operator's ordinary finish: per-morsel group
//! tables merge through [`AggState::merge`], and the per-morsel CSR lineage
//! fragments merge by offset-shifting ([`CsrRidIndex::merge_remapped`] — a
//! memcpy-with-rebase, since CSR is two flat buffers); the finer group
//! tables behind data-skipping partitions and the push-down cube are group
//! tables too, and merge through the same code.
//!
//! Because the merge order is the morsel order (not the thread completion
//! order), the driver is deterministic: output rows, group order, rid order
//! within lineage entries, and float aggregate results are identical across
//! runs and degrees of parallelism. Only `dop <= 1` (fewer than two workers
//! with morsels to claim) delegates to [`group_by`], so degree-of-parallelism
//! 1 is bit-for-bit the sequential engine; every option the core
//! understands, it understands per morsel.
//!
//! Selection and join have no morsel driver: a morsel σ read slower than
//! the sequential one, and no benchmark row measured a morsel ⋈.
//! [`par_select`] is the sequential [`select`], kept because the frozen
//! benchmark names it (ROADMAP 11(h)).
//!
//! [`CsrRidIndex::merge_remapped`]: smoke_lineage::CsrRidIndex::merge_remapped
//! [`AggState::merge`]: crate::agg::AggState::merge

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use smoke_storage::{morsels, Morsel, Relation, DEFAULT_MORSEL_ROWS};

use crate::agg::AggExpr;
use crate::error::Result;
use crate::expr::Expr;
use crate::ops::groupby::{group_by, GroupByCore, GroupByOptions, GroupByResult};
use crate::ops::select::{select, SelectOptions};
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

/// `SELECT * FROM input WHERE predicate`: the sequential [`select`], at any
/// degree of parallelism. A morsel σ read slower than [`select`] on the
/// benchmark's own row, so it is gone; this name stays because the frozen
/// benchmark calls it (ROADMAP 11(h)).
pub fn par_select(
    input: &Relation,
    predicate: &Expr,
    opts: &SelectOptions,
    _par: &ParallelOptions,
) -> Result<OpOutput> {
    select(input, predicate, opts)
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
