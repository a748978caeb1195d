//! Group-by aggregation with lineage capture (paper §3.2.3).
//!
//! The operator is decomposed into `γht` (build the hash table mapping
//! group-by values to intermediate aggregation state) and `γagg` (scan the
//! hash table, finalize aggregates, emit output records), mirroring query
//! compilers. Lineage is a backward rid index (output group → input rids) and
//! a forward rid array (input rid → output group).
//!
//! * **Inject** augments each group's intermediate state with an `i_rids` rid
//!   array during the build phase; `γagg` then moves those arrays into the
//!   backward index (data-structure *reuse*, principle P4).
//! * **Defer** stores only an output id per group during execution and builds
//!   the indexes in a separate pass that re-probes the (pinned) hash table;
//!   because group cardinalities are known by then, the indexes are allocated
//!   exactly and never resized. The re-probe matches the table's key mode
//!   once per ingest and runs one tight loop per mode; a key the first pass
//!   never saw (an input that changed between the passes) is a typed
//!   [`EngineError`], not a panic.
//! * Cardinality hints (`Smoke-I+TC`) pre-allocate `i_rids` and eliminate the
//!   resize costs that otherwise dominate capture overhead.
//!
//! γht and the aggregate fold run one batch of rows at a time, in three
//! passes, each dispatched once per batch and then a tight typed loop: the
//! rows' gids (one loop per key mode; a new key becomes a group in order of
//! first appearance), the aggregates (one loop per aggregate over its typed
//! per-group state column, chosen by the function and the input column's
//! type), and capture (the lineage count, `i_rids`, the forward write, and
//! the hand-off to the finer cores). Each group folds its rows in rid order,
//! so float aggregates are bit-identical to a row-at-a-time fold.
//!
//! The workload-aware options of §4 are applied here because the final
//! aggregation of an SPJA block is where backward lineage for the query
//! output is materialized — and they are this operator again. The selection
//! push-down is a per-ingest mask; data skipping and group-by push-down
//! (§4.2) are a *finer* group-by keyed by `(coarse gid, partition
//! attributes)` riding the coarse one: the coarse loop hands each row's gid
//! over, so the finer γ probes only the attribute columns. At finish its
//! groups are listed, by typed attribute values, under the coarse groups
//! owning their key prefixes; its sealed rid CSR and its states are moved
//! under that directory whole (rids → partitions, states → cube cells). A
//! lineage-consuming query (§2.1, [`crate::query`]) is the operator too,
//! uninstrumented, ingesting the traced rids instead of a range: one γht
//! and one aggregate fold in all.
//!
//! Every hashed table here — the hashed key modes of γht, the finer cores'
//! cell tables, and the gid maps of the morsel merge and the artifacts — is
//! keyed by base-data values and hashes with the crate's fixed
//! folded-multiply hasher (`hash.rs`); a dense integer domain hashes
//! nothing. [`true_cardinalities`] builds the public
//! [`CardinalityHints::per_key`] map and keeps std's seeded hasher.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use smoke_lineage::{
    CaptureStats, CellDirectory, CsrBuilder, CsrRidIndex, InputLineage, LineageIndex,
    OperatorLineage, PartitionedRidIndex, RidArray, RidIndex, NO_RID,
};
use smoke_storage::kernels as sk;
use smoke_storage::{Column, DataType, Field, Morsel, Relation, Rid, Schema, SelectionMask};

use crate::agg::{AggExpr, AggFunc, AggState};
use crate::error::{EngineError, Result};
use crate::expr::Expr;
use crate::hash::FoldMap;
use crate::instrument::{
    AggPushdown, CaptureMode, CardinalityHints, DirectionFilter, WorkloadOptions,
};
use crate::kernels::{predicate_mask_range, KernelPlan};
use crate::key::{HashKey, KeyExtractor, KeyPart};
use crate::ops::RowSource;
use crate::workload::{LineageCube, WorkloadArtifacts};

/// Options controlling group-by instrumentation.
#[derive(Debug, Clone, Default)]
pub struct GroupByOptions {
    /// Instrumentation paradigm.
    pub mode: CaptureMode,
    /// Lineage directions to capture.
    pub directions: DirectionFilter,
    /// Optional cardinality statistics (`Smoke-I+TC`).
    pub hints: Option<CardinalityHints>,
    /// Workload-aware push-down options.
    pub workload: WorkloadOptions,
}

impl GroupByOptions {
    /// Baseline: no capture.
    pub fn baseline() -> Self {
        GroupByOptions {
            mode: CaptureMode::Baseline,
            ..Default::default()
        }
    }

    /// `Smoke-I`.
    pub fn inject() -> Self {
        GroupByOptions {
            mode: CaptureMode::Inject,
            ..Default::default()
        }
    }

    /// `Smoke-D`.
    pub fn defer() -> Self {
        GroupByOptions {
            mode: CaptureMode::Defer,
            ..Default::default()
        }
    }

    /// `Smoke-I+TC`: Inject with true per-group cardinalities.
    pub fn inject_with_hints(hints: CardinalityHints) -> Self {
        GroupByOptions {
            mode: CaptureMode::Inject,
            hints: Some(hints),
            ..Default::default()
        }
    }
}

/// The result of an instrumented group-by aggregation.
#[derive(Debug, Clone)]
pub struct GroupByResult {
    /// Aggregated output relation (one row per group).
    pub output: Relation,
    /// Lineage w.r.t. the single input relation.
    pub lineage: OperatorLineage,
    /// Workload-aware artifacts (partitioned index / cube), if requested.
    pub artifacts: WorkloadArtifacts,
    /// Capture statistics.
    pub stats: CaptureStats,
}

/// The rows one [`GroupByCore::ingest`] covers, in the order it visits them:
/// a contiguous range (a whole relation, a morsel, a page run) or an explicit
/// rid list (a traced subset; the rows of a chunk that passed the selection
/// push-down). A range overrides the defaults with its contiguous forms.
pub(crate) trait RowSet: Clone {
    fn rows(&self) -> impl Iterator<Item = usize>;

    /// The contiguous rows, of a relation of `len` rows, that a per-ingest
    /// selection mask is evaluated over: bit `i - span.start` is row `i`.
    fn span(&self, len: usize) -> Range<usize> {
        0..len
    }

    /// Smallest and largest of `keys` over these rows.
    fn int_min_max(&self, keys: &[i64]) -> Option<(i64, i64)> {
        let mut keys = self.rows().map(|i| keys[i]);
        let first = keys.next()?;
        Some(keys.fold((first, first), |(lo, hi), k| (lo.min(k), hi.max(k))))
    }
}

impl RowSet for &[Rid] {
    fn rows(&self) -> impl Iterator<Item = usize> {
        self.iter().map(|&rid| rid as usize)
    }
}

impl RowSet for Range<usize> {
    fn rows(&self) -> impl Iterator<Item = usize> {
        self.clone()
    }

    fn span(&self, _len: usize) -> Range<usize> {
        self.clone()
    }

    fn int_min_max(&self, keys: &[i64]) -> Option<(i64, i64)> {
        sk::int_min_max(&keys[self.clone()])
    }
}

struct GroupEntry {
    key: HashKey,
    i_rids: RidArray,
    /// Rows that passed the selection push-down (every row without one);
    /// the exact backward cardinality the Defer pass and the morsel
    /// fragments allocate with.
    lineage_count: u32,
}

/// Sentinel in the dense group-id table for "no group assigned yet".
const NO_GROUP: u32 = u32::MAX;

/// Most slots a dense table of a core that sees `rows` rows may hold: it
/// pays 4 bytes per slot, so a sparse domain hashes instead.
fn dense_cap(rows: usize) -> usize {
    4 * rows.max(256)
}

/// Rows per batch of the γ fold ([`GroupByCore::fold`],
/// [`CellSink::fold`]): each of a batch's passes is dispatched once, on the
/// key mode or on an aggregate's function and column type, and then runs a
/// typed loop over the batch.
const BATCH: usize = 1024;

/// The γht table (group key → group id), owned by the core across ingests
/// and specialised by the typed shape of the key columns (paper §3.2.3's
/// `γht`, hardware-conscious edition).
///
/// Single integer keys with a bounded domain use a dense gid table (one
/// array index per row instead of a hash); wide integer domains and integer
/// pairs hash the primitive key directly (no per-row [`HashKey`]
/// construction, no allocation for composite keys); everything else falls
/// back to the generic [`HashKey`] path.
enum GroupTable {
    DenseInt { min: i64, slots: Vec<u32> },
    HashInt(FoldMap<i64, u32>),
    HashPair(FoldMap<(i64, i64), u32>),
    Generic(FoldMap<HashKey, u32>),
}

impl GroupTable {
    fn for_columns(columns: &[&Column]) -> GroupTable {
        match columns {
            [Column::Int(_)] => GroupTable::DenseInt {
                min: 0,
                slots: Vec::new(),
            },
            [Column::Int(_), Column::Int(_)] => GroupTable::HashPair(FoldMap::default()),
            _ => GroupTable::Generic(FoldMap::default()),
        }
    }

    /// Makes room for the integer `keys` of the rows about to be `ingested`
    /// by a core that will see `rows` rows in all: the dense table is
    /// widened to cover them (a single ingest sizes it exactly once), or
    /// demoted to hashing once the domain outgrows [`dense_cap`].
    fn admit(&mut self, keys: &[i64], ingested: &impl RowSet, rows: usize) {
        let GroupTable::DenseInt { min, slots } = self else {
            return;
        };
        let Some((mut lo, mut hi)) = ingested.int_min_max(keys) else {
            return;
        };
        if !slots.is_empty() {
            lo = lo.min(*min);
            hi = hi.max(*min + (slots.len() as i64 - 1));
        }
        let width = hi as i128 - lo as i128 + 1;
        if width > dense_cap(rows) as i128 {
            let ht = slots.iter().enumerate().filter(|(_, &gid)| gid != NO_GROUP);
            *self = GroupTable::HashInt(ht.map(|(i, &gid)| (*min + i as i64, gid)).collect());
        } else if width as usize != slots.len() {
            let mut wider = vec![NO_GROUP; width as usize];
            if !slots.is_empty() {
                let at = (*min - lo) as usize;
                wider[at..at + slots.len()].copy_from_slice(slots);
            }
            (*min, *slots) = (lo, wider);
        }
    }

    /// Rebinds the table to the key columns of the relation being ingested.
    fn bind<'a>(&'a mut self, extractor: &KeyExtractor<'a>) -> KeyMode<'a> {
        match (self, extractor.columns()) {
            (GroupTable::DenseInt { min, slots }, [Column::Int(keys)]) => KeyMode::DenseInt {
                keys,
                min: *min,
                slots,
            },
            (GroupTable::HashInt(ht), [Column::Int(keys)]) => KeyMode::HashInt { keys, ht },
            (GroupTable::HashPair(ht), [Column::Int(a), Column::Int(b)]) => {
                KeyMode::HashPair { a, b, ht }
            }
            (GroupTable::Generic(ht), _) => KeyMode::Generic { ht },
            _ => unreachable!("a core's key columns keep their types across ingests"),
        }
    }
}

/// A [`GroupTable`] bound to the typed key vectors of one ingest: the
/// vectorized group-key lookup.
enum KeyMode<'a> {
    DenseInt {
        keys: &'a [i64],
        min: i64,
        slots: &'a mut [u32],
    },
    HashInt {
        keys: &'a [i64],
        ht: &'a mut FoldMap<i64, u32>,
    },
    HashPair {
        a: &'a [i64],
        b: &'a [i64],
        ht: &'a mut FoldMap<(i64, i64), u32>,
    },
    Generic {
        ht: &'a mut FoldMap<HashKey, u32>,
    },
}

impl KeyMode<'_> {
    /// The first pass of a batch: the gid of each row of `rows`, into
    /// `gids`, in one loop per key mode. A key seen for the first time gets
    /// the gid `new` returns for it, so groups are created in order of first
    /// appearance.
    #[inline]
    fn gids(
        &mut self,
        rows: &[usize],
        extractor: &KeyExtractor,
        gids: &mut Vec<u32>,
        mut new: impl FnMut(HashKey) -> u32,
    ) {
        gids.clear();
        match self {
            KeyMode::DenseInt { keys, min, slots } => gids.extend(rows.iter().map(|&i| {
                let slot = &mut slots[(keys[i] - *min) as usize];
                if *slot == NO_GROUP {
                    *slot = new(HashKey::Int(keys[i]));
                }
                *slot
            })),
            KeyMode::HashInt { keys, ht } => gids.extend(
                rows.iter()
                    .map(|&i| *(ht.entry(keys[i])).or_insert_with(|| new(HashKey::Int(keys[i])))),
            ),
            KeyMode::HashPair { a, b, ht } => gids.extend(rows.iter().map(|&i| {
                *(ht.entry((a[i], b[i]))).or_insert_with(|| {
                    new(HashKey::Composite(vec![
                        KeyPart::Int(a[i]),
                        KeyPart::Int(b[i]),
                    ]))
                })
            })),
            KeyMode::Generic { ht } => {
                gids.extend(rows.iter().map(|&i| match ht.entry(extractor.key(i)) {
                    Entry::Occupied(slot) => *slot.get(),
                    Entry::Vacant(slot) => {
                        let gid = new(slot.key().clone());
                        *slot.insert(gid)
                    }
                }))
            }
        }
    }
}

/// Where the Defer re-probe writes: the exactly-sized backward CSR and the
/// forward array, either of which may be pruned.
struct DeferSink<'a> {
    backward: Option<&'a mut CsrBuilder>,
    forward: Option<&'a mut RidArray>,
    /// Global rid of `forward[0]`.
    base: usize,
    rid_offset: usize,
}

impl DeferSink<'_> {
    /// Appends every row of `range` that passes the push-down `mask` (over
    /// the range, from its first row) to the group `gid_of` finds for it.
    #[inline]
    fn run(
        &mut self,
        range: Range<usize>,
        mask: Option<(&SelectionMask, usize)>,
        gid_of: impl Fn(usize) -> Option<u32>,
    ) -> Result<()> {
        for i in range {
            if mask.is_some_and(|(m, first)| !m.get(i - first)) {
                continue;
            }
            let Some(gid) = gid_of(i) else {
                return Err(EngineError::InvalidPlan(format!(
                    "the Defer re-probe met a key at row {i} that the first pass never saw"
                )));
            };
            let rid = self.rid_offset + i;
            if let Some(b) = self.backward.as_deref_mut() {
                if !b.try_append(gid as usize, rid as Rid) {
                    return Err(EngineError::InvalidPlan(format!(
                        "the Defer re-probe met group {gid} at row {i} more often than the first pass counted"
                    )));
                }
            }
            if let Some(f) = self.forward.as_deref_mut() {
                f.set(rid - self.base, gid);
            }
        }
        Ok(())
    }
}

/// The γht of a finer core (§4.2): `(coarse gid, partition attributes)` →
/// cell. The coarse loop already knows each row's gid, so only the
/// attribute columns are read; a cell's full [`HashKey`] is built once, on
/// the miss that creates it.
enum CellTable {
    /// A single `Int` attribute over a bounded domain: the cell of coarse
    /// group `gid` and attribute `a` sits in slot `gid * width + (a - min)`.
    /// A new coarse group appends `width` slots; a wider domain re-lays
    /// them out. Holds at most [`dense_cap`] slots.
    Dense {
        min: i64,
        width: usize,
        slots: Vec<u32>,
    },
    /// A single `Int` attribute past the dense cap.
    HashInt(FoldMap<(u32, i64), u32>),
    /// Any other attribute shape (`Float`, `Str`, several attributes).
    Generic(FoldMap<(u32, HashKey), u32>),
}

/// A finer core's attribute columns, bound to one ingest.
enum CellCols<'a> {
    Int(&'a [i64]),
    Generic(KeyExtractor<'a>),
}

impl CellTable {
    fn for_columns(columns: &[&Column]) -> CellTable {
        match columns {
            [Column::Int(_)] => CellTable::Dense {
                min: 0,
                width: 0,
                slots: Vec::new(),
            },
            _ => CellTable::Generic(FoldMap::default()),
        }
    }

    /// Widens the dense domain to cover the attribute `keys` of the rows
    /// about to be `ingested`, or demotes the table to hashing once the
    /// slots it would hold outgrow `cap`.
    fn admit(&mut self, keys: &[i64], ingested: &impl RowSet, cap: usize) {
        let CellTable::Dense { min, width, slots } = self else {
            return;
        };
        let Some((mut lo, mut hi)) = ingested.int_min_max(keys) else {
            return;
        };
        let groups = match *width {
            0 => 0,
            w => {
                lo = lo.min(*min);
                hi = hi.max(*min + (w as i64 - 1));
                slots.len() / w
            }
        };
        let wider = hi as i128 - lo as i128 + 1;
        if wider * groups.max(1) as i128 > cap as i128 {
            self.demote();
        } else if wider as usize != *width {
            let wider = wider as usize;
            let mut laid = vec![NO_GROUP; groups * wider];
            if groups > 0 {
                let shift = (*min - lo) as usize;
                for (to, from) in laid.chunks_exact_mut(wider).zip(slots.chunks_exact(*width)) {
                    to[shift..shift + from.len()].copy_from_slice(from);
                }
            }
            (*min, *width, *slots) = (lo, wider, laid);
        }
    }

    /// Moves a dense table's cells into a hash table.
    fn demote(&mut self) {
        let CellTable::Dense { min, width, slots } = self else {
            return;
        };
        let cells = slots
            .iter()
            .enumerate()
            .filter(|(_, &cell)| cell != NO_GROUP);
        let keyed = cells.map(|(at, &cell)| {
            let (gid, offset) = (at / *width, at % *width);
            ((gid as u32, *min + offset as i64), cell)
        });
        *self = CellTable::HashInt(keyed.collect());
    }

    /// Makes room in a dense table for the cells of coarse group `gid`, or
    /// demotes it to hashing once they would outgrow `cap`.
    #[cold]
    fn grow(&mut self, gid: u32, cap: usize) {
        let CellTable::Dense { width, slots, .. } = self else {
            return;
        };
        let len = (gid as usize + 1) * *width;
        if len > cap {
            self.demote();
        } else {
            slots.resize(len, NO_GROUP);
        }
    }

    /// The cell of row `i`, whose coarse group is `gid`; on a miss, `new`
    /// creates it from the row's attribute key parts.
    #[inline]
    fn cell(
        &mut self,
        i: usize,
        gid: u32,
        cols: &CellCols,
        cap: usize,
        new: impl FnOnce(Vec<KeyPart>) -> u32,
    ) -> u32 {
        loop {
            return match (&mut *self, cols) {
                (CellTable::Dense { min, width, slots }, CellCols::Int(keys)) => {
                    let at = gid as usize * *width + (keys[i] - *min) as usize;
                    match slots.get(at) {
                        None => {
                            self.grow(gid, cap);
                            continue;
                        }
                        Some(&NO_GROUP) => {
                            let cell = new(vec![KeyPart::Int(keys[i])]);
                            slots[at] = cell;
                            cell
                        }
                        Some(&cell) => cell,
                    }
                }
                (CellTable::HashInt(ht), CellCols::Int(keys)) => {
                    *(ht.entry((gid, keys[i]))).or_insert_with(|| new(vec![KeyPart::Int(keys[i])]))
                }
                (CellTable::Generic(ht), CellCols::Generic(attrs)) => {
                    match ht.entry((gid, attrs.key(i))) {
                        Entry::Occupied(slot) => *slot.get(),
                        Entry::Vacant(slot) => {
                            let cell = new(slot.key().1.clone().into_parts());
                            *slot.insert(cell)
                        }
                    }
                }
                _ => {
                    unreachable!("a finer core's attribute columns keep their types across ingests")
                }
            };
        }
    }
}

/// A finer γ riding a coarse one (§4.2). Its groups are the cells of one
/// data-skipping partitioning and/or push-down cube; `core` holds their
/// states, and `core.keys` names the partition attributes. Each cell's
/// [`HashKey`] is the coarse key's parts followed by the attribute parts,
/// which [`GroupByCore::merge`] and the artifacts key on. A capturing
/// finer core records each row's cell in `core.forward`, as a morsel
/// fragment does, and is sealed into a backward CSR, exactly sized from
/// the cells' counts: the partitioned index's rids.
struct FinerCore<'o> {
    core: GroupByCore<'o>,
    /// Chosen from the attribute column types at the first ingest.
    table: Option<CellTable>,
}

/// A finer core bound to one ingest: it is pushed, in order, every row that
/// passed the selection push-down, with the gid the coarse loop gave it.
struct CellSink<'a, 'o> {
    core: &'a mut GroupByCore<'o>,
    table: &'a mut CellTable,
    cols: CellCols<'a>,
    agg_inputs: AggInputs<'a>,
    cap: usize,
    /// The cell of each row of the batch being folded.
    cells: Vec<u32>,
}

impl<'o> FinerCore<'o> {
    fn bind<'a>(&'a mut self, rel: &'a Relation, rows: &impl RowSet) -> Result<CellSink<'a, 'o>> {
        let attrs = KeyExtractor::new(rel, self.core.keys)?;
        let agg_inputs = AggInputs::resolve(rel, self.core.aggs)?;
        let cap = dense_cap(self.core.rows);
        if self.core.capture && self.core.forward.is_empty() {
            self.core.forward = RidArray::filled(self.core.rows);
        }
        let table = (self.table).get_or_insert_with(|| CellTable::for_columns(attrs.columns()));
        let cols = match sk::int_keys(attrs.columns()) {
            Some(keys) => {
                table.admit(keys, rows, cap);
                CellCols::Int(keys)
            }
            None => CellCols::Generic(attrs),
        };
        Ok(CellSink {
            core: &mut self.core,
            table,
            cols,
            agg_inputs,
            cap,
            cells: Vec::with_capacity(BATCH),
        })
    }
}

impl CellSink<'_, '_> {
    /// Folds a batch of rows into their cells, in the three passes of
    /// [`GroupByCore::fold`]: row `rows[k]` (global rid `rid_offset +
    /// rows[k]`) belongs to coarse group `gids[k]` among the `coarse` groups.
    fn fold(&mut self, rows: &[usize], gids: &[u32], rid_offset: usize, coarse: &[GroupEntry]) {
        let core = &mut *self.core;
        let (groups, states, aggs) = (&mut core.groups, &mut core.states, core.aggs);
        self.cells.clear();
        for (&i, &gid) in rows.iter().zip(gids) {
            let cell = self.table.cell(i, gid, &self.cols, self.cap, |attrs| {
                let mut parts = coarse[gid as usize].key.clone().into_parts();
                parts.extend(attrs);
                groups.push(GroupEntry {
                    key: HashKey::Composite(parts),
                    i_rids: RidArray::new(),
                    lineage_count: 0,
                });
                push_states(states, aggs);
                groups.len() as u32 - 1
            });
            self.cells.push(cell);
        }
        self.agg_inputs.fold(states, aggs, rows, &self.cells);
        if core.capture {
            for (&i, &cell) in rows.iter().zip(&self.cells) {
                groups[cell as usize].lineage_count += 1;
                core.forward.set(rid_offset + i - core.base, cell);
            }
        }
    }
}

pub(crate) struct AggInputs<'a> {
    columns: Vec<Option<&'a Column>>,
}

impl<'a> AggInputs<'a> {
    pub(crate) fn resolve(input: &'a Relation, aggs: &[AggExpr]) -> Result<Self> {
        let mut columns = Vec::with_capacity(aggs.len());
        for agg in aggs {
            match &agg.column {
                Some(name) => {
                    let idx = input
                        .column_index(name)
                        .map_err(|_| EngineError::UnknownColumn(name.clone()))?;
                    columns.push(Some(input.column(idx)));
                }
                None => columns.push(None),
            }
        }
        Ok(AggInputs { columns })
    }

    /// The one aggregate fold: folds row `rows[k]` of the input into the
    /// states of group `gids[k]`, for every row of a batch, aggregate `j`
    /// into `states[j]`. Each aggregate is one loop over the batch, chosen
    /// once per batch by its function and its column's type;
    /// `COUNT(DISTINCT)`, a `Str` input and a missing column fold row by row
    /// through [`AggState`]'s own update. A group sees its rows in batch
    /// order, so every float state is bit-identical to folding the rows one
    /// at a time.
    pub(crate) fn fold(
        &self,
        states: &mut [StateColumn],
        aggs: &[AggExpr],
        rows: &[usize],
        gids: &[u32],
    ) {
        for ((agg, column), state) in aggs.iter().zip(&self.columns).zip(states) {
            match (agg.func, column) {
                (AggFunc::Count, _) => {
                    for &gid in gids {
                        state.n[gid as usize] += 1;
                    }
                }
                (AggFunc::CountDistinct, Some(col)) => {
                    for (&gid, &i) in gids.iter().zip(rows) {
                        let mut one = state.take(gid as usize);
                        one.update_key(&col.value(i).group_key());
                        state.put(gid as usize, one);
                    }
                }
                (func, Some(Column::Int(v))) => {
                    fold_values(state, func, gids, rows.iter().map(|&i| v[i] as f64));
                }
                (func, Some(Column::Float(v))) => {
                    fold_values(state, func, gids, rows.iter().map(|&i| v[i]));
                }
                (_, Some(Column::Str(_)) | None) => {
                    for &gid in gids {
                        let mut one = state.take(gid as usize);
                        one.update(0.0);
                        state.put(gid as usize, one);
                    }
                }
            }
        }
    }
}

/// One numeric aggregate's loop over a batch: folds `values[k]` into the
/// state of group `gids[k]`, with the function fixed for the whole loop.
#[inline(always)]
fn fold_values(
    state: &mut StateColumn,
    func: AggFunc,
    gids: &[u32],
    values: impl Iterator<Item = f64>,
) {
    let (x, n) = (&mut state.x, &mut state.n);
    let pairs = gids.iter().map(|&gid| gid as usize).zip(values);
    match func {
        AggFunc::Sum => pairs.for_each(|(g, v)| x[g] += v),
        AggFunc::SumSq => pairs.for_each(|(g, v)| x[g] += v * v),
        AggFunc::SumSqrt => pairs.for_each(|(g, v)| x[g] += v.abs().sqrt()),
        AggFunc::Min => pairs.for_each(|(g, v)| {
            if v < x[g] {
                x[g] = v;
            }
        }),
        AggFunc::Max => pairs.for_each(|(g, v)| {
            if v > x[g] {
                x[g] = v;
            }
        }),
        AggFunc::Avg => pairs.for_each(|(g, v)| {
            x[g] += v;
            n[g] += 1;
        }),
        AggFunc::Count | AggFunc::CountDistinct => {
            for (g, v) in pairs {
                let mut one = state.take(g);
                one.update(v);
                state.put(g, one);
            }
        }
    }
}

/// Every group's state of one aggregate, as typed columns indexed by gid:
/// what the batch fold ([`AggInputs::fold`]) writes. `COUNT` keeps `n`;
/// `SUM`, `SUM(x*x)`, `SUM(sqrt x)`, `MIN` and `MAX` keep `x`; `AVG` keeps
/// its sum in `x` and its count in `n`; `COUNT(DISTINCT)` keeps `sets`. A
/// group's state moves out as an [`AggState`] ([`StateColumn::take`]) for
/// merging, finalizing and the cube, so those stay [`AggState`]'s.
pub(crate) struct StateColumn {
    func: AggFunc,
    x: Vec<f64>,
    n: Vec<u64>,
    sets: Vec<BTreeSet<String>>,
}

impl StateColumn {
    fn new(func: AggFunc) -> Self {
        StateColumn {
            func,
            x: Vec::new(),
            n: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// Appends a group whose state is `state`.
    fn push(&mut self, state: AggState) {
        match state {
            AggState::Count(c) => self.n.push(c),
            AggState::Sum(v)
            | AggState::SumSq(v)
            | AggState::SumSqrt(v)
            | AggState::Min(v)
            | AggState::Max(v) => self.x.push(v),
            AggState::Avg { sum, count } => {
                self.x.push(sum);
                self.n.push(count);
            }
            AggState::CountDistinct(set) => self.sets.push(set),
        }
    }

    /// Moves group `gid`'s state out (a distinct set is taken, not cloned);
    /// [`StateColumn::put`] moves it back.
    fn take(&mut self, gid: usize) -> AggState {
        let x = self.x.get(gid).copied().unwrap_or_default();
        let n = self.n.get(gid).copied().unwrap_or_default();
        match self.func {
            AggFunc::Count => AggState::Count(n),
            AggFunc::Sum => AggState::Sum(x),
            AggFunc::SumSq => AggState::SumSq(x),
            AggFunc::SumSqrt => AggState::SumSqrt(x),
            AggFunc::Min => AggState::Min(x),
            AggFunc::Max => AggState::Max(x),
            AggFunc::Avg => AggState::Avg { sum: x, count: n },
            AggFunc::CountDistinct => AggState::CountDistinct(
                self.sets
                    .get_mut(gid)
                    .map(std::mem::take)
                    .unwrap_or_default(),
            ),
        }
    }

    /// Sets group `gid`'s state.
    fn put(&mut self, gid: usize, state: AggState) {
        fn set<T>(column: &mut [T], gid: usize, value: T) {
            if let Some(slot) = column.get_mut(gid) {
                *slot = value;
            }
        }
        match state {
            AggState::Count(c) => set(&mut self.n, gid, c),
            AggState::Sum(v)
            | AggState::SumSq(v)
            | AggState::SumSqrt(v)
            | AggState::Min(v)
            | AggState::Max(v) => set(&mut self.x, gid, v),
            AggState::Avg { sum, count } => {
                set(&mut self.x, gid, sum);
                set(&mut self.n, gid, count);
            }
            AggState::CountDistinct(distinct) => set(&mut self.sets, gid, distinct),
        }
    }
}

/// One column of states per aggregate of `aggs`, with no groups yet.
fn state_columns(aggs: &[AggExpr]) -> Vec<StateColumn> {
    aggs.iter().map(|agg| StateColumn::new(agg.func)).collect()
}

/// Appends a new group's fresh states to `states`.
fn push_states(states: &mut [StateColumn], aggs: &[AggExpr]) {
    for (column, agg) in states.iter_mut().zip(aggs) {
        column.push(agg.new_state());
    }
}

/// Executes `SELECT keys, aggs FROM input GROUP BY keys` with the configured
/// instrumentation: one ingest of the whole resident relation (and one
/// re-probe of it under Defer).
pub fn group_by(
    input: &Relation,
    keys: &[String],
    aggs: &[AggExpr],
    opts: &GroupByOptions,
) -> Result<GroupByResult> {
    let start = Instant::now();
    let n = input.len();
    let mut core = GroupByCore::new(keys, aggs, opts, n);
    core.ingest(input, 0..n, 0)?;
    if core.defer {
        core.ingest_defer(input, 0..n, 0)?;
    }
    core.finish(input, start)
}

/// The group-by operator, written once. [`group_by`], the morsel driver in
/// [`crate::parallel`] and the page-run driver in [`crate::paged`] differ
/// only in which rows they hand to [`GroupByCore::ingest`] (γht with Inject
/// capture fused in) and [`GroupByCore::ingest_defer`] (the Defer re-probe)
/// before [`GroupByCore::finish`] (γagg, lineage assembly, stats); a
/// lineage-consuming query ([`crate::query`]) is the same core, uninstrumented,
/// over the traced rids.
pub(crate) struct GroupByCore<'o> {
    keys: &'o [String],
    aggs: &'o [AggExpr],
    hints: Option<&'o CardinalityHints>,
    /// Selection push-down: only rows satisfying it enter the lineage
    /// indexes and the finer cores.
    pushdown: Option<&'o Expr>,
    capture: bool,
    capture_b: bool,
    capture_f: bool,
    /// Whether ingest pushes `i_rids` / sets `forward` (Inject). A morsel
    /// fragment fuses only the forward write: its gids are morsel-local.
    fuse_b: bool,
    fuse_f: bool,
    /// Whether the driver owes the core a second scan, through
    /// [`GroupByCore::ingest_defer`], after the last [`GroupByCore::ingest`].
    pub(crate) defer: bool,
    /// Global rid of `forward[0]`, and how many rows the core covers.
    base: usize,
    rows: usize,
    /// Chosen from the key column types at the first ingest.
    table: Option<GroupTable>,
    groups: Vec<GroupEntry>,
    /// Every group's aggregate states: one typed column per aggregate,
    /// indexed by gid.
    states: Vec<StateColumn>,
    forward: RidArray,
    /// The workload-aware artifacts of §4.2, as finer γs riding this one:
    /// group-bys keyed by `(gid, partition attributes)`, fed every row of an
    /// ingest that passed the selection push-down, with the gid this core's
    /// loop gave it. Their groups are the cells: each group's rids are one
    /// data-skipping partition of the coarse group owning its key prefix,
    /// and its aggregate states are that group's push-down cube cell.
    finer: Vec<FinerCore<'o>>,
    /// On a finer core whose groups become cube cells: the push-down whose
    /// aggregates it folds.
    cube: Option<&'o AggPushdown>,
    /// Exact-count backward index under construction by the Defer re-probe.
    deferred_backward: Option<CsrBuilder>,
    defer_start: Option<Instant>,
    /// A backward index already in CSR form: a sealed fragment's, or the
    /// merge of all fragments'.
    backward_csr: Option<CsrRidIndex>,
}

impl<'o> GroupByCore<'o> {
    /// A core that will see all `rows` input rows, in rid order.
    pub(crate) fn new(
        keys: &'o [String],
        aggs: &'o [AggExpr],
        opts: &'o GroupByOptions,
        rows: usize,
    ) -> Self {
        let mut core = Self::bare(keys, aggs, opts.mode, opts.directions, rows);
        let wl = &opts.workload;
        core.hints = opts.hints.as_ref();
        core.pushdown = wl.selection_pushdown.as_ref();
        if !core.capture {
            return core;
        }
        // One finer core when partitions and cube split on the same
        // attributes, one each otherwise.
        let finer = |attrs: &'o [String], mode, cube: Option<&'o AggPushdown>| FinerCore {
            core: GroupByCore {
                cube,
                ..Self::bare(
                    attrs,
                    cube.map_or(&[][..], |pd| &pd.aggs),
                    mode,
                    DirectionFilter::BackwardOnly,
                    rows,
                )
            },
            table: None,
        };
        let skip = &wl.skipping_partition_by;
        let cube = wl.agg_pushdown.as_ref();
        let shared = cube.filter(|pd| !skip.is_empty() && pd.partition_by == *skip);
        if !skip.is_empty() {
            core.finer.push(finer(skip, CaptureMode::Inject, shared));
        }
        if let (Some(pd), None) = (cube, shared) {
            core.finer
                .push(finer(&pd.partition_by, CaptureMode::Baseline, cube));
        }
        core
    }

    /// A core with nothing riding it: no hints, push-down or finer cores.
    fn bare(
        keys: &'o [String],
        aggs: &'o [AggExpr],
        mode: CaptureMode,
        directions: DirectionFilter,
        rows: usize,
    ) -> Self {
        let capture = mode.captures();
        let capture_b = capture && directions.backward();
        let capture_f = capture && directions.forward();
        // For group-by there are only two paradigms; DeferForward degenerates
        // to Inject (it is join-specific).
        let inject = matches!(mode, CaptureMode::Inject | CaptureMode::DeferForward);
        let fuse_f = capture_f && inject;
        GroupByCore {
            keys,
            aggs,
            hints: None,
            pushdown: None,
            capture,
            capture_b,
            capture_f,
            fuse_b: capture_b && inject,
            fuse_f,
            defer: capture && !inject,
            base: 0,
            rows,
            table: None,
            groups: Vec::new(),
            states: state_columns(aggs),
            forward: RidArray::filled(if fuse_f { rows } else { 0 }),
            finer: Vec::new(),
            cube: None,
            deferred_backward: None,
            defer_start: None,
            backward_csr: None,
        }
    }

    /// The input columns this core reads, by name: its keys, its
    /// aggregates' inputs, the selection push-down's columns and those of
    /// every finer core riding it (their partition attributes and cube
    /// aggregate inputs). A paged driver decodes only these.
    pub(crate) fn columns(&self) -> Vec<&'o str> {
        let mut names: Vec<&'o str> = self.keys.iter().map(String::as_str).collect();
        names.extend(self.aggs.iter().filter_map(|agg| agg.column.as_deref()));
        names.extend(
            self.pushdown
                .map_or_else(Vec::new, Expr::referenced_columns),
        );
        for finer in &self.finer {
            names.extend(finer.core.columns());
        }
        names
    }

    /// A per-morsel core, run to completion on a worker: an independent
    /// group table over rows `m` of `input` whose captured lineage is sealed
    /// as a morsel-local backward CSR plus the local gid of every row. Global
    /// gids are assigned later, by [`GroupByCore::merge`].
    pub(crate) fn fragment(
        keys: &'o [String],
        aggs: &'o [AggExpr],
        opts: &'o GroupByOptions,
        input: &Relation,
        m: Morsel,
    ) -> Result<Self> {
        let mut core = GroupByCore::new(keys, aggs, opts, m.len());
        core.localize(m.start);
        core.ingest(input, m.start..m.end, 0)?;
        core.seal();
        Ok(core)
    }

    /// Turns the core (and the finer cores riding it) into a morsel fragment
    /// whose first row is `base`: only the forward write is fused.
    fn localize(&mut self, base: usize) {
        self.base = base;
        (self.fuse_b, self.fuse_f, self.defer) = (false, self.capture, false);
        if self.capture {
            self.forward = RidArray::filled(self.rows);
        }
        self.finer.iter_mut().for_each(|f| f.core.localize(base));
    }

    /// Seals a fragment's local gids (or a finer core's cells) as its
    /// backward CSR, sized exactly.
    fn seal(&mut self) {
        if self.capture_b {
            let counts = self.groups.iter().map(|g| g.lineage_count as usize);
            let mut csr = CsrBuilder::with_counts(counts);
            for (i, gid) in self.forward.iter().enumerate() {
                if gid != NO_RID {
                    csr.append(gid as usize, (self.base + i) as Rid);
                }
            }
            self.backward_csr = Some(csr.finish());
        }
        self.finer.iter_mut().for_each(|f| f.core.seal());
    }

    /// γht over `rows` of `rel`, whose global rid is `rid_offset + i`, with
    /// Inject capture fused in; each row that passes the selection push-down
    /// is handed on, with its gid, to the finer cores. The group-id lookup
    /// runs over typed key vectors rebound per ingest (dense table /
    /// primitive-key hash for integer keys), falling back to per-row
    /// `HashKey` construction for other shapes.
    pub(crate) fn ingest(
        &mut self,
        rel: &Relation,
        rows: impl RowSet,
        rid_offset: usize,
    ) -> Result<()> {
        if self.finer.is_empty() {
            return self.fold(rel, rows, rid_offset, |_| {}).map(drop);
        }
        let mut finer = std::mem::take(&mut self.finer);
        let folded = self.ingest_finer(&mut finer, rel, rows, rid_offset);
        self.finer = finer;
        folded
    }

    /// [`GroupByCore::ingest`] with finer cores riding: the coarse loop
    /// records the gid of every row that enters the lineage indexes, and
    /// each finer core then folds those rows, in order and a batch at a
    /// time, probing only its attribute columns under the recorded gids.
    fn ingest_finer(
        &mut self,
        finer: &mut [FinerCore<'o>],
        rel: &Relation,
        rows: impl RowSet,
        rid_offset: usize,
    ) -> Result<()> {
        let sinks = finer.iter_mut().map(|f| f.bind(rel, &rows));
        let mut sinks = sinks.collect::<Result<Vec<_>>>()?;
        let span = rows.span(rel.len());
        let mut gids = Vec::with_capacity(span.len());
        let mask = self.fold(rel, rows.clone(), rid_offset, |gid| gids.push(gid))?;
        let mask = mask.as_ref();
        let mut passed = (rows.rows()).filter(|i| mask.is_none_or(|m| m.get(i - span.start)));
        let mut batch = Vec::with_capacity(BATCH.min(gids.len()));
        for gids in gids.chunks(BATCH) {
            batch.clear();
            batch.extend(passed.by_ref().take(gids.len()));
            for sink in &mut sinks {
                sink.fold(&batch, gids, rid_offset, &self.groups);
            }
        }
        Ok(())
    }

    /// The coarse loop of [`GroupByCore::ingest`], one batch of [`BATCH`]
    /// rows at a time, in three passes: the rows' gids (one typed loop per
    /// key mode, creating groups in order of first appearance), the
    /// aggregates ([`AggInputs::fold`], one typed loop per aggregate), and
    /// capture, where `finer(gid)` sees the gid of every row that enters
    /// the lineage indexes, in order. A core with no finer cores passes a
    /// no-op, which compiles away. Returns the selection push-down's mask
    /// over the ingest's span.
    fn fold(
        &mut self,
        rel: &Relation,
        rows: impl RowSet,
        rid_offset: usize,
        mut finer: impl FnMut(u32),
    ) -> Result<Option<SelectionMask>> {
        let extractor = KeyExtractor::new(rel, self.keys)?;
        let agg_inputs = AggInputs::resolve(rel, self.aggs)?;

        // The push-down predicate is evaluated once per ingest through the
        // kernel layer; the capture pass then tests a bit per row.
        // Uninstrumented runs never read the mask, so they only compile
        // (validating the expression) without paying for the scan.
        let span = rows.span(rel.len());
        let first = span.start;
        let pushdown_mask = self.pushdown_mask(rel, span)?;

        let table = self
            .table
            .get_or_insert_with(|| GroupTable::for_columns(extractor.columns()));
        if let Some(keys) = sk::int_keys(extractor.columns()) {
            table.admit(keys, &rows, self.rows);
        }
        let mut key_mode = table.bind(&extractor);
        let (aggs, hints) = (self.aggs, self.hints);
        let (capture, fuse_b, fuse_f) = (self.capture, self.fuse_b, self.fuse_f);
        let (groups, states) = (&mut self.groups, &mut self.states);
        let (forward, base) = (&mut self.forward, self.base);

        let mut rows = rows.rows();
        let cap = BATCH.min(rows.size_hint().0);
        let (mut batch, mut gids) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
        loop {
            batch.clear();
            batch.extend(rows.by_ref().take(BATCH));
            if batch.is_empty() {
                return Ok(pushdown_mask);
            }
            key_mode.gids(&batch, &extractor, &mut gids, |key| {
                let i_rids = match hints.and_then(|h| h.cardinality(&key)) {
                    Some(cap) if fuse_b => RidArray::with_capacity(cap),
                    _ => RidArray::new(),
                };
                groups.push(GroupEntry {
                    key,
                    i_rids,
                    lineage_count: 0,
                });
                push_states(states, aggs);
                groups.len() as u32 - 1
            });
            agg_inputs.fold(states, aggs, &batch, &gids);
            if !capture {
                continue;
            }
            // Selection push-down: only rows satisfying the future consuming
            // query's predicate enter the lineage indexes.
            for (&i, &gid) in batch.iter().zip(&gids) {
                if pushdown_mask.as_ref().is_none_or(|m| m.get(i - first)) {
                    let rid = rid_offset + i;
                    let entry = &mut groups[gid as usize];
                    entry.lineage_count += 1;
                    if fuse_b {
                        entry.i_rids.push(rid as Rid);
                    }
                    if fuse_f {
                        forward.set(rid - base, gid);
                    }
                    finer(gid);
                }
            }
        }
    }

    fn pushdown_mask(&self, rel: &Relation, span: Range<usize>) -> Result<Option<SelectionMask>> {
        Ok(match self.pushdown {
            Some(expr) if self.capture => Some(predicate_mask_range(rel, expr, span)?),
            Some(expr) => {
                KernelPlan::compile(expr, rel)?;
                None
            }
            None => None,
        })
    }

    /// Per-group cardinalities are exact once γht is done, so the Defer pass
    /// builds the backward index directly in CSR form — two flat buffers
    /// allocated once, zero resizes, no per-group arrays.
    fn begin_defer(&mut self) {
        if self.defer_start.is_some() {
            return;
        }
        self.defer_start = Some(Instant::now());
        if self.capture_b {
            let counts = self.groups.iter().map(|g| g.lineage_count as usize);
            self.deferred_backward = Some(CsrBuilder::with_counts(counts));
        }
        if self.capture_f {
            self.forward = RidArray::filled(self.rows);
        }
    }

    /// The Defer pass over rows `range` of `rel`: re-probes the pinned hash
    /// table and appends each row to its group's exactly-sized entry. The
    /// key mode is matched once, and each mode runs its own loop: a dense
    /// slot read, a primitive-key probe or a generic-key probe. A row whose
    /// key the first pass never saw (its input changed between the passes)
    /// is a typed error.
    pub(crate) fn ingest_defer(
        &mut self,
        rel: &Relation,
        range: Range<usize>,
        rid_offset: usize,
    ) -> Result<()> {
        self.begin_defer();
        let extractor = KeyExtractor::new(rel, self.keys)?;
        let mask = self.pushdown_mask(rel, range.clone())?;
        let Some(table) = self.table.as_mut() else {
            return Ok(());
        };
        let mut sink = DeferSink {
            backward: self.deferred_backward.as_mut(),
            forward: self.capture_f.then_some(&mut self.forward),
            base: self.base,
            rid_offset,
        };
        let mask = (mask.as_ref()).map(|m| (m, range.start));
        match table.bind(&extractor) {
            KeyMode::DenseInt { keys, min, slots } => sink.run(range, mask, |i| {
                // Out of the slot range wraps past `slots.len()`: the slots
                // span at most `dense_cap` keys inside `i64`.
                let slot = slots.get(keys[i].wrapping_sub(min) as u64 as usize);
                slot.copied().filter(|&gid| gid != NO_GROUP)
            }),
            KeyMode::HashInt { keys, ht } => sink.run(range, mask, |i| ht.get(&keys[i]).copied()),
            KeyMode::HashPair { a, b, ht } => {
                sink.run(range, mask, |i| ht.get(&(a[i], b[i])).copied())
            }
            KeyMode::Generic { ht } => {
                sink.run(range, mask, |i| ht.get(&extractor.key(i)).copied())
            }
        }
    }

    /// Deterministic merge of per-morsel fragments, in morsel order, into
    /// this (fresh) core, leaving it ready for [`GroupByCore::finish`].
    /// Global group ids are assigned by first occurrence across the ordered
    /// fragments, matching the sequential scan's group order exactly;
    /// partial states fold through [`AggState::merge`]; the lineage
    /// fragments combine by memcpy-with-rebase
    /// ([`CsrRidIndex::merge_remapped`]) and the forward array is filled in
    /// the same walk. The finer cores riding the fragments merge the same
    /// way, one level down.
    pub(crate) fn merge(&mut self, mut parts: Vec<GroupByCore<'_>>) {
        let mut finer_parts: Vec<_> = (parts.iter_mut())
            .map(|p| std::mem::take(&mut p.finer).into_iter())
            .collect();
        for finer in &mut self.finer {
            let cores = finer_parts.iter_mut().filter_map(Iterator::next);
            finer.core.merge(cores.map(|f| f.core).collect());
        }
        // The merged core ingests nothing: there are no `i_rids` to reuse
        // and no re-probe to wait for, only a forward array to fill.
        (self.fuse_b, self.defer) = (false, false);
        if self.capture_f && !self.fuse_f {
            self.forward = RidArray::filled(self.rows);
        }
        let mut gid_of: FoldMap<HashKey, u32> = FoldMap::default();
        let mut maps: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        let mut csrs: Vec<CsrRidIndex> = Vec::with_capacity(parts.len());
        for mut part in parts {
            let mut local_states = std::mem::take(&mut part.states);
            let map: Vec<u32> = (part.groups.into_iter().enumerate())
                .map(|(lid, local)| {
                    let columns = self.states.iter_mut().zip(&mut local_states);
                    match gid_of.get(&local.key) {
                        Some(&gid) => {
                            for (global, partial) in columns {
                                let mut state = global.take(gid as usize);
                                state.merge(&partial.take(lid));
                                global.put(gid as usize, state);
                            }
                            self.groups[gid as usize].lineage_count += local.lineage_count;
                            gid
                        }
                        None => {
                            for (global, partial) in columns {
                                global.push(partial.take(lid));
                            }
                            let gid = self.groups.len() as u32;
                            gid_of.insert(local.key.clone(), gid);
                            self.groups.push(local);
                            gid
                        }
                    }
                })
                .collect();
            if self.capture_f {
                for (i, local) in part.forward.iter().enumerate() {
                    if local != NO_RID {
                        self.forward.set(part.base + i, map[local as usize]);
                    }
                }
            }
            csrs.extend(part.backward_csr);
            maps.push(map);
        }
        if self.capture_b {
            let merged = CsrRidIndex::merge_remapped(&csrs, &maps, self.groups.len());
            self.backward_csr = Some(merged);
        }
    }

    /// γagg: scans the group table, finalizes aggregates, emits one output
    /// record per group, and assembles the lineage indexes, the workload
    /// artifacts and stats.
    pub(crate) fn finish(
        mut self,
        input: &impl RowSource,
        start: Instant,
    ) -> Result<GroupByResult> {
        if self.defer {
            self.begin_defer();
        }
        if let Some(b) = self.deferred_backward.take() {
            if !b.is_full() {
                return Err(EngineError::InvalidPlan(
                    "the Defer re-probe met a group less often than the first pass counted"
                        .to_string(),
                ));
            }
            self.backward_csr = Some(b.finish());
        }
        let deferred = self.defer_start.map_or(Duration::ZERO, |t| t.elapsed());
        let artifacts = self.artifacts(input.schema())?;

        let n_groups = self.groups.len();
        let mut fields = Vec::with_capacity(self.keys.len() + self.aggs.len());
        let mut columns = Vec::with_capacity(fields.capacity());
        for name in self.keys.iter() {
            let data_type = key_type(input.schema(), name)?;
            fields.push(Field::new(name.clone(), data_type));
            columns.push(Column::with_capacity(data_type, n_groups));
        }
        for agg in self.aggs {
            fields.push(Field::new(agg.alias.clone(), agg.output_type()));
            columns.push(Column::with_capacity(agg.output_type(), n_groups));
        }
        let (key_cols, agg_cols) = columns.split_at_mut(self.keys.len());
        let mut backward = RidIndex::with_len(0);
        for (gid, entry) in self.groups.iter_mut().enumerate() {
            for (col, value) in key_cols.iter_mut().zip(entry.key.to_values()) {
                col.push(value)?;
            }
            for (col, states) in agg_cols.iter_mut().zip(&mut self.states) {
                col.push(states.take(gid).finalize())?;
            }
            // Inject: the per-group arrays *are* the backward index
            // (data-structure reuse, principle P4).
            if self.fuse_b {
                backward.push_entry(std::mem::take(&mut entry.i_rids));
            }
        }
        let name = format!("groupby({})", input.name());
        let output = Relation::from_columns(name, Schema::new(fields)?, columns)?;
        let mut stats = CaptureStats {
            base_query: start.elapsed().saturating_sub(deferred),
            deferred,
            ..Default::default()
        };

        // Without capture every index and artifact is `None`.
        let backward_index = self.capture_b.then(|| match self.backward_csr.take() {
            Some(csr) => LineageIndex::Csr(csr),
            None => LineageIndex::Index(backward),
        });
        let forward_index = self.capture_f.then_some(LineageIndex::Array(self.forward));
        if let Some(b) = &backward_index {
            stats.edges += b.edge_count() as u64;
            stats.rid_resizes += b.resizes();
            stats.lineage_bytes += b.heap_bytes() as u64;
        }
        if let Some(f) = &forward_index {
            stats.rid_resizes += f.resizes();
            stats.lineage_bytes += f.heap_bytes() as u64;
        }

        Ok(GroupByResult {
            output,
            lineage: match self.capture {
                true => OperatorLineage::unary(InputLineage {
                    backward: backward_index,
                    forward: forward_index,
                }),
                false => OperatorLineage::none(),
            },
            artifacts,
            stats,
        })
    }

    /// Lists every finer group — a cell — under the coarse group owning its
    /// key prefix, in one typed [`CellDirectory`] keyed by the cell's
    /// attribute values. The finer core's sealed backward CSR, moved in
    /// whole, becomes the partitioned index over it, and the cells' states,
    /// moved into one flat buffer, the cube.
    fn artifacts(&mut self, schema: &Schema) -> Result<WorkloadArtifacts> {
        let mut out = WorkloadArtifacts::default();
        if self.finer.is_empty() {
            return Ok(out);
        }
        let coarse_keys = self.keys.len();
        let gid_of: FoldMap<Vec<KeyPart>, u32> = (self.groups.iter().enumerate())
            .map(|(gid, g)| (g.key.clone().into_parts(), gid as u32))
            .collect();
        for FinerCore {
            core: mut finer, ..
        } in std::mem::take(&mut self.finer)
        {
            let attrs = finer.keys;
            if finer.backward_csr.is_none() {
                finer.seal();
            }
            let (mut gids, mut keys) = (Vec::new(), Vec::new());
            let cells = finer.groups.len();
            for group in finer.groups {
                let parts = group.key.into_parts();
                let (prefix, attr_parts) = parts.split_at(coarse_keys);
                gids.push(gid_of[prefix]);
                keys.extend(attr_parts.iter().map(KeyPart::to_value));
            }
            // The cube's flat buffer: each cell's states, cell after cell.
            let mut states = Vec::with_capacity(cells * finer.states.len());
            for cell in 0..cells {
                states.extend(finer.states.iter_mut().map(|c| c.take(cell)));
            }
            let directory = Arc::new(CellDirectory::new(attrs.len(), &gids, keys));
            if let Some(csr) = finer.backward_csr.take() {
                let index = PartitionedRidIndex::new(attrs.join(","), directory.clone(), csr);
                out.partitioned = Some(index);
            }
            if let Some(pd) = finer.cube {
                let fields = (attrs.iter()).map(|a| Ok(Field::new(a, key_type(schema, a)?)));
                let fields = fields.collect::<Result<_>>()?;
                out.cube = Some(LineageCube::new(fields, pd.aggs.clone(), directory, states));
            }
        }
        Ok(out)
    }
}

/// The type of key column `name` in the operator's input.
fn key_type(schema: &Schema, name: &str) -> Result<DataType> {
    let idx =
        (schema.index_of(name)).ok_or_else(|| EngineError::UnknownColumn(name.to_string()))?;
    Ok(schema.field(idx).data_type)
}

/// Computes exact per-group cardinalities for `keys` over `input`, used to
/// drive the `Smoke-I+TC` experiments (the paper assumes such statistics can
/// be collected during prior query processing).
pub fn true_cardinalities(input: &Relation, keys: &[String]) -> Result<CardinalityHints> {
    let extractor = KeyExtractor::new(input, keys)?;
    let mut per_key: HashMap<HashKey, usize> = HashMap::new();
    for rid in 0..input.len() {
        *per_key.entry(extractor.key(rid)).or_insert(0) += 1;
    }
    Ok(CardinalityHints::with_per_key(per_key))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::microbenchmark_aggs;
    use smoke_storage::Value;

    fn rel() -> Relation {
        // z values: 1,2,1,3,2,1 ; v values: 10,20,30,40,50,60
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .column("tag", DataType::Str);
        let zs = [1, 2, 1, 3, 2, 1];
        for (i, z) in zs.iter().enumerate() {
            let tag = if i % 2 == 0 { "even" } else { "odd" };
            b = b.row(vec![
                Value::Int(*z),
                Value::Float((i as f64 + 1.0) * 10.0),
                Value::Str(tag.into()),
            ]);
        }
        b.build().unwrap()
    }

    fn check_correctness(result: &GroupByResult) {
        // Groups appear in first-occurrence order: z=1, z=2, z=3.
        assert_eq!(result.output.len(), 3);
        assert_eq!(result.output.column(0).as_int(), &[1, 2, 3]);
        // COUNT per group.
        assert_eq!(
            result.output.column_by_name("cnt").unwrap().as_int(),
            &[3, 2, 1]
        );
        // SUM(v) per group: z=1 -> 10+30+60, z=2 -> 20+50, z=3 -> 40.
        assert_eq!(
            result.output.column_by_name("sum_v").unwrap().as_float(),
            &[100.0, 70.0, 40.0]
        );
    }

    #[test]
    fn baseline_matches_expected_output() {
        let r = rel();
        let result = group_by(
            &r,
            &["z".to_string()],
            &microbenchmark_aggs("v"),
            &GroupByOptions::baseline(),
        )
        .unwrap();
        check_correctness(&result);
        assert!(result.lineage.is_none());
    }

    #[test]
    fn inject_captures_backward_and_forward() {
        let r = rel();
        let result = group_by(
            &r,
            &["z".to_string()],
            &microbenchmark_aggs("v"),
            &GroupByOptions::inject(),
        )
        .unwrap();
        check_correctness(&result);
        let lin = result.lineage.input(0);
        assert_eq!(lin.backward().lookup(0), vec![0, 2, 5]);
        assert_eq!(lin.backward().lookup(1), vec![1, 4]);
        assert_eq!(lin.backward().lookup(2), vec![3]);
        assert_eq!(lin.forward().lookup(4), vec![1]);
        assert_eq!(lin.forward().lookup(3), vec![2]);
        assert!(result.stats.edges >= 6);
    }

    #[test]
    fn defer_matches_inject() {
        let r = rel();
        let aggs = microbenchmark_aggs("v");
        let keys = ["z".to_string()];
        let inject = group_by(&r, &keys, &aggs, &GroupByOptions::inject()).unwrap();
        let defer = group_by(&r, &keys, &aggs, &GroupByOptions::defer()).unwrap();
        assert_eq!(inject.output, defer.output);
        for g in 0..3u32 {
            assert_eq!(
                inject.lineage.input(0).backward().lookup(g),
                defer.lineage.input(0).backward().lookup(g)
            );
        }
        for rid in 0..r.len() as Rid {
            assert_eq!(
                inject.lineage.input(0).forward().lookup(rid),
                defer.lineage.input(0).forward().lookup(rid)
            );
        }
        // Defer incurs zero resizes thanks to exact pre-allocation, and
        // builds its backward index directly in CSR form.
        assert_eq!(defer.lineage.input(0).resizes(), 0);
        assert!(matches!(
            defer.lineage.input(0).backward,
            Some(LineageIndex::Csr(_))
        ));
        // The flat CSR layout is strictly more compact than Inject's
        // Vec-of-RidArrays.
        assert!(
            defer.lineage.input(0).backward().heap_bytes()
                < inject.lineage.input(0).backward().heap_bytes()
        );
    }

    #[test]
    fn cardinality_hints_eliminate_resizes_for_backward_index() {
        let r = rel();
        let keys = ["z".to_string()];
        let hints = true_cardinalities(&r, &keys).unwrap();
        let tc = group_by(
            &r,
            &keys,
            &microbenchmark_aggs("v"),
            &GroupByOptions::inject_with_hints(hints),
        )
        .unwrap();
        check_correctness(&tc);
        if let Some(LineageIndex::Index(idx)) = &tc.lineage.input(0).backward {
            assert_eq!(idx.resizes(), 0);
        } else {
            panic!("expected a backward rid index");
        }
    }

    #[test]
    fn direction_pruning_skips_indexes() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.directions = DirectionFilter::BackwardOnly;
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        assert!(result.lineage.input(0).forward.is_none());
        assert!(result.lineage.input(0).backward.is_some());

        opts.directions = DirectionFilter::ForwardOnly;
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        assert!(result.lineage.input(0).backward.is_none());
        assert_eq!(result.lineage.input(0).forward().lookup(5), vec![0]);
    }

    #[test]
    fn selection_pushdown_prunes_index_entries() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.selection_pushdown =
            Some(crate::expr::Expr::col("tag").eq(crate::expr::Expr::lit("even")));
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        // The query result is unchanged...
        assert_eq!(
            result.output.column_by_name("cnt").unwrap().as_int(),
            &[3, 2, 1]
        );
        // ...but the backward index only holds rows with tag = "even" (rids 0,2,4).
        assert_eq!(result.lineage.input(0).backward().lookup(0), vec![0, 2]);
        assert_eq!(result.lineage.input(0).backward().lookup(1), vec![4]);
        assert_eq!(
            result.lineage.input(0).backward().lookup(2),
            Vec::<Rid>::new()
        );
    }

    #[test]
    fn data_skipping_partitions_rid_arrays() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.skipping_partition_by = vec!["tag".to_string()];
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        let part = result.artifacts.partitioned.as_ref().unwrap();
        let tag = |t: &str| [Value::Str(t.into())];
        assert_eq!(part.partition(0, &tag("even")), &[0, 2]);
        assert_eq!(part.partition(0, &tag("odd")), &[5]);
        assert_eq!(part.partition(1, &tag("odd")), &[1]);
        // Union of partitions equals the plain backward entry.
        let mut all: Vec<Rid> = part.partitions(0).flat_map(|(_, r)| r.to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 2, 5]);
    }

    #[test]
    fn agg_pushdown_materializes_cube() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.agg_pushdown = Some(crate::instrument::AggPushdown {
            partition_by: vec!["tag".to_string()],
            aggs: vec![
                AggExpr::count("cnt"),
                AggExpr::sum("v", "sum_v"),
                AggExpr::count_distinct("v", "distinct_v"),
            ],
        });
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        let cube = result.artifacts.cube.as_ref().unwrap();
        let drill = cube.query(0).unwrap(); // group z=1: rids 0 (even,10), 2 (even,30), 5 (odd,60)
        assert_eq!(drill.len(), 2);
        assert_eq!(drill.value(0, 0), Value::Str("even".into()));
        assert_eq!(drill.value(0, 2), Value::Float(40.0));
        assert_eq!(drill.value(0, 3), Value::Int(2));
        assert_eq!(drill.value(1, 0), Value::Str("odd".into()));
        assert_eq!(drill.value(1, 2), Value::Float(60.0));
        assert_eq!(drill.value(1, 3), Value::Int(1));
    }

    #[test]
    fn multi_attribute_keys_are_typed_values() {
        // One coarse group, two cells whose `|`-joins would both read
        // `a|b|c`: they are two partitions and two cube rows, keyed by their
        // values, in typed order.
        let r = Relation::builder("t")
            .column("z", DataType::Int)
            .column("s", DataType::Str)
            .column("t", DataType::Str)
            .row(vec![
                Value::Int(1),
                Value::Str("a|b".into()),
                Value::Str("c".into()),
            ])
            .row(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Str("b|c".into()),
            ])
            .build()
            .unwrap();
        let attrs = vec!["s".to_string(), "t".to_string()];
        let mut opts = GroupByOptions::inject();
        opts.workload.skipping_partition_by = attrs.clone();
        opts.workload.agg_pushdown = Some(crate::instrument::AggPushdown {
            partition_by: attrs,
            aggs: vec![AggExpr::count("cnt")],
        });
        let result = group_by(&r, &["z".to_string()], &[], &opts).unwrap();
        let part = result.artifacts.partitioned.as_ref().unwrap();
        let key = |s: &str, t: &str| vec![Value::Str(s.into()), Value::Str(t.into())];
        let keys: Vec<Vec<Value>> = part.partitions(0).map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys, vec![key("a", "b|c"), key("a|b", "c")]);
        assert_eq!(part.partition(0, &key("a|b", "c")), &[0]);
        assert_eq!(part.partition(0, &key("a", "b|c")), &[1]);
        assert_eq!(part.partition(0, &key("a|b|c", "")), &[] as &[Rid]);
        let drill = result.artifacts.cube.as_ref().unwrap().query(0).unwrap();
        assert_eq!(drill.len(), 2);
        assert_eq!(drill.row_values(0)[..2], key("a", "b|c"));
        assert_eq!(drill.row_values(1)[..2], key("a|b", "c"));
    }

    #[test]
    fn grouping_by_string_and_multiple_keys() {
        let r = rel();
        let result = group_by(
            &r,
            &["tag".to_string(), "z".to_string()],
            &[AggExpr::count("cnt")],
            &GroupByOptions::inject(),
        )
        .unwrap();
        // (even,1), (odd,2), (even,1)=dup, (odd,3), (even,2), (odd,1)
        assert_eq!(result.output.len(), 5);
        assert_eq!(result.output.schema().names(), vec!["tag", "z", "cnt"]);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let r = Relation::builder("e")
            .column("z", DataType::Int)
            .column("v", DataType::Float)
            .build()
            .unwrap();
        let result = group_by(
            &r,
            &["z".to_string()],
            &[AggExpr::sum("v", "s")],
            &GroupByOptions::inject(),
        )
        .unwrap();
        assert_eq!(result.output.len(), 0);
        assert_eq!(result.lineage.input(0).backward().len(), 0);
    }

    #[test]
    fn unknown_key_or_agg_column_errors() {
        let r = rel();
        assert!(group_by(&r, &["nope".to_string()], &[], &GroupByOptions::inject()).is_err());
        assert!(group_by(
            &r,
            &["z".to_string()],
            &[AggExpr::sum("nope", "s")],
            &GroupByOptions::inject()
        )
        .is_err());
    }

    /// A relation with an `Int` column `k<c>` per slice of `ints` and a `Str`
    /// column `s` of `strs`.
    fn keyed(ints: &[&[i64]], strs: &[&str]) -> Relation {
        let mut b = Relation::builder("keyed");
        for c in 0..ints.len() {
            b = b.column(format!("k{c}"), DataType::Int);
        }
        b = b.column("s", DataType::Str);
        for (row, s) in strs.iter().enumerate() {
            let mut values: Vec<Value> = ints.iter().map(|col| Value::Int(col[row])).collect();
            values.push(Value::Str(s.to_string()));
            b = b.row(values);
        }
        b.build().unwrap()
    }

    #[test]
    fn defer_reprobe_of_an_unseen_key_is_a_typed_error() {
        let opts = GroupByOptions::defer();
        let strs = ["a", "b", "a"];
        let cases: Vec<(&str, Vec<String>, Relation, Relation)> = vec![
            (
                "dense, unseen key inside the slot range",
                vec!["k0".into()],
                keyed(&[&[1, 2, 4]], &strs),
                keyed(&[&[1, 3, 4]], &strs),
            ),
            (
                "dense, key past the slot range",
                vec!["k0".into()],
                keyed(&[&[1, 2, 4]], &strs),
                keyed(&[&[1, 2, i64::MAX]], &strs),
            ),
            (
                "dense, key below the slot range",
                vec!["k0".into()],
                keyed(&[&[1, 2, 4]], &strs),
                keyed(&[&[i64::MIN, 2, 4]], &strs),
            ),
            (
                "hashed integer",
                vec!["k0".into()],
                keyed(&[&[0, 1 << 40, 0]], &strs),
                keyed(&[&[0, 1 << 40, 7]], &strs),
            ),
            (
                "integer pair",
                vec!["k0".into(), "k1".into()],
                keyed(&[&[1, 2, 1], &[5, 6, 5]], &strs),
                keyed(&[&[1, 2, 1], &[5, 6, 6]], &strs),
            ),
            (
                "generic",
                vec!["s".into()],
                keyed(&[], &strs),
                keyed(&[], &["a", "b", "c"]),
            ),
        ];
        for (case, keys, first, second) in &cases {
            let aggs = [AggExpr::count("n")];
            let mut core = GroupByCore::new(keys, &aggs, &opts, first.len());
            core.ingest(first, 0..first.len(), 0).unwrap();
            let replay = core.ingest_defer(second, 0..second.len(), 0);
            assert!(
                matches!(replay, Err(EngineError::InvalidPlan(_))),
                "{case}: {replay:?}"
            );
            // The same core re-probes its own input cleanly.
            let mut core = GroupByCore::new(keys, &aggs, &opts, first.len());
            core.ingest(first, 0..first.len(), 0).unwrap();
            core.ingest_defer(first, 0..first.len(), 0).unwrap();
            let out = core.finish(first, Instant::now()).unwrap();
            assert_eq!(out.stats.edges, first.len() as u64, "{case}");
        }
    }

    #[test]
    fn defer_reprobe_that_miscounts_a_known_key_is_a_typed_error() {
        // The first pass counts key 1 once and key 2 twice. A replay that
        // meets key 1 twice overfills its entry; one that meets key 2 once
        // leaves its entry short. Both are errors in release builds too,
        // not another group's rids or a panic in the builder.
        let opts = GroupByOptions::defer();
        let keys = ["k0".to_string()];
        let aggs = [AggExpr::count("n")];
        let first = keyed(&[&[1, 2, 2]], &["a", "b", "c"]);
        let overfill = keyed(&[&[1, 1, 2]], &["a", "b", "c"]);
        let underfill = keyed(&[&[1, 2]], &["a", "b"]);
        let mut core = GroupByCore::new(&keys, &aggs, &opts, first.len());
        core.ingest(&first, 0..first.len(), 0).unwrap();
        let replay = core.ingest_defer(&overfill, 0..overfill.len(), 0);
        assert!(
            matches!(replay, Err(EngineError::InvalidPlan(_))),
            "overfill: {replay:?}"
        );
        let mut core = GroupByCore::new(&keys, &aggs, &opts, first.len());
        core.ingest(&first, 0..first.len(), 0).unwrap();
        core.ingest_defer(&underfill, 0..underfill.len(), 0)
            .unwrap();
        let out = core.finish(&first, Instant::now());
        assert!(
            matches!(out, Err(EngineError::InvalidPlan(_))),
            "underfill: {:?}",
            out.map(|r| r.output)
        );
    }
}
