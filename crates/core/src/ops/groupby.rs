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
//!   exactly and never resized.
//! * Cardinality hints (`Smoke-I+TC`) pre-allocate `i_rids` and eliminate the
//!   resize costs that otherwise dominate capture overhead.
//!
//! The workload-aware options of §4 (selection push-down, data skipping,
//! group-by push-down) are applied here because the final aggregation of an
//! SPJA block is where backward lineage for the query output is materialized.

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use smoke_lineage::{
    CaptureStats, CsrBuilder, CsrRidIndex, InputLineage, LineageIndex, OperatorLineage,
    PartitionedRidIndex, RidArray, RidIndex, NO_RID,
};
use smoke_storage::kernels as sk;
use smoke_storage::{Column, DataType, Field, Morsel, Relation, Rid, Schema, SelectionMask};

use crate::agg::{AggExpr, AggFunc, AggState};
use crate::error::{EngineError, Result};
use crate::instrument::{
    AggPushdown, CaptureMode, CardinalityHints, DirectionFilter, WorkloadOptions,
};
use crate::kernels::predicate_mask_range;
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

struct GroupEntry {
    key: HashKey,
    states: Vec<AggState>,
    i_rids: RidArray,
    /// Rows that passed the selection push-down (every row without one);
    /// the exact backward cardinality the Defer pass and the morsel
    /// fragments allocate with.
    lineage_count: u32,
}

/// Sentinel in the dense group-id table for "no group assigned yet".
const NO_GROUP: u32 = u32::MAX;

/// The result of probing a [`KeyMode`] for one row: either the row's group
/// already exists, or a new group must be created for the returned key.
enum Probe {
    Hit(u32),
    Miss(HashKey),
}

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
    HashInt(HashMap<i64, u32>),
    HashPair(HashMap<(i64, i64), u32>),
    Generic(HashMap<HashKey, u32>),
}

impl GroupTable {
    fn for_columns(columns: &[&Column]) -> GroupTable {
        match columns {
            [Column::Int(_)] => GroupTable::DenseInt {
                min: 0,
                slots: Vec::new(),
            },
            [Column::Int(_), Column::Int(_)] => GroupTable::HashPair(HashMap::new()),
            _ => GroupTable::Generic(HashMap::new()),
        }
    }

    /// Makes room for the integer keys of the next ingest: the dense table is
    /// widened to cover them (a single ingest sizes it exactly once), or
    /// demoted to hashing once the domain outgrows its cap. The dense table
    /// pays 4 bytes per domain slot; the cap is a small multiple of the rows
    /// the core will see, so sparse domains hash instead.
    fn admit(&mut self, keys: &[i64], rows: usize) {
        let GroupTable::DenseInt { min, slots } = self else {
            return;
        };
        let Some((mut lo, mut hi)) = sk::int_min_max(keys) else {
            return;
        };
        if !slots.is_empty() {
            lo = lo.min(*min);
            hi = hi.max(*min + (slots.len() as i64 - 1));
        }
        let width = hi as i128 - lo as i128 + 1;
        if width > 4 * rows.max(256) as i128 {
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
        ht: &'a mut HashMap<i64, u32>,
    },
    HashPair {
        a: &'a [i64],
        b: &'a [i64],
        ht: &'a mut HashMap<(i64, i64), u32>,
    },
    Generic {
        ht: &'a mut HashMap<HashKey, u32>,
    },
}

impl KeyMode<'_> {
    /// Looks up the group of row `i`, or reports the key a new group needs.
    #[inline]
    fn probe(&self, i: usize, extractor: &KeyExtractor) -> Probe {
        match self {
            KeyMode::DenseInt { keys, min, slots } => match slots[(keys[i] - min) as usize] {
                NO_GROUP => Probe::Miss(HashKey::Int(keys[i])),
                gid => Probe::Hit(gid),
            },
            KeyMode::HashInt { keys, ht } => match ht.get(&keys[i]) {
                Some(&gid) => Probe::Hit(gid),
                None => Probe::Miss(HashKey::Int(keys[i])),
            },
            KeyMode::HashPair { a, b, ht } => match ht.get(&(a[i], b[i])) {
                Some(&gid) => Probe::Hit(gid),
                None => Probe::Miss(HashKey::Composite(vec![
                    KeyPart::Int(a[i]),
                    KeyPart::Int(b[i]),
                ])),
            },
            KeyMode::Generic { ht } => {
                let key = extractor.key(i);
                match ht.get(&key) {
                    Some(&gid) => Probe::Hit(gid),
                    None => Probe::Miss(key),
                }
            }
        }
    }

    /// Registers a freshly created group for row `i` (the second half of a
    /// [`Probe::Miss`]; only runs once per distinct group).
    fn record(&mut self, i: usize, key: &HashKey, gid: u32) {
        match self {
            KeyMode::DenseInt { keys, min, slots } => slots[(keys[i] - *min) as usize] = gid,
            KeyMode::HashInt { keys, ht } => drop(ht.insert(keys[i], gid)),
            KeyMode::HashPair { a, b, ht } => drop(ht.insert((a[i], b[i]), gid)),
            KeyMode::Generic { ht } => drop(ht.insert(key.clone(), gid)),
        }
    }

    /// The (existing) group of row `i`, used by the Defer re-probe pass.
    #[inline]
    fn lookup(&self, i: usize, extractor: &KeyExtractor) -> u32 {
        match self.probe(i, extractor) {
            Probe::Hit(gid) => gid,
            Probe::Miss(_) => unreachable!("defer pass re-probes only known keys"),
        }
    }
}

pub(crate) struct AggInputs<'a> {
    pub(crate) columns: Vec<Option<&'a Column>>,
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

    #[inline]
    pub(crate) fn update(&self, states: &mut [AggState], aggs: &[AggExpr], rid: usize) {
        for (i, state) in states.iter_mut().enumerate() {
            match (&aggs[i].func, self.columns[i]) {
                (AggFunc::Count, _) => state.update(0.0),
                (AggFunc::CountDistinct, Some(col)) => {
                    state.update_key(&col.value(rid).group_key())
                }
                (_, Some(col)) => state.update(col.numeric(rid).unwrap_or(0.0)),
                (_, None) => state.update(0.0),
            }
        }
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
/// before [`GroupByCore::finish`] (γagg, lineage assembly, stats).
pub(crate) struct GroupByCore<'o> {
    keys: &'o [String],
    aggs: &'o [AggExpr],
    opts: &'o GroupByOptions,
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
    forward: RidArray,
    partitioned: Option<PartitionedRidIndex>,
    cube: Option<LineageCube>,
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
        let capture = opts.mode.captures();
        let capture_b = capture && opts.directions.backward();
        let capture_f = capture && opts.directions.forward();
        // For group-by there are only two paradigms; DeferForward degenerates
        // to Inject (it is join-specific).
        let inject = matches!(opts.mode, CaptureMode::Inject | CaptureMode::DeferForward);
        let fuse_f = capture_f && inject;
        let wl = &opts.workload;
        let skipping = capture && !wl.skipping_partition_by.is_empty();
        GroupByCore {
            keys,
            aggs,
            opts,
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
            forward: RidArray::filled(if fuse_f { rows } else { 0 }),
            partitioned: skipping
                .then(|| PartitionedRidIndex::new(wl.skipping_partition_by.join(","))),
            cube: wl
                .agg_pushdown
                .as_ref()
                .filter(|_| capture)
                .map(|pd| LineageCube::new(0, pd.partition_by.clone(), pd.aggs.clone())),
            deferred_backward: None,
            defer_start: None,
            backward_csr: None,
        }
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
        core.base = m.start;
        (core.fuse_b, core.fuse_f, core.defer) = (false, core.capture, false);
        if core.capture {
            core.forward = RidArray::filled(m.len());
        }
        core.ingest(input, m.start..m.end, 0)?;
        if core.capture_b {
            let counts = core.groups.iter().map(|g| g.lineage_count as usize);
            let mut csr = CsrBuilder::with_counts(counts);
            for (i, gid) in core.forward.iter().enumerate() {
                if gid != NO_RID {
                    csr.append(gid as usize, (m.start + i) as Rid);
                }
            }
            core.backward_csr = Some(csr.finish());
        }
        Ok(core)
    }

    /// γht over rows `range` of `rel`, whose global rid is `rid_offset + i`,
    /// with Inject capture and the workload-aware artifacts fused in. The
    /// group-id lookup runs over typed key vectors rebound per ingest (dense
    /// table / primitive-key hash for integer keys), falling back to per-row
    /// `HashKey` construction for other shapes.
    pub(crate) fn ingest(
        &mut self,
        rel: &Relation,
        range: Range<usize>,
        rid_offset: usize,
    ) -> Result<()> {
        let extractor = KeyExtractor::new(rel, self.keys)?;
        let agg_inputs = AggInputs::resolve(rel, self.aggs)?;

        // Workload-aware set-up. The push-down predicate is evaluated once
        // per ingest through the kernel layer (falling back to the
        // interpreter for arbitrary shapes); the capture loop then tests a
        // bit per row instead of re-interpreting the expression.
        // Uninstrumented runs never read the mask, so they only bind
        // (validating the expression) without paying for the scan.
        let wl = &self.opts.workload;
        let pushdown_mask = self.pushdown_mask(rel, &range)?;
        let skip_extractor = match self.partitioned {
            Some(_) => Some(KeyExtractor::new(rel, &wl.skipping_partition_by)?),
            None => None,
        };
        let cube_setup = match (&wl.agg_pushdown, &self.cube) {
            (Some(pd), Some(_)) => {
                let ex = KeyExtractor::new(rel, &pd.partition_by)?;
                Some((pd, ex, AggInputs::resolve(rel, &pd.aggs)?))
            }
            _ => None,
        };

        let table = self
            .table
            .get_or_insert_with(|| GroupTable::for_columns(extractor.columns()));
        if let Some(keys) = sk::int_keys(extractor.columns()) {
            table.admit(&keys[range.clone()], self.rows);
        }
        let mut key_mode = table.bind(&extractor);
        let (aggs, hints) = (self.aggs, self.opts.hints.as_ref());
        let (capture, fuse_b, fuse_f) = (self.capture, self.fuse_b, self.fuse_f);
        let (groups, forward, base) = (&mut self.groups, &mut self.forward, self.base);
        let first = range.start;

        for i in range {
            let gid = match key_mode.probe(i, &extractor) {
                Probe::Hit(gid) => gid,
                Probe::Miss(key) => {
                    let gid = groups.len() as u32;
                    let i_rids = match hints.and_then(|h| h.cardinality(&key)) {
                        Some(cap) if fuse_b => RidArray::with_capacity(cap),
                        _ => RidArray::new(),
                    };
                    key_mode.record(i, &key, gid);
                    groups.push(GroupEntry {
                        key,
                        states: aggs.iter().map(AggExpr::new_state).collect(),
                        i_rids,
                        lineage_count: 0,
                    });
                    gid
                }
            };
            let entry = &mut groups[gid as usize];
            agg_inputs.update(&mut entry.states, aggs, i);

            // Selection push-down: only rows satisfying the future consuming
            // query's predicate enter the lineage indexes.
            if capture && pushdown_mask.as_ref().is_none_or(|m| m.get(i - first)) {
                let rid = rid_offset + i;
                entry.lineage_count += 1;
                if fuse_b {
                    entry.i_rids.push(rid as Rid);
                }
                if fuse_f {
                    forward.set(rid - base, gid);
                }
                if let (Some(part), Some(skip)) = (self.partitioned.as_mut(), &skip_extractor) {
                    let key = render_partition_key(&skip.key(i));
                    part.append(gid as usize, &key, rid as Rid);
                }
                if let (Some(cube), Some(setup)) = (self.cube.as_mut(), &cube_setup) {
                    cube_update(cube, setup, gid as usize, i);
                }
            }
        }
        Ok(())
    }

    fn pushdown_mask(&self, rel: &Relation, range: &Range<usize>) -> Result<Option<SelectionMask>> {
        Ok(match &self.opts.workload.selection_pushdown {
            Some(expr) if self.capture => Some(predicate_mask_range(rel, expr, range.clone())?),
            Some(expr) => {
                expr.bind(rel)?;
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
    /// table and appends each row to its group's exactly-sized entry.
    pub(crate) fn ingest_defer(
        &mut self,
        rel: &Relation,
        range: Range<usize>,
        rid_offset: usize,
    ) -> Result<()> {
        self.begin_defer();
        let extractor = KeyExtractor::new(rel, self.keys)?;
        let pushdown_mask = self.pushdown_mask(rel, &range)?;
        let Some(table) = self.table.as_mut() else {
            return Ok(());
        };
        let key_mode = table.bind(&extractor);
        let first = range.start;
        for i in range {
            if !pushdown_mask.as_ref().is_none_or(|m| m.get(i - first)) {
                continue;
            }
            let gid = key_mode.lookup(i, &extractor);
            let rid = rid_offset + i;
            if let Some(b) = self.deferred_backward.as_mut() {
                b.append(gid as usize, rid as Rid);
            }
            if self.capture_f {
                self.forward.set(rid - self.base, gid);
            }
        }
        Ok(())
    }

    /// Deterministic merge of per-morsel fragments, in morsel order, into one
    /// core ready for [`GroupByCore::finish`]. Global group ids are assigned
    /// by first occurrence across the ordered fragments, matching the
    /// sequential scan's group order exactly; partial states fold through
    /// [`AggState::merge`]; the lineage fragments combine by
    /// memcpy-with-rebase ([`CsrRidIndex::merge_remapped`]) and the forward
    /// array is filled in the same walk.
    pub(crate) fn merge(
        keys: &'o [String],
        aggs: &'o [AggExpr],
        opts: &'o GroupByOptions,
        rows: usize,
        parts: Vec<GroupByCore<'_>>,
    ) -> Self {
        let mut core = GroupByCore::new(keys, aggs, opts, rows);
        // The merged core ingests nothing: there are no `i_rids` to reuse
        // and no re-probe to wait for, only a forward array to fill.
        (core.fuse_b, core.defer) = (false, false);
        if core.capture_f && !core.fuse_f {
            core.forward = RidArray::filled(rows);
        }
        let mut gid_of: HashMap<HashKey, u32> = HashMap::new();
        let mut maps: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
        let mut csrs: Vec<CsrRidIndex> = Vec::with_capacity(parts.len());
        for part in parts {
            let map: Vec<u32> = (part.groups.into_iter())
                .map(|local| match gid_of.get(&local.key) {
                    Some(&gid) => {
                        let global = &mut core.groups[gid as usize];
                        for (g, l) in global.states.iter_mut().zip(&local.states) {
                            g.merge(l);
                        }
                        global.lineage_count += local.lineage_count;
                        gid
                    }
                    None => {
                        let gid = core.groups.len() as u32;
                        gid_of.insert(local.key.clone(), gid);
                        core.groups.push(local);
                        gid
                    }
                })
                .collect();
            if core.capture_f {
                for (i, local) in part.forward.iter().enumerate() {
                    if local != NO_RID {
                        core.forward.set(part.base + i, map[local as usize]);
                    }
                }
            }
            csrs.extend(part.backward_csr);
            maps.push(map);
        }
        if core.capture_b {
            let merged = CsrRidIndex::merge_remapped(&csrs, &maps, core.groups.len());
            core.backward_csr = Some(merged);
        }
        core
    }

    /// γagg: scans the group table, finalizes aggregates, emits one output
    /// record per group, and assembles the lineage indexes and stats.
    pub(crate) fn finish(
        mut self,
        input: &impl RowSource,
        start: Instant,
    ) -> Result<GroupByResult> {
        if self.defer {
            self.begin_defer();
        }
        if let Some(b) = self.deferred_backward.take() {
            self.backward_csr = Some(b.finish());
        }
        let deferred = self.defer_start.map_or(Duration::ZERO, |t| t.elapsed());

        let n_groups = self.groups.len();
        let mut fields = Vec::with_capacity(self.keys.len() + self.aggs.len());
        let mut columns = Vec::with_capacity(fields.capacity());
        for name in self.keys {
            let idx = (input.schema().index_of(name))
                .ok_or_else(|| EngineError::UnknownColumn(name.clone()))?;
            let data_type = input.schema().field(idx).data_type;
            fields.push(Field::new(name.clone(), data_type));
            columns.push(Column::with_capacity(data_type, n_groups));
        }
        for agg in self.aggs {
            fields.push(Field::new(agg.alias.clone(), agg.output_type()));
            columns.push(Column::with_capacity(agg.output_type(), n_groups));
        }
        let (key_cols, agg_cols) = columns.split_at_mut(self.keys.len());
        let mut backward = RidIndex::with_len(0);
        for entry in self.groups.iter_mut() {
            for (col, value) in key_cols.iter_mut().zip(entry.key.to_values()) {
                col.push(value)?;
            }
            for (col, state) in agg_cols.iter_mut().zip(&entry.states) {
                col.push(state.finalize())?;
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

        // Without capture every index and artifact below is `None`.
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
            artifacts: WorkloadArtifacts {
                partitioned: self.partitioned,
                cube: self.cube,
            },
            stats,
        })
    }
}

/// Folds row `i` into the push-down cube cell of (output group `gid`, the
/// row's partition key).
fn cube_update(
    cube: &mut LineageCube,
    (pd, extractor, cols): &(&AggPushdown, KeyExtractor, AggInputs),
    gid: usize,
    i: usize,
) {
    let pkey = extractor.key(i);
    let mut inputs = Vec::with_capacity(pd.aggs.len());
    let mut distinct = Vec::with_capacity(pd.aggs.len());
    for (agg, col) in pd.aggs.iter().zip(&cols.columns) {
        match (&agg.func, col) {
            (AggFunc::CountDistinct, Some(col)) => {
                inputs.push(0.0);
                distinct.push(Some(col.value(i).group_key()));
            }
            (_, Some(col)) => {
                inputs.push(col.numeric(i).unwrap_or(0.0));
                distinct.push(None);
            }
            (_, None) => {
                inputs.push(0.0);
                distinct.push(None);
            }
        }
    }
    cube.update(
        gid,
        &render_partition_key(&pkey),
        &pkey.to_values(),
        &inputs,
        &distinct,
    );
}

/// Renders a partition key in a stable human-readable form (partition
/// attributes are categorical or discretized, §4.2).
pub(crate) fn render_partition_key(key: &HashKey) -> String {
    match key {
        HashKey::Int(v) => v.to_string(),
        HashKey::Str(s) => s.clone(),
        HashKey::Composite(parts) => parts
            .iter()
            .map(|p| p.to_value().group_key())
            .collect::<Vec<_>>()
            .join("|"),
    }
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

/// Convenience output-type helper used by callers that need the output schema
/// of a group-by without running it.
pub fn output_key_type(input: &Relation, key: &str) -> Result<DataType> {
    let idx = input
        .column_index(key)
        .map_err(|_| EngineError::UnknownColumn(key.to_string()))?;
    Ok(input.schema().field(idx).data_type)
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
        assert_eq!(part.partition(0, "even"), &[0, 2]);
        assert_eq!(part.partition(0, "odd"), &[5]);
        assert_eq!(part.partition(1, "odd"), &[1]);
        // Union of partitions equals the plain backward entry.
        let mut all = part.all(0);
        all.sort_unstable();
        assert_eq!(all, vec![0, 2, 5]);
    }

    #[test]
    fn agg_pushdown_materializes_cube() {
        let r = rel();
        let mut opts = GroupByOptions::inject();
        opts.workload.agg_pushdown = Some(crate::instrument::AggPushdown {
            partition_by: vec!["tag".to_string()],
            aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "sum_v")],
        });
        let result = group_by(&r, &["z".to_string()], &[AggExpr::count("cnt")], &opts).unwrap();
        let cube = result.artifacts.cube.as_ref().unwrap();
        let drill = cube.query(0).unwrap(); // group z=1: rids 0 (even,10), 2 (even,30), 5 (odd,60)
        assert_eq!(drill.len(), 2);
        assert_eq!(drill.value(0, 0), Value::Str("even".into()));
        assert_eq!(drill.value(0, 2), Value::Float(40.0));
        assert_eq!(drill.value(1, 0), Value::Str("odd".into()));
        assert_eq!(drill.value(1, 2), Value::Float(60.0));
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
}
