//! Hash equi-joins with lineage capture (paper §3.2.4).
//!
//! A hash join is split into a build phase (`⋈ht`, hash table on the left
//! relation) and a probe phase (`⋈probe`, scan of the right relation). The
//! backward lineage of every output record is exactly one rid per side (rid
//! arrays); the forward lineage is 1-to-N, because an input record can
//! participate in many join results: Inject writes it into rid indexes,
//! which the join seals into CSR when it finishes.
//!
//! * **Inject** augments each hash-table entry with the left rids for that
//!   join key (`i_rids`) and populates all four indexes during the probe.
//!   Forward indexes for the left side can trigger many reallocations when a
//!   key has many matches.
//! * **Defer** additionally stores, per hash entry, the rid of the *first*
//!   output record of every match (`o_rids`); since matched outputs are
//!   emitted contiguously, one hash-table scan after the probe writes every
//!   output's left rid. That array is the left backward index, and inverted
//!   by counting sort ([`CsrRidIndex::from_slots`]) the left forward index,
//!   both allocated exactly.
//! * **DeferForward** defers only the left forward index.
//! * **pk-fk joins**: when the build side is unique, `i_rids` degenerates to a
//!   single rid, the output cardinality is bounded by the probe side's, and
//!   the right-side forward index is a plain rid array — backward indexes are
//!   pre-allocated and Inject/Defer coincide.
//!
//! ⋈ht is a std `HashMap` sized for the build side's row count up front and
//! hashed by the crate's fixed folded-multiply hasher (`hash.rs`): it
//! is keyed by base-data values, never by request literals, so a fixed
//! hasher is safe here. The grace join's partition hash
//! ([`crate::HashKey::hash64`]) is separate and unchanged. A driver picks the
//! typed key representation once from the key column types; an ingest whose
//! columns read as another type is a typed [`EngineError`], not a panic.

use std::hash::Hash;
use std::ops::Range;
use std::time::{Duration, Instant};

use smoke_lineage::{
    CaptureStats, CsrRidIndex, InputLineage, LineageIndex, OperatorLineage, RidArray, RidIndex,
};
use smoke_storage::kernels as sk;
use smoke_storage::{Column, Relation, Rid, Schema};

use crate::error::{EngineError, Result};
use crate::hash::FoldMap;
use crate::instrument::{CaptureMode, CardinalityHints, DirectionFilter};
use crate::key::{HashKey, KeyExtractor, KeyPart};
use crate::ops::RowSource;

/// Options controlling join instrumentation.
#[derive(Debug, Clone)]
pub struct JoinOptions {
    /// Instrumentation paradigm.
    pub mode: CaptureMode,
    /// Lineage directions to capture for the left (build) relation.
    pub left_directions: DirectionFilter,
    /// Lineage directions to capture for the right (probe) relation.
    pub right_directions: DirectionFilter,
    /// Optional per-key match-count statistics (`Smoke-I+TC`).
    pub hints: Option<CardinalityHints>,
    /// Whether to materialize the join output relation. The M:N stress
    /// benchmarks disable materialization (the paper does the same) so that
    /// capture overhead is not drowned by result construction.
    pub materialize_output: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            mode: CaptureMode::Inject,
            left_directions: DirectionFilter::Both,
            right_directions: DirectionFilter::Both,
            hints: None,
            materialize_output: true,
        }
    }
}

impl JoinOptions {
    /// Baseline: no capture.
    pub fn baseline() -> Self {
        JoinOptions {
            mode: CaptureMode::Baseline,
            ..Default::default()
        }
    }

    /// `Smoke-I`.
    pub fn inject() -> Self {
        JoinOptions::default()
    }

    /// `Smoke-D`.
    pub fn defer() -> Self {
        JoinOptions {
            mode: CaptureMode::Defer,
            ..Default::default()
        }
    }

    /// `Smoke-D-DeferForw`: defer only the left forward index.
    pub fn defer_forward() -> Self {
        JoinOptions {
            mode: CaptureMode::DeferForward,
            ..Default::default()
        }
    }

    /// Disables output materialization (used by the M:N stress benchmarks).
    pub fn without_output(mut self) -> Self {
        self.materialize_output = false;
        self
    }

    /// Attaches per-key match-count hints (`Smoke-I+TC`).
    pub fn with_hints(mut self, hints: CardinalityHints) -> Self {
        self.hints = Some(hints);
        self
    }
}

/// The result of an instrumented hash join.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Join output (empty relation with the joined schema when output
    /// materialization is disabled).
    pub output: Relation,
    /// Lineage: input 0 is the left (build) relation, input 1 the right
    /// (probe) relation.
    pub lineage: OperatorLineage,
    /// Number of join result rows (even when not materialized).
    pub output_rows: usize,
    /// Whether the build side turned out to be unique (pk-fk join).
    pub pk_fk: bool,
    /// How many grace-hash partitions the join spilled into; `1` means the
    /// build side fit the budget and the join ran fully resident.
    pub grace_partitions: usize,
    /// Capture statistics.
    pub stats: CaptureStats,
}

/// A typed join-key representation: how to read row `i`'s key out of the key
/// columns of whichever relation is being ingested. Plain `i64` keys,
/// borrowed `&str` keys (no per-probe `String` clone) and `(i64, i64)` pairs
/// key the hash table by the primitive value; everything else goes through
/// generic [`HashKey`]s. `&str` keys borrow from the build relation, so only
/// drivers whose inputs outlive the join (resident) can pick them.
pub(crate) trait JoinKey<'a>: Eq + Hash + Sized {
    /// The key columns of one relation, viewed as typed slices.
    type View;
    /// `None` when the key columns do not have this representation's shape.
    fn view(extractor: &KeyExtractor<'a>) -> Option<Self::View>;
    fn at(view: &Self::View, i: usize) -> Self;
    /// Renders the key back as a [`HashKey`] for cardinality-hint lookups
    /// (called once per distinct build key, never per row).
    fn hint_key(&self) -> HashKey;
}

impl<'a> JoinKey<'a> for i64 {
    type View = &'a [i64];
    fn view(extractor: &KeyExtractor<'a>) -> Option<Self::View> {
        sk::int_keys(extractor.columns())
    }
    fn at(view: &Self::View, i: usize) -> Self {
        view[i]
    }
    fn hint_key(&self) -> HashKey {
        HashKey::Int(*self)
    }
}

impl<'a> JoinKey<'a> for &'a str {
    type View = &'a [String];
    fn view(extractor: &KeyExtractor<'a>) -> Option<Self::View> {
        sk::str_keys(extractor.columns())
    }
    fn at(view: &Self::View, i: usize) -> Self {
        view[i].as_str()
    }
    fn hint_key(&self) -> HashKey {
        HashKey::Str((*self).to_string())
    }
}

impl<'a> JoinKey<'a> for (i64, i64) {
    type View = (&'a [i64], &'a [i64]);
    fn view(extractor: &KeyExtractor<'a>) -> Option<Self::View> {
        match extractor.columns() {
            [Column::Int(a), Column::Int(b)] => Some((a, b)),
            _ => None,
        }
    }
    fn at(view: &Self::View, i: usize) -> Self {
        (view.0[i], view.1[i])
    }
    fn hint_key(&self) -> HashKey {
        HashKey::Composite(vec![KeyPart::Int(self.0), KeyPart::Int(self.1)])
    }
}

impl<'a> JoinKey<'a> for HashKey {
    type View = KeyExtractor<'a>;
    fn view(extractor: &KeyExtractor<'a>) -> Option<Self::View> {
        Some(extractor.clone())
    }
    fn at(view: &Self::View, i: usize) -> Self {
        view.key(i)
    }
    fn hint_key(&self) -> HashKey {
        self.clone()
    }
}

/// Whether both sides' key columns can be read as `K`.
pub(crate) fn fits<'a, K: JoinKey<'a>>(left: &KeyExtractor<'a>, right: &KeyExtractor<'a>) -> bool {
    K::view(left).is_some() && K::view(right).is_some()
}

/// The key columns of one ingest viewed as `K`. A driver picks `K` from the
/// key column types once, so a later ingest (a chunk, a grace partition)
/// whose columns read differently is a typed error, not a panic.
fn view_of<'a, K: JoinKey<'a>>(extractor: &KeyExtractor<'a>) -> Result<K::View> {
    K::view(extractor).ok_or_else(|| {
        let types: Vec<_> = extractor.columns().iter().map(|c| c.data_type()).collect();
        EngineError::InvalidPlan(format!(
            "join key columns changed type between ingests: now {types:?}"
        ))
    })
}

/// Evaluates to `$run::<K> $args` for the first typed key representation in
/// the list that fits both sides' key columns, or for generic [`HashKey`]s.
macro_rules! with_join_key {
    ([], $l:expr, $r:expr, $run:ident $args:tt) => {
        $run::<$crate::key::HashKey> $args
    };
    ([$k:ty $(, $rest:ty)*], $l:expr, $r:expr, $run:ident $args:tt) => {
        if $crate::ops::join::fits::<$k>($l, $r) {
            $run::<$k> $args
        } else {
            $crate::ops::join::with_join_key!([$($rest),*], $l, $r, $run $args)
        }
    };
}
pub(crate) use with_join_key;

/// Executes `left ⋈ right ON left_keys = right_keys` with the configured
/// instrumentation: one build ingest of the whole left relation, one probe
/// ingest of the whole right relation.
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
) -> Result<JoinResult> {
    fn run<'a, K: JoinKey<'a>>(
        left: &'a Relation,
        right: &'a Relation,
        left_keys: &[String],
        right_keys: &[String],
        opts: &JoinOptions,
    ) -> Result<JoinResult> {
        let start = Instant::now();
        let mut build = JoinBuild::<K>::new(left.len());
        build.ingest(left, left_keys, 0..left.len(), |i| i as Rid)?;
        let mut probe = JoinProbe::new(opts, &build, right.len());
        probe.ingest(&build, right, right_keys, 0..right.len(), |i| i as Rid)?;
        probe.finish(&build, left, right, start)
    }
    let left_extract = KeyExtractor::new(left, left_keys)?;
    let right_extract = KeyExtractor::new(right, right_keys)?;
    with_join_key!(
        [i64, &str, (i64, i64)],
        &left_extract,
        &right_extract,
        run(left, right, left_keys, right_keys, opts)
    )
}

/// Which indexes a join captures, and which of the left-side ones wait for
/// the post-probe hash-table scan.
#[derive(Clone, Copy)]
struct Capture {
    any: bool,
    a_b: bool,
    a_f: bool,
    b_b: bool,
    b_f: bool,
    defer_left: bool,
    defer_forward: bool,
}

impl Capture {
    fn of(opts: &JoinOptions) -> Capture {
        let any = opts.mode.captures();
        Capture {
            any,
            a_b: any && opts.left_directions.backward(),
            a_f: any && opts.left_directions.forward(),
            b_b: any && opts.right_directions.backward(),
            b_f: any && opts.right_directions.forward(),
            defer_left: any && opts.mode == CaptureMode::Defer,
            defer_forward: any && opts.mode == CaptureMode::DeferForward,
        }
    }

    fn defers(self) -> bool {
        self.defer_left || self.defer_forward
    }
}

struct BuildEntry {
    rids: Vec<Rid>,
    /// Position of this entry's `o_rids` in [`JoinProbe`]: everything a probe
    /// mutates lives in the probe, so the build is read-only once written.
    slot: u32,
}

/// ⋈ht: the build side of the hash join, written once and fed by its drivers
/// one ingest at a time.
pub(crate) struct JoinBuild<K> {
    ht: FoldMap<K, BuildEntry>,
    /// Whether the build side is unique so far (pk-fk join).
    pub(crate) pk_fk: bool,
    rows: usize,
}

impl<K> JoinBuild<K> {
    /// A build table for a left relation of `rows` rows, sized for `rows`
    /// distinct keys so that it never rehashes.
    pub(crate) fn new(rows: usize) -> Self {
        JoinBuild {
            ht: FoldMap::with_capacity_and_hasher(rows, Default::default()),
            pk_fk: true,
            rows,
        }
    }

    /// Inserts rows `range` of `rel`; `rid_of(i)` is row `i`'s global rid
    /// (`offset + i` for scans, the carried original rid for spilled grace
    /// partitions).
    pub(crate) fn ingest<'a>(
        &mut self,
        rel: &'a Relation,
        keys: &[String],
        range: Range<usize>,
        rid_of: impl Fn(usize) -> Rid,
    ) -> Result<()>
    where
        K: JoinKey<'a>,
    {
        let extractor = KeyExtractor::new(rel, keys)?;
        let view = view_of::<K>(&extractor)?;
        for i in range {
            let slot = self.ht.len() as u32;
            let entry = self
                .ht
                .entry(K::at(&view, i))
                .or_insert_with(|| BuildEntry {
                    rids: Vec::with_capacity(1),
                    slot,
                });
            entry.rids.push(rid_of(i));
            if entry.rids.len() > 1 {
                self.pk_fk = false;
            }
        }
        Ok(())
    }
}

/// ⋈probe: the probe side of the hash join with Inject capture fused in,
/// written once. Under [`JoinOptions::baseline`] it captures nothing and just
/// emits `(left rid, right rid)` output runs — the form grace partitions run
/// it in, leaving lineage to [`finish_from_runs`].
pub(crate) struct JoinProbe<'o> {
    opts: &'o JoinOptions,
    capture: Capture,
    out_left: Vec<Rid>,
    out_right: Vec<Rid>,
    a_fw: Vec<RidArray>,
    b_fw_index: RidIndex,
    b_fw_array: RidArray,
    /// Defer modes: per build entry, the rid of the *first* output record of
    /// every probe match.
    o_rids: Vec<Vec<Rid>>,
    out_counter: usize,
}

impl<'o> JoinProbe<'o> {
    /// Probe state against a finished `build`, for `right_rows` probe rows.
    pub(crate) fn new<'a, K: JoinKey<'a>>(
        opts: &'o JoinOptions,
        build: &JoinBuild<K>,
        right_rows: usize,
    ) -> Self {
        let capture = Capture::of(opts);
        let pk_fk = build.pk_fk;
        // When the build side is a primary key the output cardinality is
        // bounded by the probe side cardinality, so backward arrays can be
        // pre-allocated.
        let prealloc = if pk_fk { right_rows } else { 0 };

        // Left forward index assembled as per-left-rid arrays so that
        // hint-based pre-allocation preserves its resize accounting. Defer
        // modes skip this entirely: they build the index in CSR form after
        // the probe, when every per-entry cardinality is known exactly.
        let mut a_fw = Vec::new();
        if capture.a_f && !capture.defers() {
            a_fw = vec![RidArray::new(); build.rows];
            if let Some(hints) = &opts.hints {
                for (key, entry) in &build.ht {
                    if let Some(cap) = hints.cardinality(&key.hint_key()) {
                        for &l in &entry.rids {
                            a_fw[l as usize] = RidArray::with_capacity(cap);
                        }
                    }
                }
            }
        }
        JoinProbe {
            opts,
            capture,
            out_left: Vec::with_capacity(prealloc),
            out_right: Vec::with_capacity(prealloc),
            a_fw,
            b_fw_index: RidIndex::with_len(if capture.b_f && !pk_fk { right_rows } else { 0 }),
            b_fw_array: match capture.b_f && pk_fk {
                true => RidArray::filled(right_rows),
                false => RidArray::new(),
            },
            o_rids: vec![Vec::new(); if capture.defers() { build.ht.len() } else { 0 }],
            out_counter: 0,
        }
    }

    /// Probes rows `range` of `rel` against `build`, emitting output records
    /// and populating every non-deferred index in the same loop.
    pub(crate) fn ingest<'a, K: JoinKey<'a>>(
        &mut self,
        build: &JoinBuild<K>,
        rel: &'a Relation,
        keys: &[String],
        range: Range<usize>,
        rid_of: impl Fn(usize) -> Rid,
    ) -> Result<()> {
        let extractor = KeyExtractor::new(rel, keys)?;
        let view = view_of::<K>(&extractor)?;
        let c = self.capture;
        let push_left = self.opts.materialize_output || (c.a_b && !c.defer_left);
        let push_right = self.opts.materialize_output || c.b_b;
        let fuse_a_fw = c.a_f && !c.defers();
        for i in range {
            let Some(entry) = build.ht.get(&K::at(&view, i)) else {
                continue;
            };
            let rid = rid_of(i);
            if c.defers() {
                self.o_rids[entry.slot as usize].push(self.out_counter as Rid);
            }
            for (j, &l) in entry.rids.iter().enumerate() {
                let o = (self.out_counter + j) as Rid;
                if push_left {
                    self.out_left.push(l);
                }
                if push_right {
                    self.out_right.push(rid);
                }
                if fuse_a_fw {
                    self.a_fw[l as usize].push(o);
                }
                if c.b_f {
                    if build.pk_fk {
                        self.b_fw_array.set(rid as usize, o);
                    } else {
                        self.b_fw_index.append(rid as usize, o);
                    }
                }
            }
            self.out_counter += entry.rids.len();
        }
        Ok(())
    }

    /// The `(left rid, right rid)` output runs of a capture-free probe.
    pub(crate) fn into_runs(self) -> (Vec<Rid>, Vec<Rid>) {
        (self.out_left, self.out_right)
    }

    /// Builds the deferred left-side indexes, materializes the output and
    /// assembles the lineage indexes and stats.
    pub(crate) fn finish<K>(
        self,
        build: &JoinBuild<K>,
        left: &impl RowSource,
        right: &impl RowSource,
        start: Instant,
    ) -> Result<JoinResult> {
        let c = self.capture;
        let base_query = start.elapsed();

        // Deferred construction of the left-side indexes: one scan of the
        // hash table, never of the inputs, writes every output's left rid.
        // That array is the left backward index, and inverted by counting
        // sort it is the forward index in CSR form, both flat buffers
        // allocated once and never resized.
        let defer_start = Instant::now();
        let mut a_bw_deferred = None;
        let mut a_fw_deferred = None;
        if c.defers() && (c.a_f || c.defer_left && c.a_b) {
            let mut left_of = RidArray::filled(self.out_counter);
            for entry in build.ht.values() {
                for (j, &l) in entry.rids.iter().enumerate() {
                    for &start_o in &self.o_rids[entry.slot as usize] {
                        left_of.set(start_o as usize + j, l);
                    }
                }
            }
            if c.a_f {
                a_fw_deferred = Some(CsrRidIndex::from_slots(left_of.as_slice(), build.rows, 0));
            }
            a_bw_deferred = (c.defer_left && c.a_b).then_some(left_of);
        }
        let deferred = match c.defers() {
            true => defer_start.elapsed(),
            false => Duration::ZERO,
        };

        let output = join_output(self.opts, left, right, &self.out_left, &self.out_right)?;
        // The output is gathered, so the runs move into the backward indexes.
        let array = |a: RidArray| Finished::Read(LineageIndex::Array(a));
        let a_backward = (c.a_b)
            .then(|| a_bw_deferred.unwrap_or_else(|| RidArray::from_vec(self.out_left)))
            .map(array);
        let a_forward = c.a_f.then(|| match a_fw_deferred {
            Some(csr) => Finished::Read(LineageIndex::Csr(csr)),
            None => Finished::Written(RidIndex::from_arrays(self.a_fw)),
        });
        let b_backward = (c.b_b).then(|| array(RidArray::from_vec(self.out_right)));
        let b_forward = c.b_f.then_some(match build.pk_fk {
            true => array(self.b_fw_array),
            false => Finished::Written(self.b_fw_index),
        });
        let indexes = [a_backward, a_forward, b_backward, b_forward];
        let shape = (self.out_counter, build.pk_fk, 1);
        Ok(join_result(
            output,
            shape,
            (base_query, deferred),
            c,
            indexes,
        ))
    }
}

/// Merged probe output of a join whose probes ran capture-free, in the
/// resident operator's probe order.
pub(crate) struct JoinRuns {
    pub(crate) out_left: Vec<Rid>,
    pub(crate) out_right: Vec<Rid>,
    pub(crate) pk_fk: bool,
    pub(crate) grace_partitions: usize,
}

/// The epilogue of the grace join, which probes capture-free: materializes
/// the output from the merged runs and rebuilds all four lineage indexes
/// from them with exact counts. Backward lineage on both sides is the runs
/// themselves. A 1-to-N forward index is the runs inverted by counting sort,
/// the CSR the resident operator hands out in every capture mode.
pub(crate) fn finish_from_runs(
    opts: &JoinOptions,
    left: &impl RowSource,
    right: &impl RowSource,
    runs: JoinRuns,
    start: Instant,
) -> Result<JoinResult> {
    let c = Capture::of(opts);
    let base_query = start.elapsed();
    let JoinRuns {
        out_left,
        out_right,
        pk_fk,
        grace_partitions,
    } = runs;
    let output = join_output(opts, left, right, &out_left, &out_right)?;

    let defer_start = Instant::now();
    let forward = |run, entries| LineageIndex::Csr(CsrRidIndex::from_slots(run, entries, 0));
    let a_forward = (c.a_f).then(|| forward(&out_left, left.rows()));
    let deferred = match c.defers() {
        true => defer_start.elapsed(),
        false => Duration::ZERO,
    };
    let b_forward = c.b_f.then(|| match pk_fk {
        true => {
            let mut array = RidArray::filled(right.rows());
            for (o, &r) in out_right.iter().enumerate() {
                array.set(r as usize, o as Rid);
            }
            LineageIndex::Array(array)
        }
        false => forward(&out_right, right.rows()),
    });
    let output_rows = out_left.len();
    let a_backward = (c.a_b).then(|| LineageIndex::Array(RidArray::from_vec(out_left)));
    let b_backward = (c.b_b).then(|| LineageIndex::Array(RidArray::from_vec(out_right)));
    let indexes = [a_backward, a_forward, b_backward, b_forward].map(|i| i.map(Finished::Read));
    let shape = (output_rows, pk_fk, grace_partitions);
    Ok(join_result(
        output,
        shape,
        (base_query, deferred),
        c,
        indexes,
    ))
}

/// Output materialization: gathers both sides by the output runs.
fn join_output(
    opts: &JoinOptions,
    left: &impl RowSource,
    right: &impl RowSource,
    out_left: &[Rid],
    out_right: &[Rid],
) -> Result<Relation> {
    let schema: Schema = left.schema().concat(right.schema(), right.name());
    let name = format!("join({},{})", left.name(), right.name());
    if !opts.materialize_output {
        return Ok(Relation::empty(name, schema));
    }
    let mut columns = left.gather_rows(out_left, String::new())?.into_columns();
    columns.extend(right.gather_rows(out_right, String::new())?.into_columns());
    Ok(Relation::from_columns(name, schema, columns)?)
}

/// A finished index as [`join_result`] receives it.
enum Finished {
    /// Read side already: an array or an exactly-sized CSR.
    Read(LineageIndex),
    /// Inject's write side, sealed into CSR once the stats have counted it.
    Written(RidIndex),
}

/// The one place a [`JoinResult`] is put together: `(output_rows, pk_fk,
/// grace_partitions)`, `(base_query, deferred)` and the `[left backward,
/// left forward, right backward, right forward]` indexes, which the stats
/// account for. The bytes and resizes of a written index are what capture
/// paid for; the seal only moves its rids into the CSR handed out.
fn join_result(
    output: Relation,
    (output_rows, pk_fk, grace_partitions): (usize, bool, usize),
    (base_query, deferred): (Duration, Duration),
    capture: Capture,
    indexes: [Option<Finished>; 4],
) -> JoinResult {
    let mut stats = CaptureStats {
        base_query,
        deferred,
        ..Default::default()
    };
    let indexes = indexes.map(|idx| {
        let idx = match idx? {
            Finished::Read(idx) => {
                stats.lineage_bytes += idx.heap_bytes() as u64;
                idx
            }
            Finished::Written(idx) => {
                stats.rid_resizes += idx.resizes();
                stats.lineage_bytes += idx.heap_bytes() as u64;
                LineageIndex::Csr(idx.finalize())
            }
        };
        stats.edges += idx.edge_count() as u64;
        Some(idx)
    });
    let [a_backward, a_forward, b_backward, b_forward] = indexes;
    let sides = [(a_backward, a_forward), (b_backward, b_forward)];
    let [a, b] = sides.map(|(backward, forward)| InputLineage { backward, forward });
    JoinResult {
        output,
        lineage: match capture.any {
            true => OperatorLineage::binary(a, b),
            false => OperatorLineage::none(),
        },
        output_rows,
        pk_fk,
        grace_partitions,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::{DataType, Value};

    fn gids() -> Relation {
        let mut b = Relation::builder("gids")
            .column("id", DataType::Int)
            .column("label", DataType::Str);
        for i in 0..3 {
            b = b.row(vec![Value::Int(i), Value::Str(format!("g{i}"))]);
        }
        b.build().unwrap()
    }

    fn zipf() -> Relation {
        // z: 0,1,0,2,1,0  => fk references gids.id
        let mut b = Relation::builder("zipf")
            .column("z", DataType::Int)
            .column("v", DataType::Float);
        for (i, z) in [0, 1, 0, 2, 1, 0].iter().enumerate() {
            b = b.row(vec![Value::Int(*z), Value::Float(i as f64)]);
        }
        b.build().unwrap()
    }

    fn mn_left() -> Relation {
        let mut b = Relation::builder("A").column("z", DataType::Int);
        for z in [1, 1, 2] {
            b = b.row(vec![Value::Int(z)]);
        }
        b.build().unwrap()
    }

    fn mn_right() -> Relation {
        let mut b = Relation::builder("B").column("z", DataType::Int);
        for z in [1, 2, 1, 3] {
            b = b.row(vec![Value::Int(z)]);
        }
        b.build().unwrap()
    }

    fn run(opts: &JoinOptions) -> JoinResult {
        hash_join(
            &gids(),
            &zipf(),
            &["id".to_string()],
            &["z".to_string()],
            opts,
        )
        .unwrap()
    }

    #[test]
    fn pkfk_join_output_and_detection() {
        let result = run(&JoinOptions::baseline());
        assert!(result.pk_fk);
        assert_eq!(result.output_rows, 6);
        assert_eq!(result.output.len(), 6);
        assert_eq!(
            result.output.schema().names(),
            vec!["id", "label", "z", "v"]
        );
        assert!(result.lineage.is_none());
    }

    #[test]
    fn pkfk_inject_lineage_round_trips() {
        let result = run(&JoinOptions::inject());
        let left_lin = result.lineage.input(0);
        let right_lin = result.lineage.input(1);
        // Output row 0 comes from right rid 0 (z=0) and left rid 0.
        assert_eq!(left_lin.backward().lookup(0), vec![0]);
        assert_eq!(right_lin.backward().lookup(0), vec![0]);
        // Left rid 0 (id=0) matched right rids 0, 2, 5 -> three outputs.
        assert_eq!(left_lin.forward().lookup(0).len(), 3);
        // Right rid 3 (z=2) produced exactly one output; backward of that
        // output is left rid 2.
        let outs = right_lin.forward().lookup(3);
        assert_eq!(outs.len(), 1);
        assert_eq!(left_lin.backward().lookup(outs[0]), vec![2]);
        // Every output's backward pair is consistent with the joined values.
        for o in 0..result.output_rows as Rid {
            let l = left_lin.backward().single(o).unwrap();
            let r = right_lin.backward().single(o).unwrap();
            assert_eq!(
                gids().value(l as usize, 0),
                zipf().value(r as usize, 0),
                "join key mismatch for output {o}"
            );
        }
    }

    #[test]
    fn defer_matches_inject_for_pkfk_and_mn() {
        // pk-fk join.
        let inject = run(&JoinOptions::inject());
        let defer = run(&JoinOptions::defer());
        assert_eq!(inject.output, defer.output);
        for o in 0..inject.output_rows as Rid {
            assert_eq!(
                inject.lineage.input(0).backward().lookup(o),
                defer.lineage.input(0).backward().lookup(o)
            );
        }
        for l in 0..3 as Rid {
            let mut a = inject.lineage.input(0).forward().lookup(l);
            let mut b = defer.lineage.input(0).forward().lookup(l);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }

        // M:N join.
        let opts_i = JoinOptions::inject();
        let opts_d = JoinOptions::defer();
        let opts_df = JoinOptions::defer_forward();
        let i = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_i,
        )
        .unwrap();
        let d = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_d,
        )
        .unwrap();
        let df = hash_join(
            &mn_left(),
            &mn_right(),
            &["z".into()],
            &["z".into()],
            &opts_df,
        )
        .unwrap();
        assert!(!i.pk_fk);
        assert_eq!(i.output_rows, 5); // z=1: 2x2 matches, z=2: 1x1
                                      // Defer modes build the left forward index directly in CSR form.
        for result in [&d, &df] {
            assert!(matches!(
                result.lineage.input(0).forward,
                Some(LineageIndex::Csr(_))
            ));
        }
        for result in [&d, &df] {
            assert_eq!(result.output, i.output);
            for o in 0..i.output_rows as Rid {
                assert_eq!(
                    result.lineage.input(0).backward().lookup(o),
                    i.lineage.input(0).backward().lookup(o)
                );
                assert_eq!(
                    result.lineage.input(1).backward().lookup(o),
                    i.lineage.input(1).backward().lookup(o)
                );
            }
            for l in 0..3 as Rid {
                let mut a = result.lineage.input(0).forward().lookup(l);
                let mut b = i.lineage.input(0).forward().lookup(l);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn forward_backward_inverse_property() {
        let opts = JoinOptions::inject();
        let r = hash_join(&mn_left(), &mn_right(), &["z".into()], &["z".into()], &opts).unwrap();
        for o in 0..r.output_rows as Rid {
            let l = r.lineage.input(0).backward().single(o).unwrap();
            assert!(r.lineage.input(0).forward().lookup(l).contains(&o));
            let rr = r.lineage.input(1).backward().single(o).unwrap();
            assert!(r.lineage.input(1).forward().lookup(rr).contains(&o));
        }
    }

    #[test]
    fn unmaterialized_join_still_counts_and_captures() {
        let opts = JoinOptions::inject().without_output();
        let r = hash_join(&mn_left(), &mn_right(), &["z".into()], &["z".into()], &opts).unwrap();
        assert_eq!(r.output.len(), 0);
        assert_eq!(r.output_rows, 5);
        assert_eq!(r.lineage.input(0).backward().len(), 5);
    }

    #[test]
    fn hints_preallocate_left_forward_index() {
        // Match counts per key: id=0 -> 3, id=1 -> 2, id=2 -> 1.
        let mut per_key = std::collections::HashMap::new();
        per_key.insert(crate::key::HashKey::Int(0), 3usize);
        per_key.insert(crate::key::HashKey::Int(1), 2usize);
        per_key.insert(crate::key::HashKey::Int(2), 1usize);
        let opts = JoinOptions::inject().with_hints(CardinalityHints::with_per_key(per_key));
        let hinted = run(&opts);
        let plain = run(&JoinOptions::inject());
        assert_eq!(hinted.output, plain.output);
        assert_eq!(
            hinted.lineage.input(0).forward,
            plain.lineage.input(0).forward
        );
        assert_eq!(hinted.stats.rid_resizes, 0);
    }

    #[test]
    fn pruning_directions_per_side() {
        let opts = JoinOptions {
            left_directions: DirectionFilter::BackwardOnly,
            right_directions: DirectionFilter::None,
            ..JoinOptions::inject()
        };
        let r = run(&opts);
        assert!(r.lineage.input(0).backward.is_some());
        assert!(r.lineage.input(0).forward.is_none());
        assert!(r.lineage.input(1).backward.is_none());
        assert!(r.lineage.input(1).forward.is_none());
    }

    #[test]
    fn join_with_no_matches() {
        let mut b = Relation::builder("empty_keys").column("z", DataType::Int);
        b = b.row(vec![Value::Int(99)]);
        let right = b.build().unwrap();
        let r = hash_join(
            &gids(),
            &right,
            &["id".to_string()],
            &["z".to_string()],
            &JoinOptions::inject(),
        )
        .unwrap();
        assert_eq!(r.output_rows, 0);
        assert_eq!(r.output.len(), 0);
        assert_eq!(r.lineage.input(0).forward().lookup(0), Vec::<Rid>::new());
    }
}
