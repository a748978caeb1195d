//! Grace-hash spilling join over [`PagedRelation`]s.
//!
//! [`super::paged_hash_join`] keeps its build hash table in RAM; when the
//! build side is far larger than the buffer-pool budget that table *is* the
//! memory blow-up the budget was meant to prevent. The grace path bounds it:
//! both inputs are hash-partitioned by join key into spilled page runs, and
//! partition pairs are then joined one at a time, so the resident hash table
//! never holds more than roughly `build_rows / partitions` entries.
//!
//! The price of partitioning is that probe outputs are produced per
//! partition, not in global probe order. The merge phase restores the
//! resident operator's exact output order: within a partition, probe pairs
//! are emitted in ascending original right rid (partitions are written in
//! scan order), and every right rid hashes to exactly one partition, so a
//! P-way merge by right rid reconstructs the global probe sequence —
//! rid-for-rid, including the per-key build order of M:N duplicates.
//! Each partition pair runs the ordinary [`JoinBuild`] / [`JoinProbe`] core
//! capture-free; lineage is rebuilt from the merged output runs by the same
//! [`finish_from_runs`] epilogue.
//!
//! Eligibility (checked by [`grace_plan`]): every key column on both sides
//! must be numeric — partitions spill through fixed-width
//! [`FixedRunWriter`] runs — and key names must be unique and must not
//! collide with the reserved `__grace_rid` carry column. Ineligible joins
//! fall back to the resident-build path, which remains correct for any
//! input (only its hash table outgrows the budget).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use smoke_storage::{
    Column, DataType, Field, FixedRunWriter, PageId, PagedRelation, Relation, Rid, Schema,
    StorageError, PAGE_SIZE,
};

use crate::error::Result;
use crate::key::{HashKey, KeyExtractor};
use crate::ops::join::{
    finish_from_runs, with_join_key, JoinBuild, JoinKey, JoinOptions, JoinProbe, JoinResult,
    JoinRuns,
};

use super::{align_chunk, all_columns, chunk_bounds, scan_chunks};

/// Rough per-row footprint of the resident build hash table (key, rid vec,
/// bucket overhead). Deliberately coarse: it only decides *when* to switch
/// to grace partitioning, never correctness.
pub const BUILD_BYTES_PER_ROW: usize = 48;

/// Upper bound on partition fan-out. Each partition costs two spilled runs
/// per key column plus a rid run; past this point partitions are small
/// enough that more fan-out only adds seeks.
pub const MAX_GRACE_PARTITIONS: usize = 64;

/// Reserved column carrying original rids through spilled partitions.
const GRACE_RID_COL: &str = "__grace_rid";

/// Decides whether [`super::paged_hash_join`] should take the grace-hash
/// path, and with how many partitions. `None` means stay resident: the
/// estimated build table fits the build side's pool budget, or the join is
/// ineligible (a `Str` key column, duplicate key names, or a key named
/// `__grace_rid` — the partition runs could not be formed).
pub(super) fn grace_plan(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
) -> Option<usize> {
    let budget_bytes = left.pool().capacity() * PAGE_SIZE;
    let build_bytes = left.len().saturating_mul(BUILD_BYTES_PER_ROW);
    if build_bytes <= budget_bytes {
        return None;
    }
    if !keys_spillable(left.schema(), left_keys) || !keys_spillable(right.schema(), right_keys) {
        return None;
    }
    Some(
        build_bytes
            .div_ceil(budget_bytes)
            .clamp(2, MAX_GRACE_PARTITIONS),
    )
}

/// Whether `keys` name distinct numeric columns that can be spilled as
/// fixed-width partition runs alongside the reserved rid column.
fn keys_spillable(schema: &Schema, keys: &[String]) -> bool {
    if keys.is_empty() {
        return false;
    }
    keys.iter().enumerate().all(|(i, k)| {
        k != GRACE_RID_COL
            && !keys[..i].contains(k)
            && schema
                .index_of(k)
                .is_some_and(|idx| schema.field(idx).data_type != DataType::Str)
    })
}

/// The partition a key hashes to. `HashKey`'s hash is deterministic within
/// a process, so both sides agree on every key's partition.
fn partition_of(key: &HashKey, partitions: usize) -> usize {
    (key.hash64() % partitions as u64) as usize
}

/// The raw 8-byte page encoding of a numeric column value — the same
/// encoding [`PagedRelation::spill`] uses, so partition runs decode through
/// the ordinary fixed-width path.
fn raw8(col: &Column, local: usize) -> [u8; 8] {
    match col {
        Column::Int(v) => v[local].to_le_bytes(),
        Column::Float(v) => v[local].to_bits().to_le_bytes(),
        // Unreachable: `keys_spillable` rejected Str keys at plan time.
        Column::Str(_) => [0u8; 8],
    }
}

/// Streams `rel`'s key columns twice: a histogram pass sizes every
/// partition exactly, then a write pass appends each row's key values and
/// original rid to its partition's runs. Writes go directly to the segment
/// store ([`FixedRunWriter`]), so partitioning never evicts the pool's
/// working set. Returns one relation per partition: the key columns plus
/// `__grace_rid`, in ascending original rid.
fn partition_side(
    rel: &PagedRelation,
    keys: &[String],
    partitions: usize,
    chunk_rows: usize,
    side: &str,
) -> Result<Vec<PagedRelation>> {
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| {
            rel.schema()
                .index_of(k)
                .ok_or_else(|| StorageError::UnknownColumn {
                    relation: rel.name().to_string(),
                    column: k.clone(),
                })
        })
        .collect::<std::result::Result<_, _>>()?;
    let key_fields: Vec<Field> = key_idx
        .iter()
        .map(|&i| rel.schema().field(i).clone())
        .collect();

    // Pass 1: per-partition row counts.
    let mut hist = vec![0usize; partitions];
    for (cs, ce) in chunk_bounds(rel.len(), chunk_rows) {
        let chunk = rel.chunk_of(cs, ce, &key_idx)?;
        let extractor = KeyExtractor::new(&chunk, keys)?;
        for local in 0..chunk.len() {
            hist[partition_of(&extractor.key(local), partitions)] += 1;
        }
    }

    // Pass 2: exact-capacity runs (one per key column plus the rid carry),
    // filled in scan order so partition-local order is ascending rid.
    let pool = rel.pool();
    let mut writers: Vec<Vec<FixedRunWriter>> = hist
        .iter()
        .map(|&rows| {
            (0..=key_idx.len())
                .map(|_| FixedRunWriter::new(pool, rows))
                .collect()
        })
        .collect();
    for (cs, ce) in chunk_bounds(rel.len(), chunk_rows) {
        // The key columns in key order: column `ci` feeds run `ci`.
        let chunk = rel.chunk_of(cs, ce, &key_idx)?;
        let extractor = KeyExtractor::new(&chunk, keys)?;
        for local in 0..chunk.len() {
            let p = partition_of(&extractor.key(local), partitions);
            let runs = &mut writers[p];
            for (ci, col) in chunk.columns().iter().enumerate() {
                runs[ci].push(raw8(col, local))?;
            }
            let rid = (cs + local) as u64;
            runs[key_idx.len()].push(rid.to_le_bytes())?;
        }
    }

    let mut fields = key_fields;
    fields.push(Field::new(GRACE_RID_COL, DataType::Int));
    let mut parts = Vec::with_capacity(partitions);
    for (p, runs) in writers.into_iter().enumerate() {
        let mut firsts: Vec<PageId> = Vec::with_capacity(runs.len());
        for w in runs {
            let (first, rows) = w.finish()?;
            if rows != hist[p] {
                return Err(StorageError::Pager(format!(
                    "grace partition {p} wrote {rows} rows, histogram said {}",
                    hist[p]
                ))
                .into());
            }
            firsts.push(first);
        }
        parts.push(PagedRelation::from_fixed_runs(
            format!("grace[{side}{p}]({})", rel.name()),
            Schema::new(fields.clone())?,
            &firsts,
            hist[p],
            pool,
        )?);
    }
    Ok(parts)
}

/// The original rids a partition chunk carries in its last column.
fn carried_rids(chunk: &Relation) -> &[i64] {
    chunk.columns().last().map_or(&[], |c| c.as_int())
}

/// Grace-hash join over paged relations: partition both sides by join key,
/// join partition pairs resident-at-a-time, and merge the per-partition
/// outputs back into the resident operator's probe order. Rid-for-rid
/// equivalent to [`super::paged_hash_join`]'s resident path (and so to
/// [`crate::ops::join::hash_join`]) for every capture mode, down to a
/// one-frame pool.
pub fn paged_grace_hash_join(
    left: &PagedRelation,
    right: &PagedRelation,
    left_keys: &[String],
    right_keys: &[String],
    opts: &JoinOptions,
    chunk_rows: usize,
    partitions: usize,
) -> Result<JoinResult> {
    fn run<K: for<'a> JoinKey<'a>>(
        left: &PagedRelation,
        right: &PagedRelation,
        (left_keys, right_keys): (&[String], &[String]),
        opts: &JoinOptions,
        (chunk_rows, partitions): (usize, usize),
    ) -> Result<JoinResult> {
        let start = Instant::now();
        let build_parts = partition_side(left, left_keys, partitions, chunk_rows, "l")?;
        let probe_parts = partition_side(right, right_keys, partitions, chunk_rows, "r")?;

        // Join partition pairs, one resident hash table at a time. Partition
        // rows arrive in ascending original rid, so per-key build order and
        // per-partition probe order both match the resident operator's.
        let runs_only = JoinOptions::baseline();
        let mut pk_fk = true;
        let mut pairs: Vec<(Vec<Rid>, Vec<Rid>)> = Vec::with_capacity(partitions);
        for (build_part, probe_part) in build_parts.iter().zip(&probe_parts) {
            // A partition holds only keys and carried rids: read it whole.
            let (build_cols, probe_cols) = (all_columns(build_part), all_columns(probe_part));
            let mut build = JoinBuild::<K>::new(build_part.len());
            scan_chunks(build_part, &build_cols, chunk_rows, |chunk, _| {
                let rids = carried_rids(chunk);
                build.ingest(chunk, left_keys, 0..chunk.len(), |i| rids[i] as Rid)
            })?;
            pk_fk &= build.pk_fk;
            let mut probe = JoinProbe::new(&runs_only, &build, probe_part.len());
            scan_chunks(probe_part, &probe_cols, chunk_rows, |chunk, _| {
                let rids = carried_rids(chunk);
                probe.ingest(&build, chunk, right_keys, 0..chunk.len(), |i| {
                    rids[i] as Rid
                })
            })?;
            pairs.push(probe.into_runs());
        }

        // Merge phase: every right rid lives in exactly one partition and
        // each partition's pairs are grouped by ascending right rid, so a
        // P-way merge by right rid replays the resident probe sequence
        // exactly.
        let total: usize = pairs.iter().map(|(l, _)| l.len()).sum();
        let mut runs = JoinRuns {
            out_left: Vec::with_capacity(total),
            out_right: Vec::with_capacity(total),
            pk_fk,
            grace_partitions: partitions,
        };
        let mut cursors = vec![0usize; partitions];
        let mut heap: BinaryHeap<Reverse<(Rid, usize)>> = (pairs.iter().enumerate())
            .filter_map(|(p, (_, rights))| rights.first().map(|&r| Reverse((r, p))))
            .collect();
        while let Some(Reverse((r, p))) = heap.pop() {
            let (lefts, rights) = &pairs[p];
            let mut c = cursors[p];
            while c < rights.len() && rights[c] == r {
                runs.out_left.push(lefts[c]);
                runs.out_right.push(r);
                c += 1;
            }
            cursors[p] = c;
            if c < rights.len() {
                heap.push(Reverse((rights[c], p)));
            }
        }
        drop(pairs);

        // The output gathers from the ORIGINAL paged inputs — the partitions
        // carry only keys and rids — and lineage takes the representations
        // the resident path picks per capture mode.
        finish_from_runs(opts, left, right, runs, start)
    }

    // Surface schema errors before any partition I/O, like the resident path.
    let (lprobe, rprobe) = (left.chunk(0, 0)?, right.chunk(0, 0)?);
    let left_extract = KeyExtractor::new(&lprobe, left_keys)?;
    let right_extract = KeyExtractor::new(&rprobe, right_keys)?;
    with_join_key!(
        [i64, (i64, i64)],
        &left_extract,
        &right_extract,
        run(
            left,
            right,
            (left_keys, right_keys),
            opts,
            (align_chunk(chunk_rows), partitions.max(2))
        )
    )
}
