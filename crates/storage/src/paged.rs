//! Paged columnar storage: relations spilled to a [`BufferPool`]-backed
//! segment store.
//!
//! A [`PagedRelation`] keeps every column out of core. Numeric columns
//! (`Int`, `Float`) are each a contiguous run of [`PAGE_SIZE`]-byte pages
//! holding [`ROWS_PER_PAGE`] fixed-width 8-byte little-endian values. `Str`
//! columns spill as *two* runs — an offsets run of `len + 1` u64 prefix
//! sums (laid out exactly like a numeric column) and a bytes run of the
//! concatenated UTF-8 payloads — so text tables obey `set_memory_budget`
//! instead of silently staying resident.
//!
//! Execution over a paged relation is *chunked*: operators materialize
//! page-aligned row ranges ([`PagedRelation::chunk`]) into transient
//! in-memory [`Relation`]s and run the existing vectorized `*_range`
//! kernels over them. A chunk materialization pins at most one page at a
//! time per column, so any pool budget — including a single page — can
//! execute any query; smaller budgets just evict harder. Trace-time row
//! fetches use [`PagedRelation::gather`], which pins only the pages the
//! requested rids actually touch — this is what makes partition pruning
//! skip physical reads, not just rid scans.
//!
//! `ROWS_PER_PAGE` (1024) is a multiple of the 64-row morsel alignment, so
//! chunk boundaries are always valid morsel boundaries.

use std::sync::Arc;

use smoke_pager::{BufferPool, PageId, PagerError, PAGE_SIZE};

use crate::{Column, DataType, Relation, Result, Rid, Schema, StorageError};

/// Fixed-width 8-byte values stored per page.
pub const ROWS_PER_PAGE: usize = PAGE_SIZE / 8;

/// Default number of rows an operator materializes per chunk (64 pages per
/// numeric column).
pub const DEFAULT_CHUNK_ROWS: usize = 64 * ROWS_PER_PAGE;

impl From<PagerError> for StorageError {
    fn from(err: PagerError) -> Self {
        StorageError::Pager(err.to_string())
    }
}

/// One column of a paged relation: a fixed-width page run, or a pair of
/// runs for variable-width strings.
#[derive(Debug, Clone)]
enum PagedSlot {
    /// `Int` or `Float` values as fixed-width 8-byte LE pages starting at
    /// `first_page` (the data type lives in the schema).
    Fixed {
        /// First page of this column's contiguous run.
        first_page: PageId,
    },
    /// A `Str` column as an offsets run (`len + 1` u64 prefix sums into the
    /// payload stream, fixed-width layout) plus a bytes run of the
    /// concatenated UTF-8 payloads.
    Var {
        /// First page of the offsets run.
        offsets_first_page: PageId,
        /// First page of the payload-bytes run.
        bytes_first_page: PageId,
        /// Pages in the offsets run.
        offsets_pages: u32,
        /// Pages in the payload run.
        bytes_pages: u32,
    },
}

/// A relation whose columns — numeric and `Str` alike — live in a
/// [`BufferPool`]-backed segment store rather than RAM.
#[derive(Debug, Clone)]
pub struct PagedRelation {
    name: String,
    schema: Schema,
    slots: Vec<PagedSlot>,
    len: usize,
    pool: Arc<BufferPool>,
}

impl PagedRelation {
    /// Spills `relation` into `pool`'s segment store. Every column is
    /// written page-by-page directly to the store (bypassing the pool so a
    /// bulk load cannot evict a working set); `Str` columns become an
    /// offsets run plus a payload-bytes run.
    pub fn spill(relation: &Relation, pool: &Arc<BufferPool>) -> Result<PagedRelation> {
        let len = relation.len();
        let pages_per_col = len.div_ceil(ROWS_PER_PAGE) as u32;
        let mut slots = Vec::with_capacity(relation.columns().len());
        let mut buf = vec![0u8; PAGE_SIZE];
        for column in relation.columns() {
            let slot = match column {
                Column::Int(values) => {
                    let first_page = pool.allocate(pages_per_col);
                    write_fixed(
                        pool,
                        first_page,
                        &mut buf,
                        values.iter().map(|v| v.to_le_bytes()),
                    )?;
                    PagedSlot::Fixed { first_page }
                }
                Column::Float(values) => {
                    let first_page = pool.allocate(pages_per_col);
                    write_fixed(
                        pool,
                        first_page,
                        &mut buf,
                        values.iter().map(|v| v.to_le_bytes()),
                    )?;
                    PagedSlot::Fixed { first_page }
                }
                Column::Str(values) => {
                    let mut offsets: Vec<u64> = Vec::with_capacity(len + 1);
                    let mut acc = 0u64;
                    offsets.push(0);
                    for s in values {
                        acc += s.len() as u64;
                        offsets.push(acc);
                    }
                    let offsets_pages = offsets.len().div_ceil(ROWS_PER_PAGE) as u32;
                    let bytes_pages = (acc as usize).div_ceil(PAGE_SIZE) as u32;
                    let offsets_first_page = pool.allocate(offsets_pages);
                    let bytes_first_page = pool.allocate(bytes_pages);
                    write_fixed(
                        pool,
                        offsets_first_page,
                        &mut buf,
                        offsets.iter().map(|v| v.to_le_bytes()),
                    )?;
                    write_bytes_run(
                        pool,
                        bytes_first_page,
                        &mut buf,
                        values.iter().map(|s| s.as_bytes()),
                    )?;
                    PagedSlot::Var {
                        offsets_first_page,
                        bytes_first_page,
                        offsets_pages,
                        bytes_pages,
                    }
                }
            };
            slots.push(slot);
        }
        Ok(PagedRelation {
            name: relation.name().to_string(),
            schema: relation.schema().clone(),
            slots,
            len,
            pool: Arc::clone(pool),
        })
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer pool this relation reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Number of paged (numeric) columns.
    pub fn paged_columns(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, PagedSlot::Fixed { .. }))
            .count()
    }

    /// Pages each paged column occupies.
    pub fn pages_per_column(&self) -> u32 {
        self.len.div_ceil(ROWS_PER_PAGE) as u32
    }

    /// Total pages across all columns — the relation's on-disk footprint
    /// in pages (the planner's full-scan I/O estimate). Includes string
    /// columns' offsets and payload runs.
    pub fn total_pages(&self) -> u32 {
        let fixed = self.pages_per_column() * self.paged_columns() as u32;
        let var: u32 = self
            .slots
            .iter()
            .map(|s| match s {
                PagedSlot::Var {
                    offsets_pages,
                    bytes_pages,
                    ..
                } => offsets_pages + bytes_pages,
                PagedSlot::Fixed { .. } => 0,
            })
            .sum();
        fixed + var
    }

    /// Wraps already-written fixed-width page runs (one per column of
    /// `schema`, all `Int` or `Float`) as a paged relation of `len` rows.
    /// The grace-hash join uses this to view its spilled partitions as
    /// relations without copying them back through RAM.
    pub fn from_fixed_runs(
        name: impl Into<String>,
        schema: Schema,
        first_pages: &[PageId],
        len: usize,
        pool: &Arc<BufferPool>,
    ) -> Result<PagedRelation> {
        let name = name.into();
        if first_pages.len() != schema.fields().len() {
            return Err(StorageError::Pager(format!(
                "`{name}`: {} page runs for {} schema fields",
                first_pages.len(),
                schema.fields().len()
            )));
        }
        for (i, field) in schema.fields().iter().enumerate() {
            if field.data_type == DataType::Str {
                return Err(StorageError::Pager(format!(
                    "`{name}`: field #{i} is Str; fixed runs hold only numeric columns"
                )));
            }
        }
        Ok(PagedRelation {
            slots: first_pages
                .iter()
                .map(|&first_page| PagedSlot::Fixed { first_page })
                .collect(),
            name,
            schema,
            len,
            pool: Arc::clone(pool),
        })
    }

    /// Does nothing: the pool has no prefetcher. Kept only because the
    /// frozen benchmark's trace path calls it (ROADMAP 11(g)).
    pub fn prefetch_rids(&self, _rids: &[Rid]) {}

    /// Materializes rows `[start, end)` of every column as a transient
    /// in-memory [`Relation`] (named like the source so column lookups and
    /// key extraction behave identically). Pins at most one page at a time.
    pub fn chunk(&self, start: usize, end: usize) -> Result<Relation> {
        let columns: Result<Vec<Column>> = (0..self.slots.len())
            .map(|c| self.decode_range(c, start, end))
            .collect();
        Relation::from_columns(self.name.clone(), self.schema.clone(), columns?)
    }

    /// Materializes rows `[start, end)` of one column. For paged columns
    /// this pins each covering page once; resident columns are sliced.
    pub fn decode_range(&self, col: usize, start: usize, end: usize) -> Result<Column> {
        let end = end.min(self.len);
        let start = start.min(end);
        let slot = self
            .slots
            .get(col)
            .ok_or_else(|| StorageError::UnknownColumn {
                column: format!("#{col}"),
                relation: self.name.clone(),
            })?;
        let dtype = self.schema.field(col).data_type;
        match slot {
            PagedSlot::Fixed { first_page } => match dtype {
                DataType::Int => {
                    let mut out: Vec<i64> = Vec::with_capacity(end - start);
                    self.scan_fixed(*first_page, start, end, |bytes| {
                        out.push(i64::from_le_bytes(bytes));
                    })?;
                    Ok(Column::Int(out))
                }
                DataType::Float => {
                    let mut out: Vec<f64> = Vec::with_capacity(end - start);
                    self.scan_fixed(*first_page, start, end, |bytes| {
                        out.push(f64::from_le_bytes(bytes));
                    })?;
                    Ok(Column::Float(out))
                }
                DataType::Str => Err(StorageError::Pager(format!(
                    "string column #{col} of `{}` stored in a fixed-width run",
                    self.name
                ))),
            },
            PagedSlot::Var {
                offsets_first_page,
                bytes_first_page,
                ..
            } => {
                if start == end {
                    return Ok(Column::Str(Vec::new()));
                }
                // Rows [start, end) need offsets [start, end] inclusive.
                let mut offs: Vec<u64> = Vec::with_capacity(end - start + 1);
                self.scan_fixed(*offsets_first_page, start, end + 1, |bytes| {
                    offs.push(u64::from_le_bytes(bytes));
                })?;
                self.decode_strings(*bytes_first_page, &offs)
            }
        }
    }

    /// Decodes the strings delimited by the prefix sums in `offs` from the
    /// payload run at `bytes_first_page`.
    fn decode_strings(&self, bytes_first_page: PageId, offs: &[u64]) -> Result<Column> {
        let (Some(&lo), Some(&hi)) = (offs.first(), offs.last()) else {
            return Ok(Column::Str(Vec::new()));
        };
        if hi < lo {
            return Err(StorageError::Pager(format!(
                "corrupt string offsets in `{}`: {hi} < {lo}",
                self.name
            )));
        }
        let mut bytes = vec![0u8; (hi - lo) as usize];
        self.read_bytes_range(bytes_first_page, lo, &mut bytes)?;
        let mut out: Vec<String> = Vec::with_capacity(offs.len().saturating_sub(1));
        for w in offs.windows(2) {
            let (a, b) = ((w[0] - lo) as usize, (w[1] - lo) as usize);
            let s = std::str::from_utf8(&bytes[a..b]).map_err(|e| {
                StorageError::Pager(format!(
                    "invalid UTF-8 in paged string column of `{}`: {e}",
                    self.name
                ))
            })?;
            out.push(s.to_string());
        }
        Ok(Column::Str(out))
    }

    /// Copies payload bytes `[start_byte, start_byte + out.len())` from the
    /// run at `first_page` into `out`, pinning one page at a time (so a
    /// single-frame budget still works, and strings may span pages).
    fn read_bytes_range(&self, first_page: PageId, start_byte: u64, out: &mut [u8]) -> Result<()> {
        let mut pos = 0usize;
        while pos < out.len() {
            let abs = start_byte as usize + pos;
            let page_no = abs / PAGE_SIZE;
            let lo = abs % PAGE_SIZE;
            let take = (PAGE_SIZE - lo).min(out.len() - pos);
            let guard = self.pool.pin(PageId(first_page.0 + page_no as u32))?;
            out[pos..pos + take].copy_from_slice(&guard[lo..lo + take]);
            pos += take;
        }
        Ok(())
    }

    /// Streams the 8-byte values of rows `[start, end)` from the page run
    /// starting at `first_page`, pinning each covering page exactly once.
    fn scan_fixed(
        &self,
        first_page: PageId,
        start: usize,
        end: usize,
        mut emit: impl FnMut([u8; 8]),
    ) -> Result<()> {
        let mut rid = start;
        while rid < end {
            let page_no = rid / ROWS_PER_PAGE;
            let page_end = ((page_no + 1) * ROWS_PER_PAGE).min(end);
            let guard = self.pool.pin(PageId(first_page.0 + page_no as u32))?;
            let lo = (rid % ROWS_PER_PAGE) * 8;
            let hi = lo + (page_end - rid) * 8;
            for bytes in guard[lo..hi].chunks_exact(8) {
                emit(bytes.try_into().expect("chunks_exact yields 8-byte slices"));
            }
            rid = page_end;
        }
        Ok(())
    }

    /// Materializes the rows named by `rids` (in order, duplicates allowed)
    /// as an in-memory relation — the paged twin of [`Relation::gather`].
    /// Only the pages containing requested rids are pinned; a run of rids on
    /// one page reuses a single pin. Near-sorted rid lists (the common shape
    /// of lineage results) therefore touch each page once.
    pub fn gather(&self, rids: &[Rid], name: impl Into<String>) -> Result<Relation> {
        let mut columns = Vec::with_capacity(self.slots.len());
        for (c, slot) in self.slots.iter().enumerate() {
            let column = match slot {
                PagedSlot::Fixed { first_page } => match self.schema.field(c).data_type {
                    DataType::Int => {
                        let mut out: Vec<i64> = Vec::with_capacity(rids.len());
                        self.gather_fixed(*first_page, rids, |bytes| {
                            out.push(i64::from_le_bytes(bytes));
                        })?;
                        Column::Int(out)
                    }
                    DataType::Float => {
                        let mut out: Vec<f64> = Vec::with_capacity(rids.len());
                        self.gather_fixed(*first_page, rids, |bytes| {
                            out.push(f64::from_le_bytes(bytes));
                        })?;
                        Column::Float(out)
                    }
                    DataType::Str => {
                        return Err(StorageError::Pager(format!(
                            "string column #{c} of `{}` stored in a fixed-width run",
                            self.name
                        )))
                    }
                },
                PagedSlot::Var {
                    offsets_first_page,
                    bytes_first_page,
                    ..
                } => Column::Str(self.gather_var(*offsets_first_page, *bytes_first_page, rids)?),
            };
            columns.push(column);
        }
        Relation::from_columns(name, self.schema.clone(), columns)
    }

    /// Gathers string payloads for `rids`: first the `(start, end)` offset
    /// pair per rid (page-cached over the offsets run), then the payload
    /// bytes. At most one page pin is held at any moment.
    fn gather_var(
        &self,
        offsets_first_page: PageId,
        bytes_first_page: PageId,
        rids: &[Rid],
    ) -> Result<Vec<String>> {
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(rids.len());
        {
            let mut current: Option<(usize, smoke_pager::PageGuard<'_>)> = None;
            for &rid in rids {
                let rid = rid as usize;
                if rid >= self.len {
                    return Err(StorageError::Pager(format!(
                        "rid {rid} out of bounds for `{}` (len {})",
                        self.name, self.len
                    )));
                }
                let a = self.read_offset(offsets_first_page, &mut current, rid)?;
                let b = self.read_offset(offsets_first_page, &mut current, rid + 1)?;
                if b < a {
                    return Err(StorageError::Pager(format!(
                        "corrupt string offsets in `{}`: {b} < {a}",
                        self.name
                    )));
                }
                pairs.push((a, b));
            }
            // The offsets pin drops here, before any payload page is pinned.
        }
        let mut out: Vec<String> = Vec::with_capacity(rids.len());
        for &(a, b) in &pairs {
            let mut bytes = vec![0u8; (b - a) as usize];
            self.read_bytes_range(bytes_first_page, a, &mut bytes)?;
            let s = String::from_utf8(bytes).map_err(|e| {
                StorageError::Pager(format!(
                    "invalid UTF-8 in paged string column of `{}`: {e}",
                    self.name
                ))
            })?;
            out.push(s);
        }
        Ok(out)
    }

    /// Reads one u64 from the offsets run, reusing `current`'s pin when the
    /// index lands on the already-pinned page.
    fn read_offset<'p>(
        &'p self,
        first_page: PageId,
        current: &mut Option<(usize, smoke_pager::PageGuard<'p>)>,
        idx: usize,
    ) -> Result<u64> {
        let page_no = idx / ROWS_PER_PAGE;
        if !matches!(current, Some((p, _)) if *p == page_no) {
            drop(current.take());
            let g = self.pool.pin(PageId(first_page.0 + page_no as u32))?;
            *current = Some((page_no, g));
        }
        let Some((_, guard)) = current else {
            return Err(StorageError::Pager("offset page pin lost".into()));
        };
        let lo = (idx % ROWS_PER_PAGE) * 8;
        Ok(u64::from_le_bytes(
            guard[lo..lo + 8]
                .try_into()
                .expect("8-byte slice within a page"),
        ))
    }

    /// Fetches the 8-byte value of each rid in `rids`, keeping the current
    /// page pinned across consecutive rids that land on it.
    fn gather_fixed(
        &self,
        first_page: PageId,
        rids: &[Rid],
        mut emit: impl FnMut([u8; 8]),
    ) -> Result<()> {
        let mut i = 0usize;
        while let Some(&rid0) = rids.get(i) {
            let rid0 = rid0 as usize;
            if rid0 >= self.len {
                return Err(StorageError::Pager(format!(
                    "rid {rid0} out of bounds for `{}` (len {})",
                    self.name, self.len
                )));
            }
            let page_no = rid0 / ROWS_PER_PAGE;
            let page_base = page_no * ROWS_PER_PAGE;
            // One pin serves every following rid on the same page; the
            // guard drops before the next pin, so a budget of a single
            // frame can always make progress. The inner loop stays on the
            // borrowed page slice — no per-rid pin bookkeeping.
            let guard = self.pool.pin(PageId(first_page.0 + page_no as u32))?;
            let page: &[u8] = &guard;
            while let Some(&rid) = rids.get(i) {
                let rid = rid as usize;
                if rid < page_base || rid >= page_base + ROWS_PER_PAGE {
                    break;
                }
                if rid >= self.len {
                    return Err(StorageError::Pager(format!(
                        "rid {rid} out of bounds for `{}` (len {})",
                        self.name, self.len
                    )));
                }
                let lo = (rid - page_base) * 8;
                match page.get(lo..lo + 8).map(TryInto::try_into) {
                    Some(Ok(bytes)) => emit(bytes),
                    _ => {
                        return Err(StorageError::Pager(format!(
                            "value bytes of rid {rid} out of page bounds in `{}`",
                            self.name
                        )))
                    }
                }
                i += 1;
            }
        }
        Ok(())
    }

    /// The distinct pages of one paged column that `rids` touch. Used by
    /// tests and benches to assert pruning reads strictly fewer pages.
    pub fn pages_touched(&self, rids: &[Rid]) -> usize {
        let mut pages: Vec<usize> = rids.iter().map(|&r| r as usize / ROWS_PER_PAGE).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len()
    }

    /// Fraction of this relation's data pages currently resident in the
    /// buffer pool, in `[0, 1]`. The planner's I/O cost term uses this to
    /// discount reads that a warm pool already absorbed. A relation with no
    /// pages at all (zero rows) reports `0.0`.
    pub fn resident_fraction(&self) -> f64 {
        let per_col = self.pages_per_column();
        let mut pages: Vec<PageId> = Vec::new();
        for slot in &self.slots {
            match slot {
                PagedSlot::Fixed { first_page } => {
                    pages.extend((0..per_col).map(|p| PageId(first_page.0 + p)));
                }
                PagedSlot::Var {
                    offsets_first_page,
                    bytes_first_page,
                    offsets_pages,
                    bytes_pages,
                    ..
                } => {
                    pages.extend((0..*offsets_pages).map(|p| PageId(offsets_first_page.0 + p)));
                    pages.extend((0..*bytes_pages).map(|p| PageId(bytes_first_page.0 + p)));
                }
            }
        }
        self.pool.resident_fraction(&pages)
    }

    /// Reads the whole relation back into RAM (the inverse of
    /// [`PagedRelation::spill`]).
    pub fn materialize(&self) -> Result<Relation> {
        self.chunk(0, self.len)
    }

    /// Approximate resident heap footprint: slot metadata only — every
    /// column's bytes live in the segment store and are bounded by the
    /// pool budget, not counted here.
    pub fn heap_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<PagedSlot>()
    }
}

/// Streaming writer for one fixed-width 8-byte-value page run, writing full
/// pages directly to the store (no pool residency, so a bulk spill cannot
/// evict a working set). The grace-hash join uses one per spilled partition
/// column; the run is sized up front from the partition histogram.
pub struct FixedRunWriter {
    pool: Arc<BufferPool>,
    first_page: PageId,
    capacity: usize,
    page: u32,
    buf: Vec<u8>,
    filled: usize,
    rows: usize,
}

impl FixedRunWriter {
    /// Allocates a run sized for exactly `capacity_rows` values.
    pub fn new(pool: &Arc<BufferPool>, capacity_rows: usize) -> FixedRunWriter {
        let pages = capacity_rows.div_ceil(ROWS_PER_PAGE) as u32;
        FixedRunWriter {
            pool: Arc::clone(pool),
            first_page: pool.allocate(pages),
            capacity: capacity_rows,
            page: 0,
            buf: vec![0u8; PAGE_SIZE],
            filled: 0,
            rows: 0,
        }
    }

    /// First page of the run.
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    /// Values appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one 8-byte value; errors once `capacity_rows` values have
    /// been written (more would stomp pages allocated to someone else, and
    /// an over-full partition means the histogram pass miscounted).
    pub fn push(&mut self, value: [u8; 8]) -> Result<()> {
        if self.rows >= self.capacity {
            return Err(StorageError::Pager(format!(
                "fixed-run writer overflow: run sized for {} rows is full",
                self.capacity
            )));
        }
        self.buf[self.filled..self.filled + 8].copy_from_slice(&value);
        self.filled += 8;
        self.rows += 1;
        if self.filled == PAGE_SIZE {
            self.pool
                .store()
                .write_page(PageId(self.first_page.0 + self.page), &self.buf)?;
            self.page += 1;
            self.filled = 0;
        }
        Ok(())
    }

    /// Flushes the trailing partial page and returns `(first_page, rows)`.
    pub fn finish(mut self) -> Result<(PageId, usize)> {
        if self.filled > 0 {
            self.buf[self.filled..].fill(0);
            self.pool
                .store()
                .write_page(PageId(self.first_page.0 + self.page), &self.buf)?;
            self.filled = 0;
        }
        Ok((self.first_page, self.rows))
    }
}

impl std::fmt::Debug for FixedRunWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedRunWriter")
            .field("first_page", &self.first_page)
            .field("rows", &self.rows)
            .finish()
    }
}

/// Writes an iterator of fixed-width 8-byte values as a page run starting at
/// `first_page`, directly to the store (no pool residency).
fn write_fixed(
    pool: &BufferPool,
    first_page: PageId,
    buf: &mut [u8],
    values: impl Iterator<Item = [u8; 8]>,
) -> Result<()> {
    let mut page = 0u32;
    let mut filled = 0usize;
    for value in values {
        buf[filled..filled + 8].copy_from_slice(&value);
        filled += 8;
        if filled == PAGE_SIZE {
            pool.store().write_page(PageId(first_page.0 + page), buf)?;
            page += 1;
            filled = 0;
        }
    }
    if filled > 0 {
        buf[filled..].fill(0);
        pool.store().write_page(PageId(first_page.0 + page), buf)?;
    }
    Ok(())
}

/// Writes an iterator of byte slices as one concatenated page run starting
/// at `first_page`, directly to the store (no pool residency).
fn write_bytes_run<'a>(
    pool: &BufferPool,
    first_page: PageId,
    buf: &mut [u8],
    chunks: impl Iterator<Item = &'a [u8]>,
) -> Result<()> {
    let mut page = 0u32;
    let mut filled = 0usize;
    for mut chunk in chunks {
        while !chunk.is_empty() {
            let take = chunk.len().min(PAGE_SIZE - filled);
            buf[filled..filled + take].copy_from_slice(&chunk[..take]);
            filled += take;
            chunk = &chunk[take..];
            if filled == PAGE_SIZE {
                pool.store().write_page(PageId(first_page.0 + page), buf)?;
                page += 1;
                filled = 0;
            }
        }
    }
    if filled > 0 {
        buf[filled..].fill(0);
        pool.store().write_page(PageId(first_page.0 + page), buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use smoke_pager::{ReplacementPolicy, SegmentStore};

    fn test_pool(budget: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(
            SegmentStore::in_memory(),
            budget,
            ReplacementPolicy::Sieve,
        ))
    }

    fn sample(rows: usize) -> Relation {
        let mut b = Relation::builder("t")
            .column("id", DataType::Int)
            .column("v", DataType::Float)
            .column("tag", DataType::Str);
        for i in 0..rows {
            b = b.row(vec![
                Value::Int(i as i64),
                Value::Float(i as f64 * 0.5),
                Value::Str(format!("tag{}", i % 3)),
            ]);
        }
        b.build().unwrap()
    }

    #[test]
    fn spill_and_materialize_round_trip() {
        // 2500 rows spans 3 pages per numeric column; the string column
        // adds 3 offsets pages (2501 × u64) and 2 payload pages (10000
        // bytes of "tagN").
        let rel = sample(2500);
        let pool = test_pool(2);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        assert_eq!(paged.len(), 2500);
        assert_eq!(paged.pages_per_column(), 3);
        assert_eq!(paged.paged_columns(), 2);
        assert_eq!(paged.total_pages(), 11);
        // Nothing stays resident: text spilled too.
        assert!(paged.heap_bytes() < 1024);
        let back = paged.materialize().unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn chunks_cross_page_boundaries() {
        let rel = sample(2500);
        let pool = test_pool(1); // budget of one page still executes
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        let chunk = paged.chunk(1000, 1100).unwrap();
        assert_eq!(chunk.len(), 100);
        assert_eq!(chunk.value(0, 0), Value::Int(1000));
        assert_eq!(chunk.value(99, 1), Value::Float(1099.0 * 0.5));
        assert_eq!(chunk.value(50, 2), Value::Str("tag0".into()));
        // End is clamped to the relation length.
        assert_eq!(paged.chunk(2400, 9999).unwrap().len(), 100);
    }

    #[test]
    fn gather_matches_in_memory_gather() {
        let rel = sample(2500);
        let pool = test_pool(2);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        let rids: Vec<Rid> = vec![0, 7, 7, 1023, 1024, 2499];
        let expect = rel.gather(&rids, "g");
        let got = paged.gather(&rids, "g").unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn gather_touches_only_needed_pages() {
        let rel = sample(4096); // 4 pages per numeric column
        let pool = test_pool(8);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        pool.reset_stats();
        // All rids on one page: 2 numeric columns → 2 page reads, plus one
        // offsets page and one payload page for the spilled string column.
        paged.gather(&[2048, 2049, 2050], "g").unwrap();
        assert_eq!(pool.stats().disk_reads, 4);
        assert_eq!(paged.pages_touched(&[2048, 2049, 2050]), 1);
        assert_eq!(paged.pages_touched(&[0, 1024, 2048, 3072]), 4);
    }

    #[test]
    fn out_of_bounds_gather_is_a_typed_error() {
        let rel = sample(10);
        let pool = test_pool(2);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        assert!(matches!(
            paged.gather(&[99], "g"),
            Err(StorageError::Pager(_))
        ));
    }

    #[test]
    fn float_bits_survive_the_round_trip() {
        let mut b = Relation::builder("f").column("v", DataType::Float);
        for v in [0.0, -0.0, f64::MIN, f64::MAX, f64::NAN, 1e-300] {
            b = b.row(vec![Value::Float(v)]);
        }
        let rel = b.build().unwrap();
        let pool = test_pool(1);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        let back = paged.materialize().unwrap();
        let bits: Vec<u64> = back
            .column(0)
            .as_float()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let expect: Vec<u64> = rel
            .column(0)
            .as_float()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(bits, expect);
    }

    #[test]
    fn strings_spanning_pages_round_trip_on_one_frame() {
        // A few strings larger than a page force the payload reader to
        // stitch across page boundaries; a one-frame budget proves no two
        // pins are ever held at once.
        let mut b = Relation::builder("big").column("s", DataType::Str);
        let long = "x".repeat(PAGE_SIZE + 123);
        for i in 0..5 {
            b = b.row(vec![Value::Str(if i % 2 == 0 {
                long.clone()
            } else {
                format!("short-{i}")
            })]);
        }
        b = b.row(vec![Value::Str(String::new())]); // empty string edge
        let rel = b.build().unwrap();
        let pool = test_pool(1);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        assert_eq!(paged.materialize().unwrap(), rel);
        let got = paged.gather(&[5, 0, 3, 0], "g").unwrap();
        assert_eq!(got, rel.gather(&[5, 0, 3, 0], "g"));
    }

    #[test]
    fn fixed_run_writer_round_trips_and_caps() {
        let pool = test_pool(2);
        let rows = ROWS_PER_PAGE + 7; // spans two pages, second partial
        let mut w = FixedRunWriter::new(&pool, rows);
        for i in 0..rows {
            w.push((i as i64).to_le_bytes()).unwrap();
        }
        assert_eq!(w.rows(), rows);
        // Capacity is a hard cap.
        assert!(matches!(
            w.push(0i64.to_le_bytes()),
            Err(StorageError::Pager(_))
        ));
        let (first, n) = w.finish().unwrap();
        assert_eq!(n, rows);
        let schema = Schema::new(vec![crate::Field::new("v", DataType::Int)]).unwrap();
        let rel = PagedRelation::from_fixed_runs("part", schema, &[first], rows, &pool).unwrap();
        let back = rel.materialize().unwrap();
        assert_eq!(back.column(0).as_int()[0], 0);
        assert_eq!(back.column(0).as_int()[rows - 1], (rows - 1) as i64);
    }

    #[test]
    fn from_fixed_runs_rejects_mismatched_schemas() {
        let pool = test_pool(1);
        let schema = Schema::new(vec![crate::Field::new("s", DataType::Str)]).unwrap();
        assert!(matches!(
            PagedRelation::from_fixed_runs("bad", schema, &[PageId(0)], 0, &pool),
            Err(StorageError::Pager(_))
        ));
        let schema = Schema::new(vec![crate::Field::new("v", DataType::Int)]).unwrap();
        assert!(matches!(
            PagedRelation::from_fixed_runs("bad", schema, &[], 0, &pool),
            Err(StorageError::Pager(_))
        ));
    }

    #[test]
    fn empty_relation_spills_to_zero_pages() {
        let rel = Relation::builder("e")
            .column("x", DataType::Int)
            .build()
            .unwrap();
        let pool = test_pool(1);
        let paged = PagedRelation::spill(&rel, &pool).unwrap();
        assert_eq!(paged.total_pages(), 0);
        assert!(paged.is_empty());
        assert_eq!(paged.materialize().unwrap().len(), 0);
    }
}
