//! `paged_budget25` — one client thread; 1 M rows × 4 numeric columns = 32 MB
//! raw behind an 8 MiB Sieve [`BufferPool`] over an in-memory segment store,
//! no prefetch workers.
//!
//! *Why:* the working set is 4× the pool, so `smoke-pager`, `storage::paged`
//! and the compressed lineage index do the work, and every other workload
//! (all resident) bypasses them. Capture scans sequentially through the pool
//! while traces gather at random: the same layer used two ways in one run.
//!
//! Why not `Database::set_memory_budget`, the production configuration
//! (file-backed temp store, two prefetch workers)? Because on a two-core
//! sandbox it measures the box, not the program. Three busy threads on two
//! shared cores made a query's latency swing ±60 %, and whether a prefetch
//! run or the demand read wins the race for a frame flipped whole windows
//! between 2.8 ms and 5.5 ms a query. The temp file brought real disk traffic
//! into the run: this kernel pages cold page-cache pages out within seconds
//! and the file system discards freed blocks, so a 25 s run wrote and
//! discarded 117 MB and whole runs came out 30–40 % apart. The driver refused
//! that benchmark (`trace_p50_ms` spread 0.14–0.25). With the store in memory
//! and one thread the same pager, paged-storage and compressed-index code runs
//! — pin, evict, decode, gather — and ten runs agree within 2 %. The
//! production configuration is still exercised, and oracle-checked, once per
//! traced run ([`production_probe`]): it yields the prefetcher's layer metrics
//! and `pager.prefetch_on_p50_ms`, to be read as the sandbox's numbers.
//!
//! (1 M rows, half of what ISSUE 14 sketched: set-up runs five times a run
//! and must fit the driver's time limit. The 4:1 ratio of data to pool is
//! what matters.)

use std::sync::Arc;
use std::time::{Duration, Instant};

use smoke_core::ops::groupby::GroupByOptions;
use smoke_core::ops::join::JoinOptions;
use smoke_core::query::consume_aggregate;
use smoke_core::{paged_group_by, paged_hash_join, AggExpr, Expr};
use smoke_lineage::{CompressedCsrIndex, LineageIndex};
use smoke_pager::{BufferPool, PageId, PoolStats, ReplacementPolicy, SegmentStore};
use smoke_planner::{IoModel, LineagePlanner, LineageQuery, Strategy};
use smoke_storage::{Database, PagedRelation, Relation, Rid, DEFAULT_CHUNK_ROWS};

use super::views::bin_rows;
use super::{
    best_secs, budget, describe_inputs, fact_columns, fact_relation, out_rids, take_lineage, timed,
    trace_phase, Res,
};
use crate::gen::{Fact, Fnv64};
use crate::harness::{
    repeat_setup, repeat_until, summarize_capture, summarize_trace, Answer, Args, CaptureItem,
    Intent, Miss, SetupClock, Verifier, Window,
};
use crate::oracle::{BinRow, Oracle};
use crate::report::{Report, J};
use crate::script::{self, Class, Item, Query, Shape};
use crate::trace::Tracer;

const ROWS: usize = 1_000_000;
const GROUPS: usize = 1_000;
const BUDGET_BYTES: usize = 8 << 20;
const CAPTURE_SHARE: f64 = 0.35;
/// Captures per fresh pool in the capture phase.
const CAPTURE_BLOCK: usize = 4;
/// 10 % wide (rank 1), 90 % Zipf ranks ≥ 200; 300 queries, so 15 samples lie
/// beyond p95. Rows are scattered, so a group of a few thousand rids already
/// touches every page of every column and costs half a wide trace whatever
/// its rank: too close to keep p95 on the wide plateau. From rank 200 down a
/// group holds ≤ 670 rids and touches at most half the pages, a fifth of the
/// wide cost or less.
const SCRIPT: [(Class, usize); 2] = [(Class::Wide, 30), (Class::Brush, 270)];
/// Windows of the script the production probe replays.
const PROBE_WINDOWS: usize = 2;
const NARROW_MIN_RANK: usize = 200;
const INTENT: Intent = Intent {
    p50: &[Class::Brush],
    p95: &[Class::Wide],
};

/// What one capture leaves behind: the view output and its backward
/// lineage, finalized and spilled into the pool as compressed blocks.
struct Captured {
    output: Relation,
    compressed: CompressedCsrIndex,
}

struct Fixture {
    paged: PagedRelation,
    captured: Captured,
    out_of_key: Vec<u32>,
    verifier: Verifier,
    spill_secs: f64,
}

impl Fixture {
    fn paged(&self) -> &PagedRelation {
        &self.paged
    }

    fn pool(&self) -> &Arc<BufferPool> {
        self.paged.pool()
    }
}

fn keys() -> [String; 1] {
    ["z".to_string()]
}

fn bin_aggs() -> [AggExpr; 2] {
    [AggExpr::count("cnt"), AggExpr::sum("v", "total")]
}

/// A fresh pool of `budget_bytes` over an in-memory segment store, no
/// prefetch workers, and `resident` spilled into it.
fn load(resident: &Relation, budget_bytes: usize) -> Res<PagedRelation> {
    let pool = Arc::new(BufferPool::new(
        SegmentStore::in_memory(),
        budget_bytes / smoke_pager::PAGE_SIZE,
        ReplacementPolicy::Sieve,
    ));
    Ok(PagedRelation::spill(resident, &pool)?)
}

/// `paged_group_by` Inject + finalize + compressed spill.
fn capture(paged: &PagedRelation, tracer: &mut Tracer, rep: u32) -> Res<Captured> {
    let mut result = tracer.span("core.paged_group_by", rep, || {
        paged_group_by(
            paged,
            &keys(),
            &[AggExpr::count("cnt")],
            &GroupByOptions::inject(),
            DEFAULT_CHUNK_ROWS,
        )
    })?;
    let lineage = tracer.span("lineage.finalize", rep, || {
        take_lineage(&mut result.lineage, 0).finalize()
    });
    let LineageIndex::Csr(csr) = lineage.backward() else {
        return Err("finalized group-by lineage is not CSR".into());
    };
    let compressed = tracer.span("lineage.compressed_spill", rep, || {
        CompressedCsrIndex::spill(csr, paged.pool())
    })?;
    tracer.count("lineage.spilled_edges", compressed.edge_count() as u64);
    Ok(Captured {
        output: result.output,
        compressed,
    })
}

/// What a set-up does once the table is spilled: the warm-up capture and the
/// warm-up window, whose replies are compared with the oracle in full.
fn warm_up(
    paged: PagedRelation,
    spill: Duration,
    clock: &mut SetupClock,
    script: &[Item],
    groups: usize,
    oracle: &Oracle<'_>,
    problems: &mut Vec<String>,
) -> Fixture {
    let captured = clock
        .segment("warmup_capture", || {
            capture(&paged, &mut Tracer::new(false), 0)
        })
        .expect("warm-up capture");
    let out_of_key = out_rids(&captured.output, "z", groups).expect("view keys");
    let mut fx = Fixture {
        paged,
        captured,
        out_of_key,
        verifier: Verifier::new(script.len()),
        spill_secs: spill.as_secs_f64(),
    };
    let mut quiet = Tracer::new(false);
    for (idx, item) in script.iter().enumerate() {
        let (result, took) = timed(|| run_query(&fx, item, &mut quiet, idx as u32));
        clock.add("warmup_trace", took);
        let Query::Backward { key } = &item.query else {
            unreachable!("paged scripts hold only backward queries");
        };
        match result {
            Ok(t) => {
                let want = oracle.backward(*key);
                let got = Answer {
                    rids: &t.rids,
                    rows: t.rows,
                };
                let want = Answer {
                    rids: want,
                    rows: Some(oracle.bins(want)),
                };
                fx.verifier.learn(idx, item, &got, &want);
            }
            Err(e) => fx.verifier.mismatches.push(format!("query {idx}: {e}")),
        }
    }
    problems.append(&mut fx.verifier.mismatches);
    fx
}

struct Traced {
    rids: Vec<Rid>,
    rows: Option<Vec<BinRow>>,
}

/// One trace: compressed lookup → prefetch hint (a no-op on a pool without
/// workers) → paged gather → aggregate by `v_bin`.
fn run_query(fx: &Fixture, item: &Item, tracer: &mut Tracer, req: u32) -> Res<Traced> {
    let Query::Backward { key } = &item.query else {
        return Err(format!("paged scripts hold no {:?}", item.query).into());
    };
    let pos = fx.out_of_key[*key as usize] as usize;
    let paged = fx.paged();
    let rids = tracer.span("lineage.compressed_lookup", req, || {
        fx.captured.compressed.lookup(pos)
    })?;
    tracer.span("storage.prefetch_rids", req, || paged.prefetch_rids(&rids));
    let gathered = tracer.span("storage.gather", req, || paged.gather(&rids, "trace"))?;
    let all: Vec<Rid> = (0..gathered.len() as Rid).collect();
    let rows = tracer.span("core.consume_aggregate", req, || {
        consume_aggregate(&gathered, &all, &["v_bin".to_string()], &bin_aggs())
    })?;
    tracer.count("bench.traced_rids", rids.len() as u64);
    Ok(Traced {
        rids,
        rows: bin_rows(Some(&rows))?,
    })
}

fn window(fx: &mut Fixture, script: &[Item], tracer: &mut Tracer) -> Window {
    let mut w = Window::default();
    for (idx, item) in script.iter().enumerate() {
        let start = Instant::now();
        tracer.enter("bench.request", idx as u32);
        let result = run_query(fx, item, tracer, idx as u32);
        tracer.exit();
        let latency = start.elapsed();
        let verdict = match result {
            Err(_) => Err(Miss::Error),
            Ok(t) => {
                if tracer.enabled() {
                    let touched = fx.paged().pages_touched(&t.rids) * fx.paged().paged_columns();
                    tracer.count("storage.pages_touched", touched as u64);
                }
                let got = Answer {
                    rids: &t.rids,
                    rows: t.rows,
                };
                if fx.verifier.check(idx, item, &got) {
                    Ok(())
                } else {
                    Err(Miss::Wrong)
                }
            }
        };
        w.record(item.class, latency, verdict);
    }
    w.close();
    w
}

fn minus(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        disk_reads: after.disk_reads - before.disk_reads,
        disk_writes: after.disk_writes - before.disk_writes,
        prefetch_loads: after.prefetch_loads - before.prefetch_loads,
        prefetch_hits: after.prefetch_hits - before.prefetch_hits,
        prefetch_wasted: after.prefetch_wasted - before.prefetch_wasted,
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Res<()> {
    let rows = args.rows(ROWS);
    let groups = args.groups(GROUPS, rows);
    // The pool keeps its 1:4 ratio to the data when the tests scale rows down.
    let budget_bytes = ((BUDGET_BYTES as f64 * rows as f64 / ROWS as f64) as usize)
        .max(8 * smoke_pager::PAGE_SIZE);
    let fact = Fact::generate(rows, groups, args.seed);
    let mut print = Fnv64::default();
    fact.fingerprint(&mut print);
    describe_inputs(report, print, rows, groups);
    report
        .env
        .push(("pool_budget_bytes".into(), J::Int(budget_bytes as i64)));
    report
        .env
        .push(("raw_bytes".into(), J::Int((rows * 4 * 8) as i64)));
    let oracle = Oracle::new(&fact);
    let script = script::build(
        &Shape {
            counts: &SCRIPT,
            groups,
            rows,
            narrow_min_rank: NARROW_MIN_RANK,
            forward_width: 1,
            regions: &[],
        },
        args.seed,
    );

    let mut problems = Vec::new();
    let mut fx = repeat_setup(report, |clock: &mut SetupClock| -> Fixture {
        let columns = fact_columns(&fact, rows);
        let (paged, spill) = timed(|| load(&fact_relation("fact", columns)?, budget_bytes));
        clock.add("load_and_spill", spill);
        let paged = paged.expect("load under a memory budget");
        warm_up(paged, spill, clock, &script, groups, &oracle, &mut problems)
    });

    // Capture phase: sequential scans through a pool. Every capture leaves
    // its compressed index behind in the segment store (pages are never
    // freed), so each block of repetitions gets a pool and a table of its
    // own: the store a repetition writes into is never more than a block old,
    // and the trace phase's fixture is as the set-up left it.
    let mut items = vec![CaptureItem::new("paged_capture", rows, true)];
    let mut block: Option<PagedRelation> = None;
    let resident = fact_relation("fact", fact_columns(&fact, rows))?;
    repeat_until(budget(args, CAPTURE_SHARE), |rep| {
        if rep % CAPTURE_BLOCK == 0 {
            drop(block.take());
            let fresh = load(&resident, budget_bytes)?;
            // The first capture on a fresh store pays for the store's growth.
            capture(&fresh, &mut Tracer::new(false), 0)?;
            fresh.pool().reset_stats();
            block = Some(fresh);
        }
        let paged = block.as_ref().expect("a block is loaded");
        let (captured, d) = timed(|| capture(paged, tracer, rep as u32));
        items[0].secs.push(d.as_secs_f64());
        captured.map(drop)
    })?;
    // The pool counters of the last block stand for the phase's.
    let pool_capture = block.map_or_else(PoolStats::default, |b| b.pool().stats());
    summarize_capture(report, &items);

    let pool_before = fx.pool().stats();
    let (windows, traced_qps) = trace_phase(budget(args, 1.0 - CAPTURE_SHARE), tracer, |t| {
        window(&mut fx, &script, t)
    });
    let traced = tracer.enabled();
    let pool_trace = minus(fx.pool().stats(), pool_before);
    let trace_queries = ((windows.len() + traced_qps.len()) * script.len()) as f64;
    problems.append(&mut fx.verifier.mismatches);
    for p in problems {
        report.problem(p);
    }
    summarize_trace(report, &windows, &INTENT);

    // The lineage the trace phase reads: compressed pages plus the resident
    // offsets, per edge.
    let compressed = &fx.captured.compressed;
    report.e2e(
        "lineage_bytes_per_edge",
        (compressed.compressed_bytes() + compressed.heap_bytes()) as f64
            / compressed.edge_count() as f64,
    );
    report.note(
        "pool_trace_phase",
        J::obj([
            ("hits", J::Int(pool_trace.hits as i64)),
            ("misses", J::Int(pool_trace.misses as i64)),
            ("evictions", J::Int(pool_trace.evictions as i64)),
            ("disk_reads", J::Int(pool_trace.disk_reads as i64)),
        ]),
    );

    if traced {
        report.layer("pager.capture_hit_frac", pool_capture.hit_rate());
        report.layer("pager.trace_hit_frac", pool_trace.hit_rate());
        report.layer(
            "pager.disk_reads_per_query",
            pool_trace.disk_reads as f64 / trace_queries,
        );
        report.layer(
            "pager.evictions_per_query",
            pool_trace.evictions as f64 / trace_queries,
        );
        layer_metrics(report, tracer, &fact, &fx, &windows, &traced_qps)?;
        production_probe(report, &fact, budget_bytes, &script, groups, &oracle)?;
    }
    Ok(())
}

/// The production configuration, once per traced run:
/// `Database::set_memory_budget` (file-backed temp store, two prefetch
/// workers), the table registered through it, a capture, an oracle-checked
/// warm-up window and [`PROBE_WINDOWS`] timed ones. Three threads on two
/// cores and real file I/O: read its numbers as this sandbox's.
fn production_probe(
    report: &mut Report,
    fact: &Fact,
    budget_bytes: usize,
    script: &[Item],
    groups: usize,
    oracle: &Oracle<'_>,
) -> Res<()> {
    let rows = fact.rows();
    let mut db = Database::new();
    db.set_memory_budget(budget_bytes, ReplacementPolicy::Sieve)?;
    db.register(fact_relation("fact", fact_columns(fact, rows))?)?;
    let paged = db.paged_relation("fact")?.clone();
    let mut problems = Vec::new();
    let mut fx = warm_up(
        paged,
        Duration::ZERO,
        &mut SetupClock::default(),
        script,
        groups,
        oracle,
        &mut problems,
    );
    let before = fx.pool().stats();
    let mut quiet = Tracer::new(false);
    let windows: Vec<Window> = (0..PROBE_WINDOWS)
        .map(|_| window(&mut fx, script, &mut quiet))
        .collect();
    let pool = minus(fx.pool().stats(), before);
    problems.append(&mut fx.verifier.mismatches);
    for p in problems {
        report.problem(format!("production probe: {p}"));
    }
    let p50: Vec<f64> = windows.iter().map(|w| w.quantile_ms(0.5)).collect();
    report.layer("pager.prefetch_on_p50_ms", crate::stats::median(&p50));
    report.layer(
        "pager.prefetch_hit_frac",
        pool.prefetch_hits as f64 / pool.prefetch_loads.max(1) as f64,
    );
    report.layer(
        "pager.prefetch_wasted_per_query",
        pool.prefetch_wasted as f64 / (PROBE_WINDOWS * script.len()) as f64,
    );
    report.note(
        "production_probe_pool",
        J::obj([
            ("hits", J::Int(pool.hits as i64)),
            ("misses", J::Int(pool.misses as i64)),
            ("disk_reads", J::Int(pool.disk_reads as i64)),
            ("prefetch_loads", J::Int(pool.prefetch_loads as i64)),
            ("prefetch_hits", J::Int(pool.prefetch_hits as i64)),
            ("prefetch_wasted", J::Int(pool.prefetch_wasted as i64)),
        ]),
    );
    Ok(())
}

fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    fact: &Fact,
    fx: &Fixture,
    windows: &[Window],
    traced_qps: &[f64],
) -> Res<()> {
    let paged = fx.paged();
    let pool = fx.pool();
    let rows = paged.len();
    let secs = |name: &str| tracer.self_time(name).self_ns as f64 / 1e9;
    let per = |name: &str| tracer.self_time(name).count.max(1) as f64;

    let captures = per("core.paged_group_by");
    report.layer(
        "core.paged_groupby_mrows_per_s",
        rows as f64 * captures / 1e6 / secs("core.paged_group_by").max(1e-9),
    );
    report.layer(
        "lineage.finalize_medges_per_s",
        rows as f64 * captures / 1e6 / secs("lineage.finalize").max(1e-9),
    );
    report.layer(
        "lineage.compressed_spill_medges_per_s",
        tracer.counter("lineage.spilled_edges") as f64
            / 1e6
            / secs("lineage.compressed_spill").max(1e-9),
    );
    let traced_rids = tracer.counter("bench.traced_rids") as f64;
    report.layer(
        "lineage.compressed_lookup_medges_per_s",
        traced_rids / 1e6 / secs("lineage.compressed_lookup").max(1e-9),
    );
    let compressed = &fx.captured.compressed;
    report.layer(
        "lineage.compressed_ratio",
        compressed.compressed_bytes() as f64 / compressed.raw_bytes() as f64,
    );
    report.layer(
        "lineage.edges_per_query",
        traced_rids / per("bench.request"),
    );
    report.layer(
        "core.consume_agg_mrows_per_s",
        traced_rids / 1e6 / secs("core.consume_aggregate").max(1e-9),
    );
    report.layer(
        "storage.pages_touched_per_query",
        tracer.counter("storage.pages_touched") as f64 / per("bench.request"),
    );
    report.layer(
        "storage.spill_mrows_per_s",
        rows as f64 / 1e6 / fx.spill_secs,
    );

    // A sequential pass over the whole relation, one default chunk at a time.
    let t = best_secs(2, || {
        for start in (0..rows).step_by(DEFAULT_CHUNK_ROWS) {
            drop(paged.chunk(start, (start + DEFAULT_CHUNK_ROWS).min(rows)));
        }
    });
    report.layer("storage.chunk_mrows_per_s", rows as f64 / 1e6 / t);

    // A rid set whose pages fit the pool with room to spare: every 8th row
    // of the first eighth of the table. The sequential pass above left none
    // of it resident, so the first gather is cold and the second warm.
    let set: Vec<Rid> = (0..(rows / 8) as Rid).step_by(8).collect();
    let (_, cold) = timed(|| paged.gather(&set, "probe"));
    let warm = best_secs(3, || drop(paged.gather(&set, "probe")));
    report.layer(
        "storage.gather_cold_ns_per_rid",
        cold.as_secs_f64() * 1e9 / set.len() as f64,
    );
    report.layer(
        "storage.gather_warm_ns_per_rid",
        warm * 1e9 / set.len() as f64,
    );

    // Pin cost: the same 256 resident pages over and over, then a cycle of
    // distinct pages twice the pool's size, where every pin must evict.
    let hot: Vec<PageId> = (0..256.min(pool.capacity() as u32 / 2))
        .map(PageId)
        .collect();
    for &p in &hot {
        drop(pool.pin(p)?);
    }
    let t = best_secs(5, || {
        for _ in 0..40 {
            for &p in &hot {
                drop(pool.pin(p));
            }
        }
    });
    report.layer("pager.pin_hit_ns", t * 1e9 / (40 * hot.len()) as f64);
    let span = (pool.capacity() as u32 * 2).min(paged.total_pages());
    let t = best_secs(2, || {
        for p in 0..span {
            drop(pool.pin(PageId(p)));
        }
    });
    report.layer("pager.pin_miss_us", t * 1e6 / span as f64);

    // Grace-hash join: a build side of a quarter of the table is already
    // 1.5× the pool at 48 bytes a row, so both sides partition to disk.
    let head = rows / 4;
    let head_rel =
        PagedRelation::spill(&fact_relation("fact_head", fact_columns(fact, head))?, pool)?;
    let id = ["id".to_string()];
    let mut partitions = 0;
    let t = best_secs(3, || {
        let join = paged_hash_join(
            &head_rel,
            &head_rel,
            &id,
            &id,
            &JoinOptions::inject(),
            DEFAULT_CHUNK_ROWS,
        );
        partitions = join.map_or(0, |j| j.grace_partitions);
    });
    report.layer("core.paged_join_mrows_per_s", (2 * head) as f64 / 1e6 / t);
    report.layer("core.grace_partitions", partitions as f64);

    // Cost-model honesty: pages EXPLAIN charges the eager strategy for a
    // mid-rank drilldown, over the pages that trace really touches.
    let resident = fact_relation("fact", fact_columns(fact, rows))?;
    let planner =
        LineagePlanner::new(&resident, &fx.captured.output).with_io(IoModel::from_paged(paged));
    let pos = fx.out_of_key[9];
    let rids = fx.captured.compressed.lookup(pos as usize)?;
    let backward = LineageIndex::Csr(fx.captured.compressed.materialize()?);
    let planner = planner.backward_index(&backward);
    let query = LineageQuery::backward()
        .rids([pos])
        .filter(Expr::col("v_bin").eq(Expr::lit(3)))
        .aggregate(&["v_bin"], bin_aggs().to_vec());
    let est = planner
        .explain(&query)?
        .candidate_pages(Strategy::EagerTrace)
        .unwrap_or(0.0);
    let touched = paged.pages_touched(&rids) * 2;
    report.layer(
        "planner.est_pages_over_touched",
        est / touched.max(1) as f64,
    );
    report.note(
        "est_vs_touched_pages",
        J::obj([
            ("explain_eager", J::Num(est)),
            ("touched", J::Int(touched as i64)),
        ]),
    );
    super::trace_overhead(report, windows, traced_qps);
    Ok(())
}
