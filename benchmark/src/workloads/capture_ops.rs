//! `capture_ops` — one thread, everything resident.
//!
//! *Why:* `smoke-core` operators and `smoke-lineage` writes and reads do all
//! the work; planner, server and pager do none. An operator or index
//! representation change shows here and must not move `serve_mix`.
//!
//! Capture phase: interleaved repetitions of group-by Baseline/Inject/Defer
//! and select Baseline/Inject over the 2 M-row fact table, and of hash join
//! Baseline/Inject and the SPJA plan σ(v<90) → ⋈ dim → γ region through
//! `Executor` Baseline/Inject over its first quarter (`fact_head`: a join
//! materialises every column of every output row, and a full-size pass would
//! leave room for only a handful of repetitions per run); every instrumented
//! result is finalized inside the timed region.
//! Trace phase: a script of index lookups against what capture left behind.

use std::time::{Duration, Instant};

use smoke_core::ops::groupby::{group_by, GroupByOptions};
use smoke_core::ops::join::{hash_join, JoinOptions};
use smoke_core::ops::select::{select, SelectOptions};
use smoke_core::{
    par_group_by, par_select, AggExpr, CaptureMode, Executor, Expr, LogicalPlan, ParallelOptions,
    PlanBuilder, QueryOutput,
};
use smoke_lineage::{compose_backward, CaptureStats, InputLineage, LineageIndex};
use smoke_storage::kernels::cmp_col_lit;
use smoke_storage::{Column, DataType, Database, Field, KernelCmp, Relation, Schema, Value};

use super::{
    best_secs, budget, describe_inputs, fact_columns, fact_relation, out_rids, take_lineage, timed,
    trace_phase, Res,
};
use crate::gen::{Dim, Fact, Fnv64, REGIONS};
use crate::harness::{
    repeat_setup, repeat_until, summarize_capture, summarize_trace, Answer, Args, CaptureItem,
    Intent, Miss, SetupClock, Verifier, Window,
};
use crate::oracle::Oracle;
use crate::report::Report;
use crate::script::{self, Class, Item, Query, Shape};
use crate::stats::{self, Better};
use crate::trace::Tracer;

const ROWS: usize = 2_000_000;
/// `fact_head` holds the first `rows / HEAD_DIV` rows of `fact`.
const HEAD_DIV: usize = 4;
const GROUPS: usize = 1_000;
/// Share of `--seconds` spent in the capture phase; the rest traces.
const CAPTURE_SHARE: f64 = 0.55;
/// Base rids per forward query.
const FORWARD_WIDTH: usize = 256;
/// Queries per trace window: 10 % wide, 15 % brush, 60 % forward, 15 % region.
/// Brush cost follows the Zipf rank drawn, so it is spread over a decade and
/// cannot hold a percentile still; forward queries all do the same 256
/// lookups and are the cheapest class, so at 60 % of the script they own
/// every rank up to the 60th percentile and the median sits mid-plateau.
const SCRIPT: [(Class, usize); 4] = [
    (Class::Wide, 60),
    (Class::Forward, 360),
    (Class::Brush, 90),
    (Class::Region, 90),
];
/// Hottest rank a brush may name: rank 2 costs half a wide trace, which a
/// noisy window can close; rank 3 costs a third.
const NARROW_MIN_RANK: usize = 3;
const INTENT: Intent = Intent {
    p50: &[Class::Forward],
    p95: &[Class::Wide],
};

const ITEMS: [(&str, bool); 9] = [
    ("groupby_base", false),
    ("groupby_inject", true),
    ("groupby_defer", true),
    ("select_base", false),
    ("select_inject", true),
    ("join_base", false),
    ("join_inject", true),
    ("plan_base", false),
    ("plan_inject", true),
];

fn dim_relation(columns: Vec<Column>) -> Res<Relation> {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("region", DataType::Int),
    ])?;
    Ok(Relation::from_columns("dim", schema, columns)?)
}

fn load(fact: Vec<Column>, head: Vec<Column>, dim: Vec<Column>) -> Res<Database> {
    let mut db = Database::new();
    db.register(fact_relation("fact", fact)?)?;
    db.register(fact_relation("fact_head", head)?)?;
    db.register(dim_relation(dim)?)?;
    Ok(db)
}

/// What one capture repetition leaves for the trace phase.
struct Captured {
    by_z: Relation,
    by_z_lineage: InputLineage,
    by_z_stats: CaptureStats,
    plan: QueryOutput,
}

struct Fixture {
    db: Database,
    captured: Captured,
    /// Output rid of each `z` key in `by_z`, and of each region in the plan.
    out_of_key: Vec<u32>,
    out_of_region: Vec<u32>,
    verifier: Verifier,
}

struct Ops {
    keys: Vec<String>,
    aggs: Vec<AggExpr>,
    narrow: Expr,
    dim_key: Vec<String>,
    fact_key: Vec<String>,
    plan: LogicalPlan,
}

impl Ops {
    fn new() -> Self {
        Ops {
            keys: vec!["z".to_string()],
            aggs: vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
            narrow: Expr::col("v").lt(Expr::lit(10.0)),
            dim_key: vec!["id".to_string()],
            fact_key: vec!["z".to_string()],
            plan: PlanBuilder::scan("dim")
                .join(
                    PlanBuilder::scan("fact_head").select(Expr::col("v").lt(Expr::lit(90.0))),
                    &["id"],
                    &["z"],
                )
                .group_by(
                    &["region"],
                    vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")],
                )
                .build(),
        }
    }
}

/// One pass over the nine capture items. `sink` receives each item's wall
/// time; everything an item allocates is dropped after its clock stops.
fn capture_rep(
    db: &Database,
    ops: &Ops,
    tracer: &mut Tracer,
    rep: u32,
    mut sink: impl FnMut(usize, Duration),
) -> Res<Captured> {
    let fact = db.relation("fact")?;
    let head = db.relation("fact_head")?;
    let dim = db.relation("dim")?;
    let mut slot = 0;
    let mut done = |d: Duration| {
        sink(slot, d);
        slot += 1;
    };

    let (r, d) = timed(|| {
        tracer.span("core.group_by", rep, || {
            group_by(fact, &ops.keys, &ops.aggs, &GroupByOptions::baseline())
        })
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| -> Res<_> {
        let mut r = tracer.span("core.group_by", rep, || {
            group_by(fact, &ops.keys, &ops.aggs, &GroupByOptions::inject())
        })?;
        let lineage = tracer.span("lineage.finalize", rep, || {
            take_lineage(&mut r.lineage, 0).finalize()
        });
        tracer.count(
            "lineage.finalize_edges",
            lineage.backward().edge_count() as u64,
        );
        Ok((r.output, lineage, r.stats))
    });
    done(d);
    let (by_z, by_z_lineage, by_z_stats) = r?;

    let (r, d) = timed(|| -> Res<_> {
        let mut r = tracer.span("core.group_by", rep, || {
            group_by(fact, &ops.keys, &ops.aggs, &GroupByOptions::defer())
        })?;
        Ok((take_lineage(&mut r.lineage, 0).finalize(), r.output))
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| {
        tracer.span("core.select", rep, || {
            select(fact, &ops.narrow, &SelectOptions::baseline())
        })
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| -> Res<_> {
        let mut r = tracer.span("core.select", rep, || {
            select(fact, &ops.narrow, &SelectOptions::inject())
        })?;
        Ok((take_lineage(&mut r.lineage, 0).finalize(), r.output))
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| {
        tracer.span("core.hash_join", rep, || {
            hash_join(
                dim,
                head,
                &ops.dim_key,
                &ops.fact_key,
                &JoinOptions::baseline(),
            )
        })
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| -> Res<_> {
        let mut r = tracer.span("core.hash_join", rep, || {
            hash_join(
                dim,
                head,
                &ops.dim_key,
                &ops.fact_key,
                &JoinOptions::inject(),
            )
        })?;
        let sides = (
            take_lineage(&mut r.lineage, 0).finalize(),
            take_lineage(&mut r.lineage, 1).finalize(),
        );
        Ok((sides, r.output))
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| {
        tracer.span("core.executor", rep, || {
            Executor::new(CaptureMode::Baseline).execute(&ops.plan, db)
        })
    });
    done(d);
    drop(r?);

    let (r, d) = timed(|| -> Res<_> {
        let mut out = tracer.span("core.executor", rep, || {
            Executor::new(CaptureMode::Inject).execute(&ops.plan, db)
        })?;
        out.lineage = tracer.span("lineage.finalize", rep, || {
            std::mem::take(&mut out.lineage).finalize()
        });
        let edges = out
            .lineage
            .table("fact_head")
            .map_or(0, |l| l.backward().edge_count());
        tracer.count("lineage.finalize_edges", edges as u64);
        Ok(out)
    });
    done(d);
    let plan = r?;

    Ok(Captured {
        by_z,
        by_z_lineage,
        by_z_stats,
        plan,
    })
}

/// Runs one script query against the captured indexes; returns the reply
/// and the time inside the lineage calls.
fn run_query(fx: &Fixture, item: &Item, tracer: &mut Tracer, req: u32) -> (Vec<u32>, Duration) {
    let lineage = &fx.captured.by_z_lineage;
    let start = Instant::now();
    let reply = match &item.query {
        Query::Backward { key } => {
            let pos = fx.out_of_key[*key as usize];
            tracer.span("lineage.trace_set", req, || {
                lineage.backward().trace_set(&[pos])
            })
        }
        Query::Forward { rids } => tracer.span("lineage.lookup", req, || {
            let forward = lineage.forward();
            let mut out = Vec::with_capacity(rids.len());
            for &rid in rids {
                out.extend(forward.lookup(rid));
            }
            out
        }),
        Query::Region { region } => {
            let pos = fx.out_of_region[*region as usize];
            tracer.span("lineage.trace_set", req, || {
                fx.captured.plan.lineage.backward(&[pos], "fact_head")
            })
        }
        other => unreachable!("capture_ops scripts hold no {other:?}"),
    };
    let elapsed = start.elapsed();
    if tracer.enabled() {
        match &item.query {
            Query::Forward { rids } => tracer.count("lineage.lookups", rids.len() as u64),
            _ => tracer.count("lineage.traced_edges", reply.len() as u64),
        }
        tracer.count("bench.queries", 1);
    }
    (reply, elapsed)
}

fn expected(oracle: &Oracle<'_>, regions: &[Vec<u32>], fx: &Fixture, query: &Query) -> Vec<u32> {
    match query {
        Query::Backward { key } => oracle.backward(*key).to_vec(),
        Query::Forward { rids } => rids
            .iter()
            .map(|&r| fx.out_of_key[oracle.forward(r) as usize])
            .collect(),
        Query::Region { region } => regions[*region as usize].clone(),
        other => unreachable!("capture_ops scripts hold no {other:?}"),
    }
}

fn window(fx: &mut Fixture, script: &[Item], tracer: &mut Tracer) -> Window {
    let mut w = Window::default();
    for (idx, item) in script.iter().enumerate() {
        let (reply, latency) = run_query(fx, item, tracer, idx as u32);
        let got = Answer {
            rids: &reply,
            rows: None,
        };
        let ok = fx.verifier.check(idx, item, &got);
        w.record(
            item.class,
            latency,
            if ok { Ok(()) } else { Err(Miss::Wrong) },
        );
    }
    w.close();
    w
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Res<()> {
    let rows = args.rows(ROWS);
    let groups = args.groups(GROUPS, rows);
    let fact = Fact::generate(rows, groups, args.seed);
    let dim = Dim::generate(groups, args.seed);
    let mut print = Fnv64::default();
    fact.fingerprint(&mut print);
    dim.fingerprint(&mut print);
    describe_inputs(report, print, rows, groups);

    let head = rows / HEAD_DIV;
    let oracle = Oracle::new(&fact);
    let region_sets: Vec<Vec<u32>> = (0..REGIONS as u8)
        .map(|r| oracle.region(&dim, r, head))
        .collect();
    // A region trace must stay well below the wide class, or p95 would
    // straddle two classes: only regions at most half as heavy are queried.
    let wide_len = oracle.backward(0).len();
    let regions: Vec<u8> = (0..REGIONS as u8)
        .filter(|&r| {
            let n = region_sets[r as usize].len();
            n > 0 && n * 2 <= wide_len
        })
        .collect();
    let script = script::build(
        &Shape {
            counts: &SCRIPT,
            groups,
            rows,
            narrow_min_rank: NARROW_MIN_RANK,
            forward_width: FORWARD_WIDTH,
            regions: &regions,
        },
        args.seed,
    );
    let ops = Ops::new();

    let mut problems = Vec::new();
    let mut fx = repeat_setup(report, |clock: &mut SetupClock| -> Fixture {
        let columns = (
            fact_columns(&fact, rows),
            fact_columns(&fact, head),
            vec![Column::Int(dim.id.clone()), Column::Int(dim.region.clone())],
        );
        let db = clock
            .segment("load", || load(columns.0, columns.1, columns.2))
            .expect("load");
        let captured = capture_rep(&db, &ops, &mut Tracer::new(false), 0, |_, took| {
            clock.add("warmup_capture", took)
        })
        .expect("warm-up capture");
        let out_of_key = out_rids(&captured.by_z, "z", groups).expect("by_z keys");
        let out_of_region =
            out_rids(&captured.plan.relation, "region", REGIONS as usize).expect("regions");
        let mut fx = Fixture {
            db,
            captured,
            out_of_key,
            out_of_region,
            verifier: Verifier::new(script.len()),
        };
        // Warm-up window: every reply compared rid-for-rid with the oracle.
        let mut quiet = Tracer::new(false);
        for (idx, item) in script.iter().enumerate() {
            let (reply, latency) = run_query(&fx, item, &mut quiet, idx as u32);
            clock.add("warmup_trace", latency);
            let want = expected(&oracle, &region_sets, &fx, &item.query);
            let (got, want) = (
                Answer {
                    rids: &reply,
                    rows: None,
                },
                Answer {
                    rids: &want,
                    rows: None,
                },
            );
            fx.verifier.learn(idx, item, &got, &want);
        }
        problems.append(&mut fx.verifier.mismatches);
        fx
    });
    // The aggregates the program computed must agree with brute force too.
    for key in 0..groups as u32 {
        let pos = fx.out_of_key[key as usize];
        let want: (i64, f64) = oracle
            .bins(oracle.backward(key))
            .iter()
            .fold((0, 0.0), |a, b| (a.0 + b.1, a.1 + b.2));
        if pos == u32::MAX {
            problems.push(format!("by_z has no row for key {key}"));
            break;
        }
        let got = (
            fx.captured.by_z.value(pos as usize, 1),
            fx.captured.by_z.value(pos as usize, 2),
        );
        if got != (Value::Int(want.0), Value::Float(want.1)) {
            problems.push(format!(
                "by_z row of key {key}: got {got:?}, oracle says {want:?}"
            ));
            break;
        }
    }

    // Capture phase.
    let item_rows = |name: &str| {
        if name.starts_with("join") || name.starts_with("plan") {
            head + groups
        } else {
            rows
        }
    };
    let mut items: Vec<CaptureItem> = ITEMS
        .iter()
        .map(|&(name, inst)| CaptureItem::new(name, item_rows(name), inst))
        .collect();
    repeat_until(budget(args, CAPTURE_SHARE), |rep| {
        capture_rep(&fx.db, &ops, tracer, rep as u32, |slot, d| {
            items[slot].secs.push(d.as_secs_f64())
        })
        .map(drop)
    })?;
    summarize_capture(report, &items);

    let (windows, traced_qps) = trace_phase(budget(args, 1.0 - CAPTURE_SHARE), tracer, |t| {
        window(&mut fx, &script, t)
    });
    let traced = tracer.enabled();
    problems.append(&mut fx.verifier.mismatches);
    for p in problems {
        report.problem(p);
    }
    summarize_trace(report, &windows, &INTENT);

    // Bytes of every finalized artifact the trace phase reads, per edge.
    let read: [&LineageIndex; 3] = [
        fx.captured.by_z_lineage.backward(),
        fx.captured.by_z_lineage.forward(),
        fx.captured
            .plan
            .lineage
            .table("fact_head")
            .ok_or("plan lineage of fact_head")?
            .backward(),
    ];
    let bytes: usize = read.iter().map(|i| i.heap_bytes()).sum();
    let edges: usize = read.iter().map(|i| i.edge_count()).sum();
    report.e2e("lineage_bytes_per_edge", bytes as f64 / edges as f64);

    if traced {
        layer_metrics(report, tracer, &ops, &items, &fx, &windows, &traced_qps)?;
    }
    Ok(())
}

/// The layer metrics this workload exercises: `core`, `lineage`, and the
/// comparison kernel of `storage`. Planner, server and pager stay at 0.
fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    ops: &Ops,
    items: &[CaptureItem],
    fx: &Fixture,
    windows: &[Window],
    traced_qps: &[f64],
) -> Res<()> {
    let fact = fx.db.relation("fact")?;
    let rows = fact.len();
    for item in items {
        report.layer(
            &format!("core.{}_mrows_per_s", item.name),
            item.mrows_per_s(),
        );
    }
    let best = |name: &str| {
        let item = items.iter().find(|i| i.name == name).expect("known item");
        stats::best(&item.secs, Better::Lower)
    };
    let inject: f64 = [
        "groupby_inject",
        "select_inject",
        "join_inject",
        "plan_inject",
    ]
    .iter()
    .map(|n| best(n))
    .sum();
    let base: f64 = ["groupby_base", "select_base", "join_base", "plan_base"]
        .iter()
        .map(|n| best(n))
        .sum();
    report.layer("core.capture_overhead_x", inject / base);

    // Diagnostic only: two workers on two shared cores (ROADMAP 3a).
    let par = ParallelOptions::new(2);
    let t = best_secs(3, || {
        drop(par_group_by(
            fact,
            &ops.keys,
            &ops.aggs,
            &GroupByOptions::inject(),
            &par,
        ))
    });
    report.layer("core.par_groupby_dop2_mrows_per_s", rows as f64 / 1e6 / t);
    let t = best_secs(3, || {
        drop(par_select(
            fact,
            &ops.narrow,
            &SelectOptions::inject(),
            &par,
        ))
    });
    report.layer("core.par_select_dop2_mrows_per_s", rows as f64 / 1e6 / t);
    let v = fact.column_by_name("v")?;
    let t = best_secs(3, || {
        drop(cmp_col_lit(v, KernelCmp::Lt, &Value::Float(10.0)))
    });
    report.layer("storage.kernel_cmp_mrows_per_s", rows as f64 / 1e6 / t);

    // compose: γ z over σ(v<90), composed back to base rids.
    let mut sel = select(
        fact,
        &Expr::col("v").lt(Expr::lit(90.0)),
        &SelectOptions::inject(),
    )?;
    let sel_lineage = take_lineage(&mut sel.lineage, 0).finalize();
    let mut gb = group_by(&sel.output, &ops.keys, &ops.aggs, &GroupByOptions::inject())?;
    let gb_lineage = take_lineage(&mut gb.lineage, 0).finalize();
    let t = best_secs(3, || {
        drop(compose_backward(
            gb_lineage.backward(),
            sel_lineage.backward(),
        ))
    });
    report.layer(
        "lineage.compose_medges_per_s",
        gb_lineage.backward().edge_count() as f64 / 1e6 / t,
    );

    let secs = |name: &str| tracer.self_time(name).self_ns as f64 / 1e9;
    report.layer(
        "lineage.finalize_medges_per_s",
        tracer.counter("lineage.finalize_edges") as f64 / 1e6 / secs("lineage.finalize").max(1e-9),
    );
    report.layer(
        "lineage.rid_resizes_per_mrow",
        fx.captured.by_z_stats.rid_resizes as f64 / (rows as f64 / 1e6),
    );
    let backward = fx.captured.by_z_lineage.backward();
    report.layer(
        "lineage.csr_bytes_per_edge",
        backward.heap_bytes() as f64 / backward.edge_count() as f64,
    );
    report.layer(
        "lineage.backward_medges_per_s",
        tracer.counter("lineage.traced_edges") as f64 / 1e6 / secs("lineage.trace_set").max(1e-9),
    );
    report.layer(
        "lineage.forward_lookup_ns",
        secs("lineage.lookup") * 1e9 / tracer.counter("lineage.lookups").max(1) as f64,
    );
    report.layer(
        "lineage.edges_per_query",
        tracer.counter("lineage.traced_edges") as f64
            / tracer.counter("bench.queries").max(1) as f64,
    );
    super::trace_overhead(report, windows, traced_qps);
    Ok(())
}
