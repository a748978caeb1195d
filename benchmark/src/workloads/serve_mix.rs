//! `serve_mix` — `Server::serve` on a loopback port, driven by exactly
//! `nproc` = 2 closed-loop `Client` threads, each replaying its own script.
//!
//! *Why:* frame I/O, JSON encode/decode, the result cache and the queue
//! hand-off dominate; it is the only workload with concurrency and cache
//! hits. One client would be worse, not simpler: with a single closed-loop
//! caller the wake-up latency of an idle server dominates and the rate
//! wanders by more than 10 % between runs.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use smoke_planner::json::parse;
use smoke_planner::wire::{result_from_json, result_to_json, QuerySpec};
use smoke_planner::LineageResult;
use smoke_server::protocol::{ok_response, Request};
use smoke_server::{
    Client, QueryCache, Reply, Server, ServerConfig, ServerHandle, ServerStats, Snapshot,
};
use smoke_storage::Relation;

use super::views::{self, Built, BY_Z};
use super::{budget, describe_inputs, fact_columns, fact_relation, timed, trace_phase, Res};
use crate::gen::{Fact, Fnv64};
use crate::harness::{
    repeat_setup, summarize_capture, summarize_trace, Answer, Args, CaptureItem, Intent, Miss,
    SetupClock, Verifier, Window,
};
use crate::oracle::Oracle;
use crate::report::{Report, J};
use crate::script::{self, Class, Item, Shape};
use crate::stats::{self, Better};
use crate::trace::Tracer;

const ROWS: usize = 1_000_000;
/// 100 groups: rank 1 holds ≈ 193 k rids, ≈ 1.5 MiB of JSON per wide reply.
const GROUPS: usize = 100;
const CLIENTS: usize = 2;
const CAPTURE_SHARE: f64 = 0.25;
const CONFIG: ServerConfig = ServerConfig {
    workers: 2,
    queue_depth: 64,
    cache_capacity: 256,
};
/// Per client: 10 wide / 20 brush / 10 linked / 20 crossfilter / 10 drilldown
/// / 30 forward. `QueryMix`'s classes, but with the wide class fixed at 10 %
/// and forward — the one narrow class whose cost does not depend on what it
/// names — wide enough (percentiles 40–70) for p50 to sit in its middle.
const SCRIPT: [(Class, usize); 6] = [
    (Class::Wide, 40),
    (Class::Brush, 80),
    (Class::Linked, 40),
    (Class::Crossfilter, 80),
    (Class::Drilldown, 40),
    (Class::Forward, 120),
];
/// Hottest rank a narrow query may name: a rank-2 reply is half a wide one,
/// which a noisy window can close; rank 3 is a third.
const NARROW_MIN_RANK: usize = 3;
const INTENT: Intent = Intent {
    p50: &[
        Class::Brush,
        Class::Crossfilter,
        Class::Drilldown,
        Class::Forward,
        Class::Linked,
    ],
    p95: &[Class::Wide],
};

/// One client's script with its wire queries and its checker.
struct Lane {
    script: Vec<Item>,
    specs: Vec<QuerySpec>,
    verifier: Verifier,
}

struct Fixture {
    table: Relation,
    /// Output rid in `by_z` of each `z` key.
    out_of_key: Vec<u32>,
    snapshot: Arc<Snapshot>,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    lanes: Vec<Lane>,
    lineage_bytes: usize,
    lineage_edges: usize,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn classify(reply: std::io::Result<Reply>) -> Result<LineageResult, Miss> {
    match reply {
        Ok(Reply::Result(r)) => Ok(r),
        Ok(Reply::Busy(_)) => Err(Miss::Shed),
        _ => Err(Miss::Error),
    }
}

/// One client's pass over its script. `check` is the oracle comparison
/// during the warm-up and the fingerprint comparison in timed passes; it runs
/// after the query's clock has stopped.
fn replay(
    client: &mut Client,
    lane: &mut Lane,
    tracer: &mut Tracer,
    mut check: impl FnMut(usize, &Item, &LineageResult, &mut Verifier) -> bool,
) -> Window {
    let mut w = Window::default();
    for idx in 0..lane.script.len() {
        let item = &lane.script[idx];
        let spec = lane.specs[idx].clone();
        let start = Instant::now();
        let reply = tracer.span("server.client_query", idx as u32, || {
            client.query(BY_Z, spec)
        });
        let latency = start.elapsed();
        let verdict = classify(reply).and_then(|result| {
            if check(idx, item, &result, &mut lane.verifier) {
                Ok(())
            } else {
                Err(Miss::Wrong)
            }
        });
        w.record(item.class, latency, verdict);
    }
    w.close();
    w
}

fn check_fingerprint(
    idx: usize,
    item: &Item,
    result: &LineageResult,
    verifier: &mut Verifier,
) -> bool {
    views::answer(result).is_ok_and(|got| verifier.check(idx, item, &got))
}

/// All clients replay their scripts at once; returns the merged window and
/// each client's spans.
fn window(fx: &mut Fixture, tracer: &mut Tracer) -> Window {
    let barrier = Barrier::new(fx.clients.len());
    let parts: Vec<(Window, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = fx
            .clients
            .iter_mut()
            .zip(fx.lanes.iter_mut())
            .map(|(client, lane)| {
                let mut local = tracer.fork();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let w = replay(client, lane, &mut local, check_fingerprint);
                    (w, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut windows = Vec::new();
    for (w, local) in parts {
        windows.push(w);
        tracer.merge(local);
    }
    Window::merge(windows)
}

fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        served: after.served - before.served,
        shed: after.shed - before.shed,
        errors: after.errors - before.errors,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        in_flight: after.in_flight,
    }
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Res<()> {
    let rows = args.rows(ROWS);
    let groups = args.groups(GROUPS, rows);
    let fact = Fact::generate(rows, groups, args.seed);
    let mut print = Fnv64::default();
    fact.fingerprint(&mut print);
    describe_inputs(report, print, rows, groups);
    report.env.push(("clients".into(), J::Int(CLIENTS as i64)));
    report
        .env
        .push(("server_workers".into(), J::Int(CONFIG.workers as i64)));
    report.env.push((
        "cache_capacity".into(),
        J::Int(CONFIG.cache_capacity as i64),
    ));
    let oracle = Oracle::new(&fact);
    let scripts: Vec<Vec<Item>> = (0..CLIENTS as u64)
        .map(|lane| {
            script::build(
                &Shape {
                    counts: &SCRIPT,
                    groups,
                    rows,
                    narrow_min_rank: NARROW_MIN_RANK,
                    forward_width: 1,
                    regions: &[],
                },
                args.seed.wrapping_mul(1_000_003).wrapping_add(lane),
            )
        })
        .collect();

    let mut problems = Vec::new();
    let mut fx = repeat_setup(report, |clock: &mut SetupClock| -> Fixture {
        let columns = fact_columns(&fact, rows);
        let table = clock
            .segment("load", || fact_relation("fact", columns))
            .expect("load");
        let built: Built = clock
            .segment("build_snapshot", || {
                views::build(&table, groups, &mut Tracer::new(false))
            })
            .expect("snapshot");
        let (lineage_bytes, lineage_edges) = (built.lineage_bytes, built.lineage_edges);
        let mut lanes: Vec<Lane> = scripts
            .iter()
            .map(|script| Lane {
                script: script.clone(),
                specs: script
                    .iter()
                    .map(|i| views::spec(i, &built.out_of_key))
                    .collect(),
                verifier: Verifier::new(script.len()),
            })
            .collect();
        let (out_of_key, out_of_bin) = (built.out_of_key, built.out_of_bin);
        let (server, snapshot, mut clients) = clock.segment("serve_and_connect", || {
            let snapshot = Arc::new(built.snapshot);
            let server =
                Server::serve(Arc::clone(&snapshot), "127.0.0.1:0", CONFIG).expect("bind loopback");
            let clients: Vec<Client> = (0..CLIENTS)
                .map(|_| Client::connect(server.addr()).expect("connect"))
                .collect();
            (server, snapshot, clients)
        });
        // Warm-up window, one client after the other so the oracle work of
        // one does not sit on the other's core; only query time counts.
        for (client, lane) in clients.iter_mut().zip(lanes.iter_mut()) {
            let learn = |idx: usize, item: &Item, result: &LineageResult, v: &mut Verifier| {
                let (rids, rows) =
                    views::expected(&oracle, item, &out_of_key, &out_of_bin, result.strategy);
                match views::answer(result) {
                    Ok(got) => v.learn(idx, item, &got, &Answer { rids: &rids, rows }),
                    Err(e) => {
                        v.mismatches.push(format!("query {idx}: {e}"));
                        false
                    }
                }
            };
            let w = replay(client, lane, &mut Tracer::new(false), learn);
            for sample in &w.samples {
                clock.add(
                    "warmup_trace",
                    std::time::Duration::from_secs_f64(sample.0 / 1e3),
                );
            }
            if w.failed() > 0 && lane.verifier.mismatches.is_empty() {
                problems.push(format!("warm-up: {} errors, {} shed", w.errors, w.shed));
            }
            problems.append(&mut lane.verifier.mismatches);
        }
        Fixture {
            table,
            out_of_key,
            snapshot,
            server: Some(server),
            clients,
            lanes,
            lineage_bytes,
            lineage_edges,
        }
    });

    // Capture phase: repetitions of the snapshot build.
    let (items, assemble_ms) =
        views::capture_phase(&fx.table, groups, budget(args, CAPTURE_SHARE), tracer)?;
    summarize_capture(report, &items);

    let before = fx.server.as_ref().expect("server").stats();
    let (windows, traced_qps) = trace_phase(budget(args, 1.0 - CAPTURE_SHARE), tracer, |t| {
        window(&mut fx, t)
    });
    let traced = tracer.enabled();
    let served = delta(fx.server.as_ref().expect("server").stats(), before);
    for lane in &mut fx.lanes {
        problems.append(&mut lane.verifier.mismatches);
    }
    for p in problems {
        report.problem(p);
    }
    summarize_trace(report, &windows, &INTENT);
    report.e2e(
        "lineage_bytes_per_edge",
        fx.lineage_bytes as f64 / fx.lineage_edges as f64,
    );
    report.note(
        "server_counters",
        J::obj([
            ("served", J::Int(served.served as i64)),
            ("shed", J::Int(served.shed as i64)),
            ("errors", J::Int(served.errors as i64)),
            ("cache_hits", J::Int(served.cache_hits as i64)),
            ("cache_misses", J::Int(served.cache_misses as i64)),
            ("cache_evictions", J::Int(served.cache_evictions as i64)),
        ]),
    );

    if traced {
        layer_metrics(
            report,
            tracer,
            &items,
            &assemble_ms,
            &mut fx,
            served,
            &windows,
            &traced_qps,
        )?;
    }
    Ok(())
}

fn median_us(mut f: impl FnMut() -> Res<()>, n: usize) -> Res<f64> {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let (r, d) = timed(&mut f);
        r?;
        us.push(d.as_secs_f64() * 1e6);
    }
    Ok(stats::median(&us))
}

/// The server's request path for one query, run in-process with a span per
/// stage: request decode → cache key → cache get → (miss: plan, execute,
/// encode, insert) → the client's reply decode.
fn inproc_request(
    snapshot: &Snapshot,
    cache: &QueryCache,
    spec: &QuerySpec,
    tracer: &mut Tracer,
    req: u32,
) -> Res<usize> {
    let request = Request::Query {
        view: BY_Z.to_string(),
        spec: spec.clone(),
        sleep_ms: 0,
    };
    tracer.enter("bench.inproc_request", req);
    let body = tracer.span("server.request_encode", req, || request.encode());
    let decoded = tracer.span("server.request_decode", req, || Request::decode(&body))?;
    let Request::Query { view, spec, .. } = decoded else {
        return Err("request did not decode to a query".into());
    };
    let key = tracer.span("planner.cache_key", req, || {
        format!("q:{view}:{}", spec.cache_key())
    });
    let response = match tracer.span("server.cache_get", req, || cache.get(&key)) {
        Some(hit) => hit,
        None => {
            let result = tracer.span("planner.plan_execute", req, || {
                snapshot.execute(&view, &spec)
            })?;
            let encoded = tracer.span("planner.result_encode", req, || {
                ok_response("result", result_to_json(&result))
            });
            tracer.span("server.cache_insert", req, || {
                cache.insert(&key, encoded.clone())
            });
            encoded
        }
    };
    tracer.span("planner.reply_decode", req, || -> Res<()> {
        let v = parse(&response)?;
        result_from_json(v.get("result").ok_or("reply carries no result")?)?;
        Ok(())
    })?;
    tracer.exit();
    Ok(response.len())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    tracer: &mut Tracer,
    items: &[CaptureItem],
    assemble_ms: &[f64],
    fx: &mut Fixture,
    served: ServerStats,
    windows: &[Window],
    traced_qps: &[f64],
) -> Res<()> {
    report.layer("core.groupby_workload_mrows_per_s", items[0].mrows_per_s());
    report.layer(
        "server.build_snapshot_ms",
        stats::best(assemble_ms, Better::Lower),
    );
    let lookups = (served.cache_hits + served.cache_misses).max(1) as f64;
    let requests = (served.served + served.shed + served.errors).max(1) as f64;
    report.layer("server.cache_hit_frac", served.cache_hits as f64 / lookups);
    report.layer(
        "server.cache_evictions_per_kquery",
        served.cache_evictions as f64 / lookups * 1e3,
    );
    report.layer("server.shed_frac", served.shed as f64 / requests);
    report.layer("server.error_frac", served.errors as f64 / requests);

    // Wire floor and cached / uncached round trips, one client, idle server.
    let client = &mut fx.clients[0];
    let crossfilter = fx.lanes[0]
        .script
        .iter()
        .find(|i| i.class == Class::Crossfilter)
        .ok_or("no crossfilter")?;
    let cold_spec = views::spec(crossfilter, &fx.out_of_key);
    report.layer(
        "server.stats_rtt_us",
        median_us(|| client.stats().map(drop).map_err(Into::into), 200)?,
    );
    report.layer(
        "server.explain_rtt_us",
        median_us(
            || {
                client
                    .explain(BY_Z, cold_spec.clone())
                    .map(drop)
                    .map_err(Into::into)
            },
            200,
        )?,
    );
    // 100 forward queries over rid pairs no script uses: the first pass
    // misses the cache, the second (same queries, cache holds 256) hits.
    let rows = fx.table.len() as u32;
    let probes: Vec<QuerySpec> = (0..100u32)
        .map(|i| QuerySpec::forward().rids([rows - 1 - 2 * i, rows - 2 - 2 * i]))
        .collect();
    for metric in ["server.miss_rtt_us", "server.hit_rtt_us"] {
        let mut us = Vec::new();
        for spec in &probes {
            let (reply, d) = timed(|| client.query(BY_Z, spec.clone()));
            classify(reply).map_err(|m| format!("probe query failed: {m:?}"))?;
            us.push(d.as_secs_f64() * 1e6);
        }
        report.layer(metric, stats::median(&us));
    }

    // One client against a fresh server, and the same script through the
    // same stages in-process with a fresh cache: the hit/miss sequence is
    // identical, so the difference is what the stages do not explain —
    // frame I/O, syscalls, the queue hand-off and thread wake-ups.
    let lane = &fx.lanes[0];
    let mut live_us = Vec::new();
    let mut inproc_us = Vec::new();
    let mut reply_bytes = 0usize;
    for _ in 0..3 {
        let server = Server::serve(Arc::clone(&fx.snapshot), "127.0.0.1:0", CONFIG)?;
        let mut solo = Client::connect(server.addr())?;
        let mut total = 0.0;
        for spec in &lane.specs {
            let spec = spec.clone();
            let (reply, d) = timed(|| solo.query(BY_Z, spec));
            classify(reply).map_err(|m| format!("solo query failed: {m:?}"))?;
            total += d.as_secs_f64() * 1e6;
        }
        live_us.push(total / lane.specs.len() as f64);
        drop(solo);
        server.shutdown();

        let cache = QueryCache::new(CONFIG.cache_capacity);
        let (bytes, d) = timed(|| -> Res<usize> {
            let mut bytes = 0;
            for (idx, spec) in lane.specs.iter().enumerate() {
                bytes += inproc_request(&fx.snapshot, &cache, spec, tracer, idx as u32)?;
            }
            Ok(bytes)
        });
        reply_bytes = bytes?;
        inproc_us.push(d.as_secs_f64() * 1e6 / lane.specs.len() as f64);
    }
    let live = stats::best(&live_us, Better::Lower);
    let inproc = stats::best(&inproc_us, Better::Lower);
    report.layer("server.unexplained_us", live - inproc);
    report.layer(
        "server.reply_kib_per_query",
        reply_bytes as f64 / 1024.0 / lane.specs.len() as f64,
    );
    let stage_us = |name: &str| {
        let st = tracer.self_time(name);
        st.self_ns as f64 / 1e3 / st.count.max(1) as f64
    };
    report.layer("server.cache_get_us", stage_us("server.cache_get"));
    report.layer("server.cache_insert_us", stage_us("server.cache_insert"));
    report.layer("planner.cache_key_us", stage_us("planner.cache_key"));
    report.layer("planner.spec_decode_us", stage_us("server.request_decode"));
    report.note(
        "serve_decomposition_us",
        J::obj([
            ("one_client_mean", J::Num(live)),
            ("inproc_stage_sum", J::Num(inproc)),
            ("unexplained", J::Num(live - inproc)),
            ("one_client_mean_runs", J::nums(&live_us)),
            ("inproc_stage_sum_runs", J::nums(&inproc_us)),
        ]),
    );

    // Encode / decode rate on the reply that matters: the wide one.
    let wide = fx
        .snapshot
        .execute(BY_Z, &QuerySpec::backward().rids([fx.out_of_key[0]]))?;
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut len = 0;
    for _ in 0..5 {
        let (text, d) = timed(|| result_to_json(&wide).render());
        enc.push(d.as_secs_f64());
        len = text.len();
        let (r, d) = timed(|| -> Res<()> {
            result_from_json(&parse(&text)?)?;
            Ok(())
        });
        r?;
        dec.push(d.as_secs_f64());
    }
    let mib = len as f64 / (1 << 20) as f64;
    report.layer(
        "planner.result_encode_mib_per_s",
        mib / stats::best(&enc, Better::Lower),
    );
    report.layer(
        "planner.result_decode_mib_per_s",
        mib / stats::best(&dec, Better::Lower),
    );
    super::trace_overhead(report, windows, traced_qps);
    Ok(())
}
