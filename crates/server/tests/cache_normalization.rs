//! The result cache keys on *normalized* queries: semantically equivalent
//! requests hit one entry, distinct requests miss.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use smoke_core::{AggExpr, Expr};
use smoke_planner::wire::QuerySpec;
use smoke_planner::Strategy;
use smoke_server::protocol::{read_frame, write_frame, ErrorCode};
use smoke_server::{demo_snapshot, Client, Reply, Request, Server, ServerConfig};

/// Equivalent query spellings — permuted/duplicated rid sets, flipped
/// comparison operands, reordered conjunctions — produce one miss and then
/// only hits; a genuinely different query misses again.
#[test]
fn equivalent_queries_share_a_cache_entry() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let spellings = [
        QuerySpec::backward()
            .rids([3, 1, 2])
            .filter(Expr::col("v_bin").eq(Expr::lit(2))),
        QuerySpec::backward()
            .rids([1, 2, 3, 3, 1])
            .filter(Expr::col("v_bin").eq(Expr::lit(2))),
        QuerySpec::backward()
            .rids([2, 3, 1])
            .filter(Expr::lit(2).eq(Expr::col("v_bin"))),
    ];
    let baseline = handle.stats();
    let first = client
        .query("by_z", spellings[0].clone())
        .expect("exchange")
        .into_result()
        .expect("query result");
    for spelling in &spellings[1..] {
        let reply = client
            .query("by_z", spelling.clone())
            .expect("exchange")
            .into_result()
            .expect("query result");
        // Byte-identical caching implies result-identical replies.
        assert_eq!(reply.rids, first.rids);
        assert_eq!(reply.strategy, first.strategy);
    }
    let after = handle.stats();
    assert_eq!(after.cache_misses - baseline.cache_misses, 1);
    assert_eq!(after.cache_hits - baseline.cache_hits, 2);

    // A different rid set is a different key.
    client
        .query("by_z", QuerySpec::backward().rids([1, 2]))
        .expect("exchange")
        .into_result()
        .expect("query result");
    let distinct = handle.stats();
    assert_eq!(distinct.cache_misses - after.cache_misses, 1);

    // Same normalized query on a *different view* is also a different key.
    client
        .query("by_bin", QuerySpec::backward().rids([1, 2, 3]))
        .expect("exchange")
        .into_result()
        .expect("query result");
    let other_view = handle.stats();
    assert_eq!(other_view.cache_misses - distinct.cache_misses, 1);
    handle.shutdown();
}

/// Mirrored inequalities normalize to the same key (`5 < x` ≡ `x > 5`).
#[test]
fn mirrored_inequalities_hit() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let a = QuerySpec::backward()
        .rids([0])
        .filter(Expr::lit(5).lt(Expr::col("v")));
    let b = QuerySpec::backward()
        .rids([0])
        .filter(Expr::col("v").gt(Expr::lit(5)));
    assert_eq!(a.cache_key(), b.cache_key());

    let baseline = handle.stats();
    client
        .query("by_z", a)
        .expect("exchange")
        .into_result()
        .expect("query result");
    client
        .query("by_z", b)
        .expect("exchange")
        .into_result()
        .expect("query result");
    let after = handle.stats();
    assert_eq!(after.cache_misses - baseline.cache_misses, 1);
    assert_eq!(after.cache_hits - baseline.cache_hits, 1);
    handle.shutdown();
}

/// With the cache disabled (capacity 0) every request executes; replies stay
/// correct and counters record only misses.
#[test]
fn zero_capacity_cache_still_serves_correctly() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let config = ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let handle = Server::serve(Arc::clone(&snapshot), "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");

    let spec = QuerySpec::backward().rids([0]);
    let expected = snapshot.execute("by_z", &spec).expect("reference");
    for _ in 0..3 {
        let got = client
            .query("by_z", spec.clone())
            .expect("exchange")
            .into_result()
            .expect("query result");
        assert_eq!(got.rids, expected.rids);
    }
    let stats = handle.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 3);
    handle.shutdown();
}

/// The reply a miss encodes is the body the cache keeps: the hit after it
/// sends the same bytes.
#[test]
fn a_hit_sends_the_bytes_its_miss_sent() {
    let snapshot = Arc::new(demo_snapshot(1_000, 20, 21).expect("demo snapshot"));
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let request = Request::Query {
        view: "by_z".into(),
        spec: QuerySpec::backward().rids([0, 1, 2]),
        sleep_ms: 0,
    }
    .encode();
    let mut exchange = || {
        write_frame(&mut stream, &request).expect("send");
        read_frame(&mut stream).expect("read").expect("a reply")
    };
    let miss = exchange();
    let hit = exchange();
    assert!(miss.contains("\"rids\""), "{miss}");
    assert_eq!(hit, miss);
    let stats = handle.shutdown();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
}

/// Sends `specs` in order on one connection to a fresh server over
/// `demo_snapshot(2000, 10, 7)`, returning every reply.
fn replies_on_one_connection(specs: &[&QuerySpec]) -> Vec<Reply> {
    let snapshot = Arc::new(demo_snapshot(2_000, 10, 7).expect("demo snapshot"));
    let handle = Server::serve(snapshot, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let replies = specs
        .iter()
        .map(|&spec| client.query("by_z", spec.clone()).expect("exchange"))
        .collect();
    handle.shutdown();
    replies
}

/// A duplicated rid set has the cache key of its deduplicated form, so it
/// must plan the same query: `[3, 3]` and `[3]` both answer from the cube,
/// whichever reaches the cache first.
#[test]
fn duplicate_rids_plan_the_query_their_key_names() {
    let snapshot = demo_snapshot(2_000, 10, 7).expect("demo snapshot");
    let aggs = vec![AggExpr::count("cnt"), AggExpr::sum("v", "total")];
    let one = QuerySpec::backward()
        .rids([3])
        .aggregate(&["v_bin"], aggs.clone());
    let dup = QuerySpec::backward()
        .rids([3, 3])
        .aggregate(&["v_bin"], aggs);
    assert_eq!(one.cache_key(), dup.cache_key());
    let expected = snapshot.execute("by_z", &one).expect("reference");
    assert_eq!(expected.strategy, Strategy::CubeHit);
    let in_process = snapshot.execute("by_z", &dup).expect("duplicated rids");
    assert_eq!(in_process.strategy, expected.strategy);
    assert_eq!(in_process.rows, expected.rows);

    for order in [[&dup, &one], [&one, &dup]] {
        for reply in replies_on_one_connection(&order) {
            let got = reply.into_result().expect("query result");
            assert_eq!(got.strategy, expected.strategy);
            assert_eq!(got.rids, expected.rids);
            assert_eq!(got.rows, expected.rows);
        }
    }
}

/// A `Str` in boolean position is a compile-time type error, so both operand
/// orders of one conjunction — the same cache key — are the same `exec`
/// error, in either arrival order.
#[test]
fn both_operand_orders_are_the_same_typed_error() {
    let z_neg = Expr::col("z").lt(Expr::lit(0));
    let first = QuerySpec::backward()
        .rids([3])
        .filter(z_neg.clone().and(Expr::lit("x")));
    let second = QuerySpec::backward()
        .rids([3])
        .filter(Expr::lit("x").and(z_neg));
    assert_eq!(first.cache_key(), second.cache_key());
    for order in [[&first, &second], [&second, &first]] {
        for reply in replies_on_one_connection(&order) {
            assert!(
                matches!(
                    reply,
                    Reply::Error {
                        code: ErrorCode::Exec,
                        ..
                    }
                ),
                "{reply:?}"
            );
        }
    }
}
